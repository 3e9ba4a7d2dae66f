package distrib

import (
	"context"
	"math"
	"math/rand/v2"
	"sort"
	"sync"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/graph"
)

// TestPartitionEdgeCases pins the documented domain of the reference
// splitter: every boundary condition either partitions cleanly or
// errors, never silently misassigns.
func TestPartitionEdgeCases(t *testing.T) {
	cases := []struct {
		name        string
		n, machines int
		want        []int // nil means error expected
	}{
		{"even split", 10, 2, []int{1, 6}},
		{"uneven split", 10, 3, []int{1, 5, 8}},
		{"single machine", 5, 1, []int{1}},
		{"one vertex one machine", 1, 1, []int{1}},
		{"machines == n", 4, 4, []int{1, 2, 3, 4}},
		{"machines > n", 2, 3, nil},
		{"zero machines", 5, 0, nil},
		{"negative machines", 5, -2, nil},
		{"empty graph", 0, 1, nil},
		{"empty graph many machines", 0, 4, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			starts, err := Partition(c.n, c.machines)
			if c.want == nil {
				if err == nil {
					t.Fatalf("Partition(%d, %d) = %v, want error", c.n, c.machines, starts)
				}
				return
			}
			if err != nil {
				t.Fatalf("Partition(%d, %d): %v", c.n, c.machines, err)
			}
			if len(starts) != len(c.want) {
				t.Fatalf("starts = %v, want %v", starts, c.want)
			}
			for i := range c.want {
				if starts[i] != c.want[i] {
					t.Fatalf("starts = %v, want %v", starts, c.want)
				}
			}
			if err := graph.ValidateStarts(c.n, starts); err != nil {
				t.Errorf("Partition produced invalid starts: %v", err)
			}
		})
	}
}

// TestCostAwareBalances: with skewed costs the cost-aware planner moves
// the boundary the blind splitter would misplace.
func TestCostAwareBalances(t *testing.T) {
	// chain of 8; vertex 1 carries half the total work
	ng, err := graph.Chain(8).Number()
	if err != nil {
		t.Fatal(err)
	}
	costs := []float64{7, 1, 1, 1, 1, 1, 1, 1}
	starts, err := CostAware{}.Plan(ng, costs, 2)
	if err != nil {
		t.Fatal(err)
	}
	loads := graph.StageLoads(starts, costs)
	if loads[0] != 7 || loads[1] != 7 {
		t.Errorf("cost-aware loads = %v (starts %v), want perfectly balanced [7 7]", loads, starts)
	}
	// the blind splitter puts 4 vertices per stage: loads 10 vs 4
	blind, _ := Contiguous{}.Plan(ng, costs, 2)
	blindLoads := graph.StageLoads(blind, costs)
	if blindLoads[0] <= loads[0] {
		t.Errorf("blind loads %v not worse than cost-aware %v — test workload too easy", blindLoads, loads)
	}
}

// TestCostAwareMinimizesCuts: among balanced partitions the planner
// prefers the one severing fewer edges.
func TestCostAwareMinimizesCuts(t *testing.T) {
	// Two 4-cliques of uniform cost joined by a single edge: the only
	// 2-stage partition with one cut edge is the clique boundary.
	g := graph.New()
	a := make([]int, 4)
	b := make([]int, 4)
	for i := range a {
		a[i] = g.AddVertices(1)
	}
	for i := range b {
		b[i] = g.AddVertices(1)
	}
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			g.MustEdge(a[i], a[j])
			g.MustEdge(b[i], b[j])
		}
	}
	g.MustEdge(a[3], b[0])
	ng, err := g.Number()
	if err != nil {
		t.Fatal(err)
	}
	starts, err := CostAware{Slack: 0.5}.Plan(ng, graph.UniformCosts(8), 2)
	if err != nil {
		t.Fatal(err)
	}
	if cut := graph.CutEdges(ng, starts); cut != 1 {
		t.Errorf("cost-aware cut %d edges at %v, want 1 (the clique bridge)", cut, starts)
	}
}

// TestCostAwareValidation: planner input errors are reported, not
// mispartitioned.
func TestCostAwareValidation(t *testing.T) {
	ng, _ := graph.Chain(4).Number()
	if _, err := (CostAware{}).Plan(ng, []float64{1, 1}, 2); err == nil {
		t.Error("short cost vector accepted")
	}
	if _, err := (CostAware{}).Plan(ng, []float64{1, -1, 1, 1}, 2); err == nil {
		t.Error("negative cost accepted")
	}
	if _, err := (CostAware{}).Plan(ng, []float64{1, math.Inf(1), 1, 1}, 2); err == nil {
		t.Error("infinite cost accepted")
	}
	if _, err := (CostAware{}).Plan(ng, graph.UniformCosts(4), 5); err == nil {
		t.Error("machines > n accepted")
	}
}

// TestCostAwarePlansAreValid fuzzes the planner across random DAGs,
// skews and machine counts: every plan must be a valid starts vector
// whose bottleneck is no worse than the blind splitter's.
func TestCostAwarePlansAreValid(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 5))
	for trial := 0; trial < 25; trial++ {
		n := 5 + rng.IntN(40)
		ng, err := graph.RandomConnected(n, 0.1, rng).Number()
		if err != nil {
			t.Fatal(err)
		}
		costs := make([]float64, n)
		for i := range costs {
			costs[i] = float64(1 + rng.IntN(9))
		}
		for _, machines := range []int{1, 2, 3, 4} {
			if machines > n {
				continue
			}
			starts, err := CostAware{}.Plan(ng, costs, machines)
			if err != nil {
				t.Fatalf("trial %d machines %d: %v", trial, machines, err)
			}
			if err := graph.ValidateStarts(n, starts); err != nil {
				t.Fatalf("trial %d machines %d: invalid plan %v: %v", trial, machines, starts, err)
			}
			if len(starts) != machines {
				t.Fatalf("trial %d: %d stages for %d machines", len(starts), machines, machines)
			}
			blind, _ := Contiguous{}.Plan(ng, costs, machines)
			worst := func(s []int) float64 {
				max := 0.0
				for _, l := range graph.StageLoads(s, costs) {
					if l > max {
						max = l
					}
				}
				return max
			}
			// Slack tolerates 10% over the optimum; the blind bottleneck
			// is ≥ the optimum, so cost-aware must stay within 1.1× of it.
			if w, bw := worst(starts), worst(blind); w > bw*1.1+1e-9 {
				t.Errorf("trial %d machines %d: cost-aware bottleneck %.1f vs blind %.1f", trial, machines, w, bw)
			}
		}
	}
}

// mix for deterministic module behavior (same pattern as core tests).
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// recSink records (phase, value) pairs; used at global sinks to compare
// the partitioned run against the sequential oracle.
type recSink struct {
	mu  sync.Mutex
	log []struct {
		p int
		v int64
	}
}

func (r *recSink) Step(ctx *core.Context) {
	if v, ok := ctx.FirstIn(); ok {
		i, _ := v.AsInt()
		r.mu.Lock()
		r.log = append(r.log, struct {
			p int
			v int64
		}{ctx.Phase(), i})
		r.mu.Unlock()
	}
}

// buildWorkload returns a layered graph with deterministic sparse
// modules and recording sinks, fresh per call.
func buildWorkload(t *testing.T, seed uint64) (*graph.Numbered, []core.Module, []*recSink) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, seed^7))
	ng, err := graph.Layered(5, 4, 2, rng).Number()
	if err != nil {
		t.Fatal(err)
	}
	mods := make([]core.Module, ng.N())
	var sinks []*recSink
	for v := 1; v <= ng.N(); v++ {
		v := v
		switch {
		case ng.IsSource(v):
			mods[v-1] = core.StepFunc(func(ctx *core.Context) {
				h := mix(seed ^ uint64(v)<<32 ^ uint64(ctx.Phase()))
				if h%4 != 0 { // fire 75% of phases
					ctx.EmitAll(event.Int(int64(h)))
				}
			})
		case ng.IsSink(v):
			rs := &recSink{}
			sinks = append(sinks, rs)
			mods[v-1] = rs
		default:
			state := int64(0)
			mods[v-1] = core.StepFunc(func(ctx *core.Context) {
				if ctx.InCount() == 0 {
					return
				}
				for pt := 0; pt < ctx.Ports(); pt++ {
					if val, ok := ctx.In(pt); ok {
						i, _ := val.AsInt()
						state = int64(mix(uint64(state) ^ uint64(i)))
					}
				}
				ctx.EmitAll(event.Int(state))
			})
		}
	}
	return ng, mods, sinks
}

func sinkLogsEqual(a, b []*recSink) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i].log) != len(b[i].log) {
			return false
		}
		for j := range a[i].log {
			if a[i].log[j] != b[i].log[j] {
				return false
			}
		}
	}
	return true
}

// equivalencePlanners is the planner set the equivalence sweeps cover:
// the reference splitter plus cost-aware at both default and loose
// slack (different slacks pick different boundaries, so the link layer
// is exercised on several distinct cuts).
func equivalencePlanners() []Planner {
	return []Planner{Contiguous{}, CostAware{}, CostAware{Slack: 0.75}}
}

// TestPartitionedMatchesSequential: the partitioned multi-machine run
// produces the same sink histories as the sequential oracle, across
// machine counts and across every planner.
func TestPartitionedMatchesSequential(t *testing.T) {
	const phases = 80
	batches := make([][]core.ExtInput, phases)
	for _, seed := range []uint64{1, 99} {
		ngRef, modsRef, sinksRef := buildWorkload(t, seed)
		if _, err := baseline.Sequential(ngRef, modsRef, batches); err != nil {
			t.Fatal(err)
		}
		for _, planner := range equivalencePlanners() {
			for _, machines := range []int{1, 2, 3, 5} {
				ng, mods, sinks := buildWorkload(t, seed)
				st, err := Run(context.Background(), RunConfig{Graph: ng, Mods: mods, Batches: batches, Dist: Config{
					Machines: machines, WorkersPerMachine: 2, MaxInFlight: 8, Buffer: 4,
					Planner: planner,
				}})
				if err != nil {
					t.Fatalf("%s machines=%d: %v", planner.Name(), machines, err)
				}
				if !sinkLogsEqual(sinksRef, sinks) {
					t.Fatalf("seed=%d %s machines=%d: sink histories differ from sequential", seed, planner.Name(), machines)
				}
				if len(st.PerMachine) != machines {
					t.Errorf("stats for %d machines", len(st.PerMachine))
				}
				if st.Planner != planner.Name() {
					t.Errorf("stats report planner %q", st.Planner)
				}
				if err := graph.ValidateStarts(ng.N(), st.Starts); err != nil {
					t.Errorf("reported starts invalid: %v", err)
				}
				if machines > 1 && st.CrossEdges == 0 {
					t.Errorf("%s machines=%d: no cross edges in layered graph partition", planner.Name(), machines)
				}
				if machines == 1 && (st.CrossEdges != 0 || st.CrossMessages != 0 || len(st.Links) != 0) {
					t.Errorf("single machine has cross traffic: %+v", st)
				}
			}
		}
	}
}

// TestEquivalenceSweepPlannerOutputs is the deterministic-seed sweep
// over planner outputs: random connected DAGs with skewed costs, every
// planner, machines up to 4 — each plan's partitioned run must match
// the sequential oracle exactly.
func TestEquivalenceSweepPlannerOutputs(t *testing.T) {
	const phases = 40
	batches := make([][]core.ExtInput, phases)
	for _, seed := range []uint64{7, 21, 1234} {
		build := func() (*graph.Numbered, []core.Module, []*recSink) {
			rng := rand.New(rand.NewPCG(seed, seed*3))
			ng, err := graph.RandomConnected(24, 0.12, rng).Number()
			if err != nil {
				t.Fatal(err)
			}
			mods := make([]core.Module, ng.N())
			var sinks []*recSink
			for v := 1; v <= ng.N(); v++ {
				v := v
				switch {
				case ng.IsSource(v):
					mods[v-1] = core.StepFunc(func(ctx *core.Context) {
						h := mix(seed ^ uint64(v)<<24 ^ uint64(ctx.Phase()))
						if h%3 != 0 {
							ctx.EmitAll(event.Int(int64(h)))
						}
					})
				case ng.IsSink(v):
					rs := &recSink{}
					sinks = append(sinks, rs)
					mods[v-1] = rs
				default:
					acc := int64(v)
					mods[v-1] = core.StepFunc(func(ctx *core.Context) {
						if ctx.InCount() == 0 {
							return
						}
						for pt := 0; pt < ctx.Ports(); pt++ {
							if val, ok := ctx.In(pt); ok {
								i, _ := val.AsInt()
								acc = int64(mix(uint64(acc) + uint64(i)))
							}
						}
						ctx.EmitAll(event.Int(acc))
					})
				}
			}
			return ng, mods, sinks
		}
		ngRef, modsRef, sinksRef := build()
		if _, err := baseline.Sequential(ngRef, modsRef, batches); err != nil {
			t.Fatal(err)
		}
		// skewed cost estimate: hash-derived, deterministic per seed
		costs := make([]float64, ngRef.N())
		for i := range costs {
			costs[i] = float64(1 + mix(seed+uint64(i))%8)
		}
		for _, planner := range equivalencePlanners() {
			for _, machines := range []int{2, 3, 4} {
				ng, mods, sinks := build()
				st, err := Run(context.Background(), RunConfig{Graph: ng, Mods: mods, Batches: batches, Dist: Config{
					Machines: machines, WorkersPerMachine: 2, MaxInFlight: 6, Buffer: 2,
					Planner: planner, Costs: costs,
				}})
				if err != nil {
					t.Fatalf("seed=%d %s machines=%d: %v", seed, planner.Name(), machines, err)
				}
				if !sinkLogsEqual(sinksRef, sinks) {
					t.Fatalf("seed=%d %s machines=%d (starts %v): diverged from sequential",
						seed, planner.Name(), machines, st.Starts)
				}
				if want := graph.CutEdges(ngRef, st.Starts); st.CrossEdges != want {
					t.Errorf("CrossEdges = %d, CutEdges(starts) = %d", st.CrossEdges, want)
				}
			}
		}
	}
}

// TestPartitionedChain: a chain split across machines exercises the
// portal/bridge path for every edge on the cut.
func TestPartitionedChain(t *testing.T) {
	const n, phases = 9, 40
	mk := func() (*graph.Numbered, []core.Module, *recSink) {
		ng, _ := graph.Chain(n).Number()
		mods := make([]core.Module, n)
		mods[0] = core.StepFunc(func(ctx *core.Context) {
			if ctx.Phase()%3 != 0 { // silent every third phase
				ctx.EmitAll(event.Int(int64(ctx.Phase())))
			}
		})
		for i := 1; i < n-1; i++ {
			mods[i] = core.StepFunc(func(ctx *core.Context) {
				if v, ok := ctx.FirstIn(); ok {
					x, _ := v.AsInt()
					ctx.EmitAll(event.Int(x + 1))
				}
			})
		}
		rs := &recSink{}
		mods[n-1] = rs
		return ng, mods, rs
	}
	batches := make([][]core.ExtInput, phases)
	ngRef, modsRef, rsRef := mk()
	if _, err := baseline.Sequential(ngRef, modsRef, batches); err != nil {
		t.Fatal(err)
	}
	ng, mods, rs := mk()
	st, err := Run(context.Background(), RunConfig{Graph: ng, Mods: mods, Batches: batches, Dist: Config{Machines: 3, WorkersPerMachine: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if st.CrossEdges != 2 {
		t.Errorf("chain over 3 machines cut %d edges, want 2", st.CrossEdges)
	}
	if len(st.Links) != 2 {
		t.Errorf("chain over 3 machines has %d links, want 2", len(st.Links))
	}
	for _, ls := range st.Links {
		if ls.Frames != phases {
			t.Errorf("link %d->%d carried %d frames, want one per phase (%d)", ls.From, ls.To, ls.Frames, phases)
		}
	}
	if len(rs.log) != len(rsRef.log) {
		t.Fatalf("sink saw %d values, oracle %d", len(rs.log), len(rsRef.log))
	}
	for i := range rs.log {
		if rs.log[i] != rsRef.log[i] {
			t.Fatalf("entry %d: %+v vs %+v", i, rs.log[i], rsRef.log[i])
		}
	}
	// 2/3 of phases have a value traversing both cuts
	if st.CrossMessages == 0 {
		t.Error("no cross messages on chain")
	}
}

// TestPartitionedExternalInputs: external inputs reach sources on any
// machine.
func TestPartitionedExternalInputs(t *testing.T) {
	// two sources feeding one sink; with 2 machines the second half is
	// remote from one of the sources.
	g := graph.New()
	s1 := g.AddVertex("s1")
	s2 := g.AddVertex("s2")
	mid := g.AddVertex("mid")
	sink := g.AddVertex("sink")
	g.MustEdge(s1, mid)
	g.MustEdge(s2, mid)
	g.MustEdge(mid, sink)
	ng, _ := g.Number()
	relay := func() core.Module {
		return core.StepFunc(func(ctx *core.Context) {
			if ctx.InCount() == 0 {
				return
			}
			var sum int64
			for p := 0; p < ctx.Ports(); p++ {
				if v, ok := ctx.In(p); ok {
					x, _ := v.AsInt()
					sum += x
				}
			}
			ctx.EmitAll(event.Int(sum))
		})
	}
	rs := &recSink{}
	mods := []core.Module{relay(), relay(), relay(), rs}
	batches := [][]core.ExtInput{
		{{Vertex: 1, Port: 0, Val: event.Int(10)}, {Vertex: 2, Port: 0, Val: event.Int(5)}},
		{{Vertex: 2, Port: 0, Val: event.Int(7)}},
	}
	if _, err := Run(context.Background(), RunConfig{Graph: ng, Mods: mods, Batches: batches, Dist: Config{Machines: 2, WorkersPerMachine: 1}}); err != nil {
		t.Fatal(err)
	}
	if len(rs.log) != 2 {
		t.Fatalf("sink log = %+v", rs.log)
	}
	if rs.log[0].v != 15 {
		t.Errorf("phase 1 sum = %d, want 15", rs.log[0].v)
	}
	// phase 2: mid remembers s1=10? No: mid is stateless sum of *changed*
	// inputs only → s2's 7 alone.
	if rs.log[1].v != 7 {
		t.Errorf("phase 2 sum = %d, want 7", rs.log[1].v)
	}
}

// fixedPlanner returns a predetermined partition — the harness for
// pinning plan-shape-specific behavior.
type fixedPlanner struct{ starts []int }

func (f fixedPlanner) Name() string { return "fixed" }
func (f fixedPlanner) Plan(g *graph.Numbered, costs []float64, machines int) ([]int, error) {
	return f.starts, nil
}

// TestCrossPortOrderMatchesSequential pins the assemble ordering fix:
// when a consumer has both a local-source predecessor and a remote
// one, the bridge must take the port its (lower-numbered) global
// source held in the sequential run. The seed's real-vertices-first
// construction numbered the local source ahead of the bridge and
// folded the consumer's inputs in inverted order — a divergence no
// stock planner's partitions happened to expose until the rebalancer
// started cutting measured-cost plans mid-run.
func TestCrossPortOrderMatchesSequential(t *testing.T) {
	// v1(src) -> v3, v2(src) -> v3; the fixed plan [1 | 2 3] makes v1
	// remote and v2 a local source of v3's machine.
	g := graph.New()
	a := g.AddVertex("s1")
	b := g.AddVertex("s2")
	w := g.AddVertex("w")
	g.MustEdge(a, w)
	g.MustEdge(b, w)
	ng, err := g.Number()
	if err != nil {
		t.Fatal(err)
	}
	mk := func() ([]core.Module, *recSink) {
		rs := &recSink{}
		concat := func(tag int64) core.Module {
			return core.StepFunc(func(ctx *core.Context) { ctx.EmitAll(event.Int(tag)) })
		}
		fold := core.StepFunc(func(ctx *core.Context) {
			// Fold ports in order with a non-commutative mix, then
			// forward through FirstIn-style recording.
			acc := int64(0)
			for p := 0; p < ctx.Ports(); p++ {
				if v, ok := ctx.In(p); ok {
					i, _ := v.AsInt()
					acc = acc*1000 + i
				}
			}
			rs.mu.Lock()
			rs.log = append(rs.log, struct {
				p int
				v int64
			}{ctx.Phase(), acc})
			rs.mu.Unlock()
		})
		return []core.Module{concat(1), concat(2), fold}, rs
	}
	batches := make([][]core.ExtInput, 3)
	modsRef, rsRef := mk()
	if _, err := baseline.Sequential(ng, modsRef, batches); err != nil {
		t.Fatal(err)
	}
	mods, rs := mk()
	if _, err := Run(context.Background(), RunConfig{Graph: ng, Mods: mods, Batches: batches, Dist: Config{
		Machines: 2, WorkersPerMachine: 1, Planner: fixedPlanner{[]int{1, 2}},
	}}); err != nil {
		t.Fatal(err)
	}
	if !sinkLogsEqual([]*recSink{rsRef}, []*recSink{rs}) {
		t.Fatalf("fold order diverged: partitioned %+v, sequential %+v (port inversion)", rs.log, rsRef.log)
	}
	// The oracle fold is 1*1000+2 = 1002 every phase; pin it so the test
	// can never pass vacuously.
	for _, e := range rsRef.log {
		if e.v != 1002 {
			t.Fatalf("oracle fold = %d, want 1002", e.v)
		}
	}
}

func TestRunValidation(t *testing.T) {
	ng, _ := graph.Chain(3).Number()
	mods := []core.Module{bridge{}, bridge{}}
	if _, err := Run(context.Background(), RunConfig{Graph: ng, Mods: mods, Batches: nil, Dist: Config{Machines: 1}}); err == nil {
		t.Error("module count mismatch accepted")
	}
	full := []core.Module{bridge{}, bridge{}, bridge{}}
	if _, err := Run(context.Background(), RunConfig{Graph: ng, Mods: full, Batches: nil, Dist: Config{Machines: 4}}); err == nil {
		t.Error("machines > vertices accepted")
	}
	if _, err := Run(context.Background(), RunConfig{Graph: ng, Mods: full, Batches: nil, Dist: Config{Machines: 2, Costs: []float64{1}}}); err == nil {
		t.Error("short cost vector accepted")
	}
}

// TestReplicate: two distinct graphs subscribe to overlapping streams of
// one replicated history and both see their events.
func TestReplicate(t *testing.T) {
	mkReplica := func(name string, streams ...string) (Replica, *recSink) {
		g := graph.New()
		ids := make([]int, len(streams))
		for i := range streams {
			ids[i] = g.AddVertex(streams[i])
		}
		sink := g.AddVertex("sink")
		for _, id := range ids {
			g.MustEdge(id, sink)
		}
		ng, _ := g.Number()
		rs := &recSink{}
		mods := make([]core.Module, ng.N())
		sub := make(map[string]int)
		for i, id := range ids {
			mods[ng.IndexOf(id)-1] = core.StepFunc(func(ctx *core.Context) {
				if v, ok := ctx.FirstIn(); ok {
					ctx.EmitAll(v)
				}
			})
			sub[streams[i]] = ng.IndexOf(id)
		}
		mods[ng.IndexOf(sink)-1] = rs
		return Replica{Name: name, Graph: ng, Modules: mods, Subscribe: sub,
			Config: core.Config{Workers: 2}}, rs
	}
	health, healthSink := mkReplica("public-health", "hospital")
	utility, utilitySink := mkReplica("utility", "grid", "hospital")
	stream := [][]StreamEvent{
		{{Stream: "hospital", Val: event.Int(80)}},
		{{Stream: "grid", Val: event.Int(900)}},
		{{Stream: "hospital", Val: event.Int(95)}, {Stream: "grid", Val: event.Int(1100)}},
	}
	stats, err := Replicate(stream, []Replica{health, utility})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 2 {
		t.Fatalf("stats = %d", len(stats))
	}
	if len(healthSink.log) != 2 { // hospital events only
		t.Errorf("health sink = %+v", healthSink.log)
	}
	// utility sees grid twice + hospital twice, merged per phase at sink:
	// phase 1 (hospital), phase 2 (grid), phase 3 (both → one sink exec,
	// FirstIn takes lowest port). Count sink executions:
	if len(utilitySink.log) != 3 {
		t.Errorf("utility sink = %+v", utilitySink.log)
	}
	phases := make([]int, 0)
	for _, e := range utilitySink.log {
		phases = append(phases, e.p)
	}
	sort.Ints(phases)
	if phases[0] != 1 || phases[2] != 3 {
		t.Errorf("utility phases = %v", phases)
	}
}

func TestReplicateError(t *testing.T) {
	// replica with mismatched module count errors out without hanging
	ng, _ := graph.Chain(2).Number()
	bad := Replica{Name: "bad", Graph: ng, Modules: []core.Module{bridge{}}}
	if _, err := Replicate(nil, []Replica{bad}); err == nil {
		t.Error("bad replica accepted")
	}
}
