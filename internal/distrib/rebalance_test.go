package distrib

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/graph"
	"repro/internal/netwire"
)

// snapMod is a stateful interior module implementing core.Snapshotter:
// it folds inputs into a running hash and forwards it, so any state
// corruption during a handoff round-trip changes every downstream
// value. The spin knob lets drift tests make a vertex expensive
// mid-run.
type snapMod struct {
	state int64
	// spinAfter/spinNs: phases after spinAfter burn ~spinNs of CPU.
	spinAfter int
	spinNs    int64
}

func (m *snapMod) Step(ctx *core.Context) {
	if ctx.InCount() == 0 {
		return
	}
	if m.spinNs > 0 && ctx.Phase() > m.spinAfter {
		t0 := time.Now()
		for time.Since(t0) < time.Duration(m.spinNs) {
		}
	}
	for p := 0; p < ctx.Ports(); p++ {
		if v, ok := ctx.In(p); ok {
			i, _ := v.AsInt()
			m.state = int64(mix(uint64(m.state) ^ uint64(i)))
		}
	}
	ctx.EmitAll(event.Int(m.state))
}

func (m *snapMod) SnapshotState() ([]byte, error) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(m.state))
	return buf[:], nil
}

func (m *snapMod) RestoreState(state []byte) error {
	if len(state) != 8 {
		return fmt.Errorf("snapMod: snapshot of %d bytes, want 8", len(state))
	}
	m.state = int64(binary.LittleEndian.Uint64(state))
	return nil
}

// buildSnapWorkload is buildWorkload with Snapshotter interiors, so an
// epoch switch serializes real state through the transport.
func buildSnapWorkload(t *testing.T, seed uint64) (*graph.Numbered, []core.Module, []*recSink) {
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
				if h%4 != 0 {
					ctx.EmitAll(event.Int(int64(h)))
				}
			})
		case ng.IsSink(v):
			rs := &recSink{}
			sinks = append(sinks, rs)
			mods[v-1] = rs
		default:
			mods[v-1] = &snapMod{state: int64(v)}
		}
	}
	return ng, mods, sinks
}

// TestRebalanceEquivalence: with epoch switches forced every few
// phases, the rebalancing run's sink histories stay bit-identical to
// the sequential oracle and to the non-rebalancing run — over channel
// links and over loopback TCP, for several machine counts. This is the
// acceptance sweep of DESIGN.md §8: the barrier protocol, the state
// handoff and the re-planned topology must all be invisible to the
// computation.
func TestRebalanceEquivalence(t *testing.T) {
	const phases = 60
	batches := make([][]core.ExtInput, phases)
	for _, transport := range []string{"chan", "tcp"} {
		for _, seed := range []uint64{3, 42} {
			ngRef, modsRef, sinksRef := buildSnapWorkload(t, seed)
			if _, err := baseline.Sequential(ngRef, modsRef, batches); err != nil {
				t.Fatal(err)
			}
			for _, machines := range []int{2, 3, 5} {
				name := fmt.Sprintf("%s/seed=%d/machines=%d", transport, seed, machines)
				t.Run(name, func(t *testing.T) {
					ng, mods, sinks := buildSnapWorkload(t, seed)
					cfg := Config{
						Machines: machines, WorkersPerMachine: 2,
						MaxInFlight: 8, Buffer: 4,
					}
					if transport == "tcp" {
						tn, err := NewTCPNetwork()
						if err != nil {
							t.Fatal(err)
						}
						defer tn.Close()
						cfg.Network = tn
					}
					st, err := Run(context.Background(), RunConfig{Graph: ng, Mods: mods, Batches: batches, Dist: cfg}, WithRebalancing(RebalanceConfig{
						ForceEvery:    11,
						MinRemaining:  5,
						MaxRebalances: 4,
					}))
					if err != nil {
						t.Fatal(err)
					}
					if len(st.Rebalances) == 0 {
						t.Fatal("forced rebalancing performed no epoch switch")
					}
					if !sinkLogsEqual(sinksRef, sinks) {
						t.Fatalf("sink histories diverged from sequential after %d rebalances (barriers %v)",
							len(st.Rebalances), barriers(st))
					}
					moved, serialized := 0, 0
					for _, ev := range st.Rebalances {
						if ev.Barrier <= 0 || ev.Barrier >= phases {
							t.Errorf("barrier %d outside the run (1..%d)", ev.Barrier, phases-1)
						}
						if ev.Serialized > ev.Moved {
							t.Errorf("switch at %d serialized %d of %d moved vertices", ev.Barrier, ev.Serialized, ev.Moved)
						}
						if transport == "tcp" && ev.Serialized > 0 && ev.HandoffBytes == 0 {
							t.Errorf("switch at %d serialized %d vertices over tcp with 0 handoff bytes", ev.Barrier, ev.Serialized)
						}
						moved += ev.Moved
						serialized += ev.Serialized
					}
					// Sources and sinks are plain closures that move by
					// reference; the snapMod interiors dominate the graph,
					// so any non-trivial amount of movement must have
					// exercised the serialized handoff path.
					if moved >= 3 && serialized == 0 {
						t.Errorf("%d vertices moved across %d switches, none through the Snapshotter path", moved, len(st.Rebalances))
					}
				})
			}
		}
	}
}

func barriers(st Stats) []int {
	out := make([]int, 0, len(st.Rebalances))
	for _, ev := range st.Rebalances {
		out = append(out, ev.Barrier)
	}
	return out
}

// TestRebalanceDriftTriggers: a vertex whose measured cost explodes
// mid-run must trip the skew monitor — no forced trigger — and the
// re-planned boundaries must shed load from the bottleneck machine,
// with the output still bit-identical to the oracle.
func TestRebalanceDriftTriggers(t *testing.T) {
	if testing.Short() {
		t.Skip("drift trigger needs real measured Step time")
	}
	const n, phases, driftAt = 8, 120, 15
	mk := func() (*graph.Numbered, []core.Module, *recSink) {
		ng, err := graph.Chain(n).Number()
		if err != nil {
			t.Fatal(err)
		}
		mods := make([]core.Module, n)
		mods[0] = core.StepFunc(func(ctx *core.Context) {
			ctx.EmitAll(event.Int(int64(mix(uint64(ctx.Phase())))))
		})
		for i := 1; i < n-1; i++ {
			m := &snapMod{state: int64(i)}
			if i == n-2 {
				// The drifting vertex: free until driftAt, then ~200µs
				// per phase — the last machine becomes the bottleneck.
				m.spinAfter, m.spinNs = driftAt, 200_000
			}
			mods[i] = m
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
	st, err := Run(context.Background(), RunConfig{Graph: ng, Mods: mods, Batches: batches, Dist: Config{
		Machines: 2, WorkersPerMachine: 1, MaxInFlight: 4, Buffer: 2,
	}}, WithRebalancing(RebalanceConfig{
		SkewThreshold:  1.3,
		CheckEvery:     500 * time.Microsecond,
		MinEpochPhases: 4,
		MinRemaining:   4,
		MinSignal:      200 * time.Microsecond,
		MaxRebalances:  2,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.log) != len(rsRef.log) {
		t.Fatalf("sink saw %d values, oracle %d", len(rs.log), len(rsRef.log))
	}
	for i := range rs.log {
		if rs.log[i] != rsRef.log[i] {
			t.Fatalf("entry %d: %+v vs %+v", i, rs.log[i], rsRef.log[i])
		}
	}
	if len(st.Rebalances) == 0 {
		t.Fatal("cost drift never triggered a rebalance")
	}
	ev := st.Rebalances[0]
	if ev.Skew <= 1.3 {
		t.Errorf("recorded trigger skew %.2f not above threshold", ev.Skew)
	}
	// The drifting vertex (index n-1 in the chain numbering) sat on the
	// last machine; the new plan must shrink that machine's range.
	if ev.ToStarts[1] <= ev.FromStarts[1] {
		t.Errorf("replan kept the bottleneck: starts %v -> %v", ev.FromStarts, ev.ToStarts)
	}
}

// TestRebalanceFaultyTransport: the fault injector must survive epoch
// switches — delay and reorder faults leave the rebalancing run
// bit-identical, and a crash planned for a phase inside a later epoch
// still surfaces as the clean injected-crash abort.
func TestRebalanceFaultyTransport(t *testing.T) {
	const phases = 60
	batches := make([][]core.ExtInput, phases)
	seed := uint64(7)

	ngRef, modsRef, sinksRef := buildSnapWorkload(t, seed)
	if _, err := baseline.Sequential(ngRef, modsRef, batches); err != nil {
		t.Fatal(err)
	}

	t.Run("delay+reorder", func(t *testing.T) {
		ng, mods, sinks := buildSnapWorkload(t, seed)
		net := NewFaultyNetwork(nil, FaultPlan{Seed: 99, MaxDelay: 200 * time.Microsecond, ReorderWindow: 3})
		defer net.Close()
		st, err := Run(context.Background(), RunConfig{Graph: ng, Mods: mods, Batches: batches, Dist: Config{
			Machines: 3, WorkersPerMachine: 2, MaxInFlight: 8, Buffer: 4,
			Network: net,
		}}, WithRebalancing(RebalanceConfig{ForceEvery: 14, MinRemaining: 5, MaxRebalances: 3}))
		if err != nil {
			t.Fatal(err)
		}
		if len(st.Rebalances) == 0 {
			t.Fatal("no epoch switch under fault injection")
		}
		if !sinkLogsEqual(sinksRef, sinks) {
			t.Fatalf("faulty transport diverged across %d rebalances", len(st.Rebalances))
		}
	})

	t.Run("crash in later epoch", func(t *testing.T) {
		ng, mods, _ := buildSnapWorkload(t, seed)
		net := NewFaultyNetwork(nil, FaultPlan{CrashAtPhase: 40})
		defer net.Close()
		_, err := Run(context.Background(), RunConfig{Graph: ng, Mods: mods, Batches: batches, Dist: Config{
			Machines: 3, WorkersPerMachine: 2, MaxInFlight: 8, Buffer: 4,
			Network: net,
		}}, WithRebalancing(RebalanceConfig{ForceEvery: 12, MinRemaining: 5, MaxRebalances: 2}))
		if err == nil {
			t.Fatal("crash-at-phase-40 run completed without error")
		}
		if !strings.Contains(err.Error(), "injected crash") {
			t.Fatalf("surfaced error is not the injected crash: %v", err)
		}
	})
}

// stubTransport feeds a scripted frame sequence to a machine's ingress
// and swallows sends — the harness for protocol edge cases.
type stubTransport struct {
	frames []Frame
	at     int
}

func (s *stubTransport) Send(Frame) error { return nil }
func (s *stubTransport) Recv() (Frame, error) {
	if s.at >= len(s.frames) {
		return Frame{}, ErrLinkClosed
	}
	f := s.frames[s.at]
	s.at++
	return f, nil
}
func (s *stubTransport) Close() error     { return nil }
func (s *stubTransport) DrainDiscard()    {}
func (s *stubTransport) Stats() LinkStats { return LinkStats{} }

// twoMachineChain builds a 2-machine deployment over a 2-vertex chain
// at the given epoch, for driving machine 1 against scripted frames.
func twoMachineChain(t *testing.T, epoch int) *Deployment {
	t.Helper()
	ng, err := graph.Chain(2).Number()
	if err != nil {
		t.Fatal(err)
	}
	relay := core.StepFunc(func(ctx *core.Context) {
		if v, ok := ctx.FirstIn(); ok {
			ctx.EmitAll(v)
		}
	})
	d, err := newDeploymentAt(ng, []core.Module{relay, relay}, Config{
		Machines: 1 + 1, WorkersPerMachine: 1, Buffer: 2,
	}, runWindow{epoch: epoch})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestStaleEpochFrameRejected: a frame tagged with another epoch is a
// protocol violation the ingress refuses loudly — the rejection rule
// of DESIGN.md §8's failure-mode table.
func TestStaleEpochFrameRejected(t *testing.T) {
	d := twoMachineChain(t, 2)
	in := map[int]Transport{0: &stubTransport{frames: []Frame{
		{Kind: FrameData, Epoch: 1, Phase: 1},
	}}}
	_, err := d.RunMachine(1, make([][]core.ExtInput, 3), in, nil)
	if err == nil || !strings.Contains(err.Error(), "stale-epoch") {
		t.Fatalf("stale-epoch frame produced %v, want a stale-epoch rejection", err)
	}
}

// TestBarrierProtocolViolations: malformed barrier sequences (wrong
// phase, a partial barrier among several upstreams) abort instead of
// desynchronizing the machines.
func TestBarrierProtocolViolations(t *testing.T) {
	t.Run("barrier at wrong phase", func(t *testing.T) {
		d := twoMachineChain(t, 0)
		in := map[int]Transport{0: &stubTransport{frames: []Frame{
			{Kind: FrameData, Epoch: 0, Phase: 1},
			{Kind: FrameBarrier, Epoch: 0, Phase: 5}, // while starting phase 2
		}}}
		_, err := d.RunMachine(1, make([][]core.ExtInput, 6), in, nil)
		if err == nil || !strings.Contains(err.Error(), "barrier") {
			t.Fatalf("misplaced barrier produced %v", err)
		}
	})
	t.Run("snapshot on a data link", func(t *testing.T) {
		d := twoMachineChain(t, 0)
		in := map[int]Transport{0: &stubTransport{frames: []Frame{
			{Kind: netwire.FrameSnapshot, Epoch: 0, Phase: 1},
		}}}
		_, err := d.RunMachine(1, make([][]core.ExtInput, 3), in, nil)
		if err == nil || !strings.Contains(err.Error(), "unexpected frame kind") {
			t.Fatalf("snapshot on data link produced %v", err)
		}
	})
	t.Run("clean barrier quiesce", func(t *testing.T) {
		d := twoMachineChain(t, 0)
		in := map[int]Transport{0: &stubTransport{frames: []Frame{
			{Kind: FrameData, Epoch: 0, Phase: 1},
			{Kind: FrameData, Epoch: 0, Phase: 2},
			{Kind: FrameBarrier, Epoch: 0, Phase: 2},
		}}}
		st, err := d.RunMachine(1, make([][]core.ExtInput, 6), in, nil)
		if err != nil {
			t.Fatalf("in-band barrier quiesce failed: %v", err)
		}
		if st.PhasesCompleted != 2 {
			t.Errorf("quiesced machine completed %d phases, want 2", st.PhasesCompleted)
		}
	})
}

// TestMultiHeadPauseLiveness: a fan-in whose two sources land on
// different head machines must survive a drift-triggered pause. Head
// 1 is slowed before its gate, so head 0 runs ahead until its egress
// blocks behind machine 2, which waits on head 1's frames. Head 0 has
// then passed its gate for a phase it cannot finish opening: a pause
// that waits for every head to park never returns. The run must
// finish, bit-identical to the oracle, well inside the bound.
func TestMultiHeadPauseLiveness(t *testing.T) {
	const phases = 1500
	build := func() (*graph.Numbered, []core.Module, *[]int64) {
		g := graph.New()
		a, b, c := g.AddVertex("a"), g.AddVertex("b"), g.AddVertex("c")
		g.MustEdge(a, c)
		g.MustEdge(b, c)
		ng, err := g.Number()
		if err != nil {
			t.Fatal(err)
		}
		src := func(salt uint64) core.Module {
			return core.StepFunc(func(ctx *core.Context) {
				ctx.EmitAll(event.Int(int64(mix(salt ^ uint64(ctx.Phase())))))
			})
		}
		var log []int64
		mods := make([]core.Module, 3)
		mods[ng.IndexOf(a)-1] = src(1)
		mods[ng.IndexOf(b)-1] = src(2)
		mods[ng.IndexOf(c)-1] = core.StepFunc(func(ctx *core.Context) {
			// The sink's own cost keeps the measured skew above the
			// threshold, so the drift monitor pauses early and often.
			t0 := time.Now()
			for time.Since(t0) < 20*time.Microsecond {
			}
			sum := int64(ctx.Phase())
			for p := 0; p < ctx.Ports(); p++ {
				if v, ok := ctx.In(p); ok {
					i, _ := v.AsInt()
					sum = int64(mix(uint64(sum) ^ uint64(i)))
				}
			}
			log = append(log, sum)
		})
		return ng, mods, &log
	}
	batches := make([][]core.ExtInput, phases)
	ngRef, modsRef, ref := build()
	if _, err := baseline.Sequential(ngRef, modsRef, batches); err != nil {
		t.Fatal(err)
	}

	headGateHook = func(machine, p int) {
		if machine == 1 {
			time.Sleep(400 * time.Microsecond)
		}
	}
	defer func() { headGateHook = nil }()

	ng, mods, got := build()
	type result struct {
		st  Stats
		err error
	}
	done := make(chan result, 1)
	go func() {
		st, err := Run(context.Background(), RunConfig{
			Graph: ng, Mods: mods, Batches: batches,
			Dist: Config{Machines: 3, WorkersPerMachine: 1, MaxInFlight: 8, Buffer: 4, Planner: Contiguous{}},
		}, WithRebalancing(RebalanceConfig{
			SkewThreshold:  1.1,
			CheckEvery:     200 * time.Microsecond,
			MinEpochPhases: 4,
			MinSignal:      time.Microsecond,
		}))
		done <- result{st, err}
	}()
	var r result
	select {
	case r = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("a drift pause over two head machines wedged the run")
	}
	if r.err != nil {
		t.Fatal(r.err)
	}
	if len(r.st.Rebalances) == 0 {
		t.Error("the drift monitor never paused the run")
	}
	if !reflect.DeepEqual(*got, *ref) {
		t.Errorf("sink history diverged from the oracle (%d vs %d values)", len(*got), len(*ref))
	}
}
