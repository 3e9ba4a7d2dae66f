package distrib

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/graph"
)

// The facade with no options is a static run: oracle-identical
// history, one stats entry per machine.
func TestRunFacadeStatic(t *testing.T) {
	const phases = 400
	batches := make([][]core.ExtInput, phases)

	ngRef, modsRef, sinkRef := buildDurableChain(t)
	if _, err := baseline.Sequential(ngRef, modsRef, batches); err != nil {
		t.Fatal(err)
	}

	ng, mods, sink := buildDurableChain(t)
	st, err := Run(context.Background(), RunConfig{
		Graph: ng, Mods: mods, Batches: batches,
		Dist: Config{Machines: 2, WorkersPerMachine: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sink.history(), sinkRef.history()) {
		t.Error("facade static run diverges from the sequential oracle")
	}
	if len(st.PerMachine) != 2 {
		t.Errorf("stats cover %d machines, want 2", len(st.PerMachine))
	}
}

// The facade with WithRebalancing is a coordinated run: forced
// switches, oracle-identical history.
func TestRunFacadeRebalancing(t *testing.T) {
	const phases = 600
	batches := make([][]core.ExtInput, phases)

	ngRef, modsRef, sinkRef := buildDurableChain(t)
	if _, err := baseline.Sequential(ngRef, modsRef, batches); err != nil {
		t.Fatal(err)
	}

	ng, mods, sink := buildDurableChain(t)
	st, err := Run(context.Background(), RunConfig{
		Graph: ng, Mods: mods, Batches: batches,
		Dist: Config{Machines: 2, WorkersPerMachine: 1, MaxInFlight: 8, Buffer: 4},
	}, WithRebalancing(RebalanceConfig{ForceEvery: 150, MinRemaining: 10, MaxRebalances: 2}))
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Rebalances) == 0 {
		t.Error("forced rebalancing recorded no switches")
	}
	if !reflect.DeepEqual(sink.history(), sinkRef.history()) {
		t.Error("facade rebalancing run diverges from the sequential oracle")
	}
}

func TestRunFacadeOptionValidation(t *testing.T) {
	ng, mods, _ := buildDurableChain(t)
	rc := RunConfig{Graph: ng, Mods: mods, Batches: make([][]core.ExtInput, 10),
		Dist: Config{Machines: 2, WorkersPerMachine: 1}}

	if _, err := Run(context.Background(), rc, WithWAL(t.TempDir())); err == nil ||
		!strings.Contains(err.Error(), "WithWAL requires WithRebalancing") {
		t.Errorf("WAL without rebalancing: got %v", err)
	}
	if _, err := Run(context.Background(), rc, WithRecovery(RecoverConfig{})); err == nil ||
		!strings.Contains(err.Error(), "WithRecovery requires WithWAL") {
		t.Errorf("recovery without WAL: got %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, rc); err != context.Canceled {
		t.Errorf("cancelled context: got %v, want context.Canceled", err)
	}
}

// A cancelled context stops a coordinated run at the next epoch
// boundary instead of letting it run to completion, and no machine
// keeps stepping the caller's modules once Run has returned.
func TestRunFacadeContextCancelsCoordinated(t *testing.T) {
	ng, mods, sink := buildDurableChain(t)
	batches := make([][]core.ExtInput, 600)
	ctx, cancel := context.WithCancel(context.Background())

	done := make(chan error, 1)
	go func() {
		_, err := Run(ctx, RunConfig{
			Graph: ng, Mods: mods, Batches: batches,
			Dist: Config{Machines: 2, WorkersPerMachine: 1, MaxInFlight: 8, Buffer: 4},
		}, WithRebalancing(RebalanceConfig{ForceEvery: 50, MinRemaining: 10, MaxRebalances: 8}))
		done <- err
	}()
	time.AfterFunc(10*time.Millisecond, cancel)
	select {
	case err := <-done:
		// The run may legitimately complete before the coordinator
		// observes the cancellation; anything else must be the ctx error.
		if err != nil && err != context.Canceled {
			t.Fatalf("got %v, want nil or context.Canceled", err)
		}
		n := len(sink.history())
		time.Sleep(50 * time.Millisecond)
		if m := len(sink.history()); m != n {
			t.Errorf("the sink grew from %d to %d entries after Run returned", n, m)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("cancelled coordinated run never returned")
	}
}

// A FaultPlan is one serializable sweep-point value: every field
// round-trips through encoding/json, which is what lets cmd/fusesweep
// print a failing seed's exact configuration.
func TestFaultPlanJSONRoundTrip(t *testing.T) {
	fp := FaultPlan{
		Seed:          0xDEAD,
		MaxDelay:      3 * time.Millisecond,
		ReorderWindow: 4,
		CrashAtPhase:  17,
		CrashFrom:     0,
		CrashTo:       1,
		CrashOnce:     true,
	}
	data, err := json.Marshal(fp)
	if err != nil {
		t.Fatal(err)
	}
	var got FaultPlan
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got != fp {
		t.Errorf("round-trip gave %+v, want %+v", got, fp)
	}
}

// The durable facade path: every machine is an in-process worker with
// its own WAL, a CrashOnce fault kills one epoch, recovery rolls the
// flock back to the stable checkpoint, the disarmed relaunch runs
// clean, and the sink history is oracle-identical.
func TestRunFacadeDurableCrashRecovery(t *testing.T) {
	const phases = 300
	batches := make([][]core.ExtInput, phases)

	ngRef, modsRef, sinkRef := buildDurableChain(t)
	if _, err := baseline.Sequential(ngRef, modsRef, batches); err != nil {
		t.Fatal(err)
	}

	ng, mods, sink := buildDurableChain(t)
	st, err := Run(context.Background(), RunConfig{
		Graph: ng, Mods: mods, Batches: batches,
		Dist: Config{Machines: 2, WorkersPerMachine: 1, MaxInFlight: 8, Buffer: 4},
	},
		WithRebalancing(RebalanceConfig{SkewThreshold: 1e12}),
		WithFaults(FaultPlan{Seed: 11, CrashAtPhase: 40, CrashOnce: true}),
		WithWAL(t.TempDir()),
		WithRecovery(RecoverConfig{Window: 10 * time.Second}),
	)
	if err != nil {
		t.Fatalf("durable run with transient crash: %v", err)
	}
	if len(st.Recoveries) != 1 {
		t.Fatalf("recorded %d recoveries, want 1", len(st.Recoveries))
	}
	if len(st.Recoveries[0].Machines) != 0 {
		t.Errorf("pure rollback reports rejoined machines %v, want none", st.Recoveries[0].Machines)
	}
	if !reflect.DeepEqual(sink.history(), sinkRef.history()) {
		t.Error("recovered durable run diverges from the sequential oracle")
	}
}

// A one-shot crash without WAL or recovery is terminal, and the error
// names the injection rather than a derived link failure.
func TestRunFacadeCrashIsTerminalWithoutRecovery(t *testing.T) {
	ng, mods, _ := buildDurableChain(t)
	batches := make([][]core.ExtInput, 300)
	_, err := Run(context.Background(), RunConfig{
		Graph: ng, Mods: mods, Batches: batches,
		Dist: Config{Machines: 2, WorkersPerMachine: 1, MaxInFlight: 8, Buffer: 4},
	},
		WithRebalancing(RebalanceConfig{SkewThreshold: 1e12}),
		WithFaults(FaultPlan{Seed: 11, CrashAtPhase: 40, CrashOnce: true}),
	)
	if err == nil || !strings.Contains(err.Error(), "injected crash") {
		t.Fatalf("got %v, want an injected-crash failure", err)
	}
}

func TestRunScriptedValidation(t *testing.T) {
	ng, mods, _ := buildDurableChain(t)
	batches := make([][]core.ExtInput, 100)
	cfg := Config{Machines: 2, WorkersPerMachine: 1}

	if _, err := RunScripted(ng, mods, batches, cfg, nil); err == nil ||
		!strings.Contains(err.Error(), "empty replay script") {
		t.Errorf("empty script: got %v", err)
	}
	if _, err := RunScripted(ng, mods, batches, cfg, []EpochPlan{{Base: 5, Starts: []int{1, 4}}}); err == nil ||
		!strings.Contains(err.Error(), "starts at base 5") {
		t.Errorf("nonzero first base: got %v", err)
	}
	bad := []EpochPlan{{Base: 0, Starts: []int{1, 4}}, {Base: 50, Starts: []int{1, 3}}, {Base: 50, Starts: []int{1, 4}}}
	if _, err := RunScripted(ng, mods, batches, cfg, bad); err == nil ||
		!strings.Contains(err.Error(), "window 2 resumes") {
		t.Errorf("non-monotone script: got %v", err)
	}
}

// RunScripted re-drives a fixed schedule and lands bit-identical to
// the oracle, barriers and all.
func TestRunScriptedMatchesOracle(t *testing.T) {
	const phases = 400
	batches := make([][]core.ExtInput, phases)

	ngRef, modsRef, sinkRef := buildDurableChain(t)
	if _, err := baseline.Sequential(ngRef, modsRef, batches); err != nil {
		t.Fatal(err)
	}

	ng, mods, sink := buildDurableChain(t)
	script := []EpochPlan{
		{Base: 0, Starts: []int{1, 4}},
		{Base: 120, Starts: []int{1, 3}},
		{Base: 260, Starts: []int{1, 4}},
	}
	st, err := RunScripted(ng, mods, batches, Config{Machines: 2, WorkersPerMachine: 1, MaxInFlight: 8, Buffer: 4}, script)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sink.history(), sinkRef.history()) {
		t.Error("scripted run diverges from the sequential oracle")
	}
	if got := st.Starts; !reflect.DeepEqual(got, []int{1, 4}) {
		t.Errorf("final starts %v, want the last window's [1 4]", got)
	}
}

// Every run shape reports full Stats: the links it ran over, the
// values they carried, the cut of the final partition, and — for each
// switch that shipped state — the bytes it shipped.
func TestRunStatsCoverEveryShape(t *testing.T) {
	const phases = 300
	batches := make([][]core.ExtInput, phases)
	ngRef, modsRef, sinkRef := buildDurableChain(t)
	if _, err := baseline.Sequential(ngRef, modsRef, batches); err != nil {
		t.Fatal(err)
	}
	rebalance := WithRebalancing(RebalanceConfig{ForceEvery: 100, MinRemaining: 10, MaxRebalances: 2})
	shapes := []struct {
		name string
		opts func(t *testing.T) []Option
	}{
		{"static", func(*testing.T) []Option { return nil }},
		{"rebalancing", func(*testing.T) []Option { return []Option{rebalance} }},
		{"rebalancing+wal", func(t *testing.T) []Option { return []Option{rebalance, WithWAL(t.TempDir())} }},
	}
	for _, shape := range shapes {
		for _, transport := range []string{"chan", "tcp"} {
			t.Run(shape.name+"/"+transport, func(t *testing.T) {
				ng, mods, sink := buildDurableChain(t)
				// Vertex 3 (a MovingAverage) moves on every switch, so
				// each switch ships real window state.
				cfg := Config{Machines: 2, WorkersPerMachine: 1, MaxInFlight: 8, Buffer: 4,
					Planner: &scriptPlanner{seq: [][]int{{1, 4}, {1, 3}, {1, 4}}}}
				if transport == "tcp" {
					tn, err := NewTCPNetwork()
					if err != nil {
						t.Fatal(err)
					}
					defer tn.Close()
					cfg.Network = tn
				}
				st, err := Run(context.Background(), RunConfig{Graph: ng, Mods: mods, Batches: batches, Dist: cfg}, shape.opts(t)...)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(sink.history(), sinkRef.history()) {
					t.Error("sink history diverges from the sequential oracle")
				}
				if len(st.Links) == 0 {
					t.Error("no links reported")
				}
				if want := graph.CutEdges(ng, st.Starts); st.CrossEdges != want {
					t.Errorf("CrossEdges %d, want %d for final starts %v", st.CrossEdges, want, st.Starts)
				}
				var values int64
				for _, l := range st.Links {
					values += l.Values
				}
				if st.CrossMessages != values {
					t.Errorf("CrossMessages %d, links carried %d values", st.CrossMessages, values)
				}
				if st.Planner != "script" || st.Transport == "" {
					t.Errorf("stats name planner %q and transport %q", st.Planner, st.Transport)
				}
				if shape.name != "static" && len(st.Rebalances) == 0 {
					t.Error("forced rebalancing recorded no switches")
				}
				for _, ev := range st.Rebalances {
					if ev.Serialized > 0 && ev.HandoffBytes == 0 {
						t.Errorf("switch at %d serialized %d vertices with 0 handoff bytes", ev.Barrier, ev.Serialized)
					}
				}
			})
		}
	}
}
