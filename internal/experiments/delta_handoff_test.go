package experiments

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/graph"
)

// fullOnlyMod hides a drift module's DeltaSnapshotter so its handoffs
// always ship full snapshots — the comparison point for the delta
// acceptance, and a live check of the transparent-fallback path for
// modules without delta support.
type fullOnlyMod struct{ inner *e14Mod }

func (f *fullOnlyMod) Step(ctx *core.Context)         { f.inner.Step(ctx) }
func (f *fullOnlyMod) SnapshotState() ([]byte, error) { return f.inner.SnapshotState() }
func (f *fullOnlyMod) RestoreState(b []byte) error    { return f.inner.RestoreState(b) }

// flipFlopPlanner alternates between two fixed partitions on every
// plan, so each forced epoch switch migrates the same boundary
// vertices back and forth — the repeated-handoff pattern that gives
// every move after the first a converged delta base.
type flipFlopPlanner struct {
	a, b  []int
	calls int
}

func (p *flipFlopPlanner) Name() string { return "flip-flop" }
func (p *flipFlopPlanner) Plan(g *graph.Numbered, costs []float64, machines int) ([]int, error) {
	p.calls++
	if p.calls%2 == 1 {
		return append([]int(nil), p.a...), nil
	}
	return append([]int(nil), p.b...), nil
}

// runE14Handoff drives the E14 chain over real TCP links with forced
// ping-pong epoch switches, optionally hiding delta support, and
// returns the sink history, the total handoff volume and the switch
// count.
func runE14Handoff(t *testing.T, phases int, fullOnly bool) ([]int64, int64, int) {
	t.Helper()
	w := E14Workload{N: 12, Drifter: 10, BaseGrain: 0, DriftGrain: 0, DriftAt: phases + 1}
	ng, mods, sink, pre, _ := w.Build()
	if fullOnly {
		for i, m := range mods {
			if em, ok := m.(*e14Mod); ok {
				mods[i] = &fullOnlyMod{inner: em}
			}
		}
	}
	tn, err := distrib.NewTCPNetwork()
	if err != nil {
		t.Fatal(err)
	}
	defer tn.Close()
	cfg := E14Config()
	cfg.Costs = pre
	cfg.Network = tn
	// Partitions four vertices apart: 3,4 ping-pong between machines
	// 0 and 1, and 9,10 between 2 and 1.
	cfg.Planner = &flipFlopPlanner{a: []int{1, 5, 9}, b: []int{1, 3, 11}}
	rcfg := distrib.RebalanceConfig{
		ForceEvery:     60,
		MinEpochPhases: 8,
		MinRemaining:   8,
		MaxRebalances:  6,
	}
	st, err := distrib.Run(context.Background(), distrib.RunConfig{Graph: ng, Mods: mods, Batches: Phases(phases), Dist: cfg}, distrib.WithRebalancing(rcfg))
	if err != nil {
		t.Fatal(err)
	}
	var bytes int64
	for _, ev := range st.Rebalances {
		bytes += ev.HandoffBytes
	}
	return sink.log, bytes, len(st.Rebalances)
}

// TestE14DeltaHandoffCut is the delta-snapshot acceptance on the E14
// workload: with the telemetry windows 256 deep and forced switches 60
// phases apart, every re-move of a boundary vertex ships a window
// delta against the base its previous handoff converged, and the total
// handoff volume must come in at no more than half of the same run
// with delta support hidden — while the sink history stays
// bit-identical to an undisturbed static run.
func TestE14DeltaHandoffCut(t *testing.T) {
	if testing.Short() {
		t.Skip("drives real TCP links through repeated epoch switches")
	}
	const phases = 540
	deltaLog, deltaBytes, deltaSwitches := runE14Handoff(t, phases, false)
	fullLog, fullBytes, fullSwitches := runE14Handoff(t, phases, true)

	if deltaSwitches < 4 || fullSwitches < 4 {
		t.Fatalf("forced trigger fired %d/%d switches, want at least 4 each", deltaSwitches, fullSwitches)
	}
	if len(deltaLog) != len(fullLog) {
		t.Fatalf("sink histories of %d vs %d values", len(deltaLog), len(fullLog))
	}
	for i := range deltaLog {
		if deltaLog[i] != fullLog[i] {
			t.Fatalf("sink history diverged at %d: %d vs %d — delta handoff changed the output", i, deltaLog[i], fullLog[i])
		}
	}
	// The undisturbed reference: no switches at all.
	ng, mods, ref, pre, _ := (E14Workload{N: 12, Drifter: 10, BaseGrain: 0, DriftGrain: 0, DriftAt: phases + 1}).Build()
	cfg := E14Config()
	cfg.Costs = pre
	if _, err := distrib.Run(context.Background(), distrib.RunConfig{Graph: ng, Mods: mods, Batches: Phases(phases), Dist: cfg}); err != nil {
		t.Fatal(err)
	}
	for i := range deltaLog {
		if deltaLog[i] != ref.log[i] {
			t.Fatalf("sink history diverged from the static reference at %d", i)
		}
	}
	if fullBytes == 0 {
		t.Fatal("full-snapshot run reports zero handoff bytes — the TCP handoff path was not exercised")
	}
	t.Logf("handoff bytes: delta %d vs full %d (%.1f%% cut) over %d/%d switches",
		deltaBytes, fullBytes, 100*(1-float64(deltaBytes)/float64(fullBytes)), deltaSwitches, fullSwitches)
	if deltaBytes*2 > fullBytes {
		t.Errorf("delta handoffs carried %d bytes, more than half of the %d-byte full-snapshot runs", deltaBytes, fullBytes)
	}
}
