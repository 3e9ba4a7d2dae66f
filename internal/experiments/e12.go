package experiments

import (
	"context"
	"time"

	"repro/internal/distrib"
	"repro/internal/metrics"
)

// E12Row is one machine count of the partitioned-pipeline scale-out
// sweep.
type E12Row struct {
	Machines     int
	TotalWorkers int
	Wall         time.Duration
	Speedup      float64 // vs machines=1 (scale-out gain: workers grow with machines)
	CrossMsgs    int64
	CutEdges     int
	LinkBlocked  time.Duration // cumulative backpressure across links
}

// E12Result measures what the distrib rewrite exists to demonstrate:
// with bounded links pipelining phases across the cut, adding machines
// (each bringing its own worker pool) must buy wall-clock speedup on a
// pipeline workload — the §6 scale-out story, as opposed to E9's
// fixed-resource comparison.
type E12Result struct {
	Rows  []E12Row
	Table *metrics.Table
}

// E12Pipeline is the canonical E12 workload: a deep narrow pipeline
// whose grain sits well above the scheduler overhead, so compute
// dominates and cross-cut pipelining is the only scale-out lever. It
// is shared by the E12 table, the e12-pipeline BENCH.json rows and
// BenchmarkE12PipelineScaleOut, so the CI gate guards exactly the
// workload the experiment reports.
func E12Pipeline() Workload {
	return Workload{
		Depth: 16, Width: 2, FanIn: 2,
		Grain: 20 * time.Microsecond, SourceRate: 1, InteriorRate: 1,
		Seed: 0xE12,
	}
}

// E12WorkersPerMachine is the per-machine worker count of every E12
// measurement point.
const E12WorkersPerMachine = 2

// E12Config is the canonical distrib configuration for an E12 run at
// the given machine count.
func E12Config(machines int) distrib.Config {
	return distrib.Config{
		Machines: machines, WorkersPerMachine: E12WorkersPerMachine,
		MaxInFlight: 16, Buffer: 8,
		Planner: distrib.CostAware{},
	}
}

// E12PipelineScaleOut runs the E12 pipeline across 1, 2 and 4 machines
// with a fixed per-machine worker count, cost-aware partitioning, and
// reports the wall-clock speedup scale-out buys. Speedups approach the
// machine count only when the host has enough cores to actually run
// the engines in parallel (GOMAXPROCS ≥ machines × workers); E12
// reports whatever the hardware delivers.
//
// The planner runs on MEASURED costs: a short single-engine
// calibration run with per-vertex Step timing feeds
// distrib.MeasuredCosts, replacing the former UniformCosts default.
// (The BENCH.json e12 rows deliberately keep uniform costs: measured
// boundaries are host-dependent, and a checked-in baseline must name
// the same configuration on every machine — see bench.go.)
func E12PipelineScaleOut(quick bool) E12Result {
	machineSet := []int{1, 2, 4}
	phases := 240
	w := E12Pipeline()
	if quick {
		machineSet = []int{1, 2}
		phases = 60
		w.Depth = 8
	}
	// Calibration consumes a module set of its own (modules are
	// stateful and single-use); the measured runs build fresh ones.
	calNG, calMods := w.Build()
	costs, err := distrib.MeasuredCosts(calNG, calMods, Phases(phases/4+1), E12WorkersPerMachine)
	if err != nil {
		panic(err)
	}
	var res E12Result
	tb := metrics.NewTable(
		"E12 — scale-out: partitioned pipeline vs machines×workers (cost-aware planner, measured costs, 2 workers/machine)",
		"machines", "workers", "wall-time", "speedup-vs-1", "cross-msgs", "cut-edges", "link-blocked")
	var base time.Duration
	for _, m := range machineSet {
		ng, mods := w.Build()
		cfg := E12Config(m)
		cfg.Costs = costs
		st, err := distrib.Run(context.Background(), distrib.RunConfig{Graph: ng, Mods: mods, Batches: Phases(phases), Dist: cfg})
		if err != nil {
			panic(err)
		}
		if m == machineSet[0] {
			base = st.Wall
		}
		row := E12Row{
			Machines:     m,
			TotalWorkers: m * E12WorkersPerMachine,
			Wall:         st.Wall,
			Speedup:      metrics.Speedup(base, st.Wall),
			CrossMsgs:    st.CrossMessages,
			CutEdges:     st.CrossEdges,
		}
		for _, ls := range st.Links {
			row.LinkBlocked += ls.Blocked
		}
		res.Rows = append(res.Rows, row)
		tb.Add(m, row.TotalWorkers, st.Wall, row.Speedup, st.CrossMessages, st.CrossEdges, row.LinkBlocked)
	}
	res.Table = tb
	return res
}
