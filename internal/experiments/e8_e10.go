package experiments

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/metrics"
)

// E8Row is one grain level of the lock-contention profile.
type E8Row struct {
	Grain        time.Duration
	Workers      int
	Wall         time.Duration
	LockWait     time.Duration
	ExecTime     time.Duration
	LockFraction float64 // lock wait / (workers × wall): share of worker time lost to the lock
}

// E8Result quantifies the §4 caveat behind the paper's 50% speedup: the
// environment thread and the computation threads contend for one global
// lock, so the bookkeeping share of runtime grows as vertex grain
// shrinks.
type E8Result struct {
	Rows  []E8Row
	Table *metrics.Table
}

// E8LockContention sweeps vertex grain at a fixed worker count and
// reports how much worker time the global lock absorbs.
func E8LockContention(quick bool) E8Result {
	grains := []time.Duration{0, 5 * time.Microsecond, 50 * time.Microsecond, 500 * time.Microsecond}
	phases := 120
	workers := MaxWorkers(8)
	if quick {
		grains = []time.Duration{0, 200 * time.Microsecond}
		phases = 30
		workers = MaxWorkers(4)
	}
	var res E8Result
	tb := metrics.NewTable(
		"E8 — §4 caveat: global-lock contention vs vertex grain",
		"grain", "workers", "wall-time", "lock-wait", "exec-time", "lock-share")
	for _, grain := range grains {
		w := Workload{
			Depth: 6, Width: 8, FanIn: 2,
			Grain: grain, SourceRate: 1, InteriorRate: 1,
			Seed: 0xE8,
		}
		ng, mods := w.Build()
		eng, err := core.New(ng, mods, core.Config{
			Workers: workers, MaxInFlight: 32, MeasureContention: true,
		})
		if err != nil {
			panic(err)
		}
		wall := metrics.MeasureWall(func() {
			if _, err := eng.Run(Phases(phases)); err != nil {
				panic(err)
			}
		})
		st := eng.Stats()
		row := E8Row{
			Grain: grain, Workers: workers, Wall: wall,
			LockWait: st.LockWait, ExecTime: st.ExecTime,
		}
		if wall > 0 {
			row.LockFraction = float64(st.LockWait) / (float64(workers) * float64(wall))
		}
		res.Rows = append(res.Rows, row)
		tb.Add(grain.String(), workers, wall, st.LockWait, st.ExecTime, row.LockFraction)
	}
	res.Table = tb
	return res
}

// E9Row is one machine count of the partitioned-runtime comparison.
type E9Row struct {
	Machines  int
	Wall      time.Duration
	Speedup   float64
	CrossMsgs int64
}

// E9Result exercises the §6 future-work design: partitioning the graph
// across simulated machines (independent engines joined by channels)
// compared with one machine holding all workers.
type E9Result struct {
	Rows  []E9Row
	Table *metrics.Table
}

// E9Partitioned compares total wall time for the same workload and total
// worker count, split across 1..M machines.
func E9Partitioned(quick bool) E9Result {
	machineSet := []int{1, 2, 4}
	phases := 150
	depth := 8
	grain := 50 * time.Microsecond
	if quick {
		machineSet = []int{1, 2}
		phases = 30
		depth = 4
	}
	const workersPerMachine = 2
	var res E9Result
	tb := metrics.NewTable(
		"E9 — §6 future work: pipeline partitioning across simulated machines (2 workers each)",
		"machines", "wall-time", "speedup-vs-1", "cross-msgs")
	var base time.Duration
	for _, m := range machineSet {
		w := Workload{
			Depth: depth, Width: 6, FanIn: 2,
			Grain: grain, SourceRate: 1, InteriorRate: 1,
			Seed: 0xE9,
		}
		ng, mods := w.Build()
		st, err := distrib.Run(context.Background(), distrib.RunConfig{Graph: ng, Mods: mods, Batches: Phases(phases), Dist: distrib.Config{
			Machines: m, WorkersPerMachine: workersPerMachine, MaxInFlight: 16, Buffer: 8,
		}})
		if err != nil {
			panic(err)
		}
		if m == machineSet[0] {
			base = st.Wall
		}
		row := E9Row{Machines: m, Wall: st.Wall, Speedup: metrics.Speedup(base, st.Wall), CrossMsgs: st.CrossMessages}
		res.Rows = append(res.Rows, row)
		tb.Add(m, st.Wall, row.Speedup, row.CrossMsgs)
	}
	res.Table = tb
	return res
}

// E10Row is one window setting of the pipelining ablation.
type E10Row struct {
	MaxInFlight int
	Wall        time.Duration
	Speedup     float64
	MaxPhases   int
}

// E10Result ablates the paper's central scheduling idea: allowing
// multiple phases in flight (§3.1's pipelining). MaxInFlight = 1 forces
// phase-at-a-time execution — the "obvious solution" §2 mentions — while
// larger windows enable the pipelining of Figure 1.
type E10Result struct {
	Rows  []E10Row
	Table *metrics.Table
}

// E10PipelineAblation runs a deep, narrow graph (little intra-phase
// parallelism, so pipelining is the only speedup source) under
// increasing phase windows.
func E10PipelineAblation(quick bool) E10Result {
	windows := []int{1, 2, 4, 16}
	phases := 200
	depth := 12
	grain := 50 * time.Microsecond
	if quick {
		windows = []int{1, 4}
		phases = 40
		depth = 6
	}
	var res E10Result
	tb := metrics.NewTable(
		"E10 — ablation: phase pipelining window on a deep narrow graph (8 workers)",
		"max-in-flight", "wall-time", "speedup-vs-1", "max-concurrent-phases")
	var base time.Duration
	for _, win := range windows {
		w := Workload{
			Depth: depth, Width: 2, FanIn: 2,
			Grain: grain, SourceRate: 1, InteriorRate: 1,
			Seed: 0xE10,
		}
		ng, mods := w.Build()
		probe := newDepthCounter()
		eng, err := core.New(ng, mods, core.Config{
			Workers: MaxWorkers(8), MaxInFlight: win, Observer: probe,
		})
		if err != nil {
			panic(err)
		}
		wall := metrics.MeasureWall(func() {
			if _, err := eng.Run(Phases(phases)); err != nil {
				panic(err)
			}
		})
		if win == windows[0] {
			base = wall
		}
		row := E10Row{MaxInFlight: win, Wall: wall, Speedup: metrics.Speedup(base, wall), MaxPhases: probe.MaxDepth()}
		res.Rows = append(res.Rows, row)
		tb.Add(win, wall, row.Speedup, row.MaxPhases)
	}
	res.Table = tb
	return res
}
