package experiments

import (
	"context"
	"encoding/json"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/metrics"
)

// BenchRow is one workload's measurement in the machine-readable bench
// report cmd/fusebench -json emits. NsPerExec is wall time divided by
// executed pairs — the scheduler-inclusive cost the engine-overhead
// benchmark tracks — AllocsPerExec is heap allocations per executed
// pair (the steady-state engine is allocation-free, so this is a
// sensitive regression tripwire), and the LockWait/LockAcquisitions
// counters are the E8 contention instrument. cmd/benchdiff gates CI on
// NsPerExec and AllocsPerExec against the checked-in BENCH_BASELINE.
type BenchRow struct {
	Name string `json:"name"`
	// Workers is the total worker-goroutine count the row needs —
	// machines × per-machine workers for partitioned rows. benchdiff
	// skips time comparisons when either run had fewer procs than this.
	Workers          int     `json:"workers"`
	Machines         int     `json:"machines,omitempty"`
	Phases           int     `json:"phases"`
	GrainNs          int64   `json:"grain_ns"`
	Executions       int64   `json:"executions"`
	Messages         int64   `json:"messages"`
	WallNs           int64   `json:"wall_ns"`
	NsPerExec        int64   `json:"ns_per_exec"`
	AllocsPerExec    float64 `json:"allocs_per_exec"`
	LockWaitNs       int64   `json:"lock_wait_ns"`
	LockAcquisitions int64   `json:"lock_acquisitions"`
	MaxQueueLen      int     `json:"max_queue_len"`
	// WireBytes is the encoded cross-machine payload volume for rows
	// whose links run over a real wire transport (0 for in-process
	// channel links, which move pointers, not bytes).
	WireBytes int64 `json:"wire_bytes,omitempty"`
}

// BenchReport is the top-level BENCH.json document.
type BenchReport struct {
	GoVersion  string     `json:"go_version"`
	GoMaxProcs int        `json:"gomaxprocs"`
	Quick      bool       `json:"quick"`
	Workloads  []BenchRow `json:"workloads"`
}

// benchReps is the per-case repetition count: each case runs this many
// times and the best (minimum-wall) repetition is reported, stripping
// scheduler noise so the CI regression gate can use tight thresholds.
const benchReps = 3

// benchCase is one fixed single-engine workload of the report: the same
// parameter points the E1/E8/overhead benchmarks sweep, at a size small
// enough to run on every fusebench invocation.
type benchCase struct {
	name    string
	w       Workload
	workers int
	window  int
}

func benchCases() []benchCase {
	return []benchCase{
		{"e1-compute-heavy/threads=1", Workload{
			Depth: 8, Width: 5, FanIn: 2,
			Grain: 40 * time.Microsecond, SourceRate: 1, InteriorRate: 1, Seed: 0xE1,
		}, 1, 16},
		{"e1-compute-heavy/threads=2", Workload{
			Depth: 8, Width: 5, FanIn: 2,
			Grain: 40 * time.Microsecond, SourceRate: 1, InteriorRate: 1, Seed: 0xE1,
		}, 2, 16},
		// Worker counts are pinned (not MaxWorkers) so a row names the
		// same configuration on every host — benchdiff's proc-skip rule
		// handles hosts too small to time it meaningfully.
		{"e8-contention/grain=0", Workload{
			Depth: 6, Width: 8, FanIn: 2,
			Grain: 0, SourceRate: 1, InteriorRate: 1, Seed: 0xE8,
		}, 4, 32},
		{"e8-contention/grain=5us", Workload{
			Depth: 6, Width: 8, FanIn: 2,
			Grain: 5 * time.Microsecond, SourceRate: 1, InteriorRate: 1, Seed: 0xE8,
		}, 4, 32},
		{"overhead-zero-grain/threads=1", Workload{
			Depth: 6, Width: 8, FanIn: 2,
			Grain: 0, SourceRate: 1, InteriorRate: 1, Seed: 0xBE,
		}, 1, 32},
	}
}

// e17Cases is the E17 fine-grain scaling matrix — grain ∈ {0, 1µs} ×
// workers ∈ {1, 2, 4} — as bench rows, so the scaling trajectory of the
// decentralized commit path (and its lock_wait_ns, which benchdiff
// gates on contention-measured rows) is pinned in BENCH.json.
func e17Cases() []benchCase {
	shape := func(grain time.Duration) Workload {
		return Workload{
			Depth: 6, Width: 8, FanIn: 2,
			Grain: grain, SourceRate: 1, InteriorRate: 1, Seed: 0xE17,
		}
	}
	return []benchCase{
		{"e17-finegrain/grain=0/workers=1", shape(0), 1, 32},
		{"e17-finegrain/grain=0/workers=2", shape(0), 2, 32},
		{"e17-finegrain/grain=0/workers=4", shape(0), 4, 32},
		{"e17-finegrain/grain=1us/workers=1", shape(time.Microsecond), 1, 32},
		{"e17-finegrain/grain=1us/workers=2", shape(time.Microsecond), 2, 32},
		{"e17-finegrain/grain=1us/workers=4", shape(time.Microsecond), 4, 32},
	}
}

// distribCase is one fixed partitioned workload of the report — the
// E12 pipeline (the same E12Pipeline/E12Config the experiment runs) at
// each machine count, so the scale-out trajectory (and any regression
// in the planner or link layer) is tracked in BENCH.json.
type distribCase struct {
	name     string
	machines int
}

func distribCases() []distribCase {
	return []distribCase{
		{"e12-pipeline/machines=1", 1},
		{"e12-pipeline/machines=2", 2},
		{"e12-pipeline/machines=4", 4},
	}
}

// e13Case is one transport of the wire-overhead comparison: the same
// E12 pipeline at E13Machines, chan vs loopback TCP. Both rows have
// deterministic execution counts (same workload, same uniform-cost
// plan), so benchdiff's full time/alloc gate covers them. The
// fault-abort row is different: a crash races the pipeline, so its
// executed-pair count is nondeterministic and it deliberately reports
// Executions=0 — the gate then pins its existence and configuration
// (MISSING/CONFIG-CHANGED still fire) without flapping on ns/exec.
type e13Case struct {
	name      string
	transport string // "chan" | "tcp"
}

func e13Cases() []e13Case {
	return []e13Case{
		{"e13-wire/transport=chan", "chan"},
		{"e13-wire/transport=tcp", "tcp"},
	}
}

// measureBest runs rep benchReps times and reports the minimum-wall
// repetition — its wall time, allocation count and run stats together,
// so a report row never mixes metrics from different repetitions. Each
// repetition builds fresh state and measures only its run window (see
// allocsAround, which GCs before counting).
func measureBest[T any](rep func() (time.Duration, uint64, T)) (time.Duration, uint64, T) {
	bestWall := time.Duration(-1)
	var bestAllocs uint64
	var bestStats T
	for i := 0; i < benchReps; i++ {
		wall, allocs, st := rep()
		if bestWall < 0 || wall < bestWall {
			bestWall, bestAllocs, bestStats = wall, allocs, st
		}
	}
	return bestWall, bestAllocs, bestStats
}

// allocsAround runs f and returns its wall time and heap allocation
// count (Mallocs delta).
func allocsAround(f func()) (time.Duration, uint64) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	wall := metrics.MeasureWall(f)
	runtime.ReadMemStats(&m1)
	return wall, m1.Mallocs - m0.Mallocs
}

// BenchJSON runs the fixed bench workloads with contention measurement
// on and returns the report.
func BenchJSON(quick bool) BenchReport {
	phases := 120
	if quick {
		phases = 30
	}
	rep := BenchReport{
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Quick:      quick,
	}
	for _, c := range append(benchCases(), e17Cases()...) {
		wall, allocs, st := measureBest(func() (time.Duration, uint64, core.Stats) {
			// Fresh graph, modules and engine per repetition: modules
			// are stateful and engines single-use. Setup happens
			// outside the timed/counted window.
			ng, mods := c.w.Build()
			eng, err := core.New(ng, mods, core.Config{
				Workers: c.workers, MaxInFlight: c.window, MeasureContention: true,
			})
			if err != nil {
				panic(err) // static workload parameters; cannot fail
			}
			w, a := allocsAround(func() {
				if _, err := eng.Run(Phases(phases)); err != nil {
					panic(err)
				}
			})
			return w, a, eng.Stats()
		})
		row := BenchRow{
			Name:             c.name,
			Workers:          c.workers,
			Phases:           phases,
			GrainNs:          int64(c.w.Grain),
			Executions:       st.Executions,
			Messages:         st.Messages,
			WallNs:           int64(wall),
			LockWaitNs:       int64(st.LockWait),
			LockAcquisitions: st.LockAcquisitions,
			MaxQueueLen:      st.MaxQueueLen,
		}
		if st.Executions > 0 {
			row.NsPerExec = int64(wall) / st.Executions
			row.AllocsPerExec = float64(allocs) / float64(st.Executions)
		}
		rep.Workloads = append(rep.Workloads, row)
	}
	e12w := E12Pipeline()
	for _, c := range distribCases() {
		wall, allocs, st := measureBest(func() (time.Duration, uint64, distrib.Stats) {
			ng, mods := e12w.Build()
			cfg := E12Config(c.machines)
			cfg.MeasureContention = true
			var rst distrib.Stats
			w, a := allocsAround(func() {
				var err error
				// Engine construction happens inside distrib.Run, so a
				// partitioned row's cost honestly includes the planner
				// and per-machine assembly.
				rst, err = distrib.Run(context.Background(), distrib.RunConfig{Graph: ng, Mods: mods, Batches: Phases(phases), Dist: cfg})
				if err != nil {
					panic(err)
				}
			})
			return w, a, rst
		})
		row := BenchRow{
			Name:     c.name,
			Workers:  c.machines * E12WorkersPerMachine,
			Machines: c.machines,
			Phases:   phases,
			GrainNs:  int64(e12w.Grain),
			WallNs:   int64(wall),
		}
		for _, m := range st.PerMachine {
			row.Executions += m.Executions
			row.Messages += m.Messages
			row.LockWaitNs += int64(m.LockWait)
			row.LockAcquisitions += m.LockAcquisitions
			if m.MaxQueueLen > row.MaxQueueLen {
				row.MaxQueueLen = m.MaxQueueLen
			}
		}
		if row.Executions > 0 {
			row.NsPerExec = int64(wall) / row.Executions
			row.AllocsPerExec = float64(allocs) / float64(row.Executions)
		}
		rep.Workloads = append(rep.Workloads, row)
	}
	for _, c := range e13Cases() {
		wall, allocs, st := measureBest(func() (time.Duration, uint64, distrib.Stats) {
			ng, mods := e12w.Build()
			cfg := E12Config(E13Machines)
			if c.transport == "tcp" {
				tn, err := distrib.NewTCPNetwork()
				if err != nil {
					panic(err)
				}
				defer tn.Close()
				cfg.Network = tn
			}
			var rst distrib.Stats
			w, a := allocsAround(func() {
				var err error
				rst, err = distrib.Run(context.Background(), distrib.RunConfig{Graph: ng, Mods: mods, Batches: Phases(phases), Dist: cfg})
				if err != nil {
					panic(err)
				}
			})
			return w, a, rst
		})
		row := BenchRow{
			Name:     c.name,
			Workers:  E13Machines * E12WorkersPerMachine,
			Machines: E13Machines,
			Phases:   phases,
			GrainNs:  int64(e12w.Grain),
			WallNs:   int64(wall),
		}
		for _, m := range st.PerMachine {
			row.Executions += m.Executions
			row.Messages += m.Messages
			if m.MaxQueueLen > row.MaxQueueLen {
				row.MaxQueueLen = m.MaxQueueLen
			}
		}
		for _, ls := range st.Links {
			row.WireBytes += ls.Bytes
		}
		if row.Executions > 0 {
			row.NsPerExec = int64(wall) / row.Executions
			row.AllocsPerExec = float64(allocs) / float64(row.Executions)
		}
		rep.Workloads = append(rep.Workloads, row)
	}
	// E16 saturation rows: the fine-grained pipeline flat out on each
	// wire configuration. Executions are deterministic (same workload,
	// same plan), so the full gate applies; WireBytes feeds benchdiff's
	// bytes-per-event ratio gate.
	e16w := E16Workload()
	e16Phases := phases * 2
	for _, transport := range []string{"chan", "tcp", "tcp-batched"} {
		wall, allocs, st := measureBest(func() (time.Duration, uint64, distrib.Stats) {
			return e16Run(e16w, transport, e16Phases)
		})
		row := BenchRow{
			Name:     "e16-saturation/transport=" + transport,
			Workers:  E16Machines * E12WorkersPerMachine,
			Machines: E16Machines,
			Phases:   e16Phases,
			WallNs:   int64(wall),
		}
		for _, m := range st.PerMachine {
			row.Executions += m.Executions
			row.Messages += m.Messages
			if m.MaxQueueLen > row.MaxQueueLen {
				row.MaxQueueLen = m.MaxQueueLen
			}
		}
		for _, ls := range st.Links {
			row.WireBytes += ls.Bytes
		}
		if row.Executions > 0 {
			row.NsPerExec = int64(wall) / row.Executions
			row.AllocsPerExec = float64(allocs) / float64(row.Executions)
		}
		rep.Workloads = append(rep.Workloads, row)
	}
	// Fault-recovery row: wall time from phase 1 to a clean cascaded
	// abort after every link crashes mid-run. Executions under a crash
	// race the cascade and are nondeterministic, so the row pins
	// Executions=0 — see e13Case.
	abortWall, _ := E13FaultAbort(e12w, phases)
	rep.Workloads = append(rep.Workloads, BenchRow{
		Name:     "e13-fault-abort/crash=mid",
		Workers:  E13Machines * E12WorkersPerMachine,
		Machines: E13Machines,
		Phases:   phases,
		GrainNs:  int64(e12w.Grain),
		WallNs:   int64(abortWall),
	})
	// Dynamic-repartitioning row: the E14 drift run with the rebalancer
	// on. Portal/bridge executions depend on where the drift-driven
	// barriers land, so the executed-pair count is nondeterministic and
	// the row pins Executions=0 — like the fault row, the gate guards
	// its existence and configuration, and E14's own test guards the
	// recovery ratio.
	// The in-process rebalance row plus its control-plane variant (one
	// participant per machine over real loopback TCP control channels
	// and data links, DESIGN.md §9). Both wall-only: the gate pins that
	// each configuration exists and still runs.
	e14 := E14DynamicRepartition(quick)
	e14RowNames := map[string]string{
		"rebalance":           "e14-rebalance/machines=3",
		"rebalance-multiproc": "e14-rebalance-multiproc/machines=3",
	}
	for _, r := range e14.Rows {
		name, tracked := e14RowNames[r.Mode]
		if !tracked {
			continue
		}
		rep.Workloads = append(rep.Workloads, BenchRow{
			Name:     name,
			Workers:  E14Machines * 2,
			Machines: E14Machines,
			Phases:   e14.Phases,
			WallNs:   int64(r.Wall),
		})
	}
	return rep
}

// WriteBenchJSON runs the bench workloads and writes the report to path
// as indented JSON.
func WriteBenchJSON(path string, quick bool) error {
	rep := BenchJSON(quick)
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
