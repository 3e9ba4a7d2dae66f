package repro

// Benchmark harness: one testing.B benchmark per evaluation artifact of
// the paper (see DESIGN.md §4 for the benchmark-to-table mapping). The
// benchmarks wrap the same workload builders as cmd/fusebench so
// `go test -bench=.` regenerates every table's underlying measurement;
// the bench names encode the parameter axes the tables sweep, and
// cmd/fusebench -json emits the same workloads as machine-readable
// BENCH.json for cross-PR tracking.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/trace"
)

// runWorkload executes the workload once with the given engine config.
func runWorkload(b *testing.B, w experiments.Workload, phases int, cfg core.Config) core.Stats {
	b.Helper()
	ng, mods := w.Build()
	eng, err := core.New(ng, mods, cfg)
	if err != nil {
		b.Fatal(err)
	}
	st, err := eng.Run(experiments.Phases(phases))
	if err != nil {
		b.Fatal(err)
	}
	return st
}

// BenchmarkE1Section4Speedup is the paper's §4 measurement: identical
// compute-heavy computation with one vs two computation threads (the
// environment thread always present). The paper reports ~1.5× on a
// dual-processor Solaris box; compare the two sub-benchmark times.
func BenchmarkE1Section4Speedup(b *testing.B) {
	w := experiments.Workload{
		Depth: 8, Width: 5, FanIn: 2,
		Grain: 40 * time.Microsecond, SourceRate: 1, InteriorRate: 1, Seed: 0xE1,
	}
	const phases = 100
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("threads=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				st := runWorkload(b, w, phases, core.Config{Workers: workers, MaxInFlight: 16})
				b.ReportMetric(float64(st.Executions)/float64(phases), "execs/phase")
			}
		})
	}
}

// BenchmarkE2ThreadScaling is the §4 prediction: near-linear speedup
// when vertex compute dominates bookkeeping; sub-linear when it does
// not. Axes: grain × threads.
func BenchmarkE2ThreadScaling(b *testing.B) {
	const phases = 60
	for _, grain := range []time.Duration{time.Microsecond, 10 * time.Microsecond, 100 * time.Microsecond} {
		for _, workers := range []int{1, 2, 4, 8, 16} {
			if workers > experiments.MaxWorkers(16) {
				continue
			}
			w := experiments.Workload{
				Depth: 6, Width: 8, FanIn: 2,
				Grain: grain, SourceRate: 1, InteriorRate: 1, Seed: 0xE2,
			}
			b.Run(fmt.Sprintf("grain=%s/threads=%d", grain, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					runWorkload(b, w, phases, core.Config{Workers: workers, MaxInFlight: 32})
				}
			})
		}
	}
}

// BenchmarkE3DeltaVsFull is the §1 sparse-event argument: Δ-dataflow
// executes and communicates proportionally to the change rate ε, the
// full-dataflow baseline does not. Axes: ε × executor.
func BenchmarkE3DeltaVsFull(b *testing.B) {
	const phases = 200
	for _, eps := range []float64{1, 0.1, 0.01, 0.001} {
		w := experiments.Workload{
			Depth: 8, Width: 8, FanIn: 2,
			Grain: 2 * time.Microsecond, SourceRate: eps, InteriorRate: 1, Seed: 0xE3,
		}
		b.Run(fmt.Sprintf("eps=%g/delta", eps), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				st := runWorkload(b, w, phases, core.Config{Workers: 2, MaxInFlight: 16})
				b.ReportMetric(float64(st.Messages)/float64(phases), "msgs/phase")
			}
		})
		b.Run(fmt.Sprintf("eps=%g/full", eps), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ng, mods := w.Build()
				st, err := baseline.FullDataflow(ng, mods, experiments.Phases(phases),
					baseline.FullDataflowConfig{Workers: 2})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(st.Messages)/float64(phases), "msgs/phase")
			}
		})
	}
}

// BenchmarkE4PipelineDepth is Figure 1: phases executing concurrently on
// the 10-node ladder. The depth metric is the figure's claim (5 phases
// in flight).
func BenchmarkE4PipelineDepth(b *testing.B) {
	const phases = 40
	ngProto, err := graph.Figure1().Number()
	if err != nil {
		b.Fatal(err)
	}
	w := experiments.Workload{Grain: 100 * time.Microsecond, SourceRate: 1, InteriorRate: 1, Seed: 0xE4}
	b.Run("figure1-ladder", func(b *testing.B) {
		b.ReportAllocs()
		maxDepth := 0
		for i := 0; i < b.N; i++ {
			ng, _ := graph.Figure1().Number()
			mods := experiments.BuildModsFor(ng, w)
			probe := trace.NewDepthProbe()
			eng, err := core.New(ng, mods, core.Config{
				Workers: ngProto.N(), MaxInFlight: 2 * ngProto.Depth(), Observer: probe,
			})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := eng.Run(experiments.Phases(phases)); err != nil {
				b.Fatal(err)
			}
			if probe.MaxDepth() > maxDepth {
				maxDepth = probe.MaxDepth()
			}
		}
		b.ReportMetric(float64(maxDepth), "max-phases-in-flight")
	})
}

// BenchmarkE8LockContention is the §4 caveat: the share of worker time
// spent acquiring the single global lock, per vertex grain.
func BenchmarkE8LockContention(b *testing.B) {
	const phases = 60
	workers := experiments.MaxWorkers(8)
	for _, grain := range []time.Duration{0, 5 * time.Microsecond, 50 * time.Microsecond} {
		w := experiments.Workload{
			Depth: 6, Width: 8, FanIn: 2,
			Grain: grain, SourceRate: 1, InteriorRate: 1, Seed: 0xE8,
		}
		b.Run(fmt.Sprintf("grain=%s", grain), func(b *testing.B) {
			b.ReportAllocs()
			var lockShare float64
			for i := 0; i < b.N; i++ {
				ng, mods := w.Build()
				eng, err := core.New(ng, mods, core.Config{
					Workers: workers, MaxInFlight: 32, MeasureContention: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				t0 := time.Now()
				if _, err := eng.Run(experiments.Phases(phases)); err != nil {
					b.Fatal(err)
				}
				wall := time.Since(t0)
				st := eng.Stats()
				lockShare = float64(st.LockWait) / (float64(workers) * float64(wall))
			}
			b.ReportMetric(lockShare, "lock-share")
		})
	}
}

// BenchmarkE17FineGrainScaling is the decentralized-commit-path
// certificate: grain ∈ {0, 1µs} × workers ∈ {1, 2, 4}, reporting
// ns/exec and the lock-wait share. Under the old engine-wide mutex the
// grain=0 column could not scale (every finish serialized); with
// per-vertex locks the lock share should stay near zero across the
// matrix.
func BenchmarkE17FineGrainScaling(b *testing.B) {
	const phases = 60
	for _, grain := range []time.Duration{0, time.Microsecond} {
		for _, workers := range []int{1, 2, 4} {
			w := experiments.Workload{
				Depth: 6, Width: 8, FanIn: 2,
				Grain: grain, SourceRate: 1, InteriorRate: 1, Seed: 0xE17,
			}
			b.Run(fmt.Sprintf("grain=%s/workers=%d", grain, workers), func(b *testing.B) {
				b.ReportAllocs()
				var nsPerExec, lockShare float64
				for i := 0; i < b.N; i++ {
					ng, mods := w.Build()
					eng, err := core.New(ng, mods, core.Config{
						Workers: workers, MaxInFlight: 32, MeasureContention: true,
					})
					if err != nil {
						b.Fatal(err)
					}
					t0 := time.Now()
					if _, err := eng.Run(experiments.Phases(phases)); err != nil {
						b.Fatal(err)
					}
					wall := time.Since(t0)
					st := eng.Stats()
					if st.Executions > 0 {
						nsPerExec = float64(wall) / float64(st.Executions)
					}
					lockShare = float64(st.LockWait) / (float64(workers) * float64(wall))
				}
				b.ReportMetric(nsPerExec, "ns/exec")
				b.ReportMetric(lockShare, "lock-share")
			})
		}
	}
}

// BenchmarkE9Partitioned is the §6 future-work extension: the same
// workload on 1..4 simulated machines (pipeline partitioning, 2 workers
// each).
func BenchmarkE9Partitioned(b *testing.B) {
	const phases = 60
	for _, machines := range []int{1, 2, 4} {
		w := experiments.Workload{
			Depth: 8, Width: 6, FanIn: 2,
			Grain: 50 * time.Microsecond, SourceRate: 1, InteriorRate: 1, Seed: 0xE9,
		}
		b.Run(fmt.Sprintf("machines=%d", machines), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ng, mods := w.Build()
				st, err := distrib.Run(context.Background(), distrib.RunConfig{Graph: ng, Mods: mods, Batches: experiments.Phases(phases), Dist: distrib.Config{
					Machines: machines, WorkersPerMachine: 2, MaxInFlight: 16,
				}})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(st.CrossMessages)/float64(phases), "xmsgs/phase")
			}
		})
	}
}

// BenchmarkE12PipelineScaleOut is the distrib scale-out measurement:
// the same deep pipeline workload across 1..4 machines, each machine
// bringing its own 2-worker engine, joined by bounded backpressured
// links (cost-aware planner). Wall-clock per op should fall as machines
// are added — on hosts with enough cores to run the engines in
// parallel.
func BenchmarkE12PipelineScaleOut(b *testing.B) {
	const phases = 80
	for _, machines := range []int{1, 2, 4} {
		w := experiments.E12Pipeline()
		b.Run(fmt.Sprintf("machines=%d", machines), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ng, mods := w.Build()
				st, err := distrib.Run(context.Background(), distrib.RunConfig{Graph: ng, Mods: mods, Batches: experiments.Phases(phases), Dist: experiments.E12Config(machines)})
				if err != nil {
					b.Fatal(err)
				}
				var blocked time.Duration
				for _, ls := range st.Links {
					blocked += ls.Blocked
				}
				b.ReportMetric(float64(st.CrossMessages)/float64(phases), "xmsgs/phase")
				b.ReportMetric(float64(blocked.Nanoseconds())/float64(phases), "blocked-ns/phase")
			}
		})
	}
}

// BenchmarkE10PipelineAblation ablates multi-phase pipelining: window=1
// forces phase-at-a-time execution; larger windows enable Figure 1's
// concurrency. Deep narrow graph so pipelining is the only speedup
// source.
func BenchmarkE10PipelineAblation(b *testing.B) {
	const phases = 80
	for _, window := range []int{1, 2, 4, 16} {
		w := experiments.Workload{
			Depth: 12, Width: 2, FanIn: 2,
			Grain: 50 * time.Microsecond, SourceRate: 1, InteriorRate: 1, Seed: 0xE10,
		}
		b.Run(fmt.Sprintf("window=%d", window), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runWorkload(b, w, phases, core.Config{
					Workers: experiments.MaxWorkers(8), MaxInFlight: window,
				})
			}
		})
	}
}

// BenchmarkEngineOverhead measures raw scheduler cost: zero-grain
// vertices, so time is pure set/frontier/queue bookkeeping per executed
// pair — the denominator of the paper's "as long as vertex computations
// dominate" condition.
func BenchmarkEngineOverhead(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			w := experiments.Workload{
				Depth: 6, Width: 8, FanIn: 2,
				Grain: 0, SourceRate: 1, InteriorRate: 1, Seed: 0xBE,
			}
			phases := b.N/48 + 1 // ~48 executions per phase
			ng, mods := w.Build()
			eng, err := core.New(ng, mods, core.Config{Workers: workers, MaxInFlight: 32})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			st, err := eng.Run(experiments.Phases(phases))
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if st.Executions == 0 {
				b.Fatal("no executions")
			}
			b.ReportMetric(float64(b.Elapsed())/float64(st.Executions), "ns/exec")
		})
	}
}

// BenchmarkNumbering measures the restricted topological numbering
// (§3.1.1) on a large random DAG.
func BenchmarkNumbering(b *testing.B) {
	w := experiments.Workload{Depth: 50, Width: 40, FanIn: 4, Seed: 0x99}
	ng, _ := w.Build()
	_ = ng
	b.Run("layered-2000v", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w := experiments.Workload{Depth: 50, Width: 40, FanIn: 4, Seed: uint64(i)}
			ng, _ := w.Build()
			if ng.N() != 2000 {
				b.Fatal("bad graph")
			}
		}
	})
}

// BenchmarkE13WireOverhead prices the pluggable transport layer
// (DESIGN.md §7): the same partitioned pipeline once over in-process
// channel links and once over loopback TCP with the netwire codec and
// credit-window flow control. The gap is pure wire cost — syscalls,
// serialization, credits — since plan and workload are identical.
func BenchmarkE13WireOverhead(b *testing.B) {
	const phases = 80
	for _, transport := range []string{"chan", "tcp"} {
		w := experiments.E12Pipeline()
		b.Run("transport="+transport, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ng, mods := w.Build()
				cfg := experiments.E12Config(experiments.E13Machines)
				if transport == "tcp" {
					tn, err := distrib.NewTCPNetwork()
					if err != nil {
						b.Fatal(err)
					}
					cfg.Network = tn
				}
				st, err := distrib.Run(context.Background(), distrib.RunConfig{Graph: ng, Mods: mods, Batches: experiments.Phases(phases), Dist: cfg})
				if err != nil {
					b.Fatal(err)
				}
				if tn, ok := cfg.Network.(*distrib.TCPNetwork); ok {
					tn.Close()
				}
				var bytes int64
				for _, ls := range st.Links {
					bytes += ls.Bytes
				}
				b.ReportMetric(float64(st.CrossMessages)/float64(phases), "xmsgs/phase")
				b.ReportMetric(float64(bytes)/float64(phases), "wire-bytes/phase")
			}
		})
	}
}

// BenchmarkE11Watermark is the §6 delay-tolerance extension: the cost of
// assembling delayed events into phases at each watermark, with the loss
// rate reported as a metric.
func BenchmarkE11Watermark(b *testing.B) {
	for _, wm := range []int{0, 2, 8} {
		b.Run(fmt.Sprintf("watermark=%d", wm), func(b *testing.B) {
			b.ReportAllocs()
			var loss float64
			for i := 0; i < b.N; i++ {
				res := experiments.E11Watermark(true)
				for _, row := range res.Rows {
					if row.Watermark == wm {
						loss = row.LossRate
					}
				}
			}
			b.ReportMetric(loss, "loss-rate")
		})
	}
}
