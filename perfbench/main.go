// Command perfbench is the repository benchmark: it builds a fuzzed
// 96-vertex detector graph from a seed, runs it on one of three
// deployments for a fixed time, checks every run's sinks against the
// sequential oracle, and prints one JSON result line. It measures only
// from outside the program: it times calls into public functions,
// stamps source and sink Steps through thin module wrappers, and reads
// the public Stats. See README.md in this directory.
//
//	perfbench --workload engine-dense --seed 1 --seconds 40 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// hardLimit bounds a whole invocation: the result must be printed well
// inside the three minutes a run may take.
const hardLimit = 150 * time.Second

// defaultGraphSeed draws the detector graph every workload runs;
// --seed draws its event streams. heldOutGraphSeed is the graph later
// performance claims must also hold on; it is never used while tuning
// a change.
const (
	defaultGraphSeed = 1
	heldOutGraphSeed = 2
)

type workload struct {
	name  string
	round func(b *bench, traced bool) roundResult
}

var workloads = []workload{
	{"engine-dense", (*bench).engineRound},
	{"flock-tcp", (*bench).flockTCPRound},
	{"flock-durable-sparse", (*bench).flockDurableRound},
}

// bench is one invocation's state.
type bench struct {
	workload  string
	seed      uint64
	graphSeed uint64
	seconds   int
	trace     bool
	outdir    string
	start     time.Time

	tr      *tracer // nil unless --trace 1
	runSpan int
	oracles map[string]oracle
}

// roundResult is what one round — one or more freshly built
// deployments run to completion — measured.
type roundResult struct {
	traced   bool
	phases   int // attempted
	failed   int
	err      error
	watchdog bool

	setup      []time.Duration
	build      []time.Duration
	firstRes   []time.Duration
	win        windows
	genLate    []float64 // µs, open loop only
	rt         windowRuntime
	rtOK       bool
	liveHeapMB float64
	layer      map[string]float64
}

// fail records a failed run of n phases: none of them counts as
// committed correctly.
func (r *roundResult) fail(err error, n int) {
	if r.err == nil {
		r.err = err
	}
	r.failed = min(r.failed+n, r.phases)
	var wd *watchdogError
	if errors.As(err, &wd) {
		r.watchdog = true
	}
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: engine-dense | flock-tcp | flock-durable-sparse")
		seed    = flag.Uint64("seed", 1, "event-stream seed")
		gseed   = flag.Uint64("graph-seed", defaultGraphSeed, "detector-graph seed")
		seconds = flag.Int("seconds", 10, "measured time")
		trace   = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
		outdir  = flag.String("outdir", ".bench_build", "directory for WALs, spans and dumps")
	)
	flag.Parse()
	if err := run(*name, *seed, *gseed, *seconds, *trace == 1, *outdir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed, graphSeed uint64, seconds int, trace bool, outdir string) error {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if err := os.MkdirAll(outdir, 0o755); err != nil {
		return err
	}
	b := &bench{workload: name, seed: seed, graphSeed: graphSeed, seconds: seconds, trace: trace, outdir: outdir,
		start: time.Now(), oracles: make(map[string]oracle)}
	if trace {
		b.tr = newTracer()
	}
	host := hostRecord(b)

	b.runSpan = b.tr.open("run", 0)
	var rounds []roundResult
	measureUntil := b.start.Add(time.Duration(seconds) * time.Second)
	var longest time.Duration
	for i := 0; ; i++ {
		traced := trace && i%2 == 1
		t0 := time.Now()
		r := w.round(b, traced)
		longest = max(longest, time.Since(t0))
		rounds = append(rounds, r)
		if r.err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: round %d failed: %v\n", i, r.err)
		}
		if r.watchdog {
			break
		}
		enough := i >= 1 && (!trace || i >= 3)
		if enough && time.Now().After(measureUntil) {
			break
		}
		if time.Since(b.start)+longest > hardLimit {
			break
		}
	}
	b.tr.close(b.runSpan)

	res := summarize(b, rounds, host)
	if b.tr != nil {
		path := filepath.Join(outdir, fmt.Sprintf("spans-%s-seed%d.json", name, seed))
		if err := b.tr.writeFile(path); err != nil {
			return err
		}
		printSelfTimes(b.tr)
	}
	hostLine, err := json.Marshal(map[string]any{"host": host})
	if err != nil {
		return err
	}
	fmt.Println(string(hostLine))
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// summarize turns the rounds into the result line: end-to-end metrics
// come from the untraced rounds after the first (see windows for
// throughput and latency, medians over deployments and rounds for the
// rest); per-layer metrics are medians over the traced rounds, except
// the set-up and validity figures, which come from the untraced ones.
func summarize(b *bench, rounds []roundResult, host map[string]any) result {
	res := result{Correct: true, Metrics: make(map[string]metric)}
	var win, twin windows
	var setup, alloc, heap, build, first, genLate []float64
	layers := make(map[string][]float64)
	for i, r := range rounds {
		res.Attempted += r.phases
		res.Failed += r.failed
		if r.err != nil {
			res.Correct = false
			continue
		}
		if i == 0 && len(rounds) > 1 {
			// The first round warms the process up: it is checked
			// and counted, not measured.
			continue
		}
		if r.traced {
			twin.merge(r.win)
			for k, v := range r.layer {
				layers[k] = append(layers[k], v)
			}
			if r.rtOK {
				layers["runtime.gc_cycles_per_kphase"] = append(layers["runtime.gc_cycles_per_kphase"], r.rt.gcCyclesPerK)
				layers["runtime.gc_pause_us_p99"] = append(layers["runtime.gc_pause_us_p99"], r.rt.gcPauseP99us)
			}
			continue
		}
		win.merge(r.win)
		if len(r.genLate) > 0 {
			genLate = append(genLate, quantile(r.genLate, 0.99))
		}
		for _, d := range r.setup {
			setup = append(setup, d.Seconds())
		}
		for _, d := range r.build {
			build = append(build, float64(d)/1e6)
		}
		for _, d := range r.firstRes {
			first = append(first, float64(d)/1e6)
		}
		if r.rtOK {
			alloc = append(alloc, r.rt.allocPerPhase)
		}
		heap = append(heap, r.liveHeapMB)
	}
	if res.Attempted == 0 {
		res.Attempted = 1
		res.Failed = 1
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	put := func(name, unit string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[name] = metric{Value: v, Unit: unit}
	}
	if !b.trace {
		put("throughput_phases_per_s", "1/s", win.throughput())
		put("latency_p50_us", "us", win.latencyMedian())
		put("setup_s", "s", median(setup))
		put("alloc_bytes_per_phase", "B", median(alloc))
		put("live_heap_mb", "MB", median(heap))
		return res
	}
	run := map[string]float64{
		"setup.build_ms":        median(build),
		"setup.first_result_ms": median(first),
		"latency_p99_us":        quantile(win.lat, 0.99),
		"bench.gen_late_us_p99": median(genLate),
		"bench.latency_samples": float64(len(win.lat)),
		"bench.trace_overhead":  twin.throughput() / win.throughput(),
		"host.calib_ns":         host["calib_ns"].(float64),
	}
	for _, m := range perLayerMetrics {
		v, ok := run[m.name]
		if !ok {
			v = median(layers[m.name])
		}
		put(m.name, m.unit, v)
	}
	return res
}

func printSelfTimes(tr *tracer) {
	self := tr.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "%-16s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, n := range names {
		s := self[n]
		fmt.Fprintf(os.Stderr, "%-16s %8d %12.3f %12.3f\n", n, s.Count, s.TotalMs, s.SelfMs)
	}
}

// liveHeapMB forces a collection and reads the live heap; callers keep
// the round's modules reachable across the call.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// watchdogError reports a run that did not finish in time.
type watchdogError struct {
	what  string
	limit time.Duration
}

func (e *watchdogError) Error() string {
	return fmt.Sprintf("%s did not finish within its %v watchdog", e.what, e.limit)
}

// guard runs fn under a watchdog. When it trips, every goroutine's
// stack goes to standard error and to a dump file, and fn is
// abandoned: the invocation reports and exits without waiting for it.
func (b *bench) guard(what string, expected time.Duration, fn func() error) error {
	limit := 10*expected + 5*time.Second
	if left := hardLimit - time.Since(b.start); limit > left {
		limit = max(left, time.Second)
	}
	done := make(chan error, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				done <- fmt.Errorf("%s panicked: %v\n%s", what, p, debug.Stack())
			}
		}()
		done <- fn()
	}()
	t := time.NewTimer(limit)
	defer t.Stop()
	select {
	case err := <-done:
		return err
	case <-t.C:
		buf := make([]byte, 1<<22)
		buf = buf[:runtime.Stack(buf, true)]
		fmt.Fprintf(os.Stderr, "perfbench: watchdog: %s still running after %v; goroutines:\n%s\n", what, limit, buf)
		path := filepath.Join(b.outdir, fmt.Sprintf("watchdog-%s-seed%d.txt", b.workload, b.seed))
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing goroutine dump:", err)
		}
		return &watchdogError{what, limit}
	}
}
