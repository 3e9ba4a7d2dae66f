package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/spec"
)

// engine-dense: one core.Engine with two workers on the dense graph.
// Each round runs a closed-loop segment (MaxInFlight 32) for
// throughput and an open-loop segment (a generator issuing phases at
// openRate) for latency, each on a freshly built engine.
const (
	engineWorkers     = 2
	engineMaxInFlight = 32
	closedPhases      = 5000
	openPhases        = 10000
	openRate          = 10000 // phases/s, about half of saturation
	// genMinSleep: a wait shorter than this is spent yielding rather
	// than sleeping, since a timer cannot wake that precisely; longer
	// waits sleep and the phases they delay are issued late.
	genMinSleep = 20 * time.Microsecond
)

// steadyLo is the first phase of a segment's steady window: the first
// tenth of every segment is warm-up.
func steadyLo(phases int) int { return phases/10 + 1 }

// oracleFor returns (computing once) the sequential oracle for the
// workload's spec at the given phase count.
func (b *bench) oracleFor(sparse bool, phases int) (oracle, error) {
	key := fmt.Sprintf("%v/%d", sparse, phases)
	if o, ok := b.oracles[key]; ok {
		return o, nil
	}
	s, err := makeSpec(b.graphSeed, b.seed, sparse)
	if err != nil {
		return oracle{}, err
	}
	o, err := runOracle(s, phases)
	if err != nil {
		return oracle{}, err
	}
	b.oracles[key] = o
	return o, nil
}

// deployment is one freshly generated and built instance of the
// computation, wrapped for stamping.
type deployment struct {
	t0     time.Time // start of graph generation
	spec   *spec.Spec
	built  *spec.Built
	mods   []core.Module
	st     *stamps
	timers []*stepTimer
	build  time.Duration
	// dueBase is the open-loop generator's first due time, as a stamp.
	dueBase int64
}

// newDeployment generates the graph from the seed and wraps its
// modules: the setup every segment and round pays.
func (b *bench) newDeployment(sparse, traced bool, phases int) (*deployment, error) {
	d := &deployment{t0: time.Now()}
	var err error
	if d.spec, err = makeSpec(b.graphSeed, b.seed, sparse); err != nil {
		return nil, err
	}
	if d.built, err = build(d.spec); err != nil {
		return nil, err
	}
	d.st = newStamps(phases, steadyLo(phases), phases)
	d.mods, d.timers = wrapAll(d.built.Graph, d.built.Modules, d.st, traced)
	d.build = time.Since(d.t0)
	b.tr.add("build", b.runSpan, d.t0, d.t0.Add(d.build))
	return d, nil
}

// firstResult is the time from generation start to the first sink
// result, or 0 when no sink ever stepped.
func (d *deployment) firstResult() time.Duration {
	f := d.st.first.Load()
	if f == 0 {
		return 0
	}
	return d.st.at(f).Sub(d.t0)
}

func (r *roundResult) addSetup(d *deployment) {
	if fr := d.firstResult(); fr > 0 {
		r.setup = append(r.setup, fr)
		r.build = append(r.build, d.build)
		r.firstRes = append(r.firstRes, fr-d.build)
	}
}

func (b *bench) engineRound(traced bool) roundResult {
	r := roundResult{traced: traced, phases: closedPhases + openPhases, layer: make(map[string]float64)}
	oc, err := b.oracleFor(false, closedPhases)
	if err != nil {
		r.fail(err, r.phases)
		return r
	}
	oo, err := b.oracleFor(false, openPhases)
	if err != nil {
		r.fail(err, r.phases)
		return r
	}
	expected := time.Duration(openPhases) * time.Second / openRate
	var closed, open *deployment
	var cst, ost core.Stats
	var wall time.Duration
	err = b.guard("engine-dense closed loop", expected/2, func() error {
		var err error
		closed, cst, wall, err = b.engineClosed(traced)
		return err
	})
	if err == nil {
		err = oc.check(closed.built)
	}
	if err != nil {
		r.fail(err, r.phases)
		return r
	}
	err = b.guard("engine-dense open loop", 2*expected, func() error {
		var err error
		open, ost, r.genLate, err = b.engineOpen(traced)
		return err
	})
	if err == nil {
		err = oo.check(open.built)
	}
	if err != nil {
		r.fail(err, openPhases)
		return r
	}

	r.addSetup(closed)
	r.addSetup(open)
	r.win.addThroughput(closed.st)
	r.rt, r.rtOK = runtimeDelta(closed.st)
	r.win.addLatency(open.st, open.due)
	r.liveHeapMB = liveHeapMB()
	runtime.KeepAlive(closed.built)
	runtime.KeepAlive(open.built)

	n := float64(closedPhases)
	r.layer["core.execs_per_phase"] = float64(cst.Executions) / n
	r.layer["core.msgs_per_phase"] = float64(cst.Messages) / n
	r.layer["baseline.phases_per_s"] = oc.phasesPerSec
	r.layer["core.speedup_vs_sequential"] = median(r.win.thr) / oc.phasesPerSec
	r.layer["core.max_queue_len"] = float64(ost.MaxQueueLen)
	if cst.Executions > 0 {
		r.layer["core.ns_per_exec"] = float64(engineWorkers) * float64(wall) / float64(cst.Executions)
		r.layer["core.lock_wait_ns_per_exec"] = float64(cst.LockWait) / float64(cst.Executions)
	}
	if wall > 0 {
		r.layer["core.step_share"] = float64(cst.ExecTime) / (float64(engineWorkers) * float64(wall))
	}
	if traced {
		moduleLayer(r.layer, closed)
	}
	return r
}

// due is the open-loop start of phase p: the generator's due time.
func (d *deployment) due(p int) int64 { return d.dueBase + int64(p-1)*int64(time.Second/openRate) }

func (b *bench) engineClosed(traced bool) (*deployment, core.Stats, time.Duration, error) {
	d, err := b.newDeployment(false, traced, closedPhases)
	if err != nil {
		return nil, core.Stats{}, 0, err
	}
	t0 := time.Now()
	eng, err := core.New(d.built.Graph, d.mods, b.engineConfig(traced))
	if err != nil {
		return nil, core.Stats{}, 0, err
	}
	t1 := time.Now()
	b.tr.add("core.New", b.runSpan, t0, t1)
	runSpan := b.tr.open("engine.Run", b.runSpan)
	st, err := eng.Run(make([][]core.ExtInput, closedPhases))
	t2 := time.Now()
	b.tr.close(runSpan)
	if err != nil {
		return nil, st, 0, err
	}
	b.samplePhases(d, runSpan)
	return d, st, t2.Sub(t1), nil
}

func (b *bench) engineConfig(traced bool) core.Config {
	return core.Config{
		Workers:            engineWorkers,
		MaxInFlight:        engineMaxInFlight,
		MeasureContention:  traced,
		MeasureVertexTimes: traced,
	}
}

// engineOpen drives a fresh engine from one generator goroutine at
// openRate. A phase is never issued before its due time; its latency
// runs from that due time, so a stall is charged to every phase it
// delays. It returns each phase's issue lateness in µs.
func (b *bench) engineOpen(traced bool) (*deployment, core.Stats, []float64, error) {
	d, err := b.newDeployment(false, traced, openPhases)
	if err != nil {
		return nil, core.Stats{}, nil, err
	}
	t0 := time.Now()
	eng, err := core.New(d.built.Graph, d.mods, b.engineConfig(traced))
	if err != nil {
		return nil, core.Stats{}, nil, err
	}
	eng.Start()
	b.tr.add("core.New", b.runSpan, t0, time.Now())
	runSpan := b.tr.open("engine.open", b.runSpan)

	period := time.Second / openRate
	gen0 := time.Now()
	d.dueBase = int64(gen0.Sub(d.st.base)) + 1
	late := make([]float64, 0, openPhases)
	genErr := make(chan error, 1)
	go func() {
		for k := 1; k <= openPhases; {
			now := time.Now()
			due := gen0.Add(time.Duration(k-1) * period)
			if wait := due.Sub(now); wait > 0 {
				if wait >= genMinSleep {
					ts := syscall.NsecToTimespec(int64(wait))
					syscall.Nanosleep(&ts, nil)
				} else {
					runtime.Gosched()
				}
				continue
			}
			if _, err := eng.StartPhase(nil); err != nil {
				genErr <- err
				return
			}
			late = append(late, float64(now.Sub(due))/1e3)
			k++
		}
		genErr <- nil
	}()
	err = <-genErr
	eng.Stop()
	b.tr.close(runSpan)
	if err != nil {
		return nil, core.Stats{}, nil, err
	}
	b.samplePhases(d, runSpan)
	return d, eng.Stats(), late, nil
}

// phaseSpanEvery keeps one phase in this many as a span.
const phaseSpanEvery = 1000

// samplePhases records a sample of phases as spans from their first
// source Step to their last sink Step.
func (b *bench) samplePhases(d *deployment, parent int) {
	if b.tr == nil {
		return
	}
	for p := 1; p < len(d.st.src); p += phaseSpanEvery {
		s, e := d.st.src[p].Load(), d.st.sink[p].Load()
		if s != 0 && e != 0 {
			b.tr.add("phase", parent, d.st.at(s), d.st.at(e))
		}
	}
}

// moduleLayer fills the module Step metrics from a traced deployment's
// step timers: ns per Step overall and per module type.
func moduleLayer(layer map[string]float64, d *deployment) {
	types := vertexTypes(d.spec, d.built)
	var calls, ns int64
	byType := make(map[string][2]int64)
	for i, t := range d.timers {
		if t == nil {
			continue
		}
		calls += t.calls
		ns += t.ns
		c := byType[types[i+1]]
		byType[types[i+1]] = [2]int64{c[0] + t.calls, c[1] + t.ns}
	}
	if calls > 0 {
		layer["module.step_ns_per_exec"] = float64(ns) / float64(calls)
	}
	for _, typ := range stepTypes {
		if c := byType[typ]; c[0] > 0 {
			layer["module.step_ns."+typ] = float64(c[1]) / float64(c[0])
		}
	}
}
