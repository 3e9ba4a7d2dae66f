package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/graph"
)

// The flocks: static and durable distrib.Run deployments of three
// single-worker machines over batched loopback TCP.
const (
	flockMachines    = 3
	flockWorkers     = 1
	flockMaxInFlight = 16
	flockPhases      = 20000
	// flockExpectedRate is a conservative phase rate, used only to size
	// each run's watchdog.
	flockExpectedRate = 5000

	// durableForceEvery is flock-durable-sparse's forced switch
	// interval: 9 switches in a 20,000-phase run.
	durableForceEvery = 2000
)

// The two partitions flock-durable-sparse alternates between. Each
// boundary moves by 12 vertices (a whole layer), so every switch moves
// 24 vertices and their state.
var (
	flipA = []int{1, 27, 59}
	flipB = []int{1, 39, 71}
)

func (b *bench) flockTCPRound(traced bool) roundResult {
	return b.flockRound(traced, false)
}

func (b *bench) flockDurableRound(traced bool) roundResult {
	return b.flockRound(traced, true)
}

// flockRound builds a fresh deployment and runs it to completion with
// distrib.Run: static with the CostAware planner, or (durable) with
// forced rebalancing between two fixed partitions and a WAL per
// machine.
func (b *bench) flockRound(traced, durable bool) roundResult {
	r := roundResult{traced: traced, phases: flockPhases, layer: make(map[string]float64)}
	o, err := b.oracleFor(durable, flockPhases)
	if err != nil {
		r.fail(err, r.phases)
		return r
	}
	var out flockOutcome
	expected := time.Duration(flockPhases) * time.Second / flockExpectedRate
	err = b.guard(b.workload, expected, func() error {
		var err error
		out, err = b.flockRun(traced, durable)
		return err
	})
	if err == nil {
		err = o.check(out.d.built)
	}
	if err != nil {
		r.fail(err, r.phases)
		return r
	}

	d, st, links, wall := out.d, out.st, out.links, out.wall
	r.addSetup(d)
	r.win.addThroughput(d.st)
	r.rt, r.rtOK = runtimeDelta(d.st)
	r.win.addLatency(d.st, func(p int) int64 { return d.st.src[p].Load() })
	r.liveHeapMB = liveHeapMB()
	runtime.KeepAlive(d.built)

	n := float64(flockPhases)
	var execs, msgs, lockWait, execTime int64
	maxExec := int64(0)
	for _, m := range st.PerMachine {
		execs += m.Executions
		msgs += m.Messages
		lockWait += int64(m.LockWait)
		execTime += int64(m.ExecTime)
		maxExec = max(maxExec, m.Executions)
	}
	r.layer["core.execs_per_phase"] = float64(execs) / n
	r.layer["core.msgs_per_phase"] = float64(msgs) / n
	r.layer["baseline.phases_per_s"] = o.phasesPerSec
	r.layer["core.speedup_vs_sequential"] = median(r.win.thr) / o.phasesPerSec
	workers := float64(flockMachines * flockWorkers)
	if execs > 0 {
		r.layer["core.ns_per_exec"] = workers * float64(wall) / float64(execs)
		r.layer["core.lock_wait_ns_per_exec"] = float64(lockWait) / float64(execs)
		r.layer["distrib.machine_exec_skew"] = float64(maxExec) * float64(len(st.PerMachine)) / float64(execs)
	}
	if wall > 0 {
		r.layer["core.step_share"] = float64(execTime) / (workers * float64(wall))
	}
	for _, m := range st.PerMachine {
		r.layer["core.max_queue_len"] = max(r.layer["core.max_queue_len"], float64(m.MaxQueueLen))
	}

	if len(st.Links) > 0 {
		// A durable run's Stats leave Links empty; then the counters
		// the traced Transport wrapper read stand in.
		links.setCounters(st.Links)
	}
	cut := st.CrossEdges
	if cut == 0 && len(st.Starts) > 0 {
		// A durable run's Stats leave CrossEdges empty; count the cut of
		// the partition it ended on.
		cut = graph.CutEdges(d.built.Graph, st.Starts)
	}
	r.layer["distrib.cut_edges"] = float64(cut)
	r.layer["distrib.cross_values_per_phase"] = float64(links.values) / n
	r.layer["distrib.send_blocks_per_kphase"] = 1000 * float64(links.sendBlocks) / n
	if links.links > 0 && wall > 0 {
		r.layer["distrib.link_blocked_share"] = float64(links.blocked) / (float64(links.links) * float64(wall))
	}
	if links.values > 0 {
		r.layer["netwire.bytes_per_value"] = float64(links.bytes) / float64(links.values)
	}
	if links.flushes > 0 {
		r.layer["netwire.frames_per_flush"] = float64(links.frames) / float64(links.flushes)
	}
	r.layer["netwire.send_ns_per_frame"] = links.send.meanNs()
	r.layer["netwire.flush_ns_per_flush"] = links.flush.meanNs()
	if len(out.plans) > 0 {
		ms := make([]float64, len(out.plans))
		for i, c := range out.plans {
			ms[i] = float64(c) / 1e6
		}
		r.layer["distrib.plan_ms"] = median(ms)
	}
	r.layer["distrib.switches"] = float64(len(st.Rebalances))
	if k := len(st.Rebalances); k > 0 {
		var moved, bytes float64
		pause := make([]float64, k)
		for i, ev := range st.Rebalances {
			moved += float64(ev.Moved)
			bytes += float64(ev.HandoffBytes)
			pause[i] = float64(ev.Wall) / 1e6
		}
		r.layer["distrib.moved_per_switch"] = moved / float64(k)
		r.layer["distrib.handoff_bytes_per_switch"] = bytes / float64(k)
		r.layer["distrib.pause_ms_p50"] = median(pause)
		r.layer["distrib.pause_ms_max"] = quantile(pause, 1)
	}
	r.layer["wal.file_bytes"] = float64(out.walBytes)
	if traced {
		moduleLayer(r.layer, d)
	}
	return r
}

// flockOutcome is what one flock deployment reports.
type flockOutcome struct {
	d        *deployment
	st       distrib.Stats
	links    linkTotals      // traced runs only
	plans    []time.Duration // traced runs only
	walBytes int64
	wall     time.Duration // distrib.Run
}

// flockRun performs one deployment: generation, network, planner and
// WAL set-up, then distrib.Run.
func (b *bench) flockRun(traced, durable bool) (flockOutcome, error) {
	var out flockOutcome
	d, err := b.newDeployment(durable, traced, flockPhases)
	if err != nil {
		return out, err
	}
	out.d = d
	costs, err := d.spec.Costs(d.built)
	if err != nil {
		return out, err
	}
	t0 := time.Now()
	tcp, err := distrib.NewTCPNetwork()
	if err != nil {
		return out, err
	}
	defer tcp.Close()
	var net distrib.Network = tcp
	var tnet *tracedNet
	if traced {
		tnet = &tracedNet{inner: tcp, tr: b.tr}
		net = tnet
	}
	var planner distrib.Planner = distrib.CostAware{}
	if durable {
		planner = &flipFlopPlanner{a: flipA, b: flipB}
	}
	var tp *timedPlanner
	if traced {
		tp = &timedPlanner{inner: planner, tr: b.tr}
		planner = tp
	}
	var opts []distrib.Option
	var walDir string
	if durable {
		walDir, err = os.MkdirTemp(b.outdir, "wal-")
		if err != nil {
			return out, err
		}
		defer os.RemoveAll(walDir)
		opts = append(opts,
			distrib.WithRebalancing(distrib.RebalanceConfig{ForceEvery: durableForceEvery, MaxRebalances: flockPhases / durableForceEvery}),
			distrib.WithWAL(walDir))
	}
	t1 := time.Now()
	b.tr.add("network", b.runSpan, t0, t1)
	runSpan := b.tr.open("distrib.Run", b.runSpan)
	if traced {
		tnet.parent, tp.parent = runSpan, runSpan
	}

	cfg := distrib.Config{
		Machines:          flockMachines,
		WorkersPerMachine: flockWorkers,
		MaxInFlight:       flockMaxInFlight,
		Network:           net,
		Planner:           planner,
		Costs:             costs,
		MeasureContention: traced,
	}
	out.st, err = distrib.Run(context.Background(), distrib.RunConfig{
		Graph: d.built.Graph, Mods: d.mods, Batches: make([][]core.ExtInput, flockPhases), Dist: cfg,
	}, opts...)
	out.wall = time.Since(t1)
	b.tr.close(runSpan)
	if err != nil {
		return out, fmt.Errorf("distrib.Run: %w", err)
	}
	if walDir != "" {
		out.walBytes = dirBytes(walDir)
	}
	if traced {
		out.links = tnet.totals()
		out.plans = tp.calls
		b.tr.mergeHist("Transport.Send", &out.links.send)
		b.tr.mergeHist("Flusher.Flush", &out.links.flush)
	}
	b.samplePhases(d, runSpan)
	b.switchSpans(d, out.st.Rebalances, runSpan)
	return out, nil
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) int64 {
	var n int64
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	for _, e := range ents {
		if fi, err := os.Stat(filepath.Join(dir, e.Name())); err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
	}
	return n
}

// switchSpans records each epoch switch as the gap the sinks and
// sources saw: from the last sink Step of a phase at or before the
// barrier to the first source Step after it. The Plan call made
// during a switch becomes its child.
func (b *bench) switchSpans(d *deployment, evs []distrib.RebalanceEvent, parent int) {
	if b.tr == nil {
		return
	}
	for _, ev := range evs {
		if ev.Barrier+1 >= len(d.st.src) {
			continue
		}
		var last int64
		for p := max(1, ev.Barrier-flockMaxInFlight); p <= ev.Barrier; p++ {
			last = max(last, d.st.sink[p].Load(), d.st.src[p].Load())
		}
		next := d.st.src[ev.Barrier+1].Load()
		if last != 0 && next > last {
			id := b.tr.add("switch", parent, d.st.at(last), d.st.at(next))
			b.tr.adopt(id, "plan")
		}
	}
}
