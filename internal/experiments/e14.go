package experiments

import (
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"time"

	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/netwire"
	"repro/internal/stats"
)

// E14Machines is the machine count of every E14 measurement point.
const E14Machines = 3

// e14TelemetryWindow is the depth of each drift vertex's input
// telemetry ring. It dominates the module's snapshot (8 bytes of hash
// state vs a multi-KB ring), which is exactly the shape the delta
// handoff path exists for: between adjacent barriers only the phases
// since the last switch are new.
const e14TelemetryWindow = 256

// e14Mod is one vertex of the drift workload: a Snapshotter module
// that burns a phase-dependent compute grain, folds its inputs into a
// deterministic running hash, and tracks input magnitudes in a sliding
// telemetry window (the window-backed state real fusion modules carry,
// and the bulk of what an epoch handoff must move). Before DriftAt it
// costs preLoops; after, postLoops — the mid-run cost drift E14 exists
// to recover from.
type e14Mod struct {
	state     int64
	win       *stats.Window
	preLoops  int
	postLoops int
	driftAt   int
}

func newE14Mod(state int64, pre, post, driftAt int) *e14Mod {
	return &e14Mod{
		state: state, win: stats.NewWindow(e14TelemetryWindow),
		preLoops: pre, postLoops: post, driftAt: driftAt,
	}
}

func (m *e14Mod) Step(ctx *core.Context) {
	if ctx.InCount() == 0 {
		return
	}
	loops := m.preLoops
	if ctx.Phase() > m.driftAt {
		loops = m.postLoops
	}
	if loops > 0 {
		spin(loops)
	}
	for p := 0; p < ctx.Ports(); p++ {
		if v, ok := ctx.In(p); ok {
			i, _ := v.AsInt()
			m.state = int64(mix64(uint64(m.state) ^ uint64(i)))
			m.win.Add(float64(i % 1024))
		}
	}
	ctx.EmitAll(intEvent(m.state))
}

// SnapshotState: the telemetry window's exact state, then the 8-byte
// running hash — the same window-first layout module.ZScoreDetector
// uses, so the delta encodes as window delta plus trailing bytes.
func (m *e14Mod) SnapshotState() ([]byte, error) {
	buf := m.win.AppendState(nil)
	return binary.LittleEndian.AppendUint64(buf, uint64(m.state)), nil
}

func (m *e14Mod) RestoreState(state []byte) error {
	if len(state) < 8 {
		return fmt.Errorf("e14: snapshot of %d bytes, want at least 8", len(state))
	}
	rest, err := m.win.ReadState(state[:len(state)-8])
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("e14: snapshot has %d trailing bytes", len(rest))
	}
	m.state = int64(binary.LittleEndian.Uint64(state[len(state)-8:]))
	return nil
}

// AppendDelta implements core.DeltaSnapshotter: the window's delta
// against the base handoff state, then the trailing hash word.
func (m *e14Mod) AppendDelta(dst, base []byte) ([]byte, bool, error) {
	if len(base) < 8 {
		return dst, false, fmt.Errorf("e14: delta base of %d bytes, want at least 8", len(base))
	}
	out, ok, err := m.win.AppendDelta(dst, base[:len(base)-8])
	if err != nil || !ok {
		return dst, ok, err
	}
	return binary.LittleEndian.AppendUint64(out, uint64(m.state)), true, nil
}

// ApplyDelta implements core.DeltaSnapshotter.
func (m *e14Mod) ApplyDelta(base, delta []byte) error {
	if len(base) < 8 || len(delta) < 8 {
		return fmt.Errorf("e14: delta base/delta too short (%d/%d bytes)", len(base), len(delta))
	}
	if err := m.win.ApplyDelta(base[:len(base)-8], delta[:len(delta)-8]); err != nil {
		return err
	}
	m.state = int64(binary.LittleEndian.Uint64(delta[len(delta)-8:]))
	return nil
}

// e14Sink records every value the chain tail produces — the history
// all three E14 runs must agree on bit for bit.
type e14Sink struct {
	log []int64
}

func (s *e14Sink) Step(ctx *core.Context) {
	if v, ok := ctx.FirstIn(); ok {
		i, _ := v.AsInt()
		s.log = append(s.log, i)
	}
}

// E14Workload describes the drift scenario: a chain whose drifter
// vertex jumps from the shared baseline grain to driftGrain after
// phase driftAt.
type E14Workload struct {
	N          int
	Drifter    int // 1-based chain position of the drifting vertex
	BaseGrain  time.Duration
	DriftGrain time.Duration
	DriftAt    int
}

// Build materializes the drift chain with fresh modules, returning the
// graph, modules, sink, and the pre-drift and post-drift cost vectors
// (the stale estimate and the oracle's knowledge, respectively).
func (w E14Workload) Build() (*graph.Numbered, []core.Module, *e14Sink, []float64, []float64) {
	ng, err := graph.Chain(w.N).Number()
	if err != nil {
		panic(err) // static topology; cannot fail
	}
	base := LoopsForGrain(w.BaseGrain)
	drift := LoopsForGrain(w.DriftGrain)
	mods := make([]core.Module, w.N)
	pre := make([]float64, w.N)
	post := make([]float64, w.N)
	mods[0] = core.StepFunc(func(ctx *core.Context) {
		if base > 0 {
			spin(base)
		}
		ctx.EmitAll(intEvent(int64(mix64(uint64(ctx.Phase())))))
	})
	pre[0], post[0] = 1, 1
	for i := 1; i < w.N-1; i++ {
		m := newE14Mod(int64(i), base, base, w.DriftAt)
		pre[i], post[i] = 1, 1
		if i+1 == w.Drifter {
			m.postLoops = drift
			post[i] = float64(w.DriftGrain) / float64(w.BaseGrain)
		}
		mods[i] = m
	}
	sink := &e14Sink{}
	mods[w.N-1] = sink
	pre[w.N-1], post[w.N-1] = 0.1, 0.1
	return ng, mods, sink, pre, post
}

// E14Row is one strategy's measurement over the drift workload.
type E14Row struct {
	Mode       string
	Wall       time.Duration
	Rebalances int
	Barriers   []int
	Moved      int
	// VsOracle is this mode's wall time relative to the oracle plan
	// that knew the drifted costs up front (1.0 = as good as knowing
	// the future).
	VsOracle float64
}

// E14Result measures what dynamic repartitioning buys (DESIGN.md §8):
// a run planned on stale (pre-drift) costs, the same run with the
// rebalancer watching measured per-vertex times, and the oracle that
// planned on post-drift costs from phase 1. All three sink histories
// must be bit-identical — the epoch switches are pure performance.
type E14Result struct {
	Rows []E14Row
	// Phases is the phase count every row ran (E14 fixes its own run
	// length; the BENCH.json row must report this, not the shared
	// bench phase count).
	Phases int
	Table  *metrics.Table
}

// E14Config is the canonical distrib configuration for an E14 run.
func E14Config() distrib.Config {
	return distrib.Config{
		Machines: E14Machines, WorkersPerMachine: 2,
		MaxInFlight: 16, Buffer: 8,
		Planner: distrib.CostAware{},
	}
}

// E14RebalanceConfig is the drift-detection tuning every E14
// measurement (and its test) uses.
func E14RebalanceConfig() distrib.RebalanceConfig {
	return distrib.RebalanceConfig{
		SkewThreshold:  1.35,
		CheckEvery:     500 * time.Microsecond,
		MinEpochPhases: 8,
		MinRemaining:   8,
		MinSignal:      500 * time.Microsecond,
		MaxRebalances:  2,
	}
}

// E14DynamicRepartition runs the drift scenario three ways — stale
// static plan, rebalancing, oracle static plan — and reports makespans
// and the rebalancer's recovery ratio. It panics if any run errors or
// if the histories diverge: a rebalance that changes output is a
// correctness bug, not a slow run.
func E14DynamicRepartition(quick bool) E14Result {
	phases := 240
	w := E14Workload{
		N: 12, Drifter: 10,
		BaseGrain: 4 * time.Microsecond, DriftGrain: 60 * time.Microsecond,
		DriftAt: 240 / 6,
	}
	if quick {
		phases = 80
		w.DriftAt = 80 / 6
	}

	var res E14Result
	res.Phases = phases
	var oracleWall time.Duration
	var refLog []int64
	run := func(mode string) E14Row {
		ng, mods, sink, pre, post := w.Build()
		cfg := E14Config()
		row := E14Row{Mode: mode}
		var st distrib.Stats
		var err error
		switch mode {
		case "static-stale":
			cfg.Costs = pre
			st, err = distrib.Run(context.Background(), distrib.RunConfig{Graph: ng, Mods: mods, Batches: Phases(phases), Dist: cfg})
		case "rebalance":
			cfg.Costs = pre
			st, err = distrib.Run(context.Background(), distrib.RunConfig{Graph: ng, Mods: mods, Batches: Phases(phases), Dist: cfg}, distrib.WithRebalancing(E14RebalanceConfig()))
		case "oracle":
			cfg.Costs = post
			st, err = distrib.Run(context.Background(), distrib.RunConfig{Graph: ng, Mods: mods, Batches: Phases(phases), Dist: cfg})
		}
		if err != nil {
			panic(fmt.Sprintf("E14 %s: %v", mode, err))
		}
		row.Wall = st.Wall
		row.Rebalances = len(st.Rebalances)
		for _, ev := range st.Rebalances {
			row.Barriers = append(row.Barriers, ev.Barrier)
			row.Moved += ev.Moved
		}
		if refLog == nil {
			refLog = sink.log
		} else if !int64sEqual(refLog, sink.log) {
			panic(fmt.Sprintf("E14 %s: sink history diverged — rebalancing changed the output", mode))
		}
		return row
	}

	// Oracle first so every row can report its ratio immediately.
	oracle := run("oracle")
	oracleWall = oracle.Wall
	oracle.VsOracle = 1.0
	static := run("static-stale")
	static.VsOracle = float64(static.Wall) / float64(oracleWall)
	reb := run("rebalance")
	reb.VsOracle = float64(reb.Wall) / float64(oracleWall)
	multi, multiLog := runE14MultiProcess(w, phases)
	multi.VsOracle = float64(multi.Wall) / float64(oracleWall)
	if !int64sEqual(refLog, multiLog) {
		panic("E14 rebalance-multiproc: sink history diverged — cross-process migration changed the output")
	}
	res.Rows = []E14Row{static, reb, multi, oracle}

	tb := metrics.NewTable(
		fmt.Sprintf("E14 — dynamic repartitioning: mid-run drift ×%d at vertex %d (machines=%d, drift@phase %d)",
			int(w.DriftGrain/w.BaseGrain), w.Drifter, E14Machines, w.DriftAt),
		"mode", "wall-time", "rebalances", "barriers", "moved", "vs-oracle")
	for _, r := range res.Rows {
		tb.Add(r.Mode, r.Wall, r.Rebalances, fmt.Sprint(r.Barriers), r.Moved, fmt.Sprintf("%.2f×", r.VsOracle))
	}
	res.Table = tb
	return res
}

// runE14MultiProcess runs the drift scenario under the multi-process
// control plane (DESIGN.md §9): one control-plane participant per
// machine, each holding its own copy of the workload — exactly as
// separate fuseworker processes would — joined by real loopback TCP
// control channels and data links, with the coordinator re-planning on
// measured costs and migrating vertex state across the sockets. The
// returned log is the tail sink's history, which the caller checks
// against the in-process runs bit for bit.
func runE14MultiProcess(w E14Workload, phases int) (E14Row, []int64) {
	row := E14Row{Mode: "rebalance-multiproc"}
	machines := E14Machines
	fail := func(err error) {
		panic(fmt.Sprintf("E14 rebalance-multiproc: %v", err))
	}

	addrs := make([]string, machines)
	for m := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fail(err)
		}
		addrs[m] = ln.Addr().String()
		ln.Close()
	}
	hosts := make([]*distrib.WireHost, machines)
	for m := range hosts {
		h, err := distrib.NewWireHost(m, addrs, netwire.Backoff{Base: 5 * time.Millisecond, Attempts: 40})
		if err != nil {
			fail(err)
		}
		hosts[m] = h
		defer h.Close()
	}

	t0 := time.Now()
	type workerDone struct {
		m   int
		err error
	}
	done := make(chan workerDone, machines)
	parts := make([]distrib.Participant, machines)
	var coordGraph *graph.Numbered
	var coordPre []float64
	var tailSink *e14Sink
	for m := 0; m < machines; m++ {
		ng, mods, sink, pre, _ := w.Build()
		if m == 0 {
			coordGraph, coordPre = ng, pre
		}
		if m == machines-1 {
			tailSink = sink // the chain tail never leaves the last machine
		}
		var ch, coordCh distrib.CtlChannel
		if m == 0 {
			coordCh, ch = distrib.NewCtlPipe()
		} else {
			conn, err := hosts[m].DialCtl(0)
			if err != nil {
				fail(err)
			}
			ch = conn
			acc, err := hosts[0].AcceptCtl(10 * time.Second)
			if err != nil {
				fail(err)
			}
			coordCh = acc
		}
		parts[m] = distrib.NewRemoteParticipant(coordCh, fmt.Sprintf("machine %d", m))
		cfg := E14Config()
		wc := distrib.WorkerConfig{
			Machine: m, Graph: ng, Mods: mods,
			Config: distrib.Config{
				WorkersPerMachine: cfg.WorkersPerMachine,
				MaxInFlight:       cfg.MaxInFlight,
				Buffer:            cfg.Buffer,
			},
			Batches: Phases(phases),
			Wire:    hosts[m].Wire,
		}
		go func(m int) {
			_, err := distrib.ServeParticipant(ch, wc)
			done <- workerDone{m, err}
		}(m)
	}
	co := &distrib.Coordinator{
		Graph:        coordGraph,
		Costs:        coordPre, // the stale estimate the drift invalidates
		Machines:     machines,
		Phases:       phases,
		Planner:      distrib.CostAware{},
		Rebalance:    E14RebalanceConfig(),
		Participants: parts,
	}
	events, err := co.Run()
	if err != nil {
		fail(err)
	}
	for i := 0; i < machines; i++ {
		if d := <-done; d.err != nil {
			fail(fmt.Errorf("worker %d: %w", d.m, d.err))
		}
	}
	row.Wall = time.Since(t0)
	row.Rebalances = len(events)
	for _, ev := range events {
		row.Barriers = append(row.Barriers, ev.Barrier)
		row.Moved += ev.Moved
	}
	return row, tailSink.log
}

func int64sEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
