// Package griddemo is the shared workload behind examples/pipeline and
// cmd/fuseworker: a wide-area grid-monitoring computation — regional
// feeds smoothed and screened for anomalies, fused into a national
// alert — plus the worker drivers that run one machine of its
// partitioned deployment over real TCP links, either statically (one
// plan for the whole run) or under the rebalancing control plane
// (machine 0 coordinates epoch switches, DESIGN.md §9). Every worker
// process builds the identical graph with identical costs, so the
// processes agree on the workload without exchanging anything but
// frames; in rebalancing runs the plan itself comes from the
// coordinator over the control channel.
package griddemo

import (
	"fmt"
	"io"
	"log"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/graph"
	"repro/internal/module"
	"repro/internal/netwire"
	"repro/internal/spec"
	"repro/internal/wal"
)

// Regions is the number of regional feeds in the demo graph.
const Regions = 4

// Workload is a worker-runnable computation: the graph, one module per
// vertex, planner costs, and where the alert history (if any) lives.
type Workload struct {
	// Graph is the numbered computation graph.
	Graph *graph.Numbered
	// Mods holds the module for each global vertex (Mods[v-1]).
	Mods []core.Module
	// Costs estimates per-vertex work for the planner.
	Costs []float64
	// Alerts is the alert sink module, nil when the workload has none.
	Alerts *module.AlertSink
	// SinkVertex is the alert sink's global vertex index (0 = none).
	SinkVertex int
}

// driftMod wraps a module with a deterministic compute-grain drift:
// after phase After every Step burns ~Spin of CPU before delegating.
// Output is bit-identical to the bare module — the drift is pure cost,
// the signal the rebalancer exists to chase. It migrates through the
// inner module's Snapshotter.
type driftMod struct {
	inner core.Module
	after int
	spin  time.Duration
}

func (d *driftMod) Step(ctx *core.Context) {
	if ctx.Phase() > d.after {
		t0 := time.Now()
		for time.Since(t0) < d.spin {
		}
	}
	d.inner.Step(ctx)
}

func (d *driftMod) SnapshotState() ([]byte, error) {
	return d.inner.(core.Snapshotter).SnapshotState()
}

func (d *driftMod) RestoreState(state []byte) error {
	return d.inner.(core.Snapshotter).RestoreState(state)
}

// Build constructs the monitoring graph with fresh modules (modules are
// stateful and single-use) and returns the numbered graph, its modules
// in numbered order, per-vertex planner costs, the alert sink and the
// sink's global vertex index (whose owning machine reports alerts).
func Build() (*graph.Numbered, []core.Module, []float64, *module.AlertSink, int) {
	w := DemoWorkload(0)
	return w.Graph, w.Mods, w.Costs, w.Alerts, w.SinkVertex
}

// DemoWorkload builds the grid-monitoring demo. When driftAt is
// positive, region 0's detector drifts: past that phase it burns an
// extra compute grain per Step, so a rebalancing run has genuine
// mid-run skew to chase — with outputs untouched, since the drift is
// pure cost. Every module of the demo implements core.Snapshotter, so
// any vertex can migrate between worker processes.
func DemoWorkload(driftAt int) Workload {
	g := graph.New()
	type pending struct {
		id   int
		mod  core.Module
		cost float64
	}
	var vertices []pending
	add := func(name string, mod core.Module, cost float64) int {
		id := g.AddVertex(name)
		vertices = append(vertices, pending{id, mod, cost})
		return id
	}

	// Fusion counts regions currently in anomaly; Δ-inputs arrive only
	// on transitions, so it keeps the latest state per region.
	fuse := add("national-fusion", &module.FusionCount{}, 2)
	alarm := add("multi-region-alarm", &module.Threshold{Level: 1.5}, 1)
	alerts := &module.AlertSink{}
	sink := add("alerts", alerts, 1)
	g.MustEdge(fuse, alarm)
	g.MustEdge(alarm, sink)

	for r := 0; r < Regions; r++ {
		// Analytics dominate the cost estimate: the planner should pack
		// sources together and spread the detectors.
		feed := add(fmt.Sprintf("region%d/feed", r),
			&module.RandomWalk{Seed: uint64(0xFEED + r), Drift: 1.0}, 1)
		smooth := add(fmt.Sprintf("region%d/smoother", r), module.NewSmoother(0.25), 2)
		var detect core.Module = module.NewZScoreDetector(48, 2.5, 48)
		if r == 0 && driftAt > 0 {
			detect = &driftMod{inner: detect, after: driftAt, spin: 150 * time.Microsecond}
		}
		dv := add(fmt.Sprintf("region%d/zscore", r), detect, 4)
		g.MustEdge(feed, smooth)
		g.MustEdge(smooth, dv)
		g.MustEdge(dv, fuse)
	}

	ng, err := g.Number()
	if err != nil {
		log.Fatal(err)
	}
	w := Workload{
		Graph:      ng,
		Mods:       make([]core.Module, ng.N()),
		Costs:      make([]float64, ng.N()),
		Alerts:     alerts,
		SinkVertex: ng.IndexOf(sink),
	}
	for _, p := range vertices {
		w.Mods[ng.IndexOf(p.id)-1] = p.mod
		w.Costs[ng.IndexOf(p.id)-1] = p.cost
	}
	return w
}

// SpecWorkload loads a workload from an XML computation spec
// (internal/spec): vertices become registered modules, the optional
// per-vertex "cost" parameter feeds the planner, and the first
// alert-sink vertex (if any) reports the alert history. machines is
// the deployment's machine count — a spec that pins a different
// machine count, or has fewer vertices than machines, is refused with
// the mismatch named. The returned phase count is the spec's (0 when
// the spec does not set one).
func SpecWorkload(path string, machines int) (Workload, int, error) {
	s, err := spec.ParseFile(path)
	if err != nil {
		return Workload{}, 0, err
	}
	if s.Simulation.Machines > 0 && s.Simulation.Machines != machines {
		return Workload{}, 0, fmt.Errorf("griddemo: spec %q pins %d machines but the deployment has %d (-peers entries must match the spec)", s.Name, s.Simulation.Machines, machines)
	}
	b, err := s.Build(module.NewRegistry())
	if err != nil {
		return Workload{}, 0, err
	}
	if b.Graph.N() < machines {
		return Workload{}, 0, fmt.Errorf("griddemo: spec %q has %d vertices for %d machines", s.Name, b.Graph.N(), machines)
	}
	costs, err := s.Costs(b)
	if err != nil {
		return Workload{}, 0, err
	}
	w := Workload{Graph: b.Graph, Mods: b.Modules, Costs: costs}
	for v, m := range b.Modules {
		if sink, ok := m.(*module.AlertSink); ok {
			w.Alerts = sink
			w.SinkVertex = v + 1
			break
		}
	}
	return w, s.Simulation.Phases, nil
}

// Deploy plans the demo across the given machine count with the
// cost-aware planner, returning the deployment plus the alert sink and
// its global vertex index.
func Deploy(machines, workers, buffer int) (*distrib.Deployment, *module.AlertSink, int, error) {
	w := DemoWorkload(0)
	d, err := distrib.NewDeployment(w.Graph, w.Mods, distrib.Config{
		Machines: machines, WorkersPerMachine: workers,
		MaxInFlight: 16, Buffer: buffer,
		Planner: distrib.CostAware{}, Costs: w.Costs,
	})
	if err != nil {
		return nil, nil, 0, err
	}
	return d, w.Alerts, w.SinkVertex, nil
}

// WorkerOptions configures one machine's standalone run.
type WorkerOptions struct {
	// Machine is this process's machine index, 0-based.
	Machine int
	// Machines is the total machine count of the deployment.
	Machines int
	// Peers[m] is the address machine m listens on for inbound links
	// (and, for machine 0, the coordinator's control channel).
	Peers []string
	// Phases is the number of phases to run.
	Phases int
	// Workers is this machine's compute-thread count.
	Workers int
	// Buffer is the per-link frame depth (credit window).
	Buffer int
	// Workload overrides the compiled-in demo graph (e.g. one loaded
	// from a spec file). Leave zero to run the demo.
	Workload *Workload
	// Rebalance coordinates mid-run repartitioning across the worker
	// processes: machine 0 runs the Coordinator (election is by lowest
	// machine index), every worker serves a control-plane participant,
	// and vertices migrate between processes at epoch barriers.
	Rebalance bool
	// ForceEvery, when positive, triggers an epoch switch each time an
	// epoch has started this many phases — the deterministic demo/test
	// trigger. Zero leaves the drift monitor's skew detection in
	// charge.
	ForceEvery int
	// DriftAt, when positive, makes region 0's detector genuinely
	// drift (extra compute grain past that phase) so a rebalancing
	// demo has skew worth chasing. Demo workload only.
	DriftAt int
	// DialTimeout bounds how long to keep retrying a peer that has not
	// started listening yet. Defaults to 15s.
	DialTimeout time.Duration
	// WALDir, when set, makes a rebalancing run durable (DESIGN.md
	// §10): each worker appends fsynced epoch checkpoints to
	// WALDir/machine-<m>.wal, a local epoch failure parks the process
	// instead of tearing the flock down, and machine 0's coordinator
	// accepts crash rejoins mid-run. Requires Rebalance.
	WALDir string
	// Recover makes this worker rejoin a running flock from its WAL
	// instead of joining the initial launch — the restarted-process
	// path. Requires WALDir; machine 0 (the coordinator) cannot
	// recover.
	Recover bool
	// RecoverWindow bounds how long the coordinator waits for a
	// crashed worker to rejoin before aborting with the original
	// failure. Zero takes the control plane's default (30s).
	RecoverWindow time.Duration
	// WorkloadName identifies the workload inside the WAL header, so a
	// recovery against logs written under a different workload (e.g.
	// another -spec) is refused instead of replayed. Defaults to
	// "demo".
	WorkloadName string
	// Log receives progress lines. Defaults to discarding.
	Log io.Writer
}

// WorkerResult reports one worker process's run.
type WorkerResult struct {
	// Alerts is the alert-phase history, set only when OwnsSink.
	Alerts []int
	// OwnsSink reports whether this machine owned the alert sink at
	// the end of the run (migrations included).
	OwnsSink bool
	// Rebalances records the run's epoch switches; only machine 0 (the
	// coordinator) fills it.
	Rebalances []distrib.RebalanceEvent
	// Recoveries records the run's crash recoveries (durable runs
	// only); only machine 0 (the coordinator) fills it.
	Recoveries []distrib.RecoveryEvent
}

// backoffFor sizes the shared dial-retry schedule so its worst-case
// cumulative wait covers the requested boot window (the 4096-attempt
// ceiling — over an hour of 1s retries — only guards against an
// absurd timeout, not any realistic one).
func backoffFor(timeout time.Duration) netwire.Backoff {
	b := netwire.Backoff{Base: 50 * time.Millisecond, Factor: 1.5, Max: time.Second, Attempts: 2}
	for b.Total() < timeout && b.Attempts < 4096 {
		b.Attempts++
	}
	return b
}

// RunWorker runs one machine of a partitioned deployment over real TCP
// links: it listens on its own peer address, dials its downstream
// peers (retrying under a bounded backoff while they boot), and drives
// the machine to completion. Every worker process builds the identical
// workload, so a static run exchanges nothing but handshakes, frames
// and credits; a rebalancing run (Options.Rebalance) additionally
// speaks the control-plane protocol with machine 0, whose coordinator
// quiesces the flock at epoch barriers, re-plans on measured costs and
// migrates vertex state between the processes.
//
// When this machine owns the alert sink at the end of the run, the
// result carries the alert-phase history — bit-identical to a
// single-process run of the same graph, rebalanced or not.
func RunWorker(o WorkerOptions) (WorkerResult, error) {
	if o.Log == nil {
		o.Log = io.Discard
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 15 * time.Second
	}
	if o.Machine < 0 || o.Machine >= o.Machines || len(o.Peers) != o.Machines {
		return WorkerResult{}, fmt.Errorf("griddemo: machine %d of %d with %d peers", o.Machine, o.Machines, len(o.Peers))
	}
	if o.WALDir != "" && !o.Rebalance {
		return WorkerResult{}, fmt.Errorf("griddemo: a WAL requires the rebalancing control plane (checkpoints ride epoch launches)")
	}
	if o.Recover {
		if o.WALDir == "" {
			return WorkerResult{}, fmt.Errorf("griddemo: recovery requires a WAL directory")
		}
		if o.Machine == 0 {
			return WorkerResult{}, fmt.Errorf("griddemo: machine 0 hosts the coordinator and cannot rejoin a running flock (restart the whole run instead)")
		}
	}
	var w Workload
	if o.Workload != nil {
		w = *o.Workload
	} else {
		w = DemoWorkload(o.DriftAt)
	}
	host, err := distrib.NewWireHost(o.Machine, o.Peers, backoffFor(o.DialTimeout))
	if err != nil {
		return WorkerResult{}, err
	}
	defer host.Close()
	if o.Rebalance {
		return runRebalancingWorker(o, w, host)
	}
	return runStaticWorker(o, w, host)
}

// runStaticWorker is the single-plan path: every process computes the
// identical cost-aware plan and runs its machine once.
func runStaticWorker(o WorkerOptions, w Workload, host *distrib.WireHost) (WorkerResult, error) {
	m := o.Machine
	d, err := distrib.NewDeployment(w.Graph, w.Mods, distrib.Config{
		Machines: o.Machines, WorkersPerMachine: o.Workers,
		MaxInFlight: 16, Buffer: o.Buffer,
		Planner: distrib.CostAware{}, Costs: w.Costs,
	})
	if err != nil {
		return WorkerResult{}, err
	}
	fmt.Fprintf(o.Log, "machine %d/%d: plan starts=%v, %d upstream, %d downstream\n",
		m, o.Machines, d.Starts(), len(d.Upstream(m)), len(d.Downstream(m)))
	in, out, err := host.Wire(d, 0)
	if err != nil {
		return WorkerResult{}, fmt.Errorf("griddemo: machine %d: %w", m, err)
	}
	t0 := time.Now()
	st, err := d.RunMachine(m, make([][]core.ExtInput, o.Phases), in, out)
	if err != nil {
		return WorkerResult{}, fmt.Errorf("griddemo: machine %d: %w", m, err)
	}
	fmt.Fprintf(o.Log, "machine %d: %d executions, %d phases in %v\n",
		m, st.Executions, st.PhasesCompleted, time.Since(t0).Round(time.Millisecond))
	if w.SinkVertex > 0 && graph.PartitionOf(d.Starts(), w.SinkVertex) == m {
		return WorkerResult{Alerts: w.Alerts.Alerts, OwnsSink: true}, nil
	}
	return WorkerResult{}, nil
}

// runRebalancingWorker is the coordinated path: machine 0 hosts the
// Coordinator (plus its own participant over an in-process control
// pipe); every other machine dials machine 0's control channel and
// serves a participant. Plans — including the initial one — arrive
// over the control plane, and migrating vertex state crosses it as
// snapshot frames.
func runRebalancingWorker(o WorkerOptions, w Workload, host *distrib.WireHost) (WorkerResult, error) {
	m := o.Machine
	wc := distrib.WorkerConfig{
		Machine: m,
		Graph:   w.Graph,
		Mods:    w.Mods,
		Config: distrib.Config{
			WorkersPerMachine: o.Workers,
			MaxInFlight:       16,
			Buffer:            o.Buffer,
		},
		Batches: make([][]core.ExtInput, o.Phases),
		Wire:    host.Wire,
		Log:     o.Log,
	}
	if o.WALDir != "" {
		name := o.WorkloadName
		if name == "" {
			name = "demo"
		}
		// The signature binds the log to one workload identity: a
		// recovery against a WAL written under another spec, machine
		// count or phase count is refused at Open, not replayed.
		sig := fmt.Sprintf("%s/machines=%d/phases=%d", name, o.Machines, o.Phases)
		wlog, err := wal.Open(filepath.Join(o.WALDir, fmt.Sprintf("machine-%d.wal", m)), m, sig)
		if err != nil {
			return WorkerResult{}, fmt.Errorf("griddemo: machine %d: %w", m, err)
		}
		defer wlog.Close()
		wc.WAL = wlog
		wc.Rejoin = o.Recover
	}

	if m != 0 {
		ch, err := host.DialCtl(0)
		if err != nil {
			return WorkerResult{}, fmt.Errorf("griddemo: machine %d: %w", m, err)
		}
		rep, err := serveWorker(ch, wc, o.Log)
		if err != nil {
			return WorkerResult{}, err
		}
		return resultFor(w, rep, m), nil
	}

	// Machine 0: coordinator election is by lowest machine index. Its
	// own participant rides an in-process control pipe; every other
	// machine dials in.
	parts := make([]distrib.Participant, o.Machines)
	coordCh, selfCh := distrib.NewCtlPipe()
	parts[0] = distrib.NewRemoteParticipant(coordCh, "machine 0")
	for i := 1; i < o.Machines; i++ {
		conn, err := host.AcceptCtl(o.DialTimeout + 15*time.Second)
		if err != nil {
			return WorkerResult{}, fmt.Errorf("griddemo: coordinator: %w", err)
		}
		hs := conn.Handshake()
		if hs.To != 0 || hs.From <= 0 || hs.From >= o.Machines || parts[hs.From] != nil {
			conn.Close()
			return WorkerResult{}, fmt.Errorf("griddemo: coordinator: unexpected control channel %d->%d", hs.From, hs.To)
		}
		parts[hs.From] = distrib.NewRemoteParticipant(conn, fmt.Sprintf("machine %d", hs.From))
		fmt.Fprintf(o.Log, "coordinator: machine %d joined the control plane\n", hs.From)
	}
	rcfg := distrib.RebalanceConfig{
		ForceEvery:   o.ForceEvery,
		MinRemaining: o.Phases / 6,
		// Every drift poll is a TCP round trip per worker carrying a
		// full times vector; poll less often than the 2 ms default
		// rather than firehose the sockets.
		CheckEvery: 10 * time.Millisecond,
	}
	co := &distrib.Coordinator{
		Graph:        w.Graph,
		Costs:        w.Costs,
		Machines:     o.Machines,
		Phases:       o.Phases,
		Planner:      distrib.CostAware{},
		Rebalance:    rcfg,
		Participants: parts,
	}
	var stopRejoins chan struct{}
	if o.WALDir != "" {
		// Durable run: keep accepting control channels for the whole
		// run, so a crashed worker's restarted process can dial back in.
		// Each accept must open with the rejoin hello; anything else is
		// a stray and is dropped.
		rejoins := make(chan distrib.RejoinOffer, o.Machines)
		stopRejoins = make(chan struct{})
		co.Rejoins = rejoins
		co.Recovery = distrib.RecoverConfig{Window: o.RecoverWindow}
		go func() {
			for {
				conn, err := host.AcceptCtl(500 * time.Millisecond)
				if err != nil {
					select {
					case <-stopRejoins:
						return
					default:
						continue // timeout tick; keep listening
					}
				}
				hs := conn.Handshake()
				hello, err := conn.Recv()
				if err != nil || hello.Kind != netwire.FrameRejoin ||
					hs.From <= 0 || hs.From >= o.Machines {
					conn.Close()
					continue
				}
				fmt.Fprintf(o.Log, "coordinator: machine %d offers to rejoin (stable epoch %d, has checkpoint %v)\n",
					hs.From, hello.Epoch, hello.Done)
				select {
				case rejoins <- distrib.RejoinOffer{Machine: hs.From, Ch: conn}:
				case <-stopRejoins:
					conn.Close()
					return
				}
			}
		}()
	}
	type coDone struct {
		events []distrib.RebalanceEvent
		err    error
	}
	coCh := make(chan coDone, 1)
	go func() {
		events, err := co.Run()
		coCh <- coDone{events, err}
	}()
	rep, serveErr := serveWorker(selfCh, wc, o.Log)
	cd := <-coCh
	if stopRejoins != nil {
		close(stopRejoins)
	}
	if cd.err != nil {
		return WorkerResult{}, fmt.Errorf("griddemo: coordinator: %w", cd.err)
	}
	if serveErr != nil {
		return WorkerResult{}, serveErr
	}
	for _, ev := range cd.events {
		fmt.Fprintf(o.Log, "coordinator: epoch switch @ phase %d: starts %v -> %v, %d vertices moved (%d serialized, %d bytes)\n",
			ev.Barrier, ev.FromStarts, ev.ToStarts, ev.Moved, ev.Serialized, ev.HandoffBytes)
	}
	for _, rv := range co.Recoveries() {
		fmt.Fprintf(o.Log, "coordinator: recovery: machines %v rejoined, rolled back to epoch %d (phase %d), relaunched as epoch %d in %v\n",
			rv.Machines, rv.StableEpoch, rv.Base, rv.NextEpoch, rv.Wall.Round(time.Millisecond))
	}
	res := resultFor(w, rep, m)
	res.Rebalances = cd.events
	res.Recoveries = co.Recoveries()
	return res, nil
}

// serveWorker drives one participant to completion with progress
// logging.
func serveWorker(ch distrib.CtlChannel, wc distrib.WorkerConfig, logw io.Writer) (distrib.ParticipantReport, error) {
	t0 := time.Now()
	rep, err := distrib.ServeParticipant(ch, wc)
	if err != nil {
		return rep, err
	}
	fmt.Fprintf(logw, "machine %d: %d executions, %d phases, %d epochs in %v\n",
		wc.Machine, rep.Stats.Executions, rep.Stats.PhasesCompleted, rep.Epochs, time.Since(t0).Round(time.Millisecond))
	return rep, nil
}

// resultFor assembles a worker's result from its final partition:
// after any number of migrations, the alert history belongs to the
// machine owning the sink vertex at the end of the run.
func resultFor(w Workload, rep distrib.ParticipantReport, m int) WorkerResult {
	if w.SinkVertex > 0 && rep.FinalStarts != nil &&
		graph.PartitionOf(rep.FinalStarts, w.SinkVertex) == m {
		return WorkerResult{Alerts: w.Alerts.Alerts, OwnsSink: true}
	}
	return WorkerResult{}
}
