// Package distrib implements the paper's §6 future-work direction:
// "using networks of multiprocessor machines ... including methods for
// partitioning the computation graph across multiple machines and
// replication of event streams to multiple distinct computation graphs."
//
// Machines are independent engine instances — each with its own global
// lock, run queue and worker pool, so nothing is shared but the
// explicit bounded links between them. The links themselves sit behind
// the Transport interface: in-process bounded channels by default
// (ChannelNetwork), real loopback TCP sockets with a credit window
// (TCPNetwork), or a fault-injecting wrapper (FaultyNetwork) — see
// DESIGN.md §7. cmd/fuseworker drives a single machine of a Deployment
// over TCP, making a genuinely multi-process run of the same plan.
//
// Partitioning is by contiguous vertex-index ranges chosen by a
// Planner (cost-aware by default, blind equal-count as the reference):
// because the numbering is topological, every cross-partition edge
// points from a lower machine to a higher one. Each outgoing cross edge
// gets a portal sink on the producing machine and a bridge source on
// the consuming machine; machine j starts phase p only after every
// upstream machine has shipped its phase-p frame, preserving the "all
// inputs known" invariant and hence serializability end to end. Within
// that constraint the machines run freely: each machine's ingress pulls
// frames and opens phases under its own MaxInFlight window while its
// egress ships completed phases downstream, so different machines are
// concurrently executing different phases — the pipeline runs across
// the cut, with link windows and a ship window bounding how far any
// machine can run ahead of its consumers.
package distrib

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/evlog"
	"repro/internal/graph"
	"repro/internal/netwire"
)

// Config tunes a partitioned run.
type Config struct {
	// Machines is the number of machines (pipeline stages).
	Machines int
	// WorkersPerMachine is each machine's compute-thread count.
	WorkersPerMachine int
	// MaxInFlight bounds each machine's open-phase window and how many
	// completed-but-unshipped phases it may accumulate. Defaults to 64.
	MaxInFlight int
	// Buffer is the per-link frame depth (cross-machine pipelining
	// slack). Zero defaults to 8; values below MinLinkDepth are
	// rejected at plan time — the former silent clamp is gone, so
	// callers own their flow-control window explicitly.
	Buffer int
	// Network supplies the cross-machine transports. Nil defaults to
	// ChannelNetwork (in-process bounded channels). Run closes only the
	// network it defaulted itself; a caller-supplied Network (e.g. a
	// TCPNetwork) is closed by the caller, after Run returns.
	Network Network
	// Planner chooses the stage boundaries. Defaults to CostAware{}.
	Planner Planner
	// Costs[v-1] estimates vertex v's per-phase work for the planner.
	// Defaults to uniform costs; MeasuredCosts converts a calibration
	// run's per-vertex Step times into this vector.
	Costs []float64
	// MeasureContention enables each machine engine's lock-wait
	// instrumentation (core.Config.MeasureContention), surfaced through
	// Stats.PerMachine.
	MeasureContention bool
	// Tap, when non-nil, records every engine and link event of the
	// run into the event log (DESIGN.md §11): phase launch/commit,
	// feeds, vertex executions, and frame traffic on both link ends.
	// Nil costs nothing — every hook is a single nil check.
	Tap evlog.Tap
}

// Stats aggregates a partitioned run.
type Stats struct {
	// PerMachine holds each machine's engine stats.
	PerMachine []core.Stats
	// Links snapshots every cross-machine link, in creation order.
	Links []LinkStats
	// CrossMessages counts values forwarded across machine boundaries.
	CrossMessages int64
	// CrossEdges is the number of graph edges cut by the partition.
	CrossEdges int
	// Starts is the partition the planner chose (per-machine inclusive
	// start indices into the global numbering).
	Starts []int
	// Planner names the planner that produced Starts.
	Planner string
	// Transport names the Network that carried the links.
	Transport string
	// Rebalances records each epoch switch a coordinated run
	// performed, in order; empty for a static run. After a rebalance,
	// Starts/CrossEdges describe the newest epoch's plan, Links holds
	// every epoch's links (by epoch, then by machine pair) and
	// PerMachine[m] aggregates machine m's counters across epochs.
	Rebalances []RebalanceEvent
	// Recoveries records each crash recovery of a durable coordinated
	// run (DESIGN.md §10); empty when recovery is off or never fired.
	Recoveries []RecoveryEvent
	// Wall is the end-to-end wall-clock time of Run.
	Wall time.Duration
}

// portal is the sink standing in for a cross-partition edge on the
// producing machine: it buffers the value emitted for each phase until
// the egress loop ships it. WaitPhase(p) guarantees the phase-p entry
// is final before egress takes it, but Steps for later phases can still
// be writing, so the buffer carries its own lock.
type portal struct {
	mu  sync.Mutex // Step (phase q) can run while egress reads phase p < q
	buf map[int]event.Value
}

func (p *portal) Step(ctx *core.Context) {
	if v, ok := ctx.FirstIn(); ok {
		p.mu.Lock()
		p.buf[ctx.Phase()] = v
		p.mu.Unlock()
	}
}

// take removes and returns the value buffered for phase p, if any.
func (p *portal) take(phase int) (event.Value, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	v, ok := p.buf[phase]
	if ok {
		delete(p.buf, phase)
	}
	return v, ok
}

// bridge is the source standing in for a cross-partition edge on the
// consuming machine: it relays the value the link delivered from the
// upstream portal, preserving silence when the upstream vertex emitted
// nothing that phase.
type bridge struct{}

func (b bridge) Step(ctx *core.Context) {
	if v, ok := ctx.FirstIn(); ok {
		ctx.EmitAll(v)
	}
}

// portalRoute ties a portal module to its destination bridge.
type portalRoute struct {
	p            *portal
	toMachine    int
	bridgeVertex int // local index of the bridge on the target machine
}

// machine is one pipeline stage: an engine over its slice of the graph
// plus the routing metadata that couples it to its neighbors. The
// transports themselves are supplied at run time, so the same machine
// definition runs over channels, loopback TCP, or a remote process's
// sockets.
type machine struct {
	idx     int
	eng     *core.Engine
	ng      *graph.Numbered
	localOf map[int]int // global vertex index -> local index (real vertices)
	// upstream and downstream list the machine indices with at least one
	// edge into / out of this machine, ascending.
	upstream   []int
	downstream []int
	// routesTo[j] lists the portals whose values ride the link to
	// downstream machine j.
	routesTo map[int][]*portalRoute
	// ext[p-1-base] is the machine's share of this epoch's external
	// inputs (phase numbers are global; base offsets into the slice).
	ext [][]core.ExtInput
	// epoch and base identify the machine's run window under dynamic
	// repartitioning: it runs phases base+1 onward, tagging every frame
	// with epoch and rejecting frames tagged otherwise. Both stay zero
	// in a static run.
	epoch int
	base  int
	// ctl couples a head machine (no upstream links) to the epoch
	// barrier; nil in a static run. Non-head machines learn the
	// barrier in-band, from the barrier frames their upstreams flood.
	ctl *epochCtl
	// barrierAt, when nonzero, is the phase this machine quiesced at:
	// its engine completed every phase ≤ barrierAt and no later one.
	// Written by the ingress goroutine before it closes the started
	// channel, read by egress after that close, so no lock is needed.
	barrierAt int
	// egressDown is set when the egress loop lost a link; ingress
	// checks it before opening another phase so a machine whose
	// outbound wire died aborts instead of computing into the void.
	egressDown atomic.Pointer[error]
}

// ingress drives the machine's engine: for each phase it takes a ship
// token, receives one frame from every upstream link, merges in the
// local external inputs and opens the phase. Ship tokens (returned by
// egress) bound completed-but-unshipped phases so portal buffers cannot
// grow without bound when a downstream machine is slow — backpressure
// propagates link by link all the way to the head of the pipeline.
//
// An error is reported through fail *before* the started channel
// closes: the close is what lets egress shut the outbound links and
// cascade the failure downstream, so reporting first guarantees the
// root-cause error wins the first-error slot over the derived
// "upstream closed" errors it triggers.
//
// Under dynamic repartitioning the feed is also where the epoch
// barrier lands: a head machine (no upstream) asks the epoch
// controller before opening each phase and quiesces once the phase is
// past the agreed barrier; a non-head machine quiesces when every
// upstream has sent the barrier frame that follows its final data
// frame. Either way the quiesce is core.ErrStopFeed — a clean early
// stop, not a failure.
func (mc *machine) ingress(phases int, in map[int]Transport, tokens chan struct{}, started chan<- int, fail func(error)) core.Stats {
	defer close(started)
	if mc.ctl != nil && len(mc.upstream) == 0 {
		defer mc.ctl.headFinished()
	}
	st, err := mc.eng.RunFeed(phases, func(p int) ([]core.ExtInput, error) {
		if headGateHook != nil {
			headGateHook(mc.idx, p)
		}
		if mc.ctl != nil && len(mc.upstream) == 0 && !mc.ctl.headProceed(p) {
			mc.barrierAt = p - 1
			return nil, core.ErrStopFeed
		}
		<-tokens
		if errp := mc.egressDown.Load(); errp != nil {
			return nil, fmt.Errorf("distrib: machine %d: aborting ingress at phase %d: %w", mc.idx, p, *errp)
		}
		ext := mc.ext[p-1-mc.base]
		barriers := 0
		for _, up := range mc.upstream {
			f, err := in[up].Recv()
			if err == ErrLinkClosed {
				return nil, fmt.Errorf("distrib: machine %d: upstream %d closed before phase %d", mc.idx, up, p)
			}
			if err != nil {
				// A wire-level failure (corruption, broken socket):
				// surface the root cause, not a summary.
				return nil, fmt.Errorf("distrib: machine %d: upstream %d link failed before phase %d: %w", mc.idx, up, p, err)
			}
			if f.Epoch != mc.epoch {
				return nil, fmt.Errorf("distrib: machine %d: stale-epoch frame from upstream %d: epoch %d, running epoch %d", mc.idx, up, f.Epoch, mc.epoch)
			}
			switch f.Kind {
			case FrameBarrier:
				// The barrier follows the upstream's final data frame, so
				// it can only ever arrive where phase p-1 data ended.
				if f.Phase != p-1 {
					return nil, fmt.Errorf("distrib: machine %d: upstream %d announced barrier at phase %d while starting %d", mc.idx, up, f.Phase, p)
				}
				barriers++
			case FrameData:
				if barriers > 0 {
					return nil, fmt.Errorf("distrib: machine %d: upstream %d sent phase-%d data after another upstream's barrier", mc.idx, up, f.Phase)
				}
				if f.Phase != p {
					return nil, fmt.Errorf("distrib: machine %d: frame for phase %d while starting %d", mc.idx, f.Phase, p)
				}
				ext = append(ext, f.Inputs...)
				netwire.RecycleInputs(f.Inputs)
			default:
				return nil, fmt.Errorf("distrib: machine %d: unexpected frame kind %s from upstream %d", mc.idx, netwire.KindName(uint8(f.Kind)), up)
			}
		}
		if barriers > 0 {
			if barriers != len(mc.upstream) {
				return nil, fmt.Errorf("distrib: machine %d: %d of %d upstreams at the barrier before phase %d", mc.idx, barriers, len(mc.upstream), p)
			}
			mc.barrierAt = p - 1
			return nil, core.ErrStopFeed
		}
		return ext, nil
	}, func(p int) { started <- p })
	if err != nil && !errors.Is(err, core.ErrStopFeed) {
		fail(err)
		// Abandon the inbound links so upstream egress loops can never
		// wedge against a window nobody reads; they observe our egress
		// closing its links and cascade the shutdown.
		for _, up := range mc.upstream {
			go in[up].DrainDiscard()
		}
	}
	return st
}

// egress ships every started phase downstream as soon as the engine
// completes it, then closes the machine's outbound links and returns
// each phase's ship token. A Send error (dead wire, injected fault)
// marks the machine down: the failure is reported, ingress stops
// opening phases, and the remaining started phases only have their
// ship tokens returned — the deferred close then cascades the outage
// to every downstream machine.
//
// When the machine quiesced at an epoch barrier, egress floods the
// barrier downstream after its final data frame — the control frame
// that tells every consumer where this epoch ends — and only then
// closes the links.
func (mc *machine) egress(out map[int]Transport, tokens chan<- struct{}, started <-chan int, fail func(error)) {
	defer func() {
		for _, l := range out {
			l.Close()
		}
	}()
	for {
		var p int
		var ok bool
		select {
		case p, ok = <-started:
		default:
			// No completed phase is waiting: the sender is about to go
			// idle, so every batched frame must hit the wire now — a
			// downstream machine may be starving for one of them while
			// this machine's next phase depends, transitively, on that
			// machine making progress.
			if mc.egressDown.Load() == nil {
				if err := flushLinks(out); err != nil {
					err = fmt.Errorf("distrib: machine %d: flushing links: %w", mc.idx, err)
					fail(err)
					mc.egressDown.Store(&err)
				}
			}
			p, ok = <-started
		}
		if !ok {
			break
		}
		if mc.egressDown.Load() == nil {
			mc.eng.WaitPhase(p)
			if err := mc.ship(out, p); err != nil {
				err = fmt.Errorf("distrib: machine %d: phase %d: %w", mc.idx, p, err)
				fail(err)
				mc.egressDown.Store(&err)
			}
		}
		tokens <- struct{}{}
	}
	if mc.barrierAt > 0 && mc.egressDown.Load() == nil {
		for _, dst := range mc.downstream {
			if err := out[dst].Send(Frame{Kind: FrameBarrier, Epoch: mc.epoch, Phase: mc.barrierAt}); err != nil {
				err = fmt.Errorf("distrib: machine %d: flooding barrier %d: %w", mc.idx, mc.barrierAt, err)
				fail(err)
				mc.egressDown.Store(&err)
				return
			}
		}
	}
}

// ship sends phase p's frame on every outbound link. Data-frame input
// slices come from the netwire pool and are owned by the transport once
// Send returns: wire links recycle them after encoding, channel links
// pass them to the peer's ingress, which recycles after copying out.
func (mc *machine) ship(out map[int]Transport, p int) error {
	for _, dst := range mc.downstream {
		routes := mc.routesTo[dst]
		f := Frame{Kind: FrameData, Epoch: mc.epoch, Phase: p, Inputs: netwire.GetInputs(len(routes))}
		for _, r := range routes {
			if v, ok := r.p.take(p); ok {
				f.Inputs = append(f.Inputs, core.ExtInput{Vertex: r.bridgeVertex, Port: 0, Val: v})
			}
		}
		l := out[dst]
		if fl, ok := l.(Flusher); ok && !fl.Ready() {
			// This send is about to block on its credit window. Flush
			// every link first: a frame batched for another machine may
			// be exactly what unblocks the dependency chain the window
			// is waiting on.
			if err := flushLinks(out); err != nil {
				return err
			}
		}
		if err := l.Send(f); err != nil {
			return err
		}
	}
	return nil
}

// Deployment is a planned partitioned run: the per-machine engines,
// portal/bridge routing and cross-machine topology chosen by the
// planner, ready to be wired to any Transport implementation. A
// Deployment is single-use (engines and modules are stateful): plan,
// run every machine once, discard.
//
// runWired drives all machines in-process (the Run facade's static
// path); RunMachine drives one machine over caller-supplied
// transports, which is how cmd/fuseworker turns the same plan into a
// multi-process deployment.
type Deployment struct {
	cfg        Config
	window     runWindow
	starts     []int
	planner    string
	crossEdges int
	machines   []*machineState
}

// runWindow positions a deployment inside a longer computation: the
// epoch number stamped on its frames, the phase base it resumes after
// (phases base+1 onward), and whether its engines measure per-vertex
// Step times (the rebalancer's drift signal). starts, when non-nil,
// is a pre-validated partition to assemble instead of planning anew —
// the rebalancer computes the migration set from the new plan and
// must deploy exactly that plan, not a second Plan call's output. The
// zero value is a plain single-epoch deployment starting at phase 1.
type runWindow struct {
	epoch   int
	base    int
	measure bool
	starts  []int
}

// NewDeployment validates the configuration, plans the partition and
// assembles every machine's engine. mods[v-1] is the module for global
// vertex v, exactly as for core.New.
func NewDeployment(g *graph.Numbered, mods []core.Module, cfg Config) (*Deployment, error) {
	return newDeploymentAt(g, mods, cfg, runWindow{})
}

// newDeploymentAt is NewDeployment positioned at an arbitrary run
// window — the epoch constructor a coordinated worker uses at each
// launch.
func newDeploymentAt(g *graph.Numbered, mods []core.Module, cfg Config, window runWindow) (*Deployment, error) {
	if len(mods) != g.N() {
		return nil, fmt.Errorf("distrib: %d modules for %d vertices", len(mods), g.N())
	}
	if cfg.WorkersPerMachine <= 0 {
		cfg.WorkersPerMachine = 1
	}
	if cfg.Buffer == 0 {
		cfg.Buffer = 8
	}
	if cfg.Buffer < MinLinkDepth {
		return nil, fmt.Errorf("distrib: link buffer depth %d < minimum %d (depth 0 would re-serialize the pipeline)", cfg.Buffer, MinLinkDepth)
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 64
	}
	planner := cfg.Planner
	if planner == nil {
		planner = CostAware{}
	}
	costs := cfg.Costs
	if costs == nil {
		costs = graph.UniformCosts(g.N())
	} else if len(costs) != g.N() {
		return nil, fmt.Errorf("distrib: %d costs for %d vertices", len(costs), g.N())
	}
	for v, cost := range costs {
		if cost < 0 || math.IsNaN(cost) || math.IsInf(cost, 0) {
			return nil, fmt.Errorf("distrib: invalid cost %v for vertex %d (costs must be finite and non-negative)", cost, v+1)
		}
	}
	starts := window.starts
	if starts == nil {
		var err error
		starts, err = planner.Plan(g, costs, cfg.Machines)
		if err != nil {
			return nil, err
		}
	}
	if len(starts) != cfg.Machines {
		return nil, fmt.Errorf("distrib: planner %s returned %d stages for %d machines", planner.Name(), len(starts), cfg.Machines)
	}
	if err := graph.ValidateStarts(g.N(), starts); err != nil {
		return nil, fmt.Errorf("distrib: planner %s: %w", planner.Name(), err)
	}
	machines, crossEdges, err := assemble(g, mods, starts, cfg, window)
	if err != nil {
		return nil, err
	}
	return &Deployment{
		cfg:        cfg,
		window:     window,
		starts:     starts,
		planner:    planner.Name(),
		crossEdges: crossEdges,
		machines:   machines,
	}, nil
}

// Machines returns the number of pipeline stages.
func (d *Deployment) Machines() int { return len(d.machines) }

// Starts returns the partition the planner chose (per-machine inclusive
// start indices into the global numbering).
func (d *Deployment) Starts() []int { return append([]int(nil), d.starts...) }

// CrossEdges returns the number of graph edges the partition cuts.
func (d *Deployment) CrossEdges() int { return d.crossEdges }

// PlannerName names the planner that produced the partition.
func (d *Deployment) PlannerName() string { return d.planner }

// Buffer returns the validated per-link frame depth every transport of
// this deployment must be built with.
func (d *Deployment) Buffer() int { return d.cfg.Buffer }

// Upstream returns the machine indices with at least one link into
// machine m, ascending. RunMachine(m, ...) requires exactly one inbound
// transport per entry.
func (d *Deployment) Upstream(m int) []int {
	return append([]int(nil), d.machines[m].upstream...)
}

// Downstream returns the machine indices machine m links to, ascending.
// RunMachine(m, ...) requires exactly one outbound transport per entry.
func (d *Deployment) Downstream(m int) []int {
	return append([]int(nil), d.machines[m].downstream...)
}

// RunMachine drives one machine of the deployment to completion over
// caller-supplied transports: in[i] must deliver the frames upstream
// machine i ships, out[j] must carry this machine's frames to
// downstream machine j — one transport per Upstream/Downstream entry.
// batches are the *global* per-phase external inputs; the machine takes
// only the share addressed to its own vertices. RunMachine blocks until
// the machine has completed (or aborted) all phases; the returned error
// is the machine's root-cause failure, with outbound links closed and
// inbound links drained so no peer can wedge against this machine.
// RunMachine is the per-worker entry point for multi-process
// deployments and is deliberately not folded into the Run facade,
// which drives whole single-process runs.
func (d *Deployment) RunMachine(m int, batches [][]core.ExtInput, in, out map[int]Transport) (core.Stats, error) {
	mc := d.machines[m]
	for _, up := range mc.upstream {
		if in[up] == nil {
			return core.Stats{}, fmt.Errorf("distrib: machine %d: missing inbound transport from machine %d", m, up)
		}
	}
	for _, dst := range mc.downstream {
		if out[dst] == nil {
			return core.Stats{}, fmt.Errorf("distrib: machine %d: missing outbound transport to machine %d", m, dst)
		}
	}
	mc.splitExternal(d.starts, batches)

	var errMu sync.Mutex
	var firstErr error
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	st := mc.run(len(batches), d.cfg.MaxInFlight, in, out, fail)
	errMu.Lock()
	defer errMu.Unlock()
	return st, firstErr
}

// run drives the machine's ingress and egress loops to completion and
// returns the engine stats. fail receives every loop failure;
// first-error selection is the caller's.
func (mc *machine) run(phases, window int, in, out map[int]Transport, fail func(error)) core.Stats {
	tokens := make(chan struct{}, window)
	for i := 0; i < window; i++ {
		tokens <- struct{}{}
	}
	started := make(chan int, phases)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		mc.egress(out, tokens, started, fail)
	}()
	st := mc.ingress(phases, in, tokens, started, fail)
	wg.Wait()
	return st
}

// runWired wires every connected machine pair through net and drives
// all machines of the deployment in-process over the run's per-phase
// external inputs — the Run facade's static path.
func (d *Deployment) runWired(batches [][]core.ExtInput, net Network) (Stats, error) {
	t0 := time.Now()
	// Wire every machine before any of them runs, so a wiring failure
	// leaves nothing running.
	ex := newLinkExchange(net)
	ins := make([]map[int]Transport, len(d.machines))
	outs := make([]map[int]Transport, len(d.machines))
	for m := range d.machines {
		var err error
		if ins[m], outs[m], err = ex.wireFor(m)(d, 0); err != nil {
			ex.close()
			return Stats{}, err
		}
	}

	// Drive every machine: ingress opens phases, egress ships them.
	var wg sync.WaitGroup
	var errMu sync.Mutex
	var firstErr error
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	splitExternalAll(d.machines, d.starts, batches)
	for m, mc := range d.machines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mc.finalStats = mc.run(len(batches), d.cfg.MaxInFlight, ins[m], outs[m], fail)
		}()
	}
	wg.Wait()

	st := Stats{
		CrossEdges: d.crossEdges,
		Starts:     d.starts,
		Planner:    d.planner,
		Transport:  net.Name(),
	}
	for _, mc := range d.machines {
		st.PerMachine = append(st.PerMachine, mc.finalStats)
	}
	st.Links, st.CrossMessages = ex.stats()
	st.Wall = time.Since(t0)
	errMu.Lock()
	defer errMu.Unlock()
	return st, firstErr
}

// assemble builds the per-machine subgraphs, engines, portals and
// bridges for the given partition. Transports are wired later, by Run
// or by the RunMachine caller.
//
// Construction order is load-bearing: a consumer's input-port order is
// its ascending local predecessor numbering, and that must reproduce
// the ascending *global* predecessor order or the module folds its
// inputs differently than the sequential oracle. Cross-edge sources
// all have lower global indices than any local vertex (the partition
// is contiguous over a topological numbering), so each machine adds
// its bridges first — in ascending (source, consumer) order — then its
// real vertices: every bridge is a subgraph source with a lower
// construction id than any real vertex, so the Kahn numbering puts
// bridge predecessors ahead of local ones exactly as the global
// numbering does. (Pinned by TestCrossPortOrderMatchesSequential; the
// seed's real-vertices-first order inverted ports whenever a consumer
// had both a local-source predecessor and a remote one.)
func assemble(g *graph.Numbered, mods []core.Module, starts []int, cfg Config, window runWindow) ([]*machineState, int, error) {
	M := len(starts)
	type build struct {
		g    *graph.Graph
		mods []core.Module
		ids  map[int]int // global vertex -> construction id
	}
	builds := make([]*build, M)
	for m := range builds {
		builds[m] = &build{g: graph.New(), ids: make(map[int]int)}
	}
	// Cross edges in ascending (source, consumer) order — the scan
	// order everything below depends on.
	type crossRef struct {
		v, w        int // global edge
		fromMachine int
		portal      *portal
		toMachine   int
		bridgeID    int // construction id of bridge on target machine
	}
	var crosses []*crossRef
	for v := 1; v <= g.N(); v++ {
		mv := graph.PartitionOf(starts, v)
		for _, w := range g.Succ(v) {
			if mw := graph.PartitionOf(starts, w); mv != mw {
				crosses = append(crosses, &crossRef{v: v, w: w, fromMachine: mv, toMachine: mw})
			}
		}
	}
	crossEdges := len(crosses)
	// Bridges first (consuming machine), so their construction ids —
	// and hence their numbering — precede every real vertex's.
	for _, c := range crosses {
		c.bridgeID = builds[c.toMachine].g.AddVertex(fmt.Sprintf("bridge:%d->%d", c.v, c.w))
		builds[c.toMachine].mods = append(builds[c.toMachine].mods, bridge{})
	}
	// Real vertices, ascending global order.
	for v := 1; v <= g.N(); v++ {
		m := graph.PartitionOf(starts, v)
		id := builds[m].g.AddVertex(fmt.Sprintf("g%d", v))
		builds[m].ids[v] = id
		builds[m].mods = append(builds[m].mods, mods[v-1])
	}
	// Local edges.
	for v := 1; v <= g.N(); v++ {
		mv := graph.PartitionOf(starts, v)
		for _, w := range g.Succ(v) {
			if graph.PartitionOf(starts, w) == mv {
				builds[mv].g.MustEdge(builds[mv].ids[v], builds[mv].ids[w])
			}
		}
	}
	// Portals (producing machine) and the edges tying both stand-ins in.
	for _, c := range crosses {
		c.portal = &portal{buf: make(map[int]event.Value)}
		pid := builds[c.fromMachine].g.AddVertex(fmt.Sprintf("portal:%d->%d", c.v, c.w))
		builds[c.fromMachine].mods = append(builds[c.fromMachine].mods, c.portal)
		builds[c.fromMachine].g.MustEdge(builds[c.fromMachine].ids[c.v], pid)
		builds[c.toMachine].g.MustEdge(c.bridgeID, builds[c.toMachine].ids[c.w])
	}
	// Number subgraphs, create engines, record the topology.
	machines := make([]*machineState, M)
	for m := 0; m < M; m++ {
		ng, err := builds[m].g.Number()
		if err != nil {
			return nil, 0, fmt.Errorf("distrib: machine %d: %w", m, err)
		}
		ordered := make([]core.Module, ng.N())
		for id, mod := range builds[m].mods {
			ordered[ng.IndexOf(id)-1] = mod
		}
		var obs core.Observer
		if cfg.Tap != nil {
			obs = &engineTap{tap: cfg.Tap, machine: m, epoch: window.epoch}
		}
		eng, err := core.New(ng, ordered, core.Config{
			Workers:            cfg.WorkersPerMachine,
			MaxInFlight:        cfg.MaxInFlight,
			MeasureContention:  cfg.MeasureContention,
			MeasureVertexTimes: window.measure,
			BasePhase:          window.base,
			Observer:           obs,
		})
		if err != nil {
			return nil, 0, fmt.Errorf("distrib: machine %d: %w", m, err)
		}
		localOf := make(map[int]int)
		for v, id := range builds[m].ids {
			localOf[v] = ng.IndexOf(id)
		}
		machines[m] = &machineState{machine: machine{
			idx:      m,
			eng:      eng,
			ng:       ng,
			localOf:  localOf,
			routesTo: make(map[int][]*portalRoute),
			epoch:    window.epoch,
			base:     window.base,
		}}
	}
	for _, c := range crosses {
		src, dst := machines[c.fromMachine], machines[c.toMachine]
		route := &portalRoute{
			p:            c.portal,
			toMachine:    c.toMachine,
			bridgeVertex: dst.ng.IndexOf(c.bridgeID),
		}
		if src.routesTo[c.toMachine] == nil {
			src.downstream = append(src.downstream, c.toMachine)
			dst.upstream = append(dst.upstream, c.fromMachine)
		}
		src.routesTo[c.toMachine] = append(src.routesTo[c.toMachine], route)
	}
	for _, mc := range machines {
		sort.Ints(mc.upstream)
		sort.Ints(mc.downstream)
	}
	return machines, crossEdges, nil
}

// machineState couples a machine with the stats its ingress goroutine
// reports back.
type machineState struct {
	machine
	finalStats core.Stats
}

// splitExternal takes this machine's share of the global external
// inputs (sources are real vertices; bridges receive only link
// frames). Used by RunMachine, where a process owns one machine and a
// full scan of the batches is the only option.
func (mc *machine) splitExternal(starts []int, batches [][]core.ExtInput) {
	mc.ext = make([][]core.ExtInput, len(batches))
	for p, batch := range batches {
		for _, x := range batch {
			if graph.PartitionOf(starts, x.Vertex) != mc.idx {
				continue
			}
			lv := mc.localOf[x.Vertex]
			mc.ext[p] = append(mc.ext[p], core.ExtInput{Vertex: lv, Port: x.Port, Val: x.Val})
		}
	}
}

// splitExternalAll dispatches the global external inputs to every
// machine in one pass — O(inputs), where per-machine filtering would
// rescan every batch once per machine.
func splitExternalAll(machines []*machineState, starts []int, batches [][]core.ExtInput) {
	for _, mc := range machines {
		mc.ext = make([][]core.ExtInput, len(batches))
	}
	for p, batch := range batches {
		for _, x := range batch {
			mc := machines[graph.PartitionOf(starts, x.Vertex)]
			lv := mc.localOf[x.Vertex]
			mc.ext[p] = append(mc.ext[p], core.ExtInput{Vertex: lv, Port: x.Port, Val: x.Val})
		}
	}
}
