// The run facade: one entry point for every shape of partitioned run.
// Run takes a RunConfig plus functional options, so callers choose
// capabilities (rebalancing, fault injection, durable epochs, event-log
// taps, crash recovery) instead of entry points. A static run drives
// every machine of one Deployment directly; every coordinated run —
// rebalancing, durable, or a replay through RunScripted — is a
// Coordinator over one in-process ServeParticipant worker per machine,
// the same protocol a fuseworker flock speaks over TCP.

package distrib

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/evlog"
	"repro/internal/graph"
	"repro/internal/wal"
)

// RunConfig bundles the workload every run shape shares: the global
// graph, its modules (Mods[v-1] drives global vertex v, exactly as for
// core.New), the per-phase external inputs, and the distribution
// tuning.
type RunConfig struct {
	// Graph is the global computation graph.
	Graph *graph.Numbered
	// Mods holds the module for each global vertex.
	Mods []core.Module
	// Batches are the per-phase external inputs; len(Batches) is the
	// run length.
	Batches [][]core.ExtInput
	// Dist carries the distribution tuning (machines, workers, buffer,
	// planner, network).
	Dist Config
}

// runOpts collects the capabilities the options enable.
type runOpts struct {
	rebalance *RebalanceConfig
	tap       evlog.Tap
	fault     *FaultPlan
	walDir    string
	recovery  *RecoverConfig
}

// Option enables one capability of Run.
type Option func(*runOpts)

// WithRebalancing makes the run coordinated: a Coordinator watches
// measured per-vertex cost drift and re-partitions the deployment
// mid-run under rc.
func WithRebalancing(rc RebalanceConfig) Option {
	return func(o *runOpts) { o.rebalance = &rc }
}

// WithTap records the run into t (DESIGN.md §11): phase launches and
// commits, feeds, vertex executions, frame traffic on both link ends,
// epoch-launch decisions and recoveries. Equivalent to setting
// Config.Tap, and overrides it when both are given.
func WithTap(t evlog.Tap) Option {
	return func(o *runOpts) { o.tap = t }
}

// WithFaults wraps the run's network in a FaultyNetwork injecting fp's
// seeded delays, reorders and link crashes.
func WithFaults(fp FaultPlan) Option {
	return func(o *runOpts) { o.fault = &fp }
}

// WithWAL makes the run durable: each machine's worker writes fsynced
// epoch checkpoints to dir/machine-N.wal. Requires WithRebalancing —
// durability is a property of the coordinated protocol — and every
// module must implement core.Snapshotter.
func WithWAL(dir string) Option {
	return func(o *runOpts) { o.walDir = dir }
}

// WithRecovery arms the crash-recovery path of a durable run
// (DESIGN.md §10): a recoverable mid-run failure rolls the flock back
// to its common stable checkpoint and relaunches instead of aborting.
// Requires WithWAL.
func WithRecovery(rc RecoverConfig) Option {
	return func(o *runOpts) { o.recovery = &rc }
}

// Run executes the computation partitioned across machines and returns
// aggregate stats. With no options it is a static single-plan run;
// options layer on rebalancing, fault injection, durable epochs, crash
// recovery and event-log taps, in any valid combination.
//
// ctx is consulted at run start and between epochs of a coordinated
// run; a static run, once launched, runs to completion. The run is
// bit-identical to baseline.Sequential over the same graph and modules
// whatever options are set (crash faults excepted), pinned by the
// equivalence tests.
func Run(ctx context.Context, rc RunConfig, opts ...Option) (Stats, error) {
	var o runOpts
	for _, opt := range opts {
		opt(&o)
	}
	if err := ctx.Err(); err != nil {
		return Stats{}, err
	}
	if o.walDir != "" && o.rebalance == nil {
		return Stats{}, fmt.Errorf("distrib: WithWAL requires WithRebalancing (durability is a property of the coordinated protocol)")
	}
	if o.recovery != nil && o.walDir == "" {
		return Stats{}, fmt.Errorf("distrib: WithRecovery requires WithWAL (recovery restores from durable checkpoints)")
	}

	cfg := rc.Dist
	if o.tap != nil {
		cfg.Tap = o.tap
	}
	net := cfg.Network
	if net == nil {
		net = ChannelNetwork{}
		defer net.Close()
	}
	if o.fault != nil {
		net = NewFaultyNetwork(net, *o.fault)
	}
	cfg.Network = net

	if o.rebalance == nil {
		d, err := NewDeployment(rc.Graph, rc.Mods, cfg)
		if err != nil {
			return Stats{}, err
		}
		return d.runWired(rc.Batches, newTapNetwork(net, cfg.Tap))
	}
	co := &Coordinator{
		Graph:     rc.Graph,
		Costs:     cfg.Costs,
		Machines:  cfg.Machines,
		Phases:    len(rc.Batches),
		Planner:   cfg.Planner,
		Rebalance: *o.rebalance,
		ctx:       ctx,
	}
	if co.Planner == nil {
		co.Planner = CostAware{}
	}
	if o.recovery != nil {
		// Every worker is in-process, so a recoverable failure is always
		// the park-and-rollback shape (processes survive); the offer
		// channel exists only to arm the recovery path.
		co.Rejoins = make(chan RejoinOffer)
		co.Recovery = *o.recovery
	}
	return runFlock(co, rc, cfg, o.walDir)
}

// runFlock runs a coordinated run in process: every machine is its own
// ServeParticipant worker, reached by co through a RemoteParticipant
// over an in-memory control pipe, with data links from a linkExchange —
// the exact protocol of a multi-process flock, in one address space.
// Workers share rc.Mods, so vertices without core.Snapshotter migrate
// by reference. With walDir set each worker checkpoints into
// walDir/machine-N.wal. Data links go through cfg.Network (so fault
// injection and taps apply to them), keyed by epoch exactly as
// fuseworker processes re-wire per epoch.
func runFlock(co *Coordinator, rc RunConfig, cfg Config, walDir string) (Stats, error) {
	t0 := time.Now()
	machines := co.Machines
	if machines <= 0 {
		return Stats{}, fmt.Errorf("distrib: coordinated run needs Machines >= 1, got %d", machines)
	}
	ex := newLinkExchange(newTapNetwork(cfg.Network, cfg.Tap))

	logs := make([]*wal.Log, machines)
	if walDir != "" {
		sig := fmt.Sprintf("facade/n=%d/machines=%d/phases=%d", rc.Graph.N(), machines, len(rc.Batches))
		for m := range logs {
			l, err := wal.Open(filepath.Join(walDir, fmt.Sprintf("machine-%d.wal", m)), m, sig)
			if err != nil {
				for _, open := range logs[:m] {
					open.Close()
				}
				return Stats{}, fmt.Errorf("distrib: opening machine %d WAL: %w", m, err)
			}
			logs[m] = l
		}
		defer func() {
			for _, l := range logs {
				l.Close()
			}
		}()
	}

	workerCfg := cfg
	workerCfg.Network = nil // workers wire data links through the exchange

	type outcome struct {
		m   int
		rep ParticipantReport
		err error
	}
	results := make(chan outcome, machines)
	co.Participants = make([]Participant, machines)
	co.Tap = cfg.Tap
	for m := 0; m < machines; m++ {
		coordCh, workerCh := NewCtlPipe()
		co.Participants[m] = NewRemoteParticipant(TapCtlChannel(coordCh, cfg.Tap, m), fmt.Sprintf("machine %d", m))
		wc := WorkerConfig{
			Machine:    m,
			Graph:      rc.Graph,
			Mods:       rc.Mods,
			Config:     workerCfg,
			Batches:    rc.Batches,
			Wire:       ex.wireFor(m),
			WAL:        logs[m],
			sharedMods: true,
		}
		go func(m int, ch CtlChannel, wc WorkerConfig) {
			rep, err := ServeParticipant(ch, wc)
			results <- outcome{m, rep, err}
		}(m, workerCh, wc)
	}
	events, err := co.Run()

	// Collect every worker before the deferred WAL close; on the error
	// path the coordinator has aborted them, so give up on any that
	// fail to unwind rather than wedge the caller.
	st := Stats{PerMachine: make([]core.Stats, machines), Planner: co.Planner.Name()}
	deadline := time.After(30 * time.Second)
drain:
	for range machines {
		select {
		case r := <-results:
			st.PerMachine[r.m] = r.rep.Stats
			if r.err != nil && err == nil {
				err = fmt.Errorf("distrib: worker %d: %w", r.m, r.err)
			}
			if r.err == nil && len(r.rep.FinalStarts) > 0 {
				st.Starts = r.rep.FinalStarts
			}
		case <-deadline:
			if err == nil {
				err = fmt.Errorf("distrib: a worker never unwound after the coordinated run finished")
			}
			break drain
		}
	}
	if st.Starts != nil {
		st.CrossEdges = graph.CutEdges(rc.Graph, st.Starts)
	}
	st.Links, st.CrossMessages = ex.stats()
	st.Transport = ex.net.Name()
	st.Rebalances = events
	st.Recoveries = co.Recoveries()
	st.Wall = time.Since(t0)
	return st, err
}

// linkExchange hands both in-process ends of a link the same
// Transport, keyed (from, to, epoch) — the in-memory analogue of two
// fuseworker processes dialing each other for an epoch's wiring. It
// wires every in-process run: a static run's machines at epoch 0, a
// coordinated run's workers at every epoch. Links are created through
// the Network, so fault and tap wrappers apply.
type linkExchange struct {
	mu    sync.Mutex
	net   Network
	links map[[3]int]Transport
}

func newLinkExchange(net Network) *linkExchange {
	return &linkExchange{net: net, links: make(map[[3]int]Transport)}
}

func (x *linkExchange) get(from, to, epoch, depth int) (Transport, error) {
	x.mu.Lock()
	defer x.mu.Unlock()
	k := [3]int{from, to, epoch}
	if tr := x.links[k]; tr != nil {
		return tr, nil
	}
	tr, err := x.net.Link(from, to, depth)
	if err != nil {
		return nil, fmt.Errorf("distrib: wiring link %d->%d over %s: %w", from, to, x.net.Name(), err)
	}
	x.links[k] = tr
	return tr, nil
}

// stats snapshots every link the exchange created, ordered by epoch
// and then by (from, to), and sums the values they carried.
func (x *linkExchange) stats() ([]LinkStats, int64) {
	x.mu.Lock()
	defer x.mu.Unlock()
	keys := make([][3]int, 0, len(x.links))
	for k := range x.links {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a[2] != b[2] {
			return a[2] < b[2]
		}
		return a[0] < b[0] || (a[0] == b[0] && a[1] < b[1])
	})
	links := make([]LinkStats, len(keys))
	var values int64
	for i, k := range keys {
		links[i] = x.links[k].Stats()
		values += links[i].Values
	}
	return links, values
}

// close closes every link the exchange created.
func (x *linkExchange) close() {
	x.mu.Lock()
	defer x.mu.Unlock()
	for _, tr := range x.links {
		tr.Close()
	}
}

// wireFor builds machine m's WireFunc over the exchange.
func (x *linkExchange) wireFor(machine int) WireFunc {
	return func(d *Deployment, epoch int) (in, out map[int]Transport, err error) {
		out = make(map[int]Transport)
		for _, dst := range d.Downstream(machine) {
			tr, err := x.get(machine, dst, epoch, d.Buffer())
			if err != nil {
				return nil, nil, err
			}
			out[dst] = tr
		}
		in = make(map[int]Transport)
		for _, up := range d.Upstream(machine) {
			tr, err := x.get(up, machine, epoch, d.Buffer())
			if err != nil {
				return nil, nil, err
			}
			in[up] = tr
		}
		return in, out, nil
	}
}

// EpochPlan is one window of a committed run schedule: the base phase
// the epoch resumes after and the partition it runs under. A replay
// script is the sequence of EpochPlans a recorded run actually
// committed (rolled-back windows excluded); evlog/replay extracts it
// from a log's epoch-launch events.
type EpochPlan struct {
	// Base is the phase the epoch resumes after (0 for the first).
	Base int `json:"base"`
	// Starts is the epoch's per-machine start indices.
	Starts []int `json:"starts"`
}

// RunScripted re-drives a committed epoch schedule: a Coordinator whose
// planner hands out the script's partitions and whose trigger is the
// script's barriers, each published on its epoch's controller before
// any of the epoch's machines runs. The deployment quiesces at exactly
// the recorded phase with no drift monitor, no timing and no
// coordinator decisions — the replay half of the record/replay
// contract (DESIGN.md §11). Over the same graph, modules and batches,
// the run is bit-identical to the live run that recorded the schedule;
// with cfg.Tap set, the merged deterministic event stream is
// byte-identical too (the golden round-trip test). cfg.Machines and
// cfg.Planner are ignored: the script fixes both.
func RunScripted(g *graph.Numbered, mods []core.Module, batches [][]core.ExtInput, cfg Config, script []EpochPlan) (Stats, error) {
	if len(script) == 0 {
		return Stats{}, fmt.Errorf("distrib: empty replay script")
	}
	if script[0].Base != 0 {
		return Stats{}, fmt.Errorf("distrib: replay script starts at base %d, want 0", script[0].Base)
	}
	total := len(batches)
	machines := len(script[0].Starts)
	for i := 1; i < len(script); i++ {
		if b := script[i].Base; b <= script[i-1].Base || b >= total {
			return Stats{}, fmt.Errorf("distrib: replay script window %d resumes at phase %d (previous %d, total %d)", i, b, script[i-1].Base, total)
		}
		if len(script[i].Starts) != machines {
			return Stats{}, fmt.Errorf("distrib: replay script window %d has %d machines, window 0 has %d", i, len(script[i].Starts), machines)
		}
	}
	if cfg.Network == nil {
		cfg.Network = ChannelNetwork{}
		defer cfg.Network.Close()
	}
	co := &Coordinator{
		Graph:    g,
		Machines: machines,
		Phases:   total,
		Planner:  &schedulePlanner{script: script},
		script:   script,
	}
	return runFlock(co, RunConfig{Graph: g, Mods: mods, Batches: batches}, cfg, "")
}
