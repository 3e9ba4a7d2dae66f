package distrib

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/evlog"
	"repro/internal/graph"
)

// Coordinator owns the epoch-switch state machine of dynamic
// repartitioning (DESIGN.md §8–§9): drift detection, the quiesce
// barrier, re-planning on measured costs, routing migrating state and
// releasing participants into the next epoch. It sees its deployment
// only through the Participant interface — one participant per machine,
// each a ServeParticipant worker behind a RemoteParticipant — so the
// identical protocol drives the Run facade's in-process workers (over
// control pipes), a replay (RunScripted) and a multi-process
// deployment (fuseworker processes over netwire control channels).
type Coordinator struct {
	// Graph is the global computation graph every epoch re-partitions.
	Graph *graph.Numbered
	// Costs estimates per-vertex work for the initial plan (nil =
	// uniform). Later epochs plan on measured times.
	Costs []float64
	// Machines is the number of pipeline stages of every epoch.
	Machines int
	// Phases is the total run length.
	Phases int
	// Planner chooses stage boundaries; nil defaults to CostAware.
	Planner Planner
	// Rebalance tunes the drift monitor and switch budget.
	Rebalance RebalanceConfig
	// Participants are the deployment members: Participants[m] owns
	// machine m.
	Participants []Participant
	// Rejoins, when non-nil, enables crash recovery (DESIGN.md §10):
	// restarted workers' control channels arrive here and a
	// recoverable mid-run failure rolls the flock back to its common
	// stable checkpoint instead of aborting. Requires every
	// participant to run with a WAL.
	Rejoins <-chan RejoinOffer
	// Recovery tunes the recovery path; zero values take defaults.
	Recovery RecoverConfig
	// Tap, when non-nil, records every epoch-launch and recovery
	// decision into the event log (DESIGN.md §11) — the committed
	// schedule a Player re-drives.
	Tap evlog.Tap

	events     []RebalanceEvent
	recoveries []RecoveryEvent
	attempt    int             // relaunch generation, bumped per recovery
	ctx        context.Context // set by the Run facade; nil = never cancelled
	// script, when set, replaces the drift monitor with a committed
	// schedule (RunScripted, whose Planner is a schedulePlanner over the
	// same script): window i+1's base is epoch i's barrier, published
	// before the epoch's machines run.
	script []EpochPlan
}

// launchBarrier is the barrier published at epoch's launch: the next
// scripted window's base, or 0 (none) outside a replay.
func (co *Coordinator) launchBarrier(epoch int) int {
	if epoch+1 < len(co.script) {
		return co.script[epoch+1].Base
	}
	return 0
}

// launchHold is the hold armed at the launch of an epoch resuming after
// base with switches already made: where ForceEvery will trigger, or 0
// when the epoch's monitor will not wait for it — no ForceEvery, a
// replay, or the switch budget spent.
func (co *Coordinator) launchHold(rc RebalanceConfig, base, switches int) int {
	if rc.ForceEvery <= 0 || co.script != nil || switches >= rc.MaxRebalances {
		return 0
	}
	return base + rc.ForceEvery
}

// schedulePlanner hands out a committed schedule's partitions in order:
// epoch 0's, then one per switch.
type schedulePlanner struct {
	script []EpochPlan
	next   int
}

func (p *schedulePlanner) Name() string { return "replay" }

func (p *schedulePlanner) Plan(*graph.Numbered, []float64, int) ([]int, error) {
	if p.next >= len(p.script) {
		return nil, fmt.Errorf("distrib: replay schedule exhausted after %d windows", p.next)
	}
	p.next++
	return p.script[p.next-1].Starts, nil
}

// plan0 mirrors NewDeployment's cost validation and planning for the
// initial epoch, so a coordinator-driven run rejects exactly what a
// plain Run would.
func (co *Coordinator) plan0(planner Planner) ([]int, error) {
	costs := co.Costs
	if costs == nil {
		costs = graph.UniformCosts(co.Graph.N())
	} else if len(costs) != co.Graph.N() {
		return nil, fmt.Errorf("distrib: %d costs for %d vertices", len(costs), co.Graph.N())
	}
	for v, cost := range costs {
		if cost < 0 || math.IsNaN(cost) || math.IsInf(cost, 0) {
			return nil, fmt.Errorf("distrib: invalid cost %v for vertex %d (costs must be finite and non-negative)", cost, v+1)
		}
	}
	starts, err := planner.Plan(co.Graph, costs, co.Machines)
	if err != nil {
		return nil, err
	}
	if err := graph.ValidateStarts(co.Graph.N(), starts); err != nil {
		return nil, fmt.Errorf("distrib: planner %s: %w", planner.Name(), err)
	}
	return starts, nil
}

// abortAll tears every participant down with the root cause.
func (co *Coordinator) abortAll(reason error) {
	for _, p := range co.Participants {
		p.Abort(reason)
	}
}

// Run drives the whole computation: epoch 0 under the initial plan,
// then as many epoch switches as the drift monitor triggers (bounded
// by MaxRebalances), each quiescing all participants at one barrier,
// re-planning on the epoch's measured per-vertex times, migrating
// state and resuming at the next phase. It returns the recorded
// switches. On a mid-run failure the recovery path runs first when
// enabled (Rejoins non-nil, see DESIGN.md §10); if it cannot repair
// the run, every participant is aborted with the root cause and the
// error is returned.
func (co *Coordinator) Run() ([]RebalanceEvent, error) {
	rc := co.Rebalance.withDefaults()
	planner := co.Planner
	if planner == nil {
		planner = CostAware{}
	}

	starts, err := co.plan0(planner)
	if err != nil {
		return nil, err
	}
	for _, p := range co.Participants {
		if err := p.BeginAt(0, 0, starts, co.launchBarrier(0), co.launchHold(rc, 0, len(co.events))); err != nil {
			co.abortAll(err)
			return co.events, err
		}
	}
	launchEvent(co.Tap, 0, 0, co.attempt, starts)

	base, epoch := 0, 0
	for {
		if co.ctx != nil {
			if err := co.ctx.Err(); err != nil {
				co.abortAll(err)
				return co.events, err
			}
		}
		next, finished, err := co.epochStep(rc, planner, starts, base, epoch)
		if finished {
			return co.events, nil
		}
		if err != nil {
			if rp, ok := co.tryRecover(err, epoch); ok {
				starts, base, epoch = rp.starts, rp.base, rp.epoch
				continue
			}
			co.abortAll(err)
			return co.events, err
		}
		starts, base, epoch = next.starts, next.base, next.epoch
	}
}

// epochStep drives one epoch from its drift monitor to either the end
// of the run (finished=true) or the launch of its successor, whose
// position it returns.
func (co *Coordinator) epochStep(rc RebalanceConfig, planner Planner, starts []int, base, epoch int) (resumePoint, bool, error) {
	n := co.Graph.N()
	total := co.Phases
	barrier, skew := co.launchBarrier(epoch), 0.0
	if co.script == nil {
		trigger, s, err := co.monitor(rc, base, total, starts)
		if err != nil {
			return resumePoint{}, false, err
		}
		if trigger {
			if barrier, err = co.decideBarrier(base, total); err != nil {
				return resumePoint{}, false, err
			}
		}
		skew = s
	}

	// Wait for every participant to drain — to the barrier, or to
	// the end of the run — and collect the epoch's measured times.
	sw0 := time.Now()
	times := make([]time.Duration, n)
	for i, p := range co.Participants {
		qr, err := p.AwaitQuiesce()
		if err != nil {
			return resumePoint{}, false, err
		}
		want := barrier
		if barrier >= total {
			want = 0 // the barrier landed past the end: a plain completion
		}
		if qr.Barrier != want {
			return resumePoint{}, false, fmt.Errorf("distrib: participant %d quiesced at phase %d, coordinator set barrier %d", i, qr.Barrier, barrier)
		}
		for v, t := range qr.Times {
			if v < n {
				times[v] += t
			}
		}
	}
	if barrier == 0 || barrier >= total {
		for _, p := range co.Participants {
			p.Finish()
		}
		return resumePoint{}, true, nil
	}

	// Quiesced at the barrier: re-plan on this epoch's measured
	// costs and migrate state to its new machines.
	costs, err := CostsFromTimes(times)
	if err != nil {
		return resumePoint{}, false, fmt.Errorf("distrib: rebalance at phase %d: %w", barrier, err)
	}
	newStarts, err := planner.Plan(co.Graph, costs, co.Machines)
	if err != nil {
		return resumePoint{}, false, fmt.Errorf("distrib: re-planning at phase %d: %w", barrier, err)
	}
	if err := graph.ValidateStarts(n, newStarts); err != nil {
		return resumePoint{}, false, fmt.Errorf("distrib: re-planning at phase %d: planner %s: %w", barrier, planner.Name(), err)
	}
	serialized, bytes, err := co.migrate(barrier, newStarts, co.launchBarrier(epoch+1), co.launchHold(rc, barrier, len(co.events)+1))
	if err != nil {
		return resumePoint{}, false, err
	}
	co.events = append(co.events, RebalanceEvent{
		Epoch:        epoch,
		Barrier:      barrier,
		FromStarts:   append([]int(nil), starts...),
		ToStarts:     append([]int(nil), newStarts...),
		Moved:        movedVertices(n, starts, newStarts),
		Serialized:   serialized,
		HandoffBytes: bytes,
		Skew:         skew,
		Wall:         time.Since(sw0),
	})
	launchEvent(co.Tap, epoch+1, barrier, co.attempt, newStarts)
	return resumePoint{epoch: epoch + 1, base: barrier, starts: newStarts}, false, nil
}

// Events returns the epoch switches recorded so far.
func (co *Coordinator) Events() []RebalanceEvent {
	return append([]RebalanceEvent(nil), co.events...)
}

// Recoveries returns the crash recoveries the run performed.
func (co *Coordinator) Recoveries() []RecoveryEvent {
	return append([]RecoveryEvent(nil), co.recoveries...)
}

// monitor watches the running epoch and reports whether a switch
// should happen. In drift mode it polls every participant's measured
// per-vertex times each CheckEvery and compares the partition's skew
// to the threshold; with ForceEvery set it instead waits for the epoch
// to start that many phases. It returns trigger=false when the epoch
// finished first, the switch budget is spent, or too few phases remain
// for a switch to pay off; skew is the ratio that crossed the
// threshold at decision time (0 for ForceEvery).
func (co *Coordinator) monitor(rc RebalanceConfig, base, total int, starts []int) (trigger bool, skew float64, err error) {
	if len(co.events) >= rc.MaxRebalances {
		return false, 0, nil
	}
	if rc.ForceEvery > 0 {
		if !co.waitAnyStarted(base + rc.ForceEvery) {
			return false, 0, nil
		}
		started, _, _, err := co.pollAll(nil)
		if err != nil {
			return false, 0, err
		}
		if total-started < rc.MinRemaining {
			// Decline the switch. The launch hold parks the heads at the
			// target (so this decision is deterministic on any
			// GOMAXPROCS); a barrier at total releases them to run to
			// completion, which quiesces as a plain finish.
			for _, p := range co.Participants {
				if err := p.SetBarrier(total); err != nil {
					return false, 0, err
				}
			}
			return false, 0, nil // too late for a switch to pay off
		}
		return true, 0, nil
	}
	tick := time.NewTicker(rc.CheckEvery)
	defer tick.Stop()
	// Epoch-end signal: the channels are captured now (while this
	// epoch runs), so the waiter goroutine drains and exits as soon as
	// every participant quiesces — whether or not a barrier fires.
	allDone := make(chan struct{})
	doneChans := make([]<-chan struct{}, len(co.Participants))
	for i, p := range co.Participants {
		doneChans[i] = p.Done()
	}
	go func() {
		for _, c := range doneChans {
			<-c
		}
		close(allDone)
	}()
	times := make([]time.Duration, co.Graph.N())
	for {
		select {
		case <-tick.C:
		case <-allDone:
			return false, 0, nil
		}
		started, done, signalTimes, err := co.pollAll(times)
		if err != nil {
			return false, 0, err
		}
		if done {
			return false, 0, nil
		}
		if started-base < rc.MinEpochPhases {
			continue
		}
		if total-started < rc.MinRemaining {
			return false, 0, nil // too late for a switch to pay off
		}
		skew, signal := skewFromTimes(signalTimes, starts)
		if signal < rc.MinSignal {
			continue
		}
		if skew > rc.SkewThreshold {
			return true, skew, nil
		}
	}
}

// waitAnyStarted blocks until any participant's heads open the target
// phase, reporting false when every participant finished (or declined)
// without reaching it. Each wait runs worker-side on the epoch
// controller's condition variable, and holds that worker's heads at
// the target until the coordinator publishes a barrier.
func (co *Coordinator) waitAnyStarted(target int) bool {
	results := make(chan bool, len(co.Participants))
	for _, p := range co.Participants {
		p := p
		go func() {
			ok, err := p.WaitStarted(target)
			results <- ok && err == nil
		}()
	}
	for range co.Participants {
		if <-results {
			return true
		}
	}
	return false
}

// pollAll polls every participant once, returning the newest head
// phase, whether every participant finished, and — when sum is
// non-nil — the summed measured per-vertex times (sum is zeroed and
// reused across calls).
func (co *Coordinator) pollAll(sum []time.Duration) (started int, done bool, times []time.Duration, err error) {
	for i := range sum {
		sum[i] = 0
	}
	done = true
	for i, p := range co.Participants {
		pr, err := p.Poll()
		if err != nil {
			return 0, false, nil, fmt.Errorf("distrib: polling participant %d: %w", i, err)
		}
		if pr.Started > started {
			started = pr.Started
		}
		if !pr.Done {
			done = false
		}
		for v, t := range pr.Times {
			if v < len(sum) {
				sum[v] += t
			}
		}
	}
	return started, done, sum, nil
}

// decideBarrier parks every participant's heads, picks the earliest
// phase all of them can stop at together (never below base+1, capped
// at the run's end) and publishes it.
func (co *Coordinator) decideBarrier(base, total int) (int, error) {
	b := base + 1 // every epoch runs at least one phase
	for i, p := range co.Participants {
		pr, err := p.Pause()
		if err != nil {
			return 0, fmt.Errorf("distrib: pausing participant %d: %w", i, err)
		}
		if pr.Started > b {
			b = pr.Started
		}
	}
	if b > total {
		b = total
	}
	for i, p := range co.Participants {
		if err := p.SetBarrier(b); err != nil {
			return 0, fmt.Errorf("distrib: publishing barrier %d to participant %d: %w", b, i, err)
		}
	}
	return b, nil
}

// migrate runs the state handoff of one epoch switch: every
// participant serializes the state leaving it under the new plan, the
// coordinator routes each snapshot to the participant gaining the
// vertex, and Advance releases everyone into the next epoch with its
// launch settings.
func (co *Coordinator) migrate(barrier int, newStarts []int, nextBarrier, nextHold int) (serialized int, bytes int64, err error) {
	arriving := make([][]core.VertexSnapshot, len(co.Participants))
	for i, p := range co.Participants {
		h, err := p.Offload(barrier, newStarts)
		if err != nil {
			return 0, 0, err
		}
		serialized += h.Serialized
		bytes += h.Bytes
		for _, snap := range h.Leaving {
			if snap.Vertex < 1 || snap.Vertex > co.Graph.N() {
				return 0, 0, fmt.Errorf("distrib: participant %d offloaded snapshot for vertex %d of %d", i, snap.Vertex, co.Graph.N())
			}
			owner := graph.PartitionOf(newStarts, snap.Vertex)
			arriving[owner] = append(arriving[owner], snap)
		}
	}
	for i, p := range co.Participants {
		if err := p.Advance(arriving[i], nextBarrier, nextHold); err != nil {
			return serialized, bytes, fmt.Errorf("distrib: advancing participant %d past phase %d: %w", i, barrier, err)
		}
	}
	return serialized, bytes, nil
}
