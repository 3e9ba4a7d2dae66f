package distrib

import (
	"sync"
	"time"

	"repro/internal/graph"
)

// RebalanceConfig tunes dynamic repartitioning (DESIGN.md §8): when
// the drift monitor declares the running plan stale, and how often the
// run may pay for an epoch switch.
type RebalanceConfig struct {
	// SkewThreshold triggers a rebalance when the measured bottleneck
	// stage costs more than SkewThreshold × the mean stage cost under
	// the current partition. 1.0 means perfectly balanced; the default
	// 1.35 tolerates modest drift before paying for a switch.
	SkewThreshold float64
	// CheckEvery is the drift monitor's poll period. Defaults to 2ms.
	CheckEvery time.Duration
	// MinEpochPhases is the least number of phases an epoch must have
	// started before its measurements are trusted (and before another
	// switch may fire). Defaults to 16.
	MinEpochPhases int
	// MinRemaining stops triggering when fewer phases than this remain:
	// a switch that close to the end can never pay for itself.
	// Defaults to 16.
	MinRemaining int
	// MaxRebalances bounds the epoch switches in one run. Defaults
	// to 3.
	MaxRebalances int
	// MinSignal is the least cumulative measured Step time an epoch
	// must have accumulated before skew is computed, keeping clock
	// granularity from fabricating drift on fast modules. Defaults
	// to 1ms.
	MinSignal time.Duration
	// ForceEvery, when positive, triggers a barrier each time an epoch
	// has started this many phases, regardless of measured skew — the
	// deterministic trigger the equivalence tests use to exercise epoch
	// switches without depending on timing. Production runs leave it 0.
	ForceEvery int
}

func (rc RebalanceConfig) withDefaults() RebalanceConfig {
	if rc.SkewThreshold <= 1 {
		rc.SkewThreshold = 1.35
	}
	if rc.CheckEvery <= 0 {
		rc.CheckEvery = 2 * time.Millisecond
	}
	if rc.MinEpochPhases <= 0 {
		rc.MinEpochPhases = 16
	}
	if rc.MinRemaining <= 0 {
		rc.MinRemaining = 16
	}
	if rc.MaxRebalances <= 0 {
		rc.MaxRebalances = 3
	}
	if rc.MinSignal <= 0 {
		rc.MinSignal = time.Millisecond
	}
	return rc
}

// RebalanceEvent records one epoch switch.
type RebalanceEvent struct {
	// Epoch is the epoch that ended at this switch (0 = the initial
	// plan's epoch).
	Epoch int
	// Barrier is the phase the deployment quiesced at: every machine
	// completed exactly the phases ≤ Barrier before the switch.
	Barrier int
	// FromStarts and ToStarts are the partitions before and after.
	FromStarts, ToStarts []int
	// Moved counts the vertices that changed machines.
	Moved int
	// Serialized counts the moved vertices whose state was shipped as a
	// Snapshotter snapshot. The rest moved by reference, which only the
	// Run facade's in-process workers can do: they share one module
	// slice.
	Serialized int
	// HandoffBytes is the snapshot state the switch shipped — full
	// snapshots and deltas alike — whatever carries the control plane.
	HandoffBytes int64
	// Skew is the measured bottleneck/mean stage-cost ratio that
	// triggered the switch (0 when ForceEvery triggered it).
	Skew float64
	// Wall is the time from quiesce decision to the new epoch's plan
	// being ready to run — the pipeline's downtime paid for the switch.
	Wall time.Duration
}

// epochCtl is one machine's side of an epoch's quiesce. A head machine
// (no upstream links) consults it before opening each phase; the
// coordinator pauses every machine's controller for a progress
// snapshot and publishes the barrier — the newest phase any head of the
// flock has committed to — so no machine ever has to un-start work:
// heads run up to the barrier and stop, and every downstream machine
// drains to the same phase behind the barrier frames the heads' egress
// floods. A controller whose machine is not a head reports the epoch
// base, finished.
type epochCtl struct {
	mu       sync.Mutex
	cond     sync.Cond
	pausing  bool
	barrier  int // 0 = not yet decided
	started  int // newest phase the head opened; base until then
	finished bool
	// hold, when nonzero, pauses the head before it opens any phase past
	// hold while no barrier is decided: the ForceEvery trigger, armed at
	// launch so it cannot race a fast epoch. Set before the machine runs.
	hold int
}

// headGateHook, when set, runs on every machine's ingress just before
// the head gate for phase p. Tests use it to skew the heads' pace;
// production leaves it nil.
var headGateHook func(machine, p int)

func newEpochCtl(base int, head bool) *epochCtl {
	c := &epochCtl{started: base, finished: !head}
	c.cond.L = &c.mu
	return c
}

// headProceed reports whether the head may open phase p. While a
// barrier decision is pending the call parks until the decision lands;
// once a barrier is set, phases past it are refused — the head's
// quiesce signal.
func (c *epochCtl) headProceed(p int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.barrier == 0 && c.hold != 0 && p > c.hold {
		c.pausing = true
	}
	for {
		if c.barrier != 0 && p > c.barrier {
			return false
		}
		if c.barrier != 0 || !c.pausing {
			c.started = p
			c.cond.Broadcast()
			return true
		}
		c.cond.Wait()
	}
}

// waitStartedHold blocks until the head has opened phase target
// (reporting true) or finished without reaching it (false) — the
// deterministic wake-up behind ForceEvery. The moment the target is
// reached (and no barrier has been decided yet) it flips the
// controller into pausing, so the head parks at its very next phase
// start instead of racing ahead while the coordinator's trigger
// decision is in flight. The launch hold already parks the head there
// when the wait was armed at launch, as the Coordinator arms it: a
// wait that arrives after launch can find a fast epoch finished, or
// too near its end to switch. The coordinator must follow up with a
// barrier (SetBarrier, possibly at total to decline the switch) to
// release the parked head.
func (c *epochCtl) waitStartedHold(target int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.barrier != 0 {
			// A barrier already landed: the decision is made, nothing
			// to hold. Report whether the target was reached first.
			return c.started >= target
		}
		if c.started >= target {
			c.pausing = true
			return true
		}
		if c.finished {
			return false
		}
		c.cond.Wait()
	}
}

// headFinished marks the head done opening phases (it ran out of
// phases or quiesced), so a pending wait stops waiting on it.
func (c *epochCtl) headFinished() {
	c.mu.Lock()
	c.finished = true
	c.cond.Broadcast()
	c.mu.Unlock()
}

// pause returns a consistent progress snapshot: the newest phase the
// head had opened (base if none). From the moment pausing is set under
// mu the head passes no gate, so the snapshot is frozen and a barrier
// at the returned phase (or later) never asks a head to un-start work.
// A head that passed its gate before the pause may still be opening
// that phase — blocked on ship tokens behind a slower head on another
// machine, say — so pause must not wait for it to reach the gate: that
// wait is the multi-head deadlock. A head that reaches the gate parks
// there until publish; the barrier decision itself belongs to the
// coordinator, which aggregates every machine's snapshot. Pausing
// after a barrier was already published reports the settled state.
func (c *epochCtl) pause() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.barrier == 0 {
		c.pausing = true
	}
	return c.started
}

// publish sets the epoch barrier and resumes a parked head: it runs
// through phase b and quiesces. Idempotent — the first barrier wins.
func (c *epochCtl) publish(b int) {
	c.mu.Lock()
	if c.barrier == 0 {
		c.barrier = b
		c.pausing = false
	}
	c.cond.Broadcast()
	c.mu.Unlock()
}

// progress returns the newest phase the head has opened.
func (c *epochCtl) progress() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.started
}

// globalVertexTimes maps each machine engine's measured per-vertex
// Step times back to the global numbering (portal and bridge vertices
// are infrastructure, not workload, and are excluded). Requires the
// deployment to have been built with measurement on.
func (d *Deployment) globalVertexTimes(n int) []time.Duration {
	times := make([]time.Duration, n)
	for _, mc := range d.machines {
		local := mc.eng.VertexTimes()
		if local == nil {
			continue
		}
		for gv, lv := range mc.localOf {
			times[gv-1] += local[lv-1]
		}
	}
	return times
}

// skewFromTimes computes the bottleneck/mean ratio of per-stage
// measured Step time under a partition, and the total measured time
// backing it. A total below the caller's signal floor means "no data
// yet".
func skewFromTimes(times []time.Duration, starts []int) (float64, time.Duration) {
	loads := make([]time.Duration, len(starts))
	var total time.Duration
	for v, t := range times {
		loads[graph.PartitionOf(starts, v+1)] += t
		total += t
	}
	if total <= 0 {
		return 1, 0
	}
	var max time.Duration
	for _, l := range loads {
		if l > max {
			max = l
		}
	}
	mean := float64(total) / float64(len(loads))
	return float64(max) / mean, total
}

// movedVertices counts the vertices whose owning machine changes
// between two partitions.
func movedVertices(n int, oldStarts, newStarts []int) int {
	moved := 0
	for v := 1; v <= n; v++ {
		if graph.PartitionOf(oldStarts, v) != graph.PartitionOf(newStarts, v) {
			moved++
		}
	}
	return moved
}
