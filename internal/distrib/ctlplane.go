// Control plane for dynamic repartitioning (DESIGN.md §9): the
// epoch-switch state machine lives in a Coordinator that talks to
// Participants only through the narrow interface below. There is one
// participant per machine, always a ServeParticipant worker reached
// through a RemoteParticipant: over in-process control pipes for the
// Run facade's coordinated runs and for replay, over netwire control
// channels for fuseworker processes.

package distrib

import (
	"errors"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/netwire"
)

// Progress is one participant's answer to a poll or a pause: how far
// its head machines have run, whether its machines finished the run,
// and the measured per-vertex Step times backing the drift monitor.
type Progress struct {
	// Started is the newest phase any of the participant's head
	// machines has opened (the epoch base if it has no heads).
	Started int
	// Done reports every machine of the participant completed its run.
	Done bool
	// Times is cumulative measured Step time per global vertex
	// (zero for vertices the participant does not own).
	Times []time.Duration
}

// QuiesceReport is a participant's end-of-epoch report, delivered once
// its machines have drained.
type QuiesceReport struct {
	// Barrier is the phase the participant's machines quiesced at; 0
	// means the epoch ran to completion with no barrier.
	Barrier int
	// Times is the epoch's cumulative measured Step time per global
	// vertex.
	Times []time.Duration
}

// Handoff reports one participant's side of an epoch switch's state
// migration.
type Handoff struct {
	// Leaving carries serialized state for vertices migrating off this
	// participant, for the coordinator to route to their new owners.
	Leaving []core.VertexSnapshot
	// Serialized counts vertices whose state crossed a Snapshotter
	// round-trip on this participant's side.
	Serialized int
	// Bytes is the serialized state volume the handoff moved.
	Bytes int64
}

// ErrPeerLost marks a participant whose process (or wire) died: the
// control channel broke, so nothing more can be asked of it. When the
// coordinator runs with recovery enabled, a lost peer triggers the
// rejoin path rather than an abort. Test with errors.Is.
var ErrPeerLost = errors.New("distrib: participant lost")

// ErrEpochFailed marks an epoch that died on some machine while the
// participant processes themselves stayed up and parked: the flock can
// roll back to the last stable checkpoint without waiting for anyone
// to rejoin. Test with errors.Is.
var ErrEpochFailed = errors.New("distrib: epoch failed")

// CkptInfo describes one participant's newest durable checkpoint, as
// reported by Reset and echoed by Restore: the epoch and base phase it
// would resume at, the partition it ran under, and whether a
// checkpoint exists at all (a rejoiner with a fresh WAL has none).
type CkptInfo struct {
	// Epoch and Base position the checkpoint: the epoch it opens and
	// the last phase already executed before it.
	Epoch, Base int
	// Starts is the partition the checkpointed epoch ran under.
	Starts []int
	// Has reports whether the participant has any checkpoint.
	Has bool
}

// Participant is the coordinator's handle on one machine's worker of a
// rebalancing deployment. The coordinator drives each epoch through a
// fixed call sequence: BeginAt (epoch 0), then per epoch zero or more
// WaitStarted/Poll calls, optionally Pause + SetBarrier, then
// AwaitQuiesce; after a mid-run barrier, Offload + Advance move state
// and start the next epoch; Finish releases the participant when the
// run is over, and Abort tears it down on any failure.
//
// The recovery path (DESIGN.md §10) adds a second sequence, driven
// only when the coordinator has durable participants: Reset parks a
// participant and asks for its newest checkpoint, Restore reloads
// state from the reconciled stable epoch, and BeginAt relaunches from
// that barrier under a fresh epoch number.
type Participant interface {
	// WaitStarted blocks until the participant's head machines have
	// opened phase target (true) or finished without reaching it
	// (false). Participants without head machines return false
	// immediately.
	WaitStarted(target int) (bool, error)
	// Poll reports the participant's current progress.
	Poll() (Progress, error)
	// Pause returns a consistent progress snapshot: the newest phase
	// the participant's head machines had opened. From then on no head
	// opens a later phase — heads reaching their gate park there — until
	// SetBarrier.
	Pause() (Progress, error)
	// SetBarrier publishes the epoch barrier: heads resume, run
	// through phase barrier and quiesce.
	SetBarrier(barrier int) error
	// AwaitQuiesce blocks until the participant's machines have
	// drained — to the barrier, or to the end of the run.
	AwaitQuiesce() (QuiesceReport, error)
	// Done returns a channel that closes once the running epoch's
	// machines have drained (AwaitQuiesce will not block after it
	// closes) — the monitor's prompt end-of-epoch signal, so a
	// finished run never waits out a poll tick.
	Done() <-chan struct{}
	// Offload announces the next epoch's partition and collects the
	// state leaving this participant under it.
	Offload(barrier int, newStarts []int) (Handoff, error)
	// Advance delivers the state arriving at this participant and
	// starts the next epoch at base = the Offload barrier, with that
	// epoch's launch barrier and hold (see BeginAt).
	Advance(arriving []core.VertexSnapshot, barrier, hold int) error
	// Finish releases the participant: the run is over and no further
	// epoch follows.
	Finish() error
	// Abort tears the participant down after a coordinator-side
	// failure, carrying the root cause for its error report.
	Abort(reason error)
	// BeginAt starts an epoch at the given number and base phase
	// under starts: epoch 0 at base 0, or a relaunch from a recovered
	// barrier. Both launch settings are in place before any machine
	// runs: a nonzero barrier is the epoch's barrier (a replay's
	// scripted cut), and a nonzero hold parks the heads once they have
	// opened phase hold, until SetBarrier — the ForceEvery trigger,
	// which WaitStarted(hold) then reports.
	BeginAt(epoch, base int, starts []int, barrier, hold int) error
	// Reset parks the participant — abandoning its live epoch, if any —
	// and reports its newest durable checkpoint. Only participants
	// backed by a WAL can honor it.
	Reset() (CkptInfo, error)
	// Restore reloads the participant's module state from its
	// checkpoint at stableEpoch and primes it to accept a BeginAt for
	// nextEpoch, echoing the restored checkpoint.
	Restore(stableEpoch, nextEpoch int) (CkptInfo, error)
}

// CtlChannel is a full-duplex, ordered control connection between the
// coordinator and one participant. netwire.CtlConn implements it over
// TCP; NewCtlPipe returns an in-process pair for the Run facade's
// workers and the coordinator process's own participant.
type CtlChannel interface {
	// Send delivers one control frame. Safe for concurrent use.
	Send(f netwire.WireFrame) error
	// Recv blocks for the next control frame; it errors once the
	// channel is closed from either side.
	Recv() (netwire.WireFrame, error)
	// Close tears the channel down, unblocking both sides.
	Close() error
}

// errCtlClosed is the generic "control channel torn down" failure a
// pipe end reports once either side has closed.
var errCtlClosed = errors.New("distrib: control channel closed")

// ctlPipeState is the shared core of an in-process control channel
// pair: one bounded frame queue per direction and a common close
// signal, mirroring a socket (closing either end kills both).
type ctlPipeState struct {
	atob, btoa chan netwire.WireFrame
	closed     chan struct{}
	closeOnce  sync.Once // both ends may close at once
}

func (s *ctlPipeState) close() {
	s.closeOnce.Do(func() { close(s.closed) })
}

// ctlPipeEnd is one end of an in-process control channel.
type ctlPipeEnd struct {
	s       *ctlPipeState
	out, in chan netwire.WireFrame
}

// NewCtlPipe returns the two ends of an in-process control channel —
// the chan-backed CtlChannel binding. Frames sent on one end arrive at
// the other in order; closing either end fails both directions, like
// a broken socket.
func NewCtlPipe() (CtlChannel, CtlChannel) {
	s := &ctlPipeState{
		atob:   make(chan netwire.WireFrame, 64),
		btoa:   make(chan netwire.WireFrame, 64),
		closed: make(chan struct{}),
	}
	a := &ctlPipeEnd{s: s, out: s.atob, in: s.btoa}
	b := &ctlPipeEnd{s: s, out: s.btoa, in: s.atob}
	return a, b
}

// Send implements CtlChannel.
func (e *ctlPipeEnd) Send(f netwire.WireFrame) error {
	select {
	case e.out <- f:
		return nil
	case <-e.s.closed:
		return errCtlClosed
	}
}

// Recv implements CtlChannel. Frames sent before the close are
// delivered before the close is reported, matching socket semantics.
func (e *ctlPipeEnd) Recv() (netwire.WireFrame, error) {
	select {
	case f := <-e.in:
		return f, nil
	case <-e.s.closed:
		// Drain anything that landed before the close.
		select {
		case f := <-e.in:
			return f, nil
		default:
			return netwire.WireFrame{}, errCtlClosed
		}
	}
}

// Close implements CtlChannel.
func (e *ctlPipeEnd) Close() error {
	e.s.close()
	return nil
}

// interface conformance
var (
	_ CtlChannel = (*ctlPipeEnd)(nil)
	_ CtlChannel = (*netwire.CtlConn)(nil)
)

// durations converts wire nanosecond vectors to time.Duration, and
// nanos the reverse; both tolerate nil.
func durations(ns []int64) []time.Duration {
	if ns == nil {
		return nil
	}
	out := make([]time.Duration, len(ns))
	for i, v := range ns {
		out[i] = time.Duration(v)
	}
	return out
}

func nanos(ts []time.Duration) []int64 {
	if ts == nil {
		return nil
	}
	out := make([]int64, len(ts))
	for i, v := range ts {
		out[i] = int64(v)
	}
	return out
}
