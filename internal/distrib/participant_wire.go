package distrib

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/netwire"
	"repro/internal/wal"
)

// wireMsg is one delivery from a control channel's reader goroutine.
type wireMsg struct {
	f   netwire.WireFrame
	err error
}

// RemoteParticipant is the coordinator's Participant binding for a
// worker reached over a CtlChannel: every interface call maps
// to one control-frame exchange of the DESIGN.md §9 protocol, with
// per-reply epoch validation (a reply tagged with another epoch is
// rejected as stale, never applied) and a bounded ack timeout so a
// wedged worker fails the run instead of hanging it. AwaitQuiesce
// alone has no timeout — an epoch legitimately runs as long as it
// runs — and relies on channel death to unblock when a worker dies.
type RemoteParticipant struct {
	// Name labels the participant in errors (e.g. "machine 2").
	Name string
	// AckTimeout bounds every control-frame reply except the quiesce
	// report and the started announcement. Defaults to 60s.
	AckTimeout time.Duration

	ch    CtlChannel
	epoch int
	// pendingBase is the barrier of the switch in flight between
	// Offload and Advance.
	pendingBase int

	mu       sync.Mutex // serializes request/reply exchanges
	inbox    chan netwire.WireFrame
	quiesced chan netwire.WireFrame
	started  chan netwire.WireFrame
	dead     chan struct{}
	deadErr  atomic.Pointer[error]
	closed   sync.Once

	doneMu sync.Mutex
	doneCh chan struct{} // per epoch; closed when the quiesce report lands

	failMu    sync.Mutex
	epochFail chan struct{} // per epoch; closed when a FrameFailed lands
	failMsg   string
}

// NewRemoteParticipant wraps a control channel to one worker process
// and starts its reader. name labels the participant in errors.
func NewRemoteParticipant(ch CtlChannel, name string) *RemoteParticipant {
	rp := &RemoteParticipant{
		Name:      name,
		ch:        ch,
		inbox:     make(chan netwire.WireFrame, 4),
		quiesced:  make(chan netwire.WireFrame, 1),
		started:   make(chan netwire.WireFrame, 2),
		dead:      make(chan struct{}),
		doneCh:    make(chan struct{}),
		epochFail: make(chan struct{}),
	}
	go rp.read()
	return rp
}

// signalDone closes the current epoch's done channel (idempotent).
func (rp *RemoteParticipant) signalDone() {
	rp.doneMu.Lock()
	select {
	case <-rp.doneCh:
	default:
		close(rp.doneCh)
	}
	rp.doneMu.Unlock()
}

// Done implements Participant.
func (rp *RemoteParticipant) Done() <-chan struct{} {
	rp.doneMu.Lock()
	defer rp.doneMu.Unlock()
	return rp.doneCh
}

// fail records the terminal error and wakes every waiter.
func (rp *RemoteParticipant) fail(err error) {
	rp.deadErr.CompareAndSwap(nil, &err)
	rp.closed.Do(func() {
		rp.ch.Close()
		close(rp.dead)
	})
	rp.signalDone()
}

// lost is fail for wire death: the worker process (or its connection)
// is gone, which — unlike a protocol violation — the recovery path can
// repair by accepting the worker's rejoin. The recorded error wraps
// ErrPeerLost so the coordinator can tell the two apart.
func (rp *RemoteParticipant) lost(err error) {
	rp.fail(fmt.Errorf("%w: %v", ErrPeerLost, err))
}

// epochFailCh returns the running epoch's failure signal.
func (rp *RemoteParticipant) epochFailCh() <-chan struct{} {
	rp.failMu.Lock()
	defer rp.failMu.Unlock()
	return rp.epochFail
}

// epochFailed records a worker's FrameFailed report and wakes the
// epoch's waiters; the process itself stays up and parked.
func (rp *RemoteParticipant) epochFailed(msg string) {
	rp.failMu.Lock()
	if rp.failMsg == "" {
		rp.failMsg = msg
	}
	select {
	case <-rp.epochFail:
	default:
		close(rp.epochFail)
	}
	rp.failMu.Unlock()
	rp.signalDone()
}

// epochFailErr reports why the epoch failed, wrapping ErrEpochFailed.
func (rp *RemoteParticipant) epochFailErr() error {
	rp.failMu.Lock()
	defer rp.failMu.Unlock()
	return fmt.Errorf("%w: participant %s: %s", ErrEpochFailed, rp.Name, rp.failMsg)
}

func (rp *RemoteParticipant) failErr() error {
	if e := rp.deadErr.Load(); e != nil {
		return *e
	}
	return fmt.Errorf("distrib: participant %s: control channel closed", rp.Name)
}

// read dispatches inbound control frames: quiesce reports to their
// dedicated slot (they arrive unsolicited, possibly interleaved with
// a reply), aborts and wire failures to the terminal error, and
// everything else to the reply inbox.
func (rp *RemoteParticipant) read() {
	for {
		f, err := rp.ch.Recv()
		if err != nil {
			if err != io.EOF {
				rp.lost(fmt.Errorf("participant %s: %v", rp.Name, err))
			} else {
				rp.lost(fmt.Errorf("participant %s: control channel closed", rp.Name))
			}
			return
		}
		switch f.Kind {
		case netwire.FrameQuiesced:
			select {
			case rp.quiesced <- f:
				rp.signalDone()
			default:
				rp.fail(fmt.Errorf("distrib: participant %s: duplicate quiesce report", rp.Name))
				return
			}
		case netwire.FrameStarted:
			// An announcement, not an ack: a late one (the waiter moved
			// on) is dropped, never an error.
			select {
			case rp.started <- f:
			default:
			}
		case netwire.FrameAbort:
			rp.fail(fmt.Errorf("distrib: participant %s aborted: %s", rp.Name, f.Msg))
			return
		case netwire.FrameFailed:
			// The worker's epoch died locally but the process is parked
			// and recoverable. Not terminal: the channel stays up for the
			// reset/restore sequence.
			rp.epochFailed(f.Msg)
		default:
			select {
			case rp.inbox <- f:
			default:
				rp.fail(fmt.Errorf("distrib: participant %s: unsolicited %s frame", rp.Name, netwire.KindName(f.Kind)))
				return
			}
		}
	}
}

func (rp *RemoteParticipant) ackTimeout() time.Duration {
	if rp.AckTimeout > 0 {
		return rp.AckTimeout
	}
	return 60 * time.Second
}

// recvReply waits for one reply of the given kind tagged with the
// given epoch, failing the participant on timeout, mismatched kind or
// a stale epoch.
func (rp *RemoteParticipant) recvReply(kind uint8, epoch int) (netwire.WireFrame, error) {
	timer := time.NewTimer(rp.ackTimeout())
	defer timer.Stop()
	select {
	case f := <-rp.inbox:
		if f.Kind != kind {
			err := fmt.Errorf("distrib: participant %s: reply %s, want %s", rp.Name, netwire.KindName(f.Kind), netwire.KindName(kind))
			rp.fail(err)
			return netwire.WireFrame{}, err
		}
		if f.Epoch != epoch {
			err := fmt.Errorf("distrib: participant %s: stale-epoch control frame: epoch %d, want %d", rp.Name, f.Epoch, epoch)
			rp.fail(err)
			return netwire.WireFrame{}, err
		}
		return f, nil
	case <-rp.dead:
		return netwire.WireFrame{}, rp.failErr()
	case <-timer.C:
		err := fmt.Errorf("distrib: participant %s: no ack for %s within %v", rp.Name, netwire.KindName(kind), rp.ackTimeout())
		rp.fail(err)
		return netwire.WireFrame{}, err
	}
}

// send delivers one control frame. When the channel is gone, the
// reader names the terminal error: a worker that failed queued its
// abort, carrying the root cause, ahead of the close, and reporting
// the bare "channel closed" instead would lose it.
func (rp *RemoteParticipant) send(f netwire.WireFrame) error {
	if err := rp.ch.Send(f); err != nil {
		rp.ch.Close()
		<-rp.dead
		return rp.failErr()
	}
	return nil
}

// BeginAt implements Participant: a plan frame positioned at an
// explicit epoch and base, then the launch settings, then the empty
// state delivery that releases the worker into its run. The
// participant's per-epoch signals (done, epoch failure) reset with it.
func (rp *RemoteParticipant) BeginAt(epoch, base int, starts []int, barrier, hold int) error {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	rp.failMu.Lock()
	rp.epochFail = make(chan struct{})
	rp.failMsg = ""
	rp.failMu.Unlock()
	if err := rp.send(netwire.WireFrame{Kind: netwire.FramePlan, Epoch: epoch, Phase: base, Starts: starts}); err != nil {
		return err
	}
	return rp.launch(epoch, base, barrier, hold, nil)
}

// launch starts the announced epoch: the launch settings — a barrier
// frame and a wait frame, each sent only when nonzero — which the
// worker applies before any machine runs, then the state delivery that
// releases it. Caller holds mu.
func (rp *RemoteParticipant) launch(epoch, base, barrier, hold int, arriving []core.VertexSnapshot) error {
	rp.epoch = epoch
	rp.doneMu.Lock()
	rp.doneCh = make(chan struct{}) // fresh epoch, fresh completion signal
	rp.doneMu.Unlock()
	for _, f := range []netwire.WireFrame{
		{Kind: netwire.FrameBarrier, Epoch: epoch, Phase: barrier},
		{Kind: netwire.FrameWait, Epoch: epoch, Phase: hold},
	} {
		if f.Phase == 0 {
			continue
		}
		if err := rp.send(f); err != nil {
			return err
		}
	}
	return rp.send(netwire.WireFrame{Kind: netwire.FrameSnapshot, Epoch: epoch, Phase: base, Snaps: arriving})
}

// WaitStarted implements Participant: the blocking wait runs on the
// worker's own condition variable (FrameWait → FrameStarted), so the
// trigger fires the moment the heads reach the target — no polling,
// no race against a fast epoch. No timeout applies; a dying worker
// unblocks the wait by killing the channel.
func (rp *RemoteParticipant) WaitStarted(target int) (bool, error) {
	rp.mu.Lock()
	epoch := rp.epoch
	err := rp.send(netwire.WireFrame{Kind: netwire.FrameWait, Epoch: epoch, Phase: target})
	rp.mu.Unlock()
	if err != nil {
		return false, err
	}
	for {
		select {
		case f := <-rp.started:
			if f.Epoch != epoch {
				continue // a late announcement from an earlier epoch's wait
			}
			return !f.Done, nil
		case <-rp.epochFailCh():
			return false, rp.epochFailErr()
		case <-rp.dead:
			return false, rp.failErr()
		}
	}
}

// Poll implements Participant.
func (rp *RemoteParticipant) Poll() (Progress, error) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	if err := rp.send(netwire.WireFrame{Kind: netwire.FramePoll, Epoch: rp.epoch}); err != nil {
		return Progress{}, err
	}
	f, err := rp.recvReply(netwire.FrameProgress, rp.epoch)
	if err != nil {
		return Progress{}, err
	}
	return Progress{Started: f.Phase, Done: f.Done, Times: durations(f.Times)}, nil
}

// Pause implements Participant.
func (rp *RemoteParticipant) Pause() (Progress, error) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	if err := rp.send(netwire.WireFrame{Kind: netwire.FramePause, Epoch: rp.epoch}); err != nil {
		return Progress{}, err
	}
	f, err := rp.recvReply(netwire.FrameProgress, rp.epoch)
	if err != nil {
		return Progress{}, err
	}
	return Progress{Started: f.Phase, Done: f.Done, Times: durations(f.Times)}, nil
}

// SetBarrier implements Participant.
func (rp *RemoteParticipant) SetBarrier(barrier int) error {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	return rp.send(netwire.WireFrame{Kind: netwire.FrameBarrier, Epoch: rp.epoch, Phase: barrier})
}

// AwaitQuiesce implements Participant. No timeout applies: the epoch
// runs as long as it runs, and a dying worker unblocks the wait by
// killing the channel.
func (rp *RemoteParticipant) AwaitQuiesce() (QuiesceReport, error) {
	select {
	case f := <-rp.quiesced:
		if f.Epoch != rp.epoch {
			err := fmt.Errorf("distrib: participant %s: stale-epoch quiesce report: epoch %d, want %d", rp.Name, f.Epoch, rp.epoch)
			rp.fail(err)
			return QuiesceReport{}, err
		}
		return QuiesceReport{Barrier: f.Phase, Times: durations(f.Times)}, nil
	case <-rp.epochFailCh():
		return QuiesceReport{}, rp.epochFailErr()
	case <-rp.dead:
		return QuiesceReport{}, rp.failErr()
	}
}

// Offload implements Participant: the next epoch's plan goes out, the
// state leaving the worker comes back.
func (rp *RemoteParticipant) Offload(barrier int, newStarts []int) (Handoff, error) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	next := rp.epoch + 1
	if err := rp.send(netwire.WireFrame{Kind: netwire.FramePlan, Epoch: next, Phase: barrier, Starts: newStarts}); err != nil {
		return Handoff{}, err
	}
	f, err := rp.recvReply(netwire.FrameSnapshot, next)
	if err != nil {
		return Handoff{}, err
	}
	if f.Phase != barrier {
		err := fmt.Errorf("distrib: participant %s: offloaded state at barrier %d, want %d", rp.Name, f.Phase, barrier)
		rp.fail(err)
		return Handoff{}, err
	}
	h := Handoff{Leaving: f.Snaps, Serialized: len(f.Snaps)}
	for _, s := range f.Snaps {
		h.Bytes += int64(len(s.State))
	}
	rp.pendingBase = barrier
	return h, nil
}

// Advance implements Participant: arriving state goes out and the
// worker rebuilds, rewires and runs the next epoch.
func (rp *RemoteParticipant) Advance(arriving []core.VertexSnapshot, barrier, hold int) error {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	return rp.launch(rp.epoch+1, rp.pendingBase, barrier, hold, arriving)
}

// Finish implements Participant. After the release frame it waits
// (bounded) for the worker to close its side first, so an abrupt local
// close can never race the frame's delivery off the wire.
func (rp *RemoteParticipant) Finish() error {
	rp.mu.Lock()
	err := rp.send(netwire.WireFrame{Kind: netwire.FrameFinish, Epoch: rp.epoch})
	rp.mu.Unlock()
	if err == nil {
		select {
		case <-rp.dead:
		case <-time.After(5 * time.Second):
		}
	}
	rp.closed.Do(func() {
		rp.ch.Close()
		close(rp.dead)
	})
	return err
}

// Reset implements Participant: the park command goes out and the
// worker's newest stable checkpoint comes back. The worker defers its
// reply until any live epoch drains, so the wait discards whatever
// stale traffic that epoch still emits (progress replies, a quiesce
// report, late started announcements) instead of failing on it.
func (rp *RemoteParticipant) Reset() (CkptInfo, error) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	if err := rp.send(netwire.WireFrame{Kind: netwire.FrameReset, Epoch: rp.epoch}); err != nil {
		return CkptInfo{}, err
	}
	timer := time.NewTimer(rp.ackTimeout())
	defer timer.Stop()
	for {
		select {
		case f := <-rp.inbox:
			if f.Kind != netwire.FrameRejoin {
				continue // a stale reply from the abandoned epoch
			}
			// The control channel is ordered: any quiesce report or
			// started announcement the abandoned epoch produced was
			// enqueued before this reply, so one non-blocking drain
			// clears them all.
			rp.drainStale()
			return CkptInfo{Epoch: f.Epoch, Base: f.Phase, Starts: f.Starts, Has: f.Done}, nil
		case <-rp.quiesced:
			continue // the abandoned epoch drained; obsolete now
		case <-rp.started:
			continue // a late announcement from the abandoned epoch
		case <-rp.dead:
			return CkptInfo{}, rp.failErr()
		case <-timer.C:
			err := fmt.Errorf("distrib: participant %s: no checkpoint report within %v of reset", rp.Name, rp.ackTimeout())
			rp.fail(err)
			return CkptInfo{}, err
		}
	}
}

// drainStale empties the quiesce and started slots without blocking.
func (rp *RemoteParticipant) drainStale() {
	for {
		select {
		case <-rp.quiesced:
		case <-rp.started:
		default:
			return
		}
	}
}

// Restore implements Participant: the worker reloads module state from
// its checkpoint at stableEpoch and confirms with a rejoin echo tagged
// with nextEpoch.
func (rp *RemoteParticipant) Restore(stableEpoch, nextEpoch int) (CkptInfo, error) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	if err := rp.send(netwire.WireFrame{Kind: netwire.FrameRestore, Epoch: nextEpoch, Phase: stableEpoch}); err != nil {
		return CkptInfo{}, err
	}
	f, err := rp.recvReply(netwire.FrameRejoin, nextEpoch)
	if err != nil {
		return CkptInfo{}, err
	}
	if !f.Done {
		err := fmt.Errorf("distrib: participant %s: restore echo reports no checkpoint at epoch %d", rp.Name, stableEpoch)
		rp.fail(err)
		return CkptInfo{}, err
	}
	return CkptInfo{Epoch: f.Epoch, Base: f.Phase, Starts: f.Starts, Has: f.Done}, nil
}

// Abort implements Participant: best-effort root-cause delivery, then
// teardown.
func (rp *RemoteParticipant) Abort(reason error) {
	rp.mu.Lock()
	rp.ch.Send(netwire.WireFrame{Kind: netwire.FrameAbort, Epoch: rp.epoch, Msg: reason.Error()})
	rp.mu.Unlock()
	rp.closed.Do(func() {
		rp.ch.Close()
		close(rp.dead)
	})
}

var _ Participant = (*RemoteParticipant)(nil)

// WireFunc wires one epoch's data links for a worker machine:
// exactly one inbound transport per Upstream entry and one outbound
// per Downstream entry of the deployment. It is called once per epoch,
// after the previous epoch's links have fully closed; implementations
// dial with retry/backoff because peers re-enter their accept loops at
// slightly different times (WireHost provides the standard TCP
// implementation).
type WireFunc func(d *Deployment, epoch int) (in, out map[int]Transport, err error)

// WorkerConfig configures one machine's worker in a coordinated run —
// a fuseworker process, or one of the Run facade's in-process workers:
// which machine it owns, the shared workload every worker builds
// identically, and how to wire each epoch's data links.
type WorkerConfig struct {
	// Machine is this worker's machine index.
	Machine int
	// Graph and Mods are the global workload; Mods[v-1] is the module
	// for global vertex v.
	Graph *graph.Numbered
	Mods  []core.Module
	// Config carries the per-machine engine tuning (workers, window,
	// buffer). Machines is overridden by each epoch's plan.
	Config Config
	// Batches are the global per-phase external inputs of the whole
	// run; the worker takes the share its machine owns each epoch.
	Batches [][]core.ExtInput
	// Wire builds each epoch's data links.
	Wire WireFunc
	// Log receives progress lines; nil discards.
	Log io.Writer
	// WAL, when non-nil, makes the worker durable: every epoch launch
	// appends an fsynced checkpoint of the machine's owned module state
	// before the first phase runs, and a local epoch failure parks the
	// process (FrameFailed) instead of aborting the flock.
	WAL *wal.Log
	// Rejoin makes the worker open the conversation with a FrameRejoin
	// hello carrying its newest WAL checkpoint — the restarted-process
	// path. Requires WAL.
	Rejoin bool

	// sharedMods marks a worker whose Mods slice every other worker of
	// the run shares — the Run facade's in-process workers. A vertex
	// without core.Snapshotter then migrates by reference: the module
	// object is already where its new owner will step it.
	sharedMods bool
}

// workerEpoch is one epoch's live state on the worker side.
type workerEpoch struct {
	epoch, base int
	starts      []int
	// barrier and hold are the launch settings delivered between the
	// epoch's plan and its state delivery (0 = none); both are on the
	// epoch controller before any machine runs.
	barrier, hold int
	d             *Deployment
	ctl           *epochCtl
	done          bool
}

// runResult carries one epoch run's outcome from the machine goroutine
// to the serve loop.
type runResult struct {
	stats core.Stats
	err   error
}

// ParticipantReport summarizes one worker's side of a coordinated
// run.
type ParticipantReport struct {
	// Stats accumulates the worker's engine counters across epochs.
	Stats core.Stats
	// FinalStarts is the last epoch's partition — what decides, after
	// any number of migrations, which machine owns which vertex at the
	// end of the run.
	FinalStarts []int
	// Epochs counts the epochs this worker ran (switches + 1).
	Epochs int
}

// ServeParticipant runs one worker's side of the control-plane
// protocol to completion: it receives plans and arriving state from
// the coordinator, builds and runs its machine for each epoch, stops
// its head machine on pause, publishes barriers, ships quiesce
// reports and leaving state, and returns its accumulated engine stats
// and final partition when the coordinator finishes the run. Any
// protocol violation, machine failure or channel death aborts with the
// root cause (after a best-effort FrameAbort so the coordinator can
// name it too).
func ServeParticipant(ch CtlChannel, wc WorkerConfig) (ParticipantReport, error) {
	logf := func(format string, args ...any) {
		if wc.Log != nil {
			fmt.Fprintf(wc.Log, format+"\n", args...)
		}
	}
	var rep ParticipantReport
	n := wc.Graph.N()
	total := len(wc.Batches)

	recvd := make(chan wireMsg)
	stopRead := make(chan struct{})
	defer close(stopRead)
	defer ch.Close()
	go func() {
		for {
			f, err := ch.Recv()
			select {
			case recvd <- wireMsg{f, err}:
			case <-stopRead:
				return
			}
			if err != nil {
				return
			}
		}
	}()

	abort := func(err error) (ParticipantReport, error) {
		ch.Send(netwire.WireFrame{Kind: netwire.FrameAbort, Msg: err.Error()})
		return rep, err
	}

	// sendStable reports the newest durable checkpoint as a FrameRejoin:
	// the reply to a reset, and the hello a restarted worker opens with.
	sendStable := func() error {
		var f netwire.WireFrame
		f.Kind = netwire.FrameRejoin
		if cp, ok := wc.WAL.Stable(); ok {
			f.Epoch, f.Phase, f.Starts, f.Done = cp.Epoch, cp.Base, cp.Starts, true
		}
		return ch.Send(f)
	}
	if wc.Rejoin {
		if wc.WAL == nil {
			return rep, fmt.Errorf("distrib: machine %d: rejoin requires a WAL", wc.Machine)
		}
		if err := sendStable(); err != nil {
			return rep, fmt.Errorf("distrib: machine %d: sending rejoin hello: %w", wc.Machine, err)
		}
	}

	var cur *workerEpoch
	var pending *workerEpoch // announced by FramePlan, started by FrameSnapshot
	// cache holds the converged base snapshots behind delta handoff
	// (snapdelta.go); it survives across epochs and is cleared on the
	// recovery paths, where checkpointed state invalidates every base.
	cache := newSnapCache()
	// resumeEpoch is the epoch number the next plan must carry after a
	// restore (-1 outside recovery); resetRequested defers the reset
	// reply until the live epoch drains.
	resumeEpoch := -1
	resetRequested := false
	runDone := make(chan runResult, 1)
	// However the worker returns, none of its machines keeps running: a
	// live epoch's head quiesces at the phase it has reached, the
	// barrier floods downstream, and the worker waits for the machine
	// to drain, so its caller may read the modules once it returns.
	defer func() {
		if cur != nil && !cur.done {
			cur.ctl.publish(max(cur.ctl.pause(), cur.base+1))
			<-runDone
		}
	}()
	for {
		select {
		case r := <-runDone:
			rep.Stats = mergeCoreStats(rep.Stats, r.stats)
			cur.done = true
			if resetRequested {
				// A reset arrived while this epoch was live: its outcome,
				// success or failure, is abandoned. Answer with the
				// checkpoint now that the machines have unwound.
				resetRequested = false
				logf("machine %d: epoch %d abandoned by reset", wc.Machine, cur.epoch)
				if err := sendStable(); err != nil {
					return rep, err
				}
				cur, pending = nil, nil
				continue
			}
			if r.err != nil {
				if wc.WAL != nil {
					// Durable worker: the epoch died but the checkpoint
					// under it survives. Park and report the root cause;
					// the coordinator rolls the flock back (DESIGN.md §10).
					logf("machine %d: epoch %d failed, parked: %v", wc.Machine, cur.epoch, r.err)
					if err := ch.Send(netwire.WireFrame{
						Kind: netwire.FrameFailed, Epoch: cur.epoch, Msg: r.err.Error(),
					}); err != nil {
						return rep, err
					}
					continue
				}
				return abort(fmt.Errorf("distrib: machine %d: epoch %d: %w", wc.Machine, cur.epoch, r.err))
			}
			barrier := cur.d.machines[wc.Machine].barrierAt
			logf("machine %d: epoch %d drained (barrier %d)", wc.Machine, cur.epoch, barrier)
			if err := ch.Send(netwire.WireFrame{
				Kind: netwire.FrameQuiesced, Epoch: cur.epoch, Phase: barrier,
				Times: nanos(cur.d.globalVertexTimes(n)),
			}); err != nil {
				return rep, err
			}

		case m := <-recvd:
			if m.err != nil {
				if m.err == io.EOF || m.err == errCtlClosed {
					return rep, fmt.Errorf("distrib: machine %d: coordinator closed the control channel mid-run", wc.Machine)
				}
				return rep, fmt.Errorf("distrib: machine %d: control channel: %w", wc.Machine, m.err)
			}
			f := m.f
			switch f.Kind {
			case netwire.FrameWait:
				if pending != nil && f.Epoch == pending.epoch {
					pending.hold = f.Phase // a launch setting, like the barrier below
					continue
				}
				if cur == nil || f.Epoch != cur.epoch {
					return abort(fmt.Errorf("distrib: machine %d: stale-epoch control frame: %s epoch %d, running epoch %d", wc.Machine, netwire.KindName(f.Kind), f.Epoch, epochOf(cur)))
				}
				// The blocking wait runs off the serve loop so polls and
				// pauses stay responsive; the announcement is pushed the
				// moment the heads reach the target (or finish short).
				// The hold variant parks the heads there, so the
				// coordinator's follow-up still finds the progress this
				// frame reports — the barrier it publishes (possibly at
				// total, declining the switch) releases them.
				go func(we *workerEpoch, target int) {
					reached := we.ctl.waitStartedHold(target)
					ch.Send(netwire.WireFrame{
						Kind: netwire.FrameStarted, Epoch: we.epoch, Phase: we.ctl.progress(), Done: !reached,
					})
				}(cur, f.Phase)

			case netwire.FramePoll, netwire.FramePause, netwire.FrameBarrier:
				if f.Kind == netwire.FrameBarrier && pending != nil && f.Epoch == pending.epoch {
					// A launch barrier: it arrives between the plan and the
					// state delivery, and is on the epoch controller before
					// any of the epoch's machines runs.
					pending.barrier = f.Phase
					continue
				}
				if cur == nil || f.Epoch != cur.epoch {
					return abort(fmt.Errorf("distrib: machine %d: stale-epoch control frame: %s epoch %d, running epoch %d", wc.Machine, netwire.KindName(f.Kind), f.Epoch, epochOf(cur)))
				}
				switch f.Kind {
				case netwire.FramePoll:
					if err := ch.Send(netwire.WireFrame{
						Kind: netwire.FrameProgress, Epoch: cur.epoch, Phase: cur.ctl.progress(), Done: cur.done,
						Times: nanos(cur.d.globalVertexTimes(n)),
					}); err != nil {
						return rep, err
					}
				case netwire.FramePause:
					if err := ch.Send(netwire.WireFrame{
						Kind: netwire.FrameProgress, Epoch: cur.epoch, Phase: cur.ctl.pause(), Done: cur.done,
					}); err != nil {
						return rep, err
					}
				case netwire.FrameBarrier:
					cur.ctl.publish(f.Phase)
				}

			case netwire.FramePlan:
				wantEpoch := 0
				if cur != nil {
					wantEpoch = cur.epoch + 1
				} else if resumeEpoch >= 0 {
					wantEpoch = resumeEpoch
				}
				if f.Epoch != wantEpoch {
					return abort(fmt.Errorf("distrib: machine %d: stale-epoch plan: epoch %d, want %d", wc.Machine, f.Epoch, wantEpoch))
				}
				if cur != nil && !cur.done {
					return abort(fmt.Errorf("distrib: machine %d: plan for epoch %d arrived while epoch %d is still running", wc.Machine, f.Epoch, cur.epoch))
				}
				if pending != nil {
					return abort(fmt.Errorf("distrib: machine %d: plan for epoch %d arrived before epoch %d started", wc.Machine, f.Epoch, pending.epoch))
				}
				if wc.Machine >= len(f.Starts) {
					return abort(fmt.Errorf("distrib: machine %d: plan has only %d machines", wc.Machine, len(f.Starts)))
				}
				pending = &workerEpoch{epoch: f.Epoch, base: f.Phase, starts: f.Starts}
				if cur != nil {
					// An epoch switch: ship the state of every vertex
					// leaving this machine under the new plan.
					leaving, err := leavingSnaps(wc.Mods, wc.Machine, cur.starts, f.Starts, cache, wc.sharedMods)
					if err != nil {
						return abort(err)
					}
					logf("machine %d: epoch %d plan %v: %d vertices leaving", wc.Machine, f.Epoch, f.Starts, len(leaving))
					if err := ch.Send(netwire.WireFrame{
						Kind: netwire.FrameSnapshot, Epoch: f.Epoch, Phase: f.Phase, Snaps: leaving,
					}); err != nil {
						return rep, err
					}
				}

			case netwire.FrameSnapshot:
				if pending == nil || f.Epoch != pending.epoch {
					return abort(fmt.Errorf("distrib: machine %d: stale-epoch state delivery: epoch %d, pending %d", wc.Machine, f.Epoch, epochOf(pending)))
				}
				for _, snap := range f.Snaps {
					if snap.Vertex < 1 || snap.Vertex > n {
						return abort(fmt.Errorf("distrib: machine %d: arriving snapshot for vertex %d of %d", wc.Machine, snap.Vertex, n))
					}
					if graph.PartitionOf(pending.starts, snap.Vertex) != wc.Machine {
						return abort(fmt.Errorf("distrib: machine %d: misrouted snapshot for vertex %d", wc.Machine, snap.Vertex))
					}
					// The sender is the vertex's owner under the closing
					// epoch's partition — the peer a delta's base must be
					// converged with.
					from := -2
					if cur != nil {
						from = graph.PartitionOf(cur.starts, snap.Vertex)
					}
					if err := applySnap(wc.Mods[snap.Vertex-1], snap, from, cache); err != nil {
						return abort(fmt.Errorf("distrib: machine %d: %w", wc.Machine, err))
					}
				}
				cfg := wc.Config
				cfg.Machines = len(pending.starts)
				d, err := newDeploymentAt(wc.Graph, wc.Mods, cfg, runWindow{
					epoch: pending.epoch, base: pending.base, measure: true, starts: pending.starts,
				})
				if err != nil {
					return abort(fmt.Errorf("distrib: machine %d: building epoch %d: %w", wc.Machine, pending.epoch, err))
				}
				ctl := newEpochCtl(pending.base, len(d.machines[wc.Machine].upstream) == 0)
				ctl.hold = pending.hold
				if pending.barrier != 0 {
					ctl.publish(pending.barrier)
				}
				d.machines[wc.Machine].ctl = ctl
				if wc.WAL != nil {
					// The durability point: the epoch's plan and this
					// machine's owned state hit disk before any link is
					// wired or any phase runs, so a crash at any later
					// moment can roll back to here.
					snaps, err := ownedSnaps(wc.Mods, wc.Machine, pending.starts)
					if err != nil {
						return abort(err)
					}
					if err := wc.WAL.Append(wal.Checkpoint{
						Epoch: pending.epoch, Base: pending.base, Starts: pending.starts, Snaps: snaps,
					}); err != nil {
						return abort(fmt.Errorf("distrib: machine %d: checkpointing epoch %d: %w", wc.Machine, pending.epoch, err))
					}
					logf("machine %d: epoch %d checkpointed at phase %d (%d vertices)", wc.Machine, pending.epoch, pending.base, len(snaps))
				}
				in, out, err := wc.Wire(d, pending.epoch)
				if err != nil {
					return abort(fmt.Errorf("distrib: machine %d: wiring epoch %d: %w", wc.Machine, pending.epoch, err))
				}
				pending.d, pending.ctl = d, ctl
				cur, pending = pending, nil
				resumeEpoch = -1
				rep.FinalStarts = cur.starts
				rep.Epochs++
				logf("machine %d: epoch %d running from phase %d (%d restored)", wc.Machine, cur.epoch, cur.base+1, len(f.Snaps))
				go func(cur *workerEpoch, batches [][]core.ExtInput) {
					st, err := cur.d.RunMachine(wc.Machine, batches, in, out)
					runDone <- runResult{st, err}
				}(cur, wc.Batches[cur.base:])

			case netwire.FrameReset:
				if wc.WAL == nil {
					return abort(fmt.Errorf("distrib: machine %d: reset without a WAL", wc.Machine))
				}
				// Recovery rolls state back to a checkpoint: every cached
				// delta base is stale from here on.
				cache.clear()
				if cur != nil && !cur.done {
					// A live epoch cannot be interrupted mid-phase; let it
					// drain and answer then. The crash may have caught the
					// heads parked in a pause whose barrier never arrived,
					// so publish the run's end to unpark them (idempotent —
					// a real barrier, if one landed, wins): the epoch then
					// either completes or dies on its peers' dead links,
					// and either way runDone fires.
					cur.ctl.publish(total)
					resetRequested = true
					pending = nil
					logf("machine %d: reset requested, epoch %d still draining", wc.Machine, cur.epoch)
					continue
				}
				logf("machine %d: reset, reporting stable checkpoint", wc.Machine)
				if err := sendStable(); err != nil {
					return rep, err
				}
				cur, pending = nil, nil

			case netwire.FrameRestore:
				if wc.WAL == nil {
					return abort(fmt.Errorf("distrib: machine %d: restore without a WAL", wc.Machine))
				}
				cache.clear()
				if cur != nil || pending != nil {
					return abort(fmt.Errorf("distrib: machine %d: restore while an epoch is live", wc.Machine))
				}
				cp, ok := wc.WAL.At(f.Phase)
				if !ok {
					return abort(fmt.Errorf("distrib: machine %d: no checkpoint at epoch %d to restore", wc.Machine, f.Phase))
				}
				for _, snap := range cp.Snaps {
					if snap.Vertex < 1 || snap.Vertex > n {
						return abort(fmt.Errorf("distrib: machine %d: checkpointed snapshot for vertex %d of %d", wc.Machine, snap.Vertex, n))
					}
					s, ok := wc.Mods[snap.Vertex-1].(core.Snapshotter)
					if !ok {
						return abort(fmt.Errorf("distrib: machine %d: vertex %d (%T) cannot restore serialized state", wc.Machine, snap.Vertex, wc.Mods[snap.Vertex-1]))
					}
					if err := s.RestoreState(snap.State); err != nil {
						return abort(fmt.Errorf("distrib: machine %d: restoring vertex %d from checkpoint: %w", wc.Machine, snap.Vertex, err))
					}
				}
				resumeEpoch = f.Epoch
				logf("machine %d: restored checkpoint epoch %d (base %d, %d vertices), resuming as epoch %d", wc.Machine, cp.Epoch, cp.Base, len(cp.Snaps), f.Epoch)
				if err := ch.Send(netwire.WireFrame{
					Kind: netwire.FrameRejoin, Epoch: f.Epoch, Phase: cp.Base, Starts: cp.Starts, Done: true,
				}); err != nil {
					return rep, err
				}

			case netwire.FrameFinish:
				if cur == nil || f.Epoch != cur.epoch || !cur.done {
					return abort(fmt.Errorf("distrib: machine %d: finish for epoch %d out of order", wc.Machine, f.Epoch))
				}
				return rep, nil

			case netwire.FrameAbort:
				return rep, fmt.Errorf("distrib: machine %d: coordinator aborted: %s", wc.Machine, f.Msg)

			default:
				return abort(fmt.Errorf("distrib: machine %d: unexpected control frame %s", wc.Machine, netwire.KindName(f.Kind)))
			}
		}
	}
}

// epochOf reports a worker epoch's number, -1 when none exists yet.
func epochOf(w *workerEpoch) int {
	if w == nil {
		return -1
	}
	return w.epoch
}

// leavingSnaps serializes the state of every vertex owned by machine m
// under oldStarts but not under newStarts. Crossing a process boundary
// requires core.Snapshotter — a migrating module without it fails the
// switch with the vertex named, rather than silently dropping state —
// unless shared says every worker holds the same module objects, in
// which case such a vertex moves by reference and ships nothing.
// Modules implementing core.DeltaSnapshotter ship deltas against the
// base cached from their previous handoff with the destination machine
// (snapdelta.go); the full state is cached as the new converged base
// either way.
func leavingSnaps(mods []core.Module, m int, oldStarts, newStarts []int, cache *snapCache, shared bool) ([]core.VertexSnapshot, error) {
	var snaps []core.VertexSnapshot
	for v := 1; v <= len(mods); v++ {
		if graph.PartitionOf(oldStarts, v) != m || graph.PartitionOf(newStarts, v) == m {
			continue
		}
		if _, ok := mods[v-1].(core.Snapshotter); !ok {
			if shared {
				continue
			}
			return nil, fmt.Errorf("distrib: machine %d: vertex %d (%T) does not implement core.Snapshotter and cannot migrate between processes", m, v, mods[v-1])
		}
		snap, err := encodeSnap(mods[v-1], v, graph.PartitionOf(newStarts, v), cache)
		if err != nil {
			return nil, fmt.Errorf("distrib: machine %d: %w", m, err)
		}
		snaps = append(snaps, snap)
	}
	return snaps, nil
}

// ownedSnaps serializes the state of every vertex machine m owns under
// starts — the checkpoint a durable worker writes at each epoch launch.
// Durability requires core.Snapshotter on every owned module; a module
// without it fails the checkpoint with the vertex named, rather than
// silently writing a hole.
func ownedSnaps(mods []core.Module, m int, starts []int) ([]core.VertexSnapshot, error) {
	var snaps []core.VertexSnapshot
	for v := 1; v <= len(mods); v++ {
		if graph.PartitionOf(starts, v) != m {
			continue
		}
		s, ok := mods[v-1].(core.Snapshotter)
		if !ok {
			return nil, fmt.Errorf("distrib: machine %d: vertex %d (%T) does not implement core.Snapshotter and cannot be checkpointed", m, v, mods[v-1])
		}
		state, err := s.SnapshotState()
		if err != nil {
			return nil, fmt.Errorf("distrib: machine %d: snapshotting vertex %d for checkpoint: %w", m, v, err)
		}
		snaps = append(snaps, core.VertexSnapshot{Vertex: v, State: state})
	}
	return snaps, nil
}

// mergeCoreStats folds one epoch's engine stats into a worker's
// running total.
func mergeCoreStats(a core.Stats, b core.Stats) core.Stats {
	a.Executions += b.Executions
	a.Messages += b.Messages
	a.PhasesCompleted += b.PhasesCompleted
	a.LockWait += b.LockWait
	a.LockAcquisitions += b.LockAcquisitions
	a.ExecTime += b.ExecTime
	if b.MaxQueueLen > a.MaxQueueLen {
		a.MaxQueueLen = b.MaxQueueLen
	}
	return a
}
