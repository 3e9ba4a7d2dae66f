// Crash recovery for durable multi-process runs (DESIGN.md §10): when
// a worker process dies mid-epoch — or an epoch dies while its workers
// survive — the coordinator parks the flock, waits for the crashed
// process to restart and rejoin, reconciles everyone's newest durable
// checkpoint to the common stable epoch, and relaunches the run from
// that barrier. The sink history replayed from the checkpoint is
// bit-identical to an uninterrupted run: checkpoints are written before
// an epoch's first phase executes, so rolling back to one discards only
// work the failed epoch had not durably claimed.

package distrib

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/evlog"
)

// RejoinOffer is a restarted worker presenting itself for recovery: the
// machine index it owns and the fresh control channel it dialed in on.
// Whoever accepts control connections (griddemo's rejoin listener, or a
// test) reads the worker's FrameRejoin hello, then hands the channel
// here; the coordinator consumes offers only while recovering.
type RejoinOffer struct {
	// Machine is the machine index the rejoining worker owns.
	Machine int
	// Ch is the worker's new control channel, positioned after its
	// hello frame.
	Ch CtlChannel
}

// RecoverConfig tunes the coordinator's crash-recovery path.
type RecoverConfig struct {
	// Window bounds how long the coordinator waits for a crashed
	// worker to rejoin before giving up and aborting the run with the
	// original failure. Defaults to 30s.
	Window time.Duration
	// MaxRecoveries bounds how many recoveries one run will attempt,
	// so a crash-looping worker cannot stall a run forever. Defaults
	// to 2.
	MaxRecoveries int
}

func (rc RecoverConfig) withDefaults() RecoverConfig {
	if rc.Window <= 0 {
		rc.Window = 30 * time.Second
	}
	if rc.MaxRecoveries <= 0 {
		rc.MaxRecoveries = 2
	}
	return rc
}

// RecoveryEvent records one successful crash recovery.
type RecoveryEvent struct {
	// Machines lists the machine indices that rejoined (empty for a
	// pure rollback, where every process survived and only the epoch
	// died).
	Machines []int
	// StableEpoch is the reconciled checkpoint epoch the flock rolled
	// back to, and Base the phase the relaunched run resumed after.
	StableEpoch, Base int
	// NextEpoch is the fresh epoch number the flock relaunched under.
	NextEpoch int
	// Wall is the recovery's wall-clock duration, crash detection to
	// relaunch.
	Wall time.Duration
}

// resumePoint is where a recovery relaunched the run.
type resumePoint struct {
	epoch, base int
	starts      []int
}

// recoverable reports whether a failure is one the recovery path can
// repair: a lost worker process (rejoin) or a dead epoch over live
// processes (rollback). Protocol violations and planning failures stay
// terminal.
func recoverable(err error) bool {
	return errors.Is(err, ErrPeerLost) || errors.Is(err, ErrEpochFailed)
}

// tryRecover attempts to repair a mid-run failure. It parks every
// participant with Reset (collecting each one's newest checkpoint, and
// discovering which participants are actually gone), waits for a
// rejoin offer per lost machine, reconciles the common stable epoch,
// restores everyone there and relaunches under a fresh epoch number.
// Any failure inside recovery gives up: the caller aborts with the
// original cause. The epoch argument is the failed epoch's number.
func (co *Coordinator) tryRecover(cause error, epoch int) (resumePoint, bool) {
	rc := co.Recovery.withDefaults()
	if co.Rejoins == nil || len(co.recoveries) >= rc.MaxRecoveries || !recoverable(cause) {
		return resumePoint{}, false
	}
	t0 := time.Now()

	// Park the flock. A participant whose Reset fails is lost: its
	// process (or wire) is gone and a restarted instance must rejoin.
	infos := make([]CkptInfo, len(co.Participants))
	var lost []int
	for i, p := range co.Participants {
		info, err := p.Reset()
		if err != nil {
			lost = append(lost, i)
			continue
		}
		infos[i] = info
	}

	// Wait out a rejoin offer for every lost machine, replacing the
	// dead participant handles with fresh ones.
	var rejoined []int
	deadline := time.After(rc.Window)
	for _, machine := range lost {
		for {
			var offer RejoinOffer
			select {
			case offer = <-co.Rejoins:
			case <-deadline:
				return resumePoint{}, false
			}
			if offer.Machine != machine {
				// Not the machine this slot waits for; with one offer
				// outstanding per crashed worker this is a stray — drop it.
				offer.Ch.Close()
				continue
			}
			np := NewRemoteParticipant(offer.Ch, fmt.Sprintf("machine %d", offer.Machine))
			info, err := np.Reset()
			if err != nil || !info.Has {
				np.Abort(fmt.Errorf("distrib: rejoining machine %d has no usable checkpoint", offer.Machine))
				return resumePoint{}, false
			}
			co.Participants[machine] = np
			infos[machine] = info
			rejoined = append(rejoined, machine)
			break
		}
	}

	// Reconcile: the flock rolls back to the newest epoch everyone
	// holds durably. Checkpoints are written at epoch launch and
	// compaction keeps the newest two, so stables differ by at most
	// one across machines and the minimum is held by all.
	stable, newest := -1, epoch
	for _, info := range infos {
		if !info.Has {
			return resumePoint{}, false
		}
		if stable < 0 || info.Epoch < stable {
			stable = info.Epoch
		}
		if info.Epoch > newest {
			newest = info.Epoch
		}
	}
	next := newest + 1

	// Restore everyone at the stable epoch; the echoes must agree on
	// the barrier and partition that epoch ran under.
	var base int
	var starts []int
	for i, p := range co.Participants {
		echo, err := p.Restore(stable, next)
		if err != nil {
			return resumePoint{}, false
		}
		if i == 0 {
			base, starts = echo.Base, echo.Starts
			continue
		}
		if echo.Base != base || !sameStarts(echo.Starts, starts) {
			return resumePoint{}, false
		}
	}
	for _, p := range co.Participants {
		if err := p.BeginAt(next, base, starts, 0, co.launchHold(co.Rebalance.withDefaults(), base, len(co.events))); err != nil {
			return resumePoint{}, false
		}
	}

	co.recoveries = append(co.recoveries, RecoveryEvent{
		Machines:    rejoined,
		StableEpoch: stable,
		Base:        base,
		NextEpoch:   next,
		Wall:        time.Since(t0),
	})
	if co.Tap != nil {
		co.Tap.Event(evlog.Event{
			Kind: evlog.KindRecovery, Machine: -1, Epoch: epoch,
			A: stable, B: next, Data: evlog.AppendInts(nil, rejoined),
		})
	}
	co.attempt++
	launchEvent(co.Tap, next, base, co.attempt, starts)
	return resumePoint{epoch: next, base: base, starts: starts}, true
}

// sameStarts reports whether two partitions are identical.
func sameStarts(a, b []int) bool {
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
