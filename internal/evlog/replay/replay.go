// Package replay re-drives a recorded run from its event log alone
// (DESIGN.md §11). A Player extracts the committed epoch schedule —
// the launch decisions that survived any rollbacks — from a log's
// KindEpochLaunch events and hands it to distrib.RunScripted, which
// re-executes the whole multi-machine run in-process with no live
// network and no timing: its coordinator reads every partition and
// barrier from the schedule, and each barrier is in place before its
// epoch's machines run. The replayed run is bit-identical to the recorded one, so a
// failing fault-sweep seed reproduces on a laptop from its log file.
package replay

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"

	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/evlog"
	"repro/internal/graph"
)

// Player holds one decoded event log, ready to re-drive.
type Player struct {
	// Info is the log's provenance header.
	Info evlog.RunInfo
	// Events is the log's event stream in stored order.
	Events []evlog.Event
}

// Load decodes an event log written by evlog.WriteLog. Damage surfaces
// as evlog.ErrTruncated or evlog.ErrCorrupt.
func Load(r io.Reader) (*Player, error) {
	info, events, err := evlog.ReadLog(r)
	if err != nil {
		return nil, err
	}
	return &Player{Info: info, Events: events}, nil
}

// NewPlayer wraps an in-memory event stream (e.g. a Recorder's merged
// view) without the log round-trip.
func NewPlayer(info evlog.RunInfo, events []evlog.Event) *Player {
	return &Player{Info: info, Events: events}
}

// CheckWorkload refuses to replay a log recorded against a different
// workload: the caller states the signature of the graph, modules and
// batches it is about to supply, and the header must agree.
func (p *Player) CheckWorkload(workload string, machines, phases int) error {
	if p.Info.Workload != workload {
		return fmt.Errorf("replay: log records workload %q, caller supplies %q", p.Info.Workload, workload)
	}
	if p.Info.Machines != machines || p.Info.Phases != phases {
		return fmt.Errorf("replay: log records machines=%d phases=%d, caller supplies machines=%d phases=%d",
			p.Info.Machines, p.Info.Phases, machines, phases)
	}
	return nil
}

// FaultPlan decodes the recorded run's fault configuration; ok is
// false for a fault-free run.
func (p *Player) FaultPlan() (distrib.FaultPlan, bool, error) {
	if len(p.Info.Fault) == 0 {
		return distrib.FaultPlan{}, false, nil
	}
	var fp distrib.FaultPlan
	if err := json.Unmarshal(p.Info.Fault, &fp); err != nil {
		return distrib.FaultPlan{}, false, fmt.Errorf("replay: decoding fault plan: %w", err)
	}
	return fp, true, nil
}

// Schedule extracts the committed epoch schedule from the log's launch
// events. Launches are ordered by (attempt, epoch); a relaunch
// resuming at base b supersedes every already-committed window whose
// base is >= b — those windows were rolled back, their work discarded,
// so the committed run never contains them.
func (p *Player) Schedule() ([]distrib.EpochPlan, error) {
	type launch struct {
		attempt, epoch, base int
		starts               []int
	}
	var launches []launch
	for _, e := range p.Events {
		if e.Kind != evlog.KindEpochLaunch {
			continue
		}
		starts, err := evlog.ReadInts(e.Data)
		if err != nil {
			return nil, fmt.Errorf("replay: launch event for epoch %d: %w", e.Epoch, err)
		}
		launches = append(launches, launch{attempt: e.A, epoch: e.Epoch, base: e.Phase, starts: starts})
	}
	if len(launches) == 0 {
		return nil, errors.New("replay: no epoch launches in log")
	}
	sort.SliceStable(launches, func(i, j int) bool {
		if launches[i].attempt != launches[j].attempt {
			return launches[i].attempt < launches[j].attempt
		}
		return launches[i].epoch < launches[j].epoch
	})
	var sched []distrib.EpochPlan
	for _, l := range launches {
		for len(sched) > 0 && sched[len(sched)-1].Base >= l.base {
			sched = sched[:len(sched)-1]
		}
		sched = append(sched, distrib.EpochPlan{Base: l.base, Starts: l.starts})
	}
	if sched[0].Base != 0 {
		return nil, fmt.Errorf("replay: committed schedule starts at base %d, want 0", sched[0].Base)
	}
	return sched, nil
}

// Replay re-drives the committed schedule over the caller's workload
// (the modules cannot live in the log; the caller rebuilds them
// exactly as the recorded run did). cfg supplies the engine tuning —
// Machines and Planner are irrelevant, the schedule fixes both — and
// cfg.Tap, when set, records the replay for the golden byte-identity
// check.
func (p *Player) Replay(g *graph.Numbered, mods []core.Module, batches [][]core.ExtInput, cfg distrib.Config) (distrib.Stats, error) {
	sched, err := p.Schedule()
	if err != nil {
		return distrib.Stats{}, err
	}
	if len(batches) != p.Info.Phases {
		return distrib.Stats{}, fmt.Errorf("replay: %d batches for a %d-phase log", len(batches), p.Info.Phases)
	}
	return distrib.RunScripted(g, mods, batches, cfg, sched)
}
