package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/distrib"
	"repro/internal/metrics"
)

// E13Machines is the machine count every E13 measurement point uses:
// enough for two cuts in the E12 pipeline, small enough for any host.
const E13Machines = 3

// E13Row is one transport's measurement over the shared pipeline
// workload.
type E13Row struct {
	Transport string
	Wall      time.Duration
	// VsChan is this transport's wall time relative to the channel
	// transport (1.0 = free wire).
	VsChan    float64
	CrossMsgs int64
	// WireBytes is the encoded payload volume (0 for in-process
	// channels, which move pointers).
	WireBytes int64
}

// E13Result measures what the Transport refactor costs and guarantees:
// the wire overhead of serializing every cross-machine value onto
// loopback TCP versus passing pointers through a channel, and the
// fault path — how quickly a crash injected at phase k surfaces as a
// clean, cascaded abort.
type E13Result struct {
	Rows []E13Row
	// AbortWall is the wall time of the fault-recovery run: phases/2
	// phases of useful work, then an injected crash on every link, then
	// the cascade until Run returns.
	AbortWall time.Duration
	// AbortErr is the first error the crashed run surfaced; it must be
	// the injected crash, not a derived symptom.
	AbortErr string
	Table    *metrics.Table
}

// E13TransportOverhead prices the pluggable transports (DESIGN.md §7):
// the same E12 pipeline, the same cost-aware plan, once per transport,
// plus one crash-at-phase-k run through FaultyNetwork to time the
// failure cascade.
func E13TransportOverhead(quick bool) E13Result {
	phases := 240
	w := E12Pipeline()
	if quick {
		phases = 60
		w.Depth = 8
	}
	var res E13Result
	tb := metrics.NewTable(
		fmt.Sprintf("E13 — transport overhead: chan vs loopback TCP (machines=%d), and crash-at-phase-k abort", E13Machines),
		"transport", "wall-time", "vs-chan", "cross-msgs", "wire-bytes")
	var chanWall time.Duration
	for _, transport := range []string{"chan", "tcp"} {
		wall, _, st := measureBest(func() (time.Duration, uint64, distrib.Stats) {
			ng, mods := w.Build()
			cfg := E12Config(E13Machines)
			var network distrib.Network
			if transport == "tcp" {
				tn, err := distrib.NewTCPNetwork()
				if err != nil {
					panic(err)
				}
				defer tn.Close()
				network = tn
			}
			cfg.Network = network
			var rst distrib.Stats
			wall, allocs := allocsAround(func() {
				var err error
				rst, err = distrib.Run(context.Background(), distrib.RunConfig{Graph: ng, Mods: mods, Batches: Phases(phases), Dist: cfg})
				if err != nil {
					panic(err)
				}
			})
			return wall, allocs, rst
		})
		if transport == "chan" {
			chanWall = wall
		}
		row := E13Row{Transport: transport, Wall: wall, VsChan: float64(wall) / float64(chanWall)}
		for _, ls := range st.Links {
			row.CrossMsgs += ls.Values
			row.WireBytes += ls.Bytes
		}
		res.Rows = append(res.Rows, row)
		tb.Add(transport, wall, fmt.Sprintf("%.2f×", row.VsChan), row.CrossMsgs, row.WireBytes)
	}

	// Fault recovery: crash every link halfway and time the cascade.
	abortWall, abortErr := E13FaultAbort(w, phases)
	res.AbortWall = abortWall
	res.AbortErr = abortErr
	tb.Add("faulty+chan (crash@"+fmt.Sprint(phases/2)+")", abortWall, "-", "-", "-")
	res.Table = tb
	return res
}

// E13FaultAbort runs the E13 workload with every link crashing at
// phases/2 and returns the end-to-end wall time of the aborted run and
// the surfaced error string. It panics if the run does NOT fail, or if
// the surfaced error is a derived symptom instead of the injected
// crash — the bench report must never quietly measure a healthy run
// here.
func E13FaultAbort(w Workload, phases int) (time.Duration, string) {
	ng, mods := w.Build()
	cfg := E12Config(E13Machines)
	cfg.Network = distrib.NewFaultyNetwork(nil, distrib.FaultPlan{CrashAtPhase: phases / 2})
	var runErr error
	wall := metrics.MeasureWall(func() {
		_, runErr = distrib.Run(context.Background(), distrib.RunConfig{Graph: ng, Mods: mods, Batches: Phases(phases), Dist: cfg})
	})
	if runErr == nil {
		panic("E13: crash-at-phase-k run completed without error")
	}
	if !strings.Contains(runErr.Error(), "injected crash") {
		panic(fmt.Sprintf("E13: surfaced error is not the injected crash: %v", runErr))
	}
	return wall, runErr.Error()
}
