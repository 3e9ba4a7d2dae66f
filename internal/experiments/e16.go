package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/distrib"
	"repro/internal/metrics"
)

// E16Machines is the machine count of the saturation pipeline: two
// cuts, so the middle machine both receives and sends under load.
const E16Machines = 3

// E16Row is one transport's saturation measurement.
type E16Row struct {
	Transport string // "chan" | "tcp" | "tcp-batched"
	Wall      time.Duration
	// Events is the number of cross-machine values carried.
	Events int64
	// EventsPerSec is the cross-machine event throughput.
	EventsPerSec float64
	// WireBytes is the encoded payload volume (0 over channels).
	WireBytes int64
	// BytesPerEvent is WireBytes / Events — the wire cost of one event
	// after framing and batching are amortized.
	BytesPerEvent float64
	// VsTCP is unbatched-TCP wall time divided by this row's wall time
	// (>1 = faster than unbatched TCP; 1.0 for the tcp row itself).
	VsTCP float64
	// Flushes and FramesPerFlush describe the sender-side coalescing:
	// how many socket writes the run needed and how many frames each
	// carried (buckets 1, 2, 3-4, 5-8, 9-16, 17+). Unbatched rows pin
	// one frame per flush by construction.
	Flushes        int64
	FramesPerFlush [6]int64
}

// E16Result is the batched-wire saturation experiment (DESIGN.md §12):
// the same fine-grained pipeline driven flat out over in-process
// channels, unbatched loopback TCP (one write per frame) and batched
// loopback TCP (frames coalesced per flush under the credit window).
type E16Result struct {
	Rows  []E16Row
	Table *metrics.Table
}

// E16Workload is the saturation workload: a fine-grained pipeline
// whose vertices cost almost nothing, so the wire — not compute — is
// the bottleneck and the syscall-per-frame difference dominates.
func E16Workload() Workload {
	return Workload{
		Depth: 6, Width: 2, FanIn: 2,
		Grain: 0, SourceRate: 1, InteriorRate: 1,
		Seed: 0xE16,
	}
}

// E16Saturation measures event throughput and wire bytes per event for
// each transport on the saturation workload.
func E16Saturation(quick bool) E16Result {
	phases := 600
	w := E16Workload()
	if quick {
		phases = 150
	}
	var res E16Result
	tb := metrics.NewTable(
		fmt.Sprintf("E16 — wire saturation: chan vs TCP vs batched TCP (machines=%d, grain=0)", E16Machines),
		"transport", "wall-time", "events/s", "bytes/event", "vs-tcp", "flushes")
	var tcpWall time.Duration
	for _, transport := range []string{"chan", "tcp", "tcp-batched"} {
		wall, _, st := measureBest(func() (time.Duration, uint64, distrib.Stats) {
			return e16Run(w, transport, phases)
		})
		row := E16Row{Transport: transport, Wall: wall}
		for _, ls := range st.Links {
			row.Events += ls.Values
			row.WireBytes += ls.Bytes
			row.Flushes += ls.Flushes
			for i, n := range ls.FramesPerFlush {
				row.FramesPerFlush[i] += n
			}
		}
		row.EventsPerSec = float64(row.Events) / wall.Seconds()
		if row.Events > 0 {
			row.BytesPerEvent = float64(row.WireBytes) / float64(row.Events)
		}
		if transport == "tcp" {
			tcpWall = wall
		}
		if tcpWall > 0 {
			row.VsTCP = float64(tcpWall) / float64(wall)
		}
		res.Rows = append(res.Rows, row)
		tb.Add(transport, wall,
			fmt.Sprintf("%.0f", row.EventsPerSec),
			fmt.Sprintf("%.1f", row.BytesPerEvent),
			fmt.Sprintf("%.2f×", row.VsTCP),
			row.Flushes)
	}
	res.Table = tb
	return res
}

// e16Run is one repetition of the saturation pipeline on the named
// transport.
func e16Run(w Workload, transport string, phases int) (time.Duration, uint64, distrib.Stats) {
	ng, mods := w.Build()
	cfg := E12Config(E16Machines)
	if transport != "chan" {
		tn, err := distrib.NewTCPNetwork()
		if err != nil {
			panic(err)
		}
		defer tn.Close()
		tn.Unbatched = transport == "tcp"
		cfg.Network = tn
	}
	var rst distrib.Stats
	wall, allocs := allocsAround(func() {
		var err error
		rst, err = distrib.Run(context.Background(), distrib.RunConfig{Graph: ng, Mods: mods, Batches: Phases(phases), Dist: cfg})
		if err != nil {
			panic(err)
		}
	})
	return wall, allocs, rst
}
