package main

import (
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// calibIterations is the fixed spin loop host.calib_ns times: a drift
// in it between two sets of runs is the host, not the code.
const calibIterations = 20_000_000

var calibSink uint64

// calibrate times the fixed spin loop five times and returns the
// median, in nanoseconds.
func calibrate() float64 {
	ts := make([]float64, 5)
	for i := range ts {
		x := uint64(i) + 0x9E3779B97F4A7C15
		t0 := time.Now()
		for j := 0; j < calibIterations; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		ts[i] = float64(time.Since(t0))
		calibSink += x
	}
	return median(ts)
}

// hostRecord describes the host and the run for the output: Go
// version, GOMAXPROCS, nproc, the seeds, the filesystem WALs are
// written to and the calibration loop's time.
func hostRecord(b *bench) map[string]any {
	nproc := strconv.Itoa(runtime.NumCPU())
	if out, err := exec.Command("nproc").Output(); err == nil {
		nproc = strings.TrimSpace(string(out))
	}
	return map[string]any{
		"workload":           b.workload,
		"seed":               b.seed,
		"graph_seed":         b.graphSeed,
		"heldout_graph_seed": heldOutGraphSeed,
		"seconds":            b.seconds,
		"trace":              b.trace,
		"go":                 runtime.Version(),
		"gomaxprocs":         runtime.GOMAXPROCS(0),
		"nproc":              nproc,
		"wal_fs":             fsType(b.outdir),
		"calib_ns":           calibrate(),
	}
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown (" + err.Error() + ")"
	}
	switch t := uint64(st.Type); t {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	default:
		return "0x" + strconv.FormatUint(t, 16)
	}
}
