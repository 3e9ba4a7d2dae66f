package main

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/module"
)

// sameOptional reports whether two modules expose the same optional
// snapshot interfaces.
func sameOptional(t *testing.T, what string, inner, outer core.Module) {
	t.Helper()
	_, innerSnap := inner.(core.Snapshotter)
	_, outerSnap := outer.(core.Snapshotter)
	_, innerDelta := inner.(core.DeltaSnapshotter)
	_, outerDelta := outer.(core.DeltaSnapshotter)
	if innerSnap != outerSnap || innerDelta != outerDelta {
		t.Errorf("%s: inner Snapshotter=%v DeltaSnapshotter=%v, wrapper %v/%v", what, innerSnap, innerDelta, outerSnap, outerDelta)
	}
}

// TestWrappersKeepInterfaces checks every module of every workload's
// graph, wrapped the traced and the untraced way, against the module
// it wraps.
func TestWrappersKeepInterfaces(t *testing.T) {
	for _, sparse := range []bool{false, true} {
		for _, traced := range []bool{false, true} {
			s, err := makeSpec(defaultGraphSeed, 1, sparse)
			if err != nil {
				t.Fatal(err)
			}
			b, err := build(s)
			if err != nil {
				t.Fatal(err)
			}
			types := vertexTypes(s, b)
			mods, _ := wrapAll(b.Graph, b.Modules, newStamps(10, 2, 10), traced)
			for i := range mods {
				sameOptional(t, types[i+1], b.Modules[i], mods[i])
			}
		}
	}
	// The graphs may draw no window detector; wrap one directly, and a
	// module without snapshots, which must stay without them.
	ma, err := module.NewRegistry().Build("moving-average", module.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ma.(core.DeltaSnapshotter); !ok {
		t.Fatal("moving-average is no longer a DeltaSnapshotter; pick another delta module")
	}
	plain := core.StepFunc(func(*core.Context) {})
	for _, m := range []core.Module{ma, plain} {
		sameOptional(t, fmt.Sprintf("%T", m), m, wrap(m, wrapped{st: newStamps(1, 1, 1), role: roleSink}))
	}
}

// TestTracedNetKeepsFlusher checks that the traced Transport wrapper
// exposes distrib.Flusher exactly when the transport it wraps does.
func TestTracedNetKeepsFlusher(t *testing.T) {
	tcp, err := distrib.NewTCPNetwork()
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	for _, inner := range []distrib.Network{distrib.ChannelNetwork{}, tcp} {
		raw, err := inner.Link(0, 1, distrib.MinLinkDepth)
		if err != nil {
			t.Fatal(err)
		}
		_, want := raw.(distrib.Flusher)
		raw.Close()
		n := &tracedNet{inner: inner}
		l, err := n.Link(1, 2, distrib.MinLinkDepth)
		if err != nil {
			t.Fatal(err)
		}
		if _, got := l.(distrib.Flusher); got != want {
			t.Errorf("%s: wrapper Flusher=%v, transport %v", inner.Name(), got, want)
		}
		l.Close()
	}
}

// TestOracleCatchesDivergence is the negative control: a computation
// that did not run must not match the oracle.
func TestOracleCatchesDivergence(t *testing.T) {
	s, err := makeSpec(defaultGraphSeed, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	o, err := runOracle(s, 50)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := build(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.check(fresh); err == nil {
		t.Fatal("an unrun computation matched the oracle")
	}
}

// TestWorkloadsMatchOracle runs one untraced and one traced round of
// every workload; each round checks its sinks against the sequential
// oracle.
func TestWorkloadsMatchOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for a few seconds")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			b := &bench{workload: w.name, seed: 7, graphSeed: defaultGraphSeed, outdir: t.TempDir(),
				start: time.Now(), oracles: make(map[string]oracle), tr: newTracer()}
			for _, traced := range []bool{false, true} {
				r := w.round(b, traced)
				if r.err != nil || r.failed != 0 {
					t.Fatalf("traced=%v: %d of %d phases failed: %v", traced, r.failed, r.phases, r.err)
				}
				if len(r.win.thr) == 0 || len(r.win.lat) == 0 || len(r.setup) == 0 {
					t.Errorf("traced=%v: no throughput, latency or setup figure: %+v", traced, r.win)
				}
				if traced && r.layer["module.step_ns_per_exec"] <= 0 {
					t.Errorf("traced round timed no module Step")
				}
			}
		})
	}
}
