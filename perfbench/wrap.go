package main

import (
	"runtime/metrics"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
)

// stamps records, per phase, the earliest source Step and the latest
// sink Step, as nanoseconds since base plus one (zero means "never").
// Each wrapped Step reads the clock once.
type stamps struct {
	base  time.Time
	src   []atomic.Int64
	sink  []atomic.Int64
	first atomic.Int64 // first sink Step of any phase

	// Phases lo and hi bound the steady window. Vertex 1's wrapper
	// samples the runtime's allocation and GC counters when it steps
	// them, so the window's heap cost is read where the work happens.
	lo, hi     int
	atLo, atHi runtimeSample
	sampledLo  atomic.Bool
	sampledHi  atomic.Bool
}

func newStamps(phases, lo, hi int) *stamps {
	return &stamps{
		base: time.Now(),
		src:  make([]atomic.Int64, phases+1),
		sink: make([]atomic.Int64, phases+1),
		lo:   lo, hi: hi,
	}
}

func (s *stamps) now() int64 { return int64(time.Since(s.base)) + 1 }

// source records phase p's source Step, keeping the earliest.
func (s *stamps) source(p int) {
	t := s.now()
	slot := &s.src[p]
	for {
		old := slot.Load()
		if old != 0 && old <= t {
			return
		}
		if slot.CompareAndSwap(old, t) {
			return
		}
	}
}

// sinkDone records phase p's sink Step, keeping the latest.
func (s *stamps) sinkDone(p int) {
	t := s.now()
	s.first.CompareAndSwap(0, t)
	slot := &s.sink[p]
	for {
		old := slot.Load()
		if old >= t {
			return
		}
		if slot.CompareAndSwap(old, t) {
			return
		}
	}
}

// at converts a stamp back to wall time.
func (s *stamps) at(stamp int64) time.Time { return s.base.Add(time.Duration(stamp - 1)) }

// runtimeSample is one read of the runtime counters the steady window
// is charged with.
type runtimeSample struct {
	allocBytes uint64
	gcCycles   uint64
	gcPauses   *metrics.Float64Histogram
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/sched/pauses/total/gc:seconds",
}

func readRuntime() runtimeSample {
	ss := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	var r runtimeSample
	if ss[0].Value.Kind() == metrics.KindUint64 {
		r.allocBytes = ss[0].Value.Uint64()
	}
	if ss[1].Value.Kind() == metrics.KindUint64 {
		r.gcCycles = ss[1].Value.Uint64()
	}
	if ss[2].Value.Kind() == metrics.KindFloat64Histogram {
		r.gcPauses = ss[2].Value.Float64Histogram()
	}
	return r
}

func (s *stamps) sample(p int) {
	switch p {
	case s.lo:
		if s.sampledLo.CompareAndSwap(false, true) {
			s.atLo = readRuntime()
		}
	case s.hi:
		if s.sampledHi.CompareAndSwap(false, true) {
			s.atHi = readRuntime()
		}
	}
}

// stepTimer aggregates one module's Step calls in a traced run. The
// engine never runs two Steps of one module at once and orders them,
// so plain fields suffice; they are read after the run has ended.
type stepTimer struct {
	calls int64
	ns    int64
}

// role says which stamp a wrapper takes.
type role uint8

const (
	roleInterior role = iota
	roleSource
	roleSink
)

// wrapped is the benchmark's module wrapper: a source stamps before
// the inner Step, a sink after it. In a traced run every module is
// wrapped and its Step timed as well.
type wrapped struct {
	inner  core.Module
	st     *stamps
	role   role
	sample bool
	timer  *stepTimer
}

// Step implements core.Module.
func (m *wrapped) Step(ctx *core.Context) {
	if m.timer != nil {
		t0 := time.Now()
		m.step(ctx)
		m.timer.ns += int64(time.Since(t0))
		m.timer.calls++
		return
	}
	m.step(ctx)
}

func (m *wrapped) step(ctx *core.Context) {
	switch m.role {
	case roleSource:
		p := ctx.Phase()
		if m.sample {
			m.st.sample(p)
		}
		m.st.source(p)
		m.inner.Step(ctx)
	case roleSink:
		m.inner.Step(ctx)
		m.st.sinkDone(ctx.Phase())
	default:
		m.inner.Step(ctx)
	}
}

// snapWrapped forwards core.Snapshotter to an inner Snapshotter, so
// WAL checkpoints and serialized handoffs still see the module's state.
type snapWrapped struct{ wrapped }

func (m *snapWrapped) SnapshotState() ([]byte, error) {
	return m.inner.(core.Snapshotter).SnapshotState()
}

func (m *snapWrapped) RestoreState(b []byte) error {
	return m.inner.(core.Snapshotter).RestoreState(b)
}

// deltaWrapped forwards core.DeltaSnapshotter as well, so handoffs keep
// shipping deltas.
type deltaWrapped struct{ snapWrapped }

func (m *deltaWrapped) AppendDelta(dst, base []byte) ([]byte, bool, error) {
	return m.inner.(core.DeltaSnapshotter).AppendDelta(dst, base)
}

func (m *deltaWrapped) ApplyDelta(base, delta []byte) error {
	return m.inner.(core.DeltaSnapshotter).ApplyDelta(base, delta)
}

// wrap returns inner behind a wrapper exposing the same optional
// snapshot interfaces.
func wrap(inner core.Module, w wrapped) core.Module {
	w.inner = inner
	switch inner.(type) {
	case core.DeltaSnapshotter:
		return &deltaWrapped{snapWrapped{w}}
	case core.Snapshotter:
		return &snapWrapped{w}
	default:
		return &w
	}
}

// wrapAll builds the module slice a run executes. Untraced, only
// sources and sinks are wrapped; traced, every module is, and timers
// receives one stepTimer per vertex (index v-1).
func wrapAll(g *graph.Numbered, mods []core.Module, st *stamps, traced bool) ([]core.Module, []*stepTimer) {
	out := make([]core.Module, len(mods))
	var timers []*stepTimer
	if traced {
		timers = make([]*stepTimer, len(mods))
	}
	for i, m := range mods {
		v := i + 1
		w := wrapped{st: st}
		switch {
		case g.IsSource(v):
			w.role = roleSource
			w.sample = v == 1
		case g.IsSink(v):
			w.role = roleSink
		case !traced:
			out[i] = m
			continue
		}
		if traced {
			timers[i] = &stepTimer{}
			w.timer = timers[i]
		}
		out[i] = wrap(m, w)
	}
	return out, timers
}
