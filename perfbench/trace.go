package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/distrib"
	"repro/internal/graph"
)

// span is one traced interval around a call into a layer. Parent is
// the id of the span that caused it (0 for a root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the benchmark ends. A nil tracer
// records nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	hists map[string]*durHist
}

func newTracer() *tracer { return &tracer{t0: time.Now(), hists: make(map[string]*durHist)} }

// mergeHist adds h to the run's histogram of the named hot call.
func (t *tracer) mergeHist(name string, h *durHist) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.hists[name] == nil {
		t.hists[name] = &durHist{}
	}
	t.hists[name].merge(h)
}

// add records a finished span and returns its id.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		StartNs: int64(start.Sub(t.t0)), EndNs: int64(end.Sub(t.t0))})
	return id
}

// open records a span whose end is not yet known; close sets it.
func (t *tracer) open(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Now()
	return t.add(name, parent, now, now)
}

func (t *tracer) close(id int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].EndNs = int64(time.Since(t.t0))
	t.mu.Unlock()
}

// adopt makes every span named child that lies inside span id, and
// shares its parent, a child of id.
func (t *tracer) adopt(id int, child string) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[id-1]
	for i := range t.spans {
		s := &t.spans[i]
		if s.Name == child && s.Parent == p.Parent && s.StartNs >= p.StartNs && s.EndNs <= p.EndNs {
			s.Parent = id
		}
	}
}

// selfTimes sums, per span name, the count, total time and self time:
// a span's duration minus the part of it its children cover.
type selfTime struct {
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

func (t *tracer) selfTimes() map[string]selfTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]selfTime)
	for _, s := range t.spans {
		dur := s.EndNs - s.StartNs
		covered := int64(0)
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		cur := s.StartNs
		for _, k := range kids {
			a, b := max(k.StartNs, cur), min(k.EndNs, s.EndNs)
			if b > a {
				covered += b - a
				cur = b
			}
		}
		st := out[s.Name]
		st.Count++
		st.TotalMs += float64(dur) / 1e6
		st.SelfMs += float64(dur-covered) / 1e6
		out[s.Name] = st
	}
	return out
}

// histJSON renders a durHist: Buckets[i] counts calls that took
// [2^(i-1), 2^i) ns.
type histJSON struct {
	Count   int64   `json:"count"`
	TotalNs int64   `json:"total_ns"`
	Buckets []int64 `json:"log2_ns_buckets"`
}

// write dumps the self-time summary, the hot-call histograms and every
// span as JSON.
func (t *tracer) write(w io.Writer) error {
	self := t.selfTimes()
	t.mu.Lock()
	defer t.mu.Unlock()
	hists := make(map[string]histJSON, len(t.hists))
	for name, h := range t.hists {
		hists[name] = histJSON{h.count, h.totalNs, h.buckets[:]}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(struct {
		Self  map[string]selfTime `json:"self"`
		Hists map[string]histJSON `json:"histograms"`
		Spans []span              `json:"spans"`
	}{self, hists, t.spans})
}

func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.write(f); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// tracedNet wraps a Network so every link it builds is a tracedLink.
type tracedNet struct {
	inner  distrib.Network
	tr     *tracer
	parent int

	mu    sync.Mutex
	links []*tracedLink
}

func (n *tracedNet) Name() string { return n.inner.Name() }

// Link implements distrib.Network. The wrapper exposes distrib.Flusher
// exactly when the inner transport does: batched links deadlock if the
// egress loop cannot flush them.
func (n *tracedNet) Link(from, to, depth int) (distrib.Transport, error) {
	tr, err := n.inner.Link(from, to, depth)
	if err != nil {
		return nil, err
	}
	l := &tracedLink{inner: tr, tr: n.tr, parent: n.parent}
	n.mu.Lock()
	n.links = append(n.links, l)
	n.mu.Unlock()
	if fl, ok := tr.(distrib.Flusher); ok {
		return &tracedFlushLink{tracedLink: l, fl: fl}, nil
	}
	return l, nil
}

func (n *tracedNet) Close() error { return n.inner.Close() }

// linkTotals sums every link's final counters and call timings.
type linkTotals struct {
	links       int
	frames      int64
	values      int64
	bytes       int64
	sendBlocks  int64
	blocked     time.Duration
	flushes     int64
	send, flush durHist
}

func (n *tracedNet) totals() linkTotals {
	n.mu.Lock()
	defer n.mu.Unlock()
	var t linkTotals
	for _, l := range n.links {
		l.mu.Lock()
		st := l.final
		if !l.closed {
			st = l.inner.Stats()
		}
		t.add(st)
		t.send.merge(&l.send)
		t.flush.merge(&l.flush)
		l.mu.Unlock()
	}
	return t
}

// add counts one link's counters into t.
func (t *linkTotals) add(st distrib.LinkStats) {
	t.links++
	t.frames += st.Frames
	t.values += st.Values
	t.bytes += st.Bytes
	t.sendBlocks += st.SendBlocks
	t.blocked += st.Blocked
	t.flushes += st.Flushes
}

// setCounters replaces t's link counters, not its call timings, with
// the sum of ls.
func (t *linkTotals) setCounters(ls []distrib.LinkStats) {
	send, flush := t.send, t.flush
	*t = linkTotals{send: send, flush: flush}
	for _, st := range ls {
		t.add(st)
	}
}

// tracedLink times Send calls into a histogram and keeps the link's
// counters as they stood when the runtime closed it.
type tracedLink struct {
	inner  distrib.Transport
	tr     *tracer
	parent int

	mu     sync.Mutex
	send   durHist
	flush  durHist
	final  distrib.LinkStats
	closed bool
}

func (l *tracedLink) Send(f distrib.Frame) error {
	t0 := time.Now()
	err := l.inner.Send(f)
	d := time.Since(t0)
	l.mu.Lock()
	l.send.add(d)
	l.mu.Unlock()
	return err
}

func (l *tracedLink) Recv() (distrib.Frame, error) { return l.inner.Recv() }
func (l *tracedLink) DrainDiscard()                { l.inner.DrainDiscard() }
func (l *tracedLink) Stats() distrib.LinkStats     { return l.inner.Stats() }

func (l *tracedLink) Close() error {
	err := l.inner.Close()
	st := l.inner.Stats()
	l.mu.Lock()
	if !l.closed {
		l.final, l.closed = st, true
	}
	l.mu.Unlock()
	return err
}

// flushSpanEvery keeps one Flush call in this many as a span; every
// call is still counted in the histogram.
const flushSpanEvery = 64

// tracedFlushLink is a tracedLink over a batching transport.
type tracedFlushLink struct {
	*tracedLink
	fl distrib.Flusher
}

func (l *tracedFlushLink) Ready() bool { return l.fl.Ready() }

func (l *tracedFlushLink) Flush() error {
	t0 := time.Now()
	err := l.fl.Flush()
	t1 := time.Now()
	l.mu.Lock()
	l.flush.add(t1.Sub(t0))
	keep := l.flush.count%flushSpanEvery == 1
	l.mu.Unlock()
	if keep {
		l.tr.add("flush", l.parent, t0, t1)
	}
	return err
}

// timedPlanner records a span and a duration for every Plan call.
type timedPlanner struct {
	inner  distrib.Planner
	tr     *tracer
	parent int

	mu    sync.Mutex
	calls []time.Duration
}

func (p *timedPlanner) Name() string { return p.inner.Name() }

func (p *timedPlanner) Plan(g *graph.Numbered, costs []float64, machines int) ([]int, error) {
	t0 := time.Now()
	starts, err := p.inner.Plan(g, costs, machines)
	t1 := time.Now()
	p.tr.add("plan", p.parent, t0, t1)
	p.mu.Lock()
	p.calls = append(p.calls, t1.Sub(t0))
	p.mu.Unlock()
	return starts, err
}

// flipFlopPlanner alternates between two fixed partitions, so every
// forced switch of flock-durable-sparse moves the same boundary
// vertices and their state.
type flipFlopPlanner struct {
	a, b []int

	mu    sync.Mutex
	calls int
}

func (p *flipFlopPlanner) Name() string { return "flip-flop" }

func (p *flipFlopPlanner) Plan(_ *graph.Numbered, _ []float64, _ int) ([]int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.calls++
	if p.calls%2 == 1 {
		return append([]int(nil), p.a...), nil
	}
	return append([]int(nil), p.b...), nil
}
