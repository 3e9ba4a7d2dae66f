package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is sorted in place. NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

// median of xs (sorted in place); NaN for an empty slice.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// steadyThroughput is the phase rate at the sinks over the steady
// range [st.lo, st.hi]: the phases between the first stamped sink
// phase in it and the last, over the time between their last sink
// Steps.
func steadyThroughput(st *stamps) float64 {
	a, b := st.lo, st.hi
	for a < b && st.sink[a].Load() == 0 {
		a++
	}
	for b > a && st.sink[b].Load() == 0 {
		b--
	}
	if b <= a {
		return 0
	}
	dt := time.Duration(st.sink[b].Load() - st.sink[a].Load())
	if dt <= 0 {
		return 0
	}
	return float64(b-a) / dt.Seconds()
}

// latencies returns, in microseconds, each phase of the steady range
// that reached a sink: its last sink Step minus its start, where
// start(p) gives the phase's start stamp (zero when unknown).
func latencies(st *stamps, start func(p int) int64) []float64 {
	out := make([]float64, 0, st.hi-st.lo+1)
	for p := st.lo; p <= st.hi; p++ {
		end := st.sink[p].Load()
		s := start(p)
		if end == 0 || s == 0 {
			continue
		}
		out = append(out, float64(end-s)/1e3)
	}
	return out
}

// A run reports what three segments in four achieve: the lower
// quartile of its segments' throughputs and the upper quartile of
// their median latencies. Each segment runs on a freshly built
// deployment, and on a shared host its speed swings by up to a third
// with the neighbours' load; the quartiles follow the contended speed
// every run sees, where a median or a mean over segments moves with how
// much of a run fell in a quiet spell. The p99 is taken over all of a
// run's samples pooled: the tail is set by stalls at the collectors'
// history growth and by GC cycles, and pooling weighs every stall of
// every segment.
const (
	throughputQuantile = 0.25
	latencyQuantile    = 0.75
)

// windows collects per-segment figures and every latency sample.
type windows struct {
	thr []float64 // phases/s at the sinks, per segment
	p50 []float64 // median latency, µs, per segment
	lat []float64 // µs, per phase that reached a sink
}

// addThroughput adds the throughput of st's steady range.
func (w *windows) addThroughput(st *stamps) {
	if t := steadyThroughput(st); t > 0 {
		w.thr = append(w.thr, t)
	}
}

// addLatency adds the latency of every phase of st's steady range that
// reached a sink; start gives a phase's start stamp.
func (w *windows) addLatency(st *stamps, start func(p int) int64) {
	lat := latencies(st, start)
	w.lat = append(w.lat, lat...)
	if len(lat) > 0 {
		w.p50 = append(w.p50, median(lat))
	}
}

func (w *windows) merge(o windows) {
	w.thr = append(w.thr, o.thr...)
	w.p50 = append(w.p50, o.p50...)
	w.lat = append(w.lat, o.lat...)
}

// throughput is the throughput three segments in four reach.
func (w *windows) throughput() float64 { return quantile(w.thr, throughputQuantile) }

// latencyMedian is the median latency three segments in four stay
// within.
func (w *windows) latencyMedian() float64 { return quantile(w.p50, latencyQuantile) }

// windowRuntime derives the steady window's heap and GC cost from the
// two runtime samples vertex 1's wrapper took.
type windowRuntime struct {
	allocPerPhase float64
	gcCyclesPerK  float64
	gcPauseP99us  float64
}

func runtimeDelta(st *stamps) (windowRuntime, bool) {
	if !st.sampledLo.Load() || !st.sampledHi.Load() || st.hi <= st.lo {
		return windowRuntime{}, false
	}
	n := float64(st.hi - st.lo)
	a, b := st.atLo, st.atHi
	w := windowRuntime{
		allocPerPhase: float64(b.allocBytes-a.allocBytes) / n,
		gcCyclesPerK:  1000 * float64(b.gcCycles-a.gcCycles) / n,
	}
	w.gcPauseP99us = histDeltaQuantile(a.gcPauses, b.gcPauses, 0.99)
	return w, true
}

// histDeltaQuantile returns the q-quantile, in microseconds, of the
// observations histogram b holds beyond a (bucket upper bounds); 0 when
// there are none.
func histDeltaQuantile(a, b *metrics.Float64Histogram, q float64) float64 {
	if a == nil || b == nil || len(a.Counts) != len(b.Counts) {
		return 0
	}
	var total uint64
	for i := range b.Counts {
		total += b.Counts[i] - a.Counts[i]
	}
	if total == 0 {
		return 0
	}
	need := uint64(math.Ceil(q * float64(total)))
	var cum uint64
	for i := range b.Counts {
		cum += b.Counts[i] - a.Counts[i]
		if cum >= need {
			hi := b.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = b.Buckets[i]
			}
			return hi * 1e6
		}
	}
	return 0
}

// durHist is a log2-bucketed histogram of call durations, for hot
// calls that are counted rather than kept as spans.
type durHist struct {
	count   int64
	totalNs int64
	buckets [40]int64
}

func (h *durHist) add(d time.Duration) {
	ns := int64(d)
	h.count++
	h.totalNs += ns
	b := 0
	for v := ns; v > 1 && b < len(h.buckets)-1; v >>= 1 {
		b++
	}
	h.buckets[b]++
}

func (h *durHist) merge(o *durHist) {
	h.count += o.count
	h.totalNs += o.totalNs
	for i := range h.buckets {
		h.buckets[i] += o.buckets[i]
	}
}

// meanNs is the mean call duration; 0 when nothing was recorded.
func (h *durHist) meanNs() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.totalNs) / float64(h.count)
}
