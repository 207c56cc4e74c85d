// Package metrics is a dependency-free, allocation-light metrics layer for
// the location mechanism: atomic counters, gauges, and fixed-bucket latency
// histograms, collected in a Registry and exposed in Prometheus text format
// (WritePrometheus) or as a JSON-friendly Snapshot.
//
// The design follows the repo's nil-object idiom (see trace.Log): a nil
// *Registry hands out nil metric handles, and every handle method is a
// no-op on a nil receiver, so instrumented code never guards its metric
// calls. The handle hot paths (Counter.Inc, Gauge.Set, Histogram.Observe)
// are lock-free and allocation-free; only creating or looking up a metric
// by name takes a lock.
//
// Metric names follow the scheme agentloc_<subsystem>_<name>, with
// _total suffixes on counters and _seconds units on latency histograms.
package metrics

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter. The zero value is ready to
// use; a nil *Counter is a valid no-op.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count. Zero for a nil counter.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down. The zero value is ready to use;
// a nil *Gauge is a valid no-op.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adds d (which may be negative).
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value. Zero for a nil gauge.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed buckets (cumulative upper
// bounds, Prometheus-style le semantics: an observation v lands in the
// first bucket with v <= bound; larger values land in the implicit +Inf
// bucket). A nil *Histogram is a valid no-op.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; +Inf implicit
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits of the running sum
}

// newHistogram builds a histogram over the given bounds (copied, sorted).
func newHistogram(bounds []float64) *Histogram {
	bs := make([]float64, len(bounds))
	copy(bs, bounds)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, buckets: make([]atomic.Uint64, len(bs)+1)}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nxt := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nxt) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations. Zero for a nil histogram.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values. Zero for a nil histogram.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Snapshot captures the histogram's state. Concurrent observations may be
// partially reflected; a quiescent histogram snapshots exactly. A nil
// histogram snapshots to a zero-valued snapshot with no bounds.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]uint64, len(h.buckets)),
	}
	for i := range h.buckets {
		s.Counts[i] = h.buckets[i].Load()
	}
	// Derive Count from the buckets so the snapshot is internally
	// consistent even when racing with Observe.
	for _, c := range s.Counts {
		s.Count += c
	}
	s.Sum = math.Float64frombits(h.sumBits.Load())
	return s
}

// HistogramSnapshot is a point-in-time copy of a histogram, mergeable with
// snapshots taken over the same bounds.
type HistogramSnapshot struct {
	// Bounds are the cumulative upper bounds; the implicit +Inf bucket is
	// Counts[len(Bounds)].
	Bounds []float64 `json:"bounds,omitempty"`
	// Counts holds per-bucket (non-cumulative) observation counts.
	Counts []uint64 `json:"counts,omitempty"`
	// Count is the total number of observations.
	Count uint64 `json:"count"`
	// Sum is the sum of all observed values.
	Sum float64 `json:"sum"`
}

// Merge combines two snapshots over identical bounds. An empty snapshot
// merges with anything; mismatched bounds keep only the receiver's buckets
// but still accumulate Count and Sum, so totals never go missing.
func (s HistogramSnapshot) Merge(o HistogramSnapshot) HistogramSnapshot {
	if len(s.Bounds) == 0 {
		return HistogramSnapshot{
			Bounds: append([]float64(nil), o.Bounds...),
			Counts: append([]uint64(nil), o.Counts...),
			Count:  s.Count + o.Count,
			Sum:    s.Sum + o.Sum,
		}
	}
	out := HistogramSnapshot{
		Bounds: append([]float64(nil), s.Bounds...),
		Counts: append([]uint64(nil), s.Counts...),
		Count:  s.Count + o.Count,
		Sum:    s.Sum + o.Sum,
	}
	if boundsEqual(s.Bounds, o.Bounds) {
		for i, c := range o.Counts {
			out.Counts[i] += c
		}
	}
	return out
}

// Mean returns the average observed value, or zero without observations.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile estimates the q-quantile (q in [0, 1]) by linear interpolation
// within the bucket containing it. Observations in the +Inf bucket clamp to
// the highest finite bound.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, c := range s.Counts {
		next := cum + float64(c)
		if next >= rank && c > 0 {
			if i >= len(s.Bounds) {
				return s.Bounds[len(s.Bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = s.Bounds[i-1]
			}
			hi := s.Bounds[i]
			frac := 0.0
			if c > 0 {
				frac = (rank - cum) / float64(c)
			}
			return lo + (hi-lo)*frac
		}
		cum = next
	}
	return s.Bounds[len(s.Bounds)-1]
}

func boundsEqual(a, b []float64) bool {
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

// DefLatencyBuckets covers 100µs to 10s, the range of RPC and protocol
// operation latencies in this system.
var DefLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// CountBuckets suits small-integer distributions such as retry attempts and
// forwarding-chain lengths.
var CountBuckets = []float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64}

// ExponentialBuckets returns count bounds starting at start, each factor
// times the previous.
func ExponentialBuckets(start, factor float64, count int) []float64 {
	out := make([]float64, count)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}
