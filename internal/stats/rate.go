// Package stats provides the measurement machinery the location mechanism
// depends on: sliding-window request-rate estimation (which drives the
// Tmax/Tmin rehashing thresholds of paper §4), prefix-group aggregation of
// per-agent loads (the counts themselves live in the location table's slots;
// they pick even split points), and summary statistics for experiment
// reports ("statistically normalized averages", paper §5).
package stats

import (
	"sync"
	"sync/atomic"
	"time"

	"agentloc/internal/clock"
)

// rateBuckets is the number of equal slices the sliding window is counted
// in. An event leaves the estimate between window−window/rateBuckets and
// window after it was folded in, so the estimate can lag the exact sliding
// count by at most one bucket's worth of events.
const rateBuckets = 64

// RateEstimator estimates the recent rate of events (requests) per second
// over a sliding window. The paper requires "running statistics of the
// requests received by each IAgent"; a sliding window keeps the estimate
// responsive to workload shifts without being jumpy.
//
// The window is a fixed ring of per-bucket event counts: memory is constant
// whatever the request rate, and nothing is stored per event.
//
// RateEstimator is safe for concurrent use. Record is a single atomic add —
// it sits on the locate fast path, where a shared mutex would serialize the
// very readers the sharded table lets run in parallel. Pending events are
// assigned to the bucket current when they are folded in (at the next Rate
// call); with folds every rate-check interval the skew is far
// below the window and cannot flip a split/merge decision.
type RateEstimator struct {
	pending atomic.Int64 // events recorded since the last fold

	mu       sync.Mutex
	clk      clock.Clock
	window   time.Duration
	width    time.Duration // one bucket's share of the window
	start    time.Time     // bucket 0 begins here
	last     int64         // number of the newest bucket, counts[last%rateBuckets]
	counts   [rateBuckets]uint64
	inWindow uint64 // sum of counts
	total    uint64 // lifetime event count
}

// NewRateEstimator returns an estimator with the given sliding window. A
// window of one to a few seconds matches the paper's "messages per second"
// thresholds.
func NewRateEstimator(clk clock.Clock, window time.Duration) *RateEstimator {
	if window <= 0 {
		window = time.Second
	}
	return &RateEstimator{
		clk:    clk,
		window: window,
		width:  max(window/rateBuckets, 1),
		start:  clk.Now(),
	}
}

// Record notes one event. It is wait-free: the event is counted now and
// folded into the sliding window at the next Rate call.
func (r *RateEstimator) Record() {
	r.pending.Add(1)
}

// Rate returns the estimated events per second over the window.
func (r *RateEstimator) Rate() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fold()
	return float64(r.inWindow) / r.window.Seconds()
}

// Total returns the lifetime number of recorded events.
func (r *RateEstimator) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total + uint64(r.pending.Load())
}

// Reset clears the window (but not the lifetime total).
func (r *RateEstimator) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	// Events recorded up to this instant belong to the window being
	// discarded; fold them into the lifetime total without counting them
	// in a bucket.
	r.total += uint64(r.pending.Swap(0))
	r.counts = [rateBuckets]uint64{}
	r.inWindow = 0
}

// fold slides the window up to now — emptying every bucket that has fallen
// out of it — and drains the atomically recorded events into the current
// bucket. Caller holds mu.
func (r *RateEstimator) fold() {
	// A clock that steps back keeps counting in the newest bucket.
	if cur := int64(r.clk.Now().Sub(r.start) / r.width); cur > r.last {
		for b := max(r.last+1, cur-rateBuckets+1); b <= cur; b++ {
			slot := &r.counts[b%rateBuckets]
			r.inWindow -= *slot
			*slot = 0
		}
		r.last = cur
	}
	n := uint64(r.pending.Swap(0))
	r.counts[r.last%rateBuckets] += n
	r.inWindow += n
	r.total += n
}
