package stats

import (
	"math/rand"
	"sync"
	"testing"
	"time"
	"unsafe"

	"agentloc/internal/clock"
)

func TestRateEstimatorBasic(t *testing.T) {
	clk := clock.NewFake(time.Unix(0, 0))
	r := NewRateEstimator(clk, time.Second)
	if got := r.Rate(); got != 0 {
		t.Errorf("empty Rate() = %v, want 0", got)
	}
	for i := 0; i < 10; i++ {
		r.Record()
	}
	if got := r.Rate(); got != 10 {
		t.Errorf("Rate() = %v, want 10", got)
	}
}

func TestRateEstimatorWindowEviction(t *testing.T) {
	clk := clock.NewFake(time.Unix(0, 0))
	r := NewRateEstimator(clk, time.Second)
	r.RecordN(6)
	clk.Advance(500 * time.Millisecond)
	r.RecordN(4)
	if got := r.Rate(); got != 10 {
		t.Errorf("Rate() = %v, want 10", got)
	}
	clk.Advance(600 * time.Millisecond) // first burst now outside the window
	if got := r.Rate(); got != 4 {
		t.Errorf("Rate() after eviction = %v, want 4", got)
	}
	clk.Advance(time.Second)
	if got := r.Rate(); got != 0 {
		t.Errorf("Rate() after full window = %v, want 0", got)
	}
}

func TestRateEstimatorConvergesToInjectedRate(t *testing.T) {
	clk := clock.NewFake(time.Unix(0, 0))
	r := NewRateEstimator(clk, 2*time.Second)
	// Inject 50 events/sec for 5 seconds, polling Rate every 200ms the way
	// the IAgent's periodic load check does. Pending events are timestamped
	// at the poll that folds them, so the estimate converges as long as the
	// poll interval is small against the window.
	for i := 0; i < 250; i++ {
		r.Record()
		clk.Advance(20 * time.Millisecond)
		if i%10 == 9 {
			_ = r.Rate()
		}
	}
	got := r.Rate()
	if got < 45 || got > 55 {
		t.Errorf("Rate() = %v, want ≈50", got)
	}
}

func TestRateEstimatorRingGrowth(t *testing.T) {
	clk := clock.NewFake(time.Unix(0, 0))
	r := NewRateEstimator(clk, time.Second)
	r.RecordN(1000) // a burst far above one per bucket lands in one bucket
	if got := r.Rate(); got != 1000 {
		t.Errorf("Rate() = %v, want 1000", got)
	}
	if got := r.Total(); got != 1000 {
		t.Errorf("Total() = %v, want 1000", got)
	}
}

func TestRateEstimatorRingWrap(t *testing.T) {
	clk := clock.NewFake(time.Unix(0, 0))
	r := NewRateEstimator(clk, time.Second)
	// Interleave record/evict cycles so the bucket ring wraps many times.
	for cycle := 0; cycle < 50; cycle++ {
		r.RecordN(10)
		clk.Advance(1100 * time.Millisecond)
		if got := r.Rate(); got != 0 {
			t.Fatalf("cycle %d: Rate() = %v, want 0", cycle, got)
		}
	}
	if got := r.Total(); got != 500 {
		t.Errorf("Total() = %v, want 500", got)
	}
}

// TestRateEstimatorWithinOneBucket: against the exact sliding count, the
// bucketed estimate may only miss events younger than the window by less
// than one bucket — it never counts one older than the window.
func TestRateEstimatorWithinOneBucket(t *testing.T) {
	const window = 2 * time.Second
	clk := clock.NewFake(time.Unix(0, 0))
	r := NewRateEstimator(clk, window)
	rng := rand.New(rand.NewSource(4))
	var events []time.Time // fold times, oldest first
	for step := 0; step < 4000; step++ {
		clk.Advance(time.Duration(rng.Intn(40)) * time.Millisecond)
		n := rng.Intn(4)
		r.RecordN(n)
		now := clk.Now()
		for i := 0; i < n; i++ {
			events = append(events, now)
		}
		var exact, certain int // inside the window; inside it by a bucket or more
		for _, e := range events {
			if age := now.Sub(e); age < window-window/rateBuckets {
				certain++
				exact++
			} else if age <= window {
				exact++
			}
		}
		got := int(r.Rate()*window.Seconds() + 0.5)
		if got < certain || got > exact {
			t.Fatalf("step %d: estimate counts %d events, exact window holds %d, %d of them older than window minus a bucket", step, got, exact, exact-certain)
		}
	}
}

// TestRateEstimatorFixedMemory: the window costs the same whatever the rate —
// a million events are a number in a bucket, and reading the rate allocates
// nothing.
func TestRateEstimatorFixedMemory(t *testing.T) {
	clk := clock.NewFake(time.Unix(0, 0))
	r := NewRateEstimator(clk, time.Second)
	for i := 0; i < 1_000_000; i++ {
		r.Record()
	}
	var rate float64
	if allocs := testing.AllocsPerRun(10, func() { rate = r.Rate() }); allocs != 0 {
		t.Errorf("Rate() after 10^6 Records allocates %v times, want 0", allocs)
	}
	if rate != 1_000_000 {
		t.Errorf("Rate() = %v, want 1e6", rate)
	}
	if size := unsafe.Sizeof(*r); size > 1024 {
		t.Errorf("estimator is %d bytes, want a fixed ≤ 1 KiB", size)
	}
}

func TestRateEstimatorReset(t *testing.T) {
	clk := clock.NewFake(time.Unix(0, 0))
	r := NewRateEstimator(clk, time.Second)
	r.RecordN(5)
	r.Reset()
	if got := r.Rate(); got != 0 {
		t.Errorf("Rate() after Reset = %v, want 0", got)
	}
	if got := r.Total(); got != 5 {
		t.Errorf("Total() after Reset = %v, want 5 (lifetime preserved)", got)
	}
}

func TestRateEstimatorConcurrent(t *testing.T) {
	r := NewRateEstimator(clock.Real{}, time.Minute)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Record()
				_ = r.Rate()
			}
		}()
	}
	wg.Wait()
	if got := r.Total(); got != 8000 {
		t.Errorf("Total() = %d, want 8000", got)
	}
}

func TestRateEstimatorDefaultsWindow(t *testing.T) {
	r := NewRateEstimator(clock.Real{}, 0)
	r.Record()
	if got := r.Rate(); got != 1 {
		t.Errorf("Rate() with defaulted window = %v, want 1", got)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Count != 0 || s.Mean != 0 {
		t.Errorf("Summarize(nil) = %+v, want zero", s)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]time.Duration{42 * time.Millisecond})
	if s.Count != 1 || s.Mean != 42*time.Millisecond || s.Median != 42*time.Millisecond {
		t.Errorf("Summarize single = %+v", s)
	}
	if s.Min != s.Max || s.Min != 42*time.Millisecond {
		t.Errorf("Min/Max = %v/%v", s.Min, s.Max)
	}
}

func TestSummarizeKnownValues(t *testing.T) {
	sample := []time.Duration{
		1 * time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond,
		4 * time.Millisecond, 5 * time.Millisecond,
	}
	s := Summarize(sample)
	if s.Mean != 3*time.Millisecond {
		t.Errorf("Mean = %v, want 3ms", s.Mean)
	}
	if s.Median != 3*time.Millisecond {
		t.Errorf("Median = %v, want 3ms", s.Median)
	}
	if s.Min != time.Millisecond || s.Max != 5*time.Millisecond {
		t.Errorf("Min/Max = %v/%v", s.Min, s.Max)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	sample := []time.Duration{5, 1, 3}
	Summarize(sample)
	if sample[0] != 5 || sample[1] != 1 || sample[2] != 3 {
		t.Errorf("Summarize mutated input: %v", sample)
	}
}

func TestTrimmedMeanDropsOutliers(t *testing.T) {
	sample := make([]time.Duration, 0, 20)
	for i := 0; i < 18; i++ {
		sample = append(sample, 10*time.Millisecond)
	}
	sample = append(sample, time.Second, time.Second) // two gross outliers
	s := Summarize(sample)
	if s.Trimmed > 12*time.Millisecond {
		t.Errorf("Trimmed = %v, want ≈10ms (outliers dropped)", s.Trimmed)
	}
	if s.Mean < 50*time.Millisecond {
		t.Errorf("Mean = %v, expected to be dragged up by outliers", s.Mean)
	}
}

func TestPercentileInterpolation(t *testing.T) {
	sorted := []time.Duration{0, 100}
	if got := percentile(sorted, 0.5); got != 50 {
		t.Errorf("percentile(0.5) = %v, want 50", got)
	}
	if got := percentile(sorted, 0); got != 0 {
		t.Errorf("percentile(0) = %v, want 0", got)
	}
	if got := percentile(sorted, 1); got != 100 {
		t.Errorf("percentile(1) = %v, want 100", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
}

func TestSummaryString(t *testing.T) {
	s := Summarize([]time.Duration{time.Millisecond})
	if str := s.String(); str == "" {
		t.Error("String() empty")
	}
}
