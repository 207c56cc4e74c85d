package stats

// RecordN notes n simultaneous events at the current time, folding them in
// at once so that they land in the bucket current now.
func (r *RateEstimator) RecordN(n int) {
	if n <= 0 {
		return
	}
	r.pending.Add(int64(n))
	r.mu.Lock()
	r.fold()
	r.mu.Unlock()
}
