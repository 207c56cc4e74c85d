package main

import (
	"math/bits"
	"sort"
)

// hist is a log-linear latency histogram over nanoseconds: 128 buckets per
// power of two, so a quantile read from it is within 0.8 % of the exact
// sample. It replaces a sample slice because the cached workload completes
// tens of millions of operations in one window.
type hist struct {
	counts [histBuckets]uint32
	n      uint64
	sumNS  uint64
}

const (
	histSub     = 128
	histMaxExp  = 33 // values up to 2^40 ns
	histBuckets = (histMaxExp + 1) * histSub
)

func (h *hist) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	v := uint64(ns)
	h.sumNS += v
	idx := int(v)
	if v >= histSub {
		exp := bits.Len64(v) - 8
		if exp >= histMaxExp {
			exp, v = histMaxExp-1, (2*histSub-1)<<(histMaxExp-1)
		}
		idx = (exp+1)*histSub + int(v>>exp) - histSub
	}
	h.counts[idx]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sumNS += o.sumNS
}

// histBounds returns bucket idx's lowest value and width.
func histBounds(idx int) (lo, width float64) {
	if idx < histSub {
		return float64(idx), 1
	}
	exp := idx/histSub - 1
	mant := uint64(idx%histSub + histSub)
	return float64(mant << exp), float64(uint64(1) << exp)
}

// quantile returns the q-quantile in nanoseconds, interpolated inside the
// bucket that holds it; 0 for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			lo, width := histBounds(i)
			return lo + width*(target-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, width := histBounds(histBuckets - 1)
	return lo + width
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
