// Package stats provides the summary primitives of the study: logarithmic
// histograms and cumulative weight fractions over recorded idle-interval
// multisets (the distribution of Figure 7), and weighted quantiles.
package stats

import (
	"fmt"
	"math/bits"
)

// Log2Bucket is one bin of a logarithmic histogram covering [Low, High].
type Log2Bucket struct {
	Low, High int
	Count     uint64
	Weight    uint64 // sum of values (e.g. idle cycles) in the bucket
}

// Log2Histogram bins positive integers into power-of-two buckets
// [1,1],[2,3],[4,7],... with everything at or above Cap accumulated into the
// final bucket, reproducing the x-axis treatment of Figure 7 ("idle
// intervals longer than 8192 cycles have the total idle time accumulated at
// the 8192 cycle marker").
type Log2Histogram struct {
	Cap     int
	counts  []uint64
	weights []uint64
}

// NewLog2Histogram builds a histogram with the given accumulation cap,
// which must be a power of two.
func NewLog2Histogram(cap int) (*Log2Histogram, error) {
	if cap < 2 || cap&(cap-1) != 0 {
		return nil, fmt.Errorf("stats: cap %d must be a power of two >= 2", cap)
	}
	n := bits.Len(uint(cap)) // bucket index of cap itself
	return &Log2Histogram{
		Cap:     cap,
		counts:  make([]uint64, n),
		weights: make([]uint64, n),
	}, nil
}

// MustNewLog2Histogram panics on bad caps.
func MustNewLog2Histogram(cap int) *Log2Histogram {
	h, err := NewLog2Histogram(cap)
	if err != nil {
		panic(err)
	}
	return h
}

func (h *Log2Histogram) bucketIndex(v int) int {
	if v >= h.Cap {
		return len(h.counts) - 1
	}
	return bits.Len(uint(v)) - 1
}

// Add records count occurrences of value v (v must be positive). The
// bucket weight accumulates v*count, i.e. total cycles when v is an idle
// interval length.
func (h *Log2Histogram) Add(v int, count uint64) {
	if v <= 0 || count == 0 {
		return
	}
	i := h.bucketIndex(v)
	h.counts[i] += count
	h.weights[i] += uint64(v) * count
}

// AddIntervals merges an interval multiset (length -> count).
func (h *Log2Histogram) AddIntervals(intervals map[int]uint64) {
	for l, c := range intervals {
		h.Add(l, c)
	}
}

// Buckets returns the bins in ascending order of range.
func (h *Log2Histogram) Buckets() []Log2Bucket {
	out := make([]Log2Bucket, len(h.counts))
	for i := range h.counts {
		low := 1 << i
		high := 1<<(i+1) - 1
		if i == len(h.counts)-1 {
			high = -1 // open-ended accumulation bucket
		}
		out[i] = Log2Bucket{Low: low, High: high, Count: h.counts[i], Weight: h.weights[i]}
	}
	return out
}

// TotalCount returns the number of recorded values.
func (h *Log2Histogram) TotalCount() uint64 {
	var n uint64
	for _, c := range h.counts {
		n += c
	}
	return n
}

// TotalWeight returns the summed values (total idle cycles).
func (h *Log2Histogram) TotalWeight() uint64 {
	var n uint64
	for _, w := range h.weights {
		n += w
	}
	return n
}

// WeightAtOrBelow returns the fraction of total weight contributed by
// values <= v, computed from the exact bucket boundaries that contain v.
// It is used for statements like "75% of idle time occurs within the L2
// access latency". Buckets straddling v are included when their low bound
// is <= v.
func (h *Log2Histogram) WeightAtOrBelow(v int) float64 {
	tot := h.TotalWeight()
	if tot == 0 {
		return 0
	}
	var acc uint64
	for i, w := range h.weights {
		if 1<<i <= v {
			acc += w
		}
	}
	return float64(acc) / float64(tot)
}

// CumulativeWeightFraction computes the exact (not bucketed) fraction of
// weight from values <= v given the raw interval multiset.
func CumulativeWeightFraction(intervals map[int]uint64, v int) float64 {
	var acc, tot uint64
	for l, c := range intervals {
		w := uint64(l) * c
		tot += w
		if l <= v {
			acc += w
		}
	}
	if tot == 0 {
		return 0
	}
	return float64(acc) / float64(tot)
}
