package stats

import (
	"math/rand"
	"testing"
)

func TestLog2HistogramBuckets(t *testing.T) {
	h := MustNewLog2Histogram(8192)
	h.Add(1, 10)
	h.Add(2, 5)
	h.Add(3, 5)
	h.Add(4, 2)
	h.Add(7, 1)
	h.Add(8192, 1)
	h.Add(100000, 2) // accumulates at the cap bucket
	h.Add(0, 99)     // ignored
	h.Add(-1, 99)    // ignored
	h.Add(5, 0)      // ignored

	bk := h.Buckets()
	if bk[0].Low != 1 || bk[0].High != 1 || bk[0].Count != 10 {
		t.Errorf("bucket[0] = %+v", bk[0])
	}
	if bk[1].Low != 2 || bk[1].High != 3 || bk[1].Count != 10 {
		t.Errorf("bucket[1] = %+v", bk[1])
	}
	if bk[2].Low != 4 || bk[2].High != 7 || bk[2].Count != 3 {
		t.Errorf("bucket[2] = %+v", bk[2])
	}
	last := bk[len(bk)-1]
	if last.Low != 8192 || last.High != -1 || last.Count != 3 {
		t.Errorf("cap bucket = %+v", last)
	}
	if h.TotalCount() != 26 {
		t.Errorf("total count = %d, want 26", h.TotalCount())
	}
	wantWeight := uint64(1*10 + 2*5 + 3*5 + 4*2 + 7 + 8192 + 200000)
	if h.TotalWeight() != wantWeight {
		t.Errorf("total weight = %d, want %d", h.TotalWeight(), wantWeight)
	}
}

func TestLog2HistogramCapValidation(t *testing.T) {
	if _, err := NewLog2Histogram(1000); err == nil {
		t.Error("non-power-of-two cap accepted")
	}
	if _, err := NewLog2Histogram(1); err == nil {
		t.Error("cap 1 accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNewLog2Histogram should panic")
		}
	}()
	MustNewLog2Histogram(3)
}

func TestWeightAtOrBelow(t *testing.T) {
	h := MustNewLog2Histogram(1024)
	h.Add(2, 1)  // bucket [2,3], weight 2
	h.Add(8, 1)  // bucket [8,15], weight 8
	h.Add(64, 1) // bucket [64,127], weight 64
	got := h.WeightAtOrBelow(15)
	want := 10.0 / 74.0
	if got != want {
		t.Errorf("WeightAtOrBelow(15) = %g, want %g", got, want)
	}
	if h.WeightAtOrBelow(0) != 0 {
		t.Error("nothing should be at or below 0")
	}
	empty := MustNewLog2Histogram(64)
	if empty.WeightAtOrBelow(10) != 0 {
		t.Error("empty histogram fraction should be 0")
	}
}

func TestCumulativeWeightFraction(t *testing.T) {
	m := map[int]uint64{3: 2, 12: 1, 50: 1}
	// weight: 6 + 12 + 50 = 68; <= 12: 18.
	if got := CumulativeWeightFraction(m, 12); got != 18.0/68.0 {
		t.Errorf("fraction = %g", got)
	}
	if CumulativeWeightFraction(nil, 5) != 0 {
		t.Error("empty multiset should give 0")
	}
}

func TestHistogramMatchesRecorder(t *testing.T) {
	// Feeding a recorded interval multiset into the histogram conserves
	// weight and count.
	rng := rand.New(rand.NewSource(5))
	intervals := map[int]uint64{}
	var idle, n uint64
	for i := 0; i < 2000; i++ {
		l := 1 + rng.Intn(20000)
		c := uint64(1 + rng.Intn(5))
		intervals[l] += c
		idle += uint64(l) * c
		n += c
	}
	h := MustNewLog2Histogram(8192)
	h.AddIntervals(intervals)
	if h.TotalWeight() != idle {
		t.Errorf("histogram weight %d != recorded idle %d", h.TotalWeight(), idle)
	}
	if h.TotalCount() != n {
		t.Errorf("histogram count %d != interval count %d", h.TotalCount(), n)
	}
}
