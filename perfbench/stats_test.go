package main

import (
	"bytes"
	"math"
	"testing"

	"github.com/archsim/fusleep/internal/telemetry"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestMedianAndQuantileOnHandBuiltInputs(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{9, 2}, 5.5},
		{[]float64{5, 1, 4, 2, 3}, 3},
		{[]float64{3, 1, 2, 10}, 2.5},
		{[]float64{0.5, 0.5, 0.5, 0.9}, 0.5},
		{[]float64{100, 1, 100, 1, 100}, 100}, // outliers on either side do not move it
	} {
		if got := median(tc.in); !near(got, tc.want) {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	in := []float64{2, 1}
	median(in)
	if in[0] != 2 {
		t.Error("median reordered its input")
	}
	if median(nil) != 0 || quantile(nil, 0.5) != 0 {
		t.Error("empty input should give 0")
	}
	if got := quantile([]float64{1, 2, 3, 4, 5}, 0.5); got != 3 {
		t.Errorf("quantile(0.5) = %v, want 3", got)
	}
	if got := quantile([]float64{1, 2}, 0.99); !near(got, 1.99) {
		t.Errorf("quantile(0.99) = %v, want 1.99", got)
	}
}

// TestRepetitionMetricsUseTheMedianRepetition builds repetitions by hand
// and checks the end-to-end metrics derived from them: medians, brought to
// the nominal host by the median reference-kernel time (here twice the
// nominal, so every time halves).
func TestRepetitionMetricsUseTheMedianRepetition(t *testing.T) {
	var reps []sample
	refs := []float64{2, 2, 1, 3, 2}
	for i, job := range []float64{0.9, 0.5, 0.6, 3.0, 0.7} {
		reps = append(reps, sample{
			setup:    float64(i + 1),
			phase:    map[string]float64{"job": job, "sim": job / 2},
			simPhase: "sim",
			simInsts: 7_000_000,
			ipcErr:   12.5,
			ref:      refs[i] * refNominal,
		})
	}
	m := endToEnd(reps)
	for name, want := range map[string]float64{
		"setup_s":         1.5,
		"job_s":           0.35,
		"sim_minst_per_s": 7 / 0.175,
		"ipc_err_pct":     12.5,
	} {
		if got := m[name].Value; !near(got, want) {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if got := perSecond(140, reps, "job").Value; !near(got, 400) {
		t.Errorf("perSecond = %v, want 400", got)
	}
}

const exposition = `# HELP x_seconds Test latencies.
# TYPE x_seconds histogram
x_seconds_bucket{route="GET /a",le="0.001"} 2
x_seconds_bucket{route="GET /a",le="0.01"} 6
x_seconds_bucket{route="GET /a",le="0.1"} 10
x_seconds_bucket{route="GET /a",le="+Inf"} 10
x_seconds_sum{route="GET /a"} 0.2
x_seconds_count{route="GET /a"} 10
x_seconds_bucket{route="POST /b",le="0.001"} 0
x_seconds_bucket{route="POST /b",le="0.01"} 0
x_seconds_bucket{route="POST /b",le="0.1"} 0
x_seconds_bucket{route="POST /b",le="+Inf"} 4
x_seconds_sum{route="POST /b"} 40
x_seconds_count{route="POST /b"} 4
x_seconds_other 1
`

func TestHistogramQuantileByHand(t *testing.T) {
	h, err := parseHistogram(exposition, "x_seconds", map[string]string{"route": "GET /a"})
	if err != nil {
		t.Fatal(err)
	}
	if h.count != 10 || len(h.buckets) != 4 {
		t.Fatalf("parsed %+v", h)
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.1, 0.0005},  // rank 1 of the first bucket's 2, from 0
		{0.5, 0.00775}, // rank 5: 0.001 + 0.009 * 3/4
		{0.99, 0.09775},
		{1, 0.1},
	} {
		if got := h.quantile(tc.q); !near(got, tc.want) {
			t.Errorf("p%v = %v, want %v", tc.q*100, got, tc.want)
		}
	}

	// Every observation above the last finite bound: Prometheus reports
	// that bound.
	inf, err := parseHistogram(exposition, "x_seconds", map[string]string{"route": "POST /b"})
	if err != nil {
		t.Fatal(err)
	}
	if got := inf.quantile(0.5); got != 0.1 {
		t.Errorf("+Inf-bucket p50 = %v, want 0.1", got)
	}

	// No label filter sums the series.
	all, err := parseHistogram(exposition, "x_seconds", nil)
	if err != nil {
		t.Fatal(err)
	}
	if all.count != 14 || all.buckets[3].count != 14 || all.buckets[0].count != 2 {
		t.Errorf("summed histogram %+v", all)
	}
	if _, err := parseHistogram(exposition, "y_seconds", nil); err == nil {
		t.Error("missing histogram parsed without error")
	}
	if (histogram{}).quantile(0.5) != 0 {
		t.Error("empty histogram quantile should be 0")
	}
}

// TestHistogramParsesTheDaemonsExposition reads a histogram rendered by
// the registry the daemon uses.
func TestHistogramParsesTheDaemonsExposition(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := reg.NewHistogramVec("fusleepd_test_seconds", "Test.", []float64{0.01, 0.1, 1}, "journal")
	for _, v := range []float64{0.005, 0.005, 0.05, 0.05, 0.5} {
		h.With("results").Observe(v)
	}
	h.With("jobs").Observe(5)
	var buf bytes.Buffer
	reg.WriteText(&buf)
	got, err := parseHistogram(buf.String(), "fusleepd_test_seconds", map[string]string{"journal": "results"})
	if err != nil {
		t.Fatal(err)
	}
	if got.count != 5 || len(got.buckets) != 4 {
		t.Fatalf("parsed %+v, want 5 observations in 4 buckets", got)
	}
	// rank 2.5 falls in (0.01, 0.1] holding observations 3 and 4.
	if p := got.quantile(0.5); !near(p, 0.01+0.09*0.5/2) {
		t.Errorf("p50 = %v", p)
	}
}

func TestParseTop(t *testing.T) {
	out := []byte(`File: perfbench
Type: cpu
Showing nodes accounting for 570ms, 100% of 570ms total
      flat  flat%   sum%        cum   cum%
      90ms 15.79% 15.79%      170ms 29.82%  github.com/archsim/fusleep/internal/pipeline.(*CPU).dispatch
      70ms 12.28% 28.07%       80ms 14.04%  github.com/archsim/fusleep/internal/pipeline.(*CPU).fetch
      20ms  3.51% 31.58%       20ms  3.51%  github.com/archsim/fusleep/internal/pipeline.(*classPool).tryAllocate
      10ms  1.75% 33.33%       10ms  1.75%  github.com/archsim/fusleep/internal/pipeline.(*classPool).record (inline)
      30ms  5.26% 38.59%       40ms  7.02%  github.com/archsim/fusleep/internal/workload.kernelGcc
      10ms  1.75% 40.34%       10ms  1.75%  github.com/archsim/fusleep/internal/workload.(*Emitter).slot (inline)
`)
	got, err := parseTop(out)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"pipeline.cpu_share.dispatch": 29.82,
		"pipeline.cpu_share.fetch":    14.04,
		"pipeline.cpu_share.issue":    0,
		"pipeline.cpu_share.record":   3.51 + 1.75,
		"workload.cpu_share":          5.26 + 1.75,
	}
	for k, v := range want {
		if !near(got[k], v) {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
	if _, err := parseTop([]byte("no profile here\n")); err == nil {
		t.Error("output without a header parsed without error")
	}
}
