package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"

	"github.com/archsim/fusleep"
)

// minReps is the fewest measured repetitions a run makes, however long
// they take.
const minReps = 4

// workload is one benchmark workload: a repetition, the workload's own
// named metrics, and the inputs its layer ladder runs on.
type workload interface {
	// rep runs one repetition: set-up (timed apart), the timed job, and
	// teardown, checking the job's outputs against the first repetition's.
	// tr is nil in untimed and untraced repetitions.
	rep(ctx context.Context, tr *tracer) (sample, error)
	// named derives the workload's own end-to-end metrics from the
	// measured repetitions.
	named(reps []sample) map[string]metric
	// inputs are the programs, window, and cells the ladder measures.
	inputs() ladderInput
}

// sample is one repetition's measurements.
type sample struct {
	// setup is the guard's time plus the workload's own set-up.
	setup float64
	// ipcErr is the guard's mean relative IPC error, in percent.
	ipcErr float64
	// ref is the reference kernel's time just before the repetition.
	ref float64
	// phase holds the timed job's phases in seconds; "job" is their sum.
	phase map[string]float64
	// simPhase names the phase that carries the repetition's fresh
	// simulations, simInsts the instructions they committed, and simCPU
	// the process CPU seconds spent during it.
	simPhase string
	simInsts uint64
	simCPU   float64
	// units counts the job's results: cells, or simulations for repro.
	units int
	// ops and failed count operations attempted and failed: cells, HTTP
	// requests, tuner evaluations, experiments.
	ops, failed int
	// stats are the repetition's engine counters (standalone engine for
	// daemon workloads) and distinct its distinct simulation identities.
	stats    fusleep.EngineStats
	distinct int
	// fleet are the fleet workers' engine counters, summed, for workloads
	// with a fleet pass.
	fleet fusleep.EngineStats
}

// repetitions is what measureReps returns.
type repetitions struct {
	plain, traced []sample
	// ops, failed, and units sum over every repetition, the warm-up
	// included.
	ops, failed, units int
	// profiles are the traced repetitions' CPU profiles.
	profiles []string
}

// measureReps runs one untimed warm-up repetition, then repetitions until
// the run's seconds have passed (at least minReps), each after a garbage
// collection and the reference kernel. Traced repetitions alternate with
// untraced ones when tr is set, so the overhead comparison sees the same
// host conditions; each traced repetition runs under a CPU profile written
// to profDir.
func measureReps(ctx context.Context, e env, w workload, tr *tracer, profDir string) (repetitions, error) {
	var r repetitions
	add := func(s sample) {
		r.ops += s.ops
		r.failed += s.failed
		r.units += s.units
	}
	warm, err := guarded(ctx, w, nil)
	add(warm)
	if err != nil {
		return r, err
	}
	start := time.Now()
	for i := 0; len(r.plain)+len(r.traced) < minReps || time.Since(start) < e.seconds; i++ {
		runtime.GC()
		ref := refKernel()
		var s sample
		var prof string
		if tr == nil || i%2 == 0 {
			s, err = guarded(ctx, w, nil)
		} else {
			prof = filepath.Join(profDir, fmt.Sprintf("rep%03d.pprof", i))
			s, err = profiled(ctx, w, tr, prof)
		}
		s.ref = ref
		add(s)
		if err != nil {
			return r, err
		}
		if prof == "" {
			r.plain = append(r.plain, s)
		} else {
			r.profiles = append(r.profiles, prof)
			r.traced = append(r.traced, s)
		}
	}
	return r, nil
}

// guarded runs one repetition whose set-up starts with the guard.
func guarded(ctx context.Context, w workload, tr *tracer) (sample, error) {
	var ipcErr float64
	g, err := timed(func() error {
		sp := tr.start("setup.guard", 0, "", "")
		defer sp.end()
		var err error
		ipcErr, err = guard(ctx)
		return err
	})
	if err != nil {
		return sample{ops: 1, failed: 1}, err
	}
	s, err := w.rep(ctx, tr)
	s.setup += g
	s.ipcErr = ipcErr
	s.ops++
	return s, err
}

// profiled runs one traced repetition under a CPU profile written to path.
func profiled(ctx context.Context, w workload, tr *tracer, path string) (sample, error) {
	f, err := os.Create(path)
	if err != nil {
		return sample{}, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return sample{}, err
	}
	s, err := guarded(ctx, w, tr)
	pprof.StopCPUProfile()
	if cerr := f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return s, err
}

// untraced is the --trace 0 run: the end-to-end metrics.
func untraced(ctx context.Context, e env, w workload) (result, error) {
	r, err := measureReps(ctx, e, w, nil, "")
	res := result{Correct: err == nil && r.failed == 0, Attempted: max(r.ops, 1), Failed: r.failed}
	if err != nil {
		return res, err
	}
	if r.failed > 0 {
		return res, checkf("%d of %d operations failed", r.failed, r.ops)
	}
	res.Metrics = endToEnd(r.plain)
	res.extra = w.named(r.plain)
	res.extra["host_scale"] = metric{Value: hostScale(r.plain), Unit: "ratio", n: len(r.plain)}
	return res, nil
}

// endToEnd computes the gated metrics every workload reports; host
// timings are at the nominal host speed.
func endToEnd(reps []sample) map[string]metric {
	setup := nominal(reps, func(s sample) float64 { return s.setup })
	job := nominal(reps, func(s sample) float64 { return s.phase["job"] })
	sim := nominal(reps, func(s sample) float64 { return s.phase[s.simPhase] })
	return map[string]metric{
		"setup_s":         {Value: setup, Unit: "s", n: len(reps)},
		"job_s":           {Value: job, Unit: "s", n: len(reps)},
		"sim_minst_per_s": {Value: float64(reps[0].simInsts) / sim / 1e6, Unit: "Minst/s", n: len(reps)},
		"ipc_err_pct":     {Value: reps[0].ipcErr, Unit: "%"},
		"max_rss_mb":      {Value: maxRSSMB(), Unit: "MB"},
	}
}

// column extracts one value per repetition.
func column(reps []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(reps))
	for i, s := range reps {
		out[i] = f(s)
	}
	return out
}

// nominal is the repetitions' median host time f at the nominal host
// speed.
func nominal(reps []sample, f func(sample) float64) float64 {
	return median(column(reps, f)) * hostScale(reps)
}

// perSecond is a throughput from a work count and the repetitions' median
// phase time, at the nominal host speed.
func perSecond(work float64, reps []sample, phase string) metric {
	return metric{
		Value: work / nominal(reps, func(s sample) float64 { return s.phase[phase] }),
		Unit:  "1/s",
		n:     len(reps),
	}
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// runtimeCounters reads the Go runtime's cumulative allocation and CPU
// accounting.
func runtimeCounters() (allocBytes, gcCPU, totalCPU float64) {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return val(s[0].Value), val(s[1].Value), val(s[2].Value)
}

// timed runs f and returns its wall time in seconds.
func timed(f func() error) (float64, error) {
	t0 := time.Now()
	err := f()
	return time.Since(t0).Seconds(), err
}
