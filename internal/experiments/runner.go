// Package experiments contains one driver per table and figure of the
// paper's evaluation. Analytic experiments (Table 1/4, Figures 3-5) come
// straight from the circuit and energy models; simulated experiments
// (Table 2/3, Figures 7-9) run the benchmark suite on the pipeline model
// and feed the measured idle-interval profiles into the energy model,
// exactly as Section 4 of the paper describes.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"github.com/archsim/fusleep/internal/core"
	"github.com/archsim/fusleep/internal/pipeline"
	"github.com/archsim/fusleep/internal/workload"
)

// Options control the simulation scale.
type Options struct {
	// Window is the per-benchmark instruction count (the paper used
	// 50M-150M windows; the default reproduces the distributions at far
	// lower cost).
	Window uint64
	// Sweep is the per-run instruction count for FU-count sweeps (Table 3),
	// which needs 4 runs per benchmark.
	Sweep uint64
	// Parallel bounds concurrent simulations (0 = GOMAXPROCS).
	Parallel int
	// DisableCache turns off the cross-call result cache, so every request
	// re-simulates. The cache is on by default; disabling it is mainly
	// useful for memory-constrained batch sweeps.
	DisableCache bool
}

// DefaultOptions returns the standard experiment scale.
func DefaultOptions() Options {
	return Options{Window: 1_000_000, Sweep: 750_000}
}

// FUMix is a machine's per-class functional-unit provisioning. The zero
// value selects the defaults everywhere: the paper's per-benchmark Table 3
// IntALU count, address generation sharing the IntALU ports, and one unit
// each for the multiplier and FP classes.
type FUMix struct {
	// IntALUs is the integer-ALU count; 0 selects the paper's Table 3
	// per-benchmark count.
	IntALUs int `json:"intALUs,omitempty"`
	// AGUs is the dedicated address-generation unit count; 0 shares the
	// IntALU ports (the paper's machine).
	AGUs int `json:"agus,omitempty"`
	// Mults, FPALUs, FPMults override the dedicated unit counts; 0 keeps
	// the Table 2 default of one unit per class.
	Mults   int `json:"mults,omitempty"`
	FPALUs  int `json:"fpalus,omitempty"`
	FPMults int `json:"fpmults,omitempty"`
}

// runKey identifies one benchmark configuration in the result cache. The
// full per-class mix is part of the identity, so suites that differ only in
// their Mult or FP provisioning cache separately.
type runKey struct {
	bench  string
	mix    FUMix
	l2     int
	window uint64
}

// inflight is one in-progress simulation other callers can wait on.
type inflight struct {
	done chan struct{} // closed when res/err are set
	res  pipeline.Result
	err  error
}

// Runner executes experiments, caching benchmark runs so the figures that
// share the same simulations (7, 8a, 8b, 9a, 9b) pay for them once. It is
// the engine's backing store and its one simulation scheduler: single runs
// (SimMix) and batches (SimBatch) honor context cancellation and the
// configured parallelism bound, and concurrent identical requests share
// one in-flight run.
type Runner struct {
	opt Options
	sem chan struct{} // bounds concurrent pipeline simulations
	// run simulates one resolved request once it holds a slot: runOne,
	// which tests replace to script failures and timing.
	run func(ctx context.Context, spec workload.Spec, key runKey) (pipeline.Result, error)

	mu            sync.Mutex
	runs          map[runKey]pipeline.Result
	pending       map[runKey]*inflight
	simCount      uint64 // completed pipeline runs, for tests and Stats
	cacheHits     uint64 // simulation requests served from the result cache
	inflightJoins uint64 // simulation requests that joined an in-progress identical run
}

// RunnerStats is a snapshot of the runner's simulation accounting: how many
// pipeline simulations actually ran, how many requests were served straight
// from the cross-call cache, and how many joined an identical in-flight run
// instead of re-simulating. HitRate folds the latter two together against
// the total request count.
type RunnerStats struct {
	Simulations   uint64 `json:"simulations"`
	CacheHits     uint64 `json:"cacheHits"`
	InflightJoins uint64 `json:"inflightJoins"`
	// ProfileBuilds and ProfileReuses always read 0: the simulator
	// records profiles in the energy model's own form, so none is ever
	// converted.
	//
	// Deprecated: always 0.
	ProfileBuilds uint64 `json:"profileBuilds,omitempty"`
	// Deprecated: always 0; see ProfileBuilds.
	ProfileReuses uint64 `json:"profileReuses,omitempty"`
}

// HitRate returns the fraction of simulation requests that avoided a fresh
// simulation (0 when no requests have been served).
func (s RunnerStats) HitRate() float64 {
	total := s.Simulations + s.CacheHits + s.InflightJoins
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits+s.InflightJoins) / float64(total)
}

// Stats returns a snapshot of the runner's simulation accounting.
func (r *Runner) Stats() RunnerStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return RunnerStats{Simulations: r.simCount, CacheHits: r.cacheHits, InflightJoins: r.inflightJoins}
}

// NewRunner builds a runner.
func NewRunner(opt Options) *Runner {
	if opt.Window == 0 {
		opt.Window = DefaultOptions().Window
	}
	if opt.Sweep == 0 {
		opt.Sweep = DefaultOptions().Sweep
	}
	limit := opt.Parallel
	if limit <= 0 {
		// Simulations are CPU-bound and each holds about 2 MB of machine
		// state and trace batches while it runs: runs beyond the core
		// count add memory, not throughput.
		limit = runtime.GOMAXPROCS(0)
	}
	return &Runner{
		opt:     opt,
		sem:     make(chan struct{}, limit),
		run:     runOne,
		runs:    make(map[runKey]pipeline.Result),
		pending: make(map[runKey]*inflight),
	}
}

// runOne simulates a single benchmark configuration.
func runOne(ctx context.Context, spec workload.Spec, key runKey) (pipeline.Result, error) {
	cfg := pipeline.DefaultConfig().
		WithIntALUs(key.mix.IntALUs).
		WithUnits(key.mix.Mults, key.mix.FPALUs, key.mix.FPMults, key.mix.AGUs).
		WithL2Latency(key.l2)
	cfg.MaxInsts = key.window
	cpu, err := pipeline.New(cfg, spec.NewTrace(key.window))
	if err != nil {
		return pipeline.Result{}, err
	}
	res, err := cpu.RunContext(ctx)
	if err != nil {
		return pipeline.Result{}, fmt.Errorf("%s: %w", spec.Name, err)
	}
	return res, nil
}

// SimMix simulates one benchmark at the given per-class unit mix, L2 hit
// latency (0 selects 12 cycles) and instruction window (0 selects the
// runner's Window). The mix's zero fields resolve to the machine defaults
// (paper IntALU count, shared AGUs, one unit per dedicated class). The
// resolved mix is part of the cache identity, so suites that differ only
// in one class's count cache separately. Results are cached across calls
// unless DisableCache is set; concurrent simulations are bounded by
// Options.Parallel.
func (r *Runner) SimMix(ctx context.Context, bench string, mix FUMix, l2 int, window uint64) (pipeline.Result, error) {
	spec, key, err := r.resolveKey(bench, mix, l2, window)
	if err != nil {
		return pipeline.Result{}, err
	}
	return r.simulate(ctx, spec, key)
}

// simulate serves one resolved request: from the result cache, by joining
// an identical in-flight run, or by running it under the semaphore.
func (r *Runner) simulate(ctx context.Context, spec workload.Spec, key runKey) (pipeline.Result, error) {
	for {
		r.mu.Lock()
		if !r.opt.DisableCache {
			if got, ok := r.runs[key]; ok {
				r.cacheHits++
				r.mu.Unlock()
				return got, nil
			}
		}
		if fl, ok := r.pending[key]; ok {
			// Someone else is already running this configuration; wait for
			// their result instead of re-simulating.
			r.inflightJoins++
			r.mu.Unlock()
			//fusleepvet:nondet-ok cancellation race: both arms end the wait, and the result value is the leader's either way
			select {
			case <-fl.done:
				if fl.err == nil {
					return fl.res, nil
				}
				// Retry only when the leader failed because *its* context
				// ended; a real simulation error is equally valid for every
				// waiter and re-running would just fail again.
				if isCtxErr(fl.err) {
					if err := ctx.Err(); err != nil {
						return pipeline.Result{}, err
					}
					continue
				}
				return pipeline.Result{}, fl.err
			case <-ctx.Done():
				return pipeline.Result{}, ctx.Err()
			}
		}
		fl := &inflight{done: make(chan struct{})}
		r.pending[key] = fl
		r.mu.Unlock()

		fl.res, fl.err = r.runBounded(ctx, spec, key)
		r.mu.Lock()
		delete(r.pending, key)
		if fl.err == nil {
			r.simCount++
			if !r.opt.DisableCache {
				r.runs[key] = fl.res
			}
		}
		r.mu.Unlock()
		close(fl.done)
		return fl.res, fl.err
	}
}

// isCtxErr reports whether err comes from a context ending.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// cached returns the cached result of one resolved request, counting the
// hit, or false when the request would have to simulate or join an
// in-flight run. It never blocks on a simulation.
func (r *Runner) cached(key runKey) (pipeline.Result, bool) {
	if r.opt.DisableCache {
		return pipeline.Result{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	res, ok := r.runs[key]
	if ok {
		r.cacheHits++
	}
	return res, ok
}

// resolveKey normalizes one benchmark request into its canonical cache
// identity. Zero fields resolve to the machine defaults (the paper's
// per-benchmark IntALU count, shared AGUs, Table 2 dedicated units, 12-cycle
// L2, the runner's window); negatives clamp to 0 and explicit counts equal
// to the defaults collapse to 0, so "default" spells one cache key however
// it was written.
func (r *Runner) resolveKey(bench string, mix FUMix, l2 int, window uint64) (workload.Spec, runKey, error) {
	spec, err := workload.ByName(bench)
	if err != nil {
		return workload.Spec{}, runKey{}, err
	}
	if mix.IntALUs <= 0 {
		mix.IntALUs = spec.PaperFUs
	}
	def := pipeline.DefaultConfig()
	for _, n := range []struct {
		v   *int
		def int
	}{
		{&mix.AGUs, def.AGUs}, {&mix.Mults, def.IntMults},
		{&mix.FPALUs, def.FPALUs}, {&mix.FPMults, def.FPMults},
	} {
		if *n.v < 0 || *n.v == n.def {
			*n.v = 0
		}
	}
	if l2 <= 0 {
		l2 = 12
	}
	if window == 0 {
		window = r.opt.Window
	}
	return spec, runKey{bench: spec.Name, mix: mix, l2: l2, window: window}, nil
}

// runBounded runs one simulation under the concurrency semaphore. Nothing
// of the simulation is allocated before it holds a slot, so a batch queued
// behind the semaphore costs a parked goroutine per request, not a machine.
func (r *Runner) runBounded(ctx context.Context, spec workload.Spec, key runKey) (pipeline.Result, error) {
	//fusleepvet:nondet-ok semaphore-vs-cancel race: the simulation itself is seeded and cancellation only picks which error surfaces
	select {
	case r.sem <- struct{}{}:
		defer func() { <-r.sem }()
	case <-ctx.Done():
		return pipeline.Result{}, ctx.Err()
	}
	return r.run(ctx, spec, key)
}

// SimRequest is one simulation of a batch: a benchmark at a per-class unit
// mix, L2 hit latency and instruction window, with SimMix's zero defaults.
type SimRequest struct {
	Bench  string
	Mix    FUMix
	L2     int
	Window uint64
}

// SimBatch simulates a batch of requests and returns their results in
// request order. It is the runner's one fan-out: every request is resolved
// first, cached results are served inline, and every miss starts at once
// and waits for one of the Options.Parallel slots. On failure it cancels
// the outstanding runs, waits for them to drain, and returns every
// distinct error joined together rather than abandoning in-flight work.
func (r *Runner) SimBatch(ctx context.Context, reqs []SimRequest) ([]pipeline.Result, error) {
	results := make([]pipeline.Result, len(reqs))
	if _, err := r.simBatch(ctx, reqs, results); err != nil {
		return nil, err
	}
	return results, nil
}

// simBatch is SimBatch writing request i's result to results[i]. On
// failure it also returns each request's own error (nil for a request
// that succeeded or was served from the cache), so a caller can tell which
// requests failed and which were canceled because another one did. Only
// the calling goroutine touches reqs and results, so a caller may pass
// stack buffers.
func (r *Runner) simBatch(ctx context.Context, reqs []SimRequest, results []pipeline.Result) ([]error, error) {
	type miss struct {
		i    int
		spec workload.Spec
		key  runKey
	}
	var misses []miss
	var errs []error
	for i, q := range reqs {
		spec, key, err := r.resolveKey(q.Bench, q.Mix, q.L2, q.Window)
		if err != nil {
			if errs == nil {
				errs = make([]error, len(reqs))
			}
			errs[i] = err
			continue
		}
		if res, ok := r.cached(key); ok {
			results[i] = res
		} else {
			misses = append(misses, miss{i, spec, key})
		}
	}
	if errs != nil {
		return errs, errors.Join(errs...)
	}
	if len(misses) == 0 {
		return nil, nil
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	type out struct {
		i   int
		res pipeline.Result
		err error
	}
	ch := make(chan out, len(misses))
	for _, m := range misses {
		go func(m miss) {
			res, err := r.simulate(runCtx, m.spec, m.key)
			ch <- out{m.i, res, err}
		}(m)
	}
	var joined []error
	for range misses {
		o := <-ch
		if o.err == nil {
			results[o.i] = o.res
			continue
		}
		if errs == nil {
			errs = make([]error, len(reqs))
		}
		errs[o.i] = o.err
		// First failure cancels the rest; their (likely context.Canceled)
		// errors still drain here so no goroutine leaks.
		if len(joined) == 0 {
			cancel()
		}
		if !isCtxErr(o.err) || len(joined) == 0 {
			joined = append(joined, o.err)
		}
	}
	if len(joined) > 0 {
		return errs, errors.Join(joined...)
	}
	return nil, nil
}

// SimSuiteMix simulates a set of benchmarks at one unit mix, L2 latency
// and window, as SimMix resolves them, and returns their results by name.
// It is one SimBatch, with its cancellation and error joining.
func (r *Runner) SimSuiteMix(ctx context.Context, benchmarks []string, mix FUMix, l2 int, window uint64) (map[string]pipeline.Result, error) {
	// A suite of up to the workload's size batches from stack buffers, so
	// a warm call allocates only the map it returns.
	var reqBuf [9]SimRequest
	var resBuf [9]pipeline.Result
	reqs, res := reqBuf[:0], resBuf[:0]
	for _, name := range benchmarks {
		reqs = append(reqs, SimRequest{Bench: name, Mix: mix, L2: l2, Window: window})
		res = append(res, pipeline.Result{})
	}
	if _, err := r.simBatch(ctx, reqs, res); err != nil {
		return nil, err
	}
	suite := make(map[string]pipeline.Result, len(benchmarks))
	for i, name := range benchmarks {
		suite[name] = res[i]
	}
	return suite, nil
}

// suite returns the per-benchmark results at the paper's Table 3 FU counts
// for the given L2 latency, served from the per-run cache after first use.
func (r *Runner) suite(ctx context.Context, l2 int) (map[string]pipeline.Result, error) {
	return r.SimSuiteMix(ctx, workload.Names(), FUMix{}, l2, r.opt.Window)
}

// unitsEnergy sums a policy's energy over the given unit profiles.
func unitsEnergy(tech core.Tech, pc core.PolicyConfig, alpha float64, units []core.IdleProfile) core.Breakdown {
	var total core.Breakdown
	for i := range units {
		total = total.Add(tech.EvalProfile(pc, alpha, &units[i]))
	}
	return total
}

// profileBase is the 100%-computation normalization for n units over the
// run's cycle count.
func profileBase(tech core.Tech, alpha float64, n int, cycles uint64) float64 {
	return float64(n) * tech.BaseEnergy(alpha, float64(cycles))
}

// unitEnergy sums a policy's energy over the studied integer units of one
// run (the single-pool view).
func unitEnergy(tech core.Tech, pc core.PolicyConfig, alpha float64, res pipeline.Result) core.Breakdown {
	return unitsEnergy(tech, pc, alpha, res.FUs)
}

// baseEnergy is the normalization of Figure 8: the energy if every unit
// computed on every cycle.
func baseEnergy(tech core.Tech, alpha float64, res pipeline.Result) float64 {
	return profileBase(tech, alpha, len(res.FUs), res.Cycles)
}

// relativeEnergy returns E_policy / E_base for one benchmark run.
func relativeEnergy(tech core.Tech, pc core.PolicyConfig, alpha float64, res pipeline.Result) float64 {
	return unitEnergy(tech, pc, alpha, res).Total() / baseEnergy(tech, alpha, res)
}
