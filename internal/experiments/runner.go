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
	// Parallel bounds concurrent simulations (0 = number of benchmarks).
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
// the engine's backing store: all simulations funnel through Sim, which
// honors context cancellation and the configured parallelism bound, and
// deduplicates concurrent identical requests in flight.
type Runner struct {
	opt Options
	sem chan struct{} // bounds concurrent pipeline simulations

	mu            sync.Mutex
	runs          map[runKey]pipeline.Result
	pending       map[runKey]*inflight
	simCount      uint64 // completed pipeline runs, for tests and Stats
	cacheHits     uint64 // Sim requests served from the result cache
	inflightJoins uint64 // Sim requests that joined an in-progress identical run
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

// HitRate returns the fraction of Sim requests that avoided a fresh
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
		limit = len(workload.Benchmarks)
	}
	return &Runner{
		opt:     opt,
		sem:     make(chan struct{}, limit),
		runs:    make(map[runKey]pipeline.Result),
		pending: make(map[runKey]*inflight),
	}
}

// runOne simulates a single benchmark configuration.
func runOne(ctx context.Context, spec workload.Spec, mix FUMix, l2 int, window uint64) (pipeline.Result, error) {
	cfg := pipeline.DefaultConfig().
		WithIntALUs(mix.IntALUs).
		WithUnits(mix.Mults, mix.FPALUs, mix.FPMults, mix.AGUs).
		WithL2Latency(l2)
	cfg.MaxInsts = window
	cpu, err := pipeline.New(cfg, spec.NewTrace(window))
	if err != nil {
		return pipeline.Result{}, err
	}
	res, err := cpu.RunContext(ctx)
	if err != nil {
		return pipeline.Result{}, fmt.Errorf("%s: %w", spec.Name, err)
	}
	return res, nil
}

// Sim simulates one benchmark at the given integer-ALU count (0 selects the
// paper's Table 3 count), L2 hit latency, and instruction window (0 selects
// the runner's Window), with the default per-class mix. Results are cached
// across calls unless DisableCache is set; concurrent simulations are
// bounded by Options.Parallel.
func (r *Runner) Sim(ctx context.Context, bench string, fus, l2 int, window uint64) (pipeline.Result, error) {
	return r.SimMix(ctx, bench, FUMix{IntALUs: fus}, l2, window)
}

// SimMix is Sim with full per-class unit provisioning: the mix's zero
// fields resolve to the machine defaults (paper IntALU count, shared AGUs,
// one unit per dedicated class). The resolved mix is part of the cache
// identity, so suites that differ only in one class's count cache
// separately.
func (r *Runner) SimMix(ctx context.Context, bench string, mix FUMix, l2 int, window uint64) (pipeline.Result, error) {
	spec, key, err := r.resolveKey(bench, mix, l2, window)
	if err != nil {
		return pipeline.Result{}, err
	}
	mix, l2, window = key.mix, key.l2, key.window
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
				if errors.Is(fl.err, context.Canceled) || errors.Is(fl.err, context.DeadlineExceeded) {
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

		fl.res, fl.err = r.runBounded(ctx, spec, mix, l2, window)
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

// cached returns the cached result of one benchmark request, counting
// the hit, or false when the request would have to simulate or join an
// in-flight run. It never blocks on a simulation.
func (r *Runner) cached(bench string, mix FUMix, l2 int, window uint64) (pipeline.Result, bool) {
	if r.opt.DisableCache {
		return pipeline.Result{}, false
	}
	_, key, err := r.resolveKey(bench, mix, l2, window)
	if err != nil {
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

// runBounded runs one simulation under the concurrency semaphore.
func (r *Runner) runBounded(ctx context.Context, spec workload.Spec, mix FUMix, l2 int, window uint64) (pipeline.Result, error) {
	//fusleepvet:nondet-ok semaphore-vs-cancel race: the simulation itself is seeded and cancellation only picks which error surfaces
	select {
	case r.sem <- struct{}{}:
		defer func() { <-r.sem }()
	case <-ctx.Done():
		return pipeline.Result{}, ctx.Err()
	}
	return runOne(ctx, spec, mix, l2, window)
}

// SimSuite simulates a set of benchmarks in parallel (bounded by
// Options.Parallel) and returns their results by name. fus = 0 selects the
// paper's per-benchmark Table 3 counts. On failure it cancels the
// outstanding runs, waits for them to drain, and returns every distinct
// error joined together rather than abandoning in-flight work.
func (r *Runner) SimSuite(ctx context.Context, benchmarks []string, fus, l2 int, window uint64) (map[string]pipeline.Result, error) {
	return r.SimSuiteMix(ctx, benchmarks, FUMix{IntALUs: fus}, l2, window)
}

// SimSuiteMix is SimSuite with full per-class unit provisioning; cells that
// share a class mix share their (cached) suite simulation. Cached results
// are served inline; only the misses start a goroutine each.
func (r *Runner) SimSuiteMix(ctx context.Context, benchmarks []string, mix FUMix, l2 int, window uint64) (map[string]pipeline.Result, error) {
	results := make(map[string]pipeline.Result, len(benchmarks))
	var misses []string
	for _, name := range benchmarks {
		if res, ok := r.cached(name, mix, l2, window); ok {
			results[name] = res
		} else {
			misses = append(misses, name)
		}
	}
	if len(misses) == 0 {
		return results, nil
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	type out struct {
		name string
		res  pipeline.Result
		err  error
	}
	ch := make(chan out, len(misses))
	for _, name := range misses {
		go func(name string) {
			res, err := r.SimMix(runCtx, name, mix, l2, window)
			ch <- out{name, res, err}
		}(name)
	}
	var errs []error
	for range misses {
		o := <-ch
		if o.err != nil {
			// First failure cancels the rest; their (likely context.Canceled)
			// errors still drain here so no goroutine leaks.
			if len(errs) == 0 {
				cancel()
			}
			ctxErr := errors.Is(o.err, context.Canceled) || errors.Is(o.err, context.DeadlineExceeded)
			if !ctxErr || len(errs) == 0 {
				errs = append(errs, o.err)
			}
			continue
		}
		results[o.name] = o.res
	}
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	return results, nil
}

// suite returns the per-benchmark results at the paper's Table 3 FU counts
// for the given L2 latency, served from the per-run cache after first use.
func (r *Runner) suite(ctx context.Context, l2 int) (map[string]pipeline.Result, error) {
	return r.SimSuite(ctx, workload.Names(), 0, l2, r.opt.Window)
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
