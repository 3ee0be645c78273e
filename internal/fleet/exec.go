package fleet

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"time"

	"github.com/archsim/fusleep"
	"github.com/archsim/fusleep/internal/fault"
)

// RetryPolicy schedules bounded backoff for transiently failing cells.
// Delays are exponential with deterministic jitter: the jitter derives
// from (seed, cell key, attempt), so a replayed run backs off exactly the
// same way — no shared RNG, no wall clock — while concurrently retrying
// cells still spread out instead of thundering in lockstep.
type RetryPolicy struct {
	// MaxRetries is how many additional attempts a transient failure gets
	// after the first (0 = fail fast).
	MaxRetries int
	// Base is the first retry's nominal delay (default 10ms); attempt n
	// waits Base·2^(n-1), capped at Max (default 2s).
	Base time.Duration
	Max  time.Duration
	// Seed parameterizes the jitter hash.
	Seed uint64
}

// Delay returns the backoff before the retry that follows failing attempt
// n (1-based): the nominal exponential delay scaled into [50%, 100%) by
// the deterministic jitter.
func (p RetryPolicy) Delay(key string, attempt int) time.Duration {
	d := p.Base
	if d <= 0 {
		d = 10 * time.Millisecond
	}
	ceil := p.Max
	if ceil <= 0 {
		ceil = 2 * time.Second
	}
	for i := 1; i < attempt && d < ceil; i++ {
		d *= 2
	}
	if d > ceil {
		d = ceil
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	x := p.Seed ^ h.Sum64() ^ (uint64(attempt) * 0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	frac := 0.5 + 0.5*float64(x>>11)/float64(1<<53)
	return time.Duration(float64(d) * frac)
}

// SleepCtx is the production sleep used between retry attempts; tests
// inject a recording fake through Executor.Sleep.
func SleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	//fusleepvet:nondet-ok bounded retry backoff; whichever arm wins, the outcome is the same evaluation
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Executor is the role-agnostic cell evaluation path: fault injection,
// panic containment, the optional per-cell deadline, and bounded retry
// with deterministically jittered backoff. In-process and remote fleet
// workers run the exact same Executor, which is what makes a fleet's
// results byte-identical to a standalone run.
type Executor struct {
	// Engine executes the cells. Required.
	Engine *fusleep.Engine
	// Retry schedules backoff for transient failures.
	Retry RetryPolicy
	// CellTimeout bounds each evaluation attempt; a cell that exceeds it
	// fails permanently with a typed timeout CellError (0 = no deadline).
	CellTimeout time.Duration
	// Fault arms the evaluation fault-injection points for chaos tests;
	// nil (production) injects nothing.
	Fault *fault.Injector
	// Sleep waits between retry attempts (and inside injected stalls);
	// tests replace it with a recording fake. Nil means SleepCtx.
	Sleep func(ctx context.Context, d time.Duration) error
	// OnRetry, when set, is called once per retried attempt with the
	// cell key, the attempt that just failed, and the backoff about to be
	// slept (metrics and tracing).
	OnRetry func(key string, attempt int, delay time.Duration)
	// OnAttempt, when set, observes every finished evaluation attempt:
	// the cell key, attempt number, measured duration, and outcome. Fleet
	// workers collect the spans it sees into their reports.
	OnAttempt func(key string, attempt int, seconds float64, err error)
}

// sleep resolves the injectable sleep.
func (e *Executor) sleep(ctx context.Context, d time.Duration) error {
	if e.Sleep != nil {
		return e.Sleep(ctx, d)
	}
	return SleepCtx(ctx, d)
}

// EvalCell runs one cell with full failure containment. Permanent failures
// (validation errors, panics, deadline hits) and job-context cancellation
// return immediately; transient failures retry up to Retry.MaxRetries
// times.
func (e *Executor) EvalCell(ctx context.Context, c fusleep.Cell) (fusleep.CellResult, error) {
	attempts := e.Retry.MaxRetries + 1
	var res fusleep.CellResult
	var err error
	for attempt := 1; attempt <= attempts; attempt++ {
		start := time.Now() //fusleepvet:nondet-ok attempt latency observation; never feeds results
		res, err = e.runOnce(ctx, c, attempt)
		if e.OnAttempt != nil {
			e.OnAttempt(c.Key(), attempt, time.Since(start).Seconds(), err)
		}
		if err == nil || ctx.Err() != nil ||
			!fusleep.IsTransientCellError(err) || attempt == attempts {
			return res, err
		}
		delay := e.Retry.Delay(c.Key(), attempt)
		if e.OnRetry != nil {
			e.OnRetry(c.Key(), attempt, delay)
		}
		if serr := e.sleep(ctx, delay); serr != nil {
			return fusleep.CellResult{}, serr
		}
	}
	return res, err
}

// runOnce is a single contained evaluation attempt.
func (e *Executor) runOnce(ctx context.Context, c fusleep.Cell, attempt int) (res fusleep.CellResult, err error) {
	runCtx := ctx
	if e.CellTimeout > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(ctx, e.CellTimeout)
		defer cancel()
	}
	// A panicking evaluation must not take its worker down with it; it
	// becomes a typed, permanent cell failure.
	defer func() {
		if r := recover(); r != nil {
			res = fusleep.CellResult{}
			err = &fusleep.CellError{
				Key: c.Key(), Attempt: attempt, Panicked: true,
				Err: fmt.Errorf("recovered panic: %v", r),
			}
		}
	}()
	if d := e.Fault.DelayFor(fault.CellSlow); d > 0 {
		if serr := e.sleep(runCtx, d); serr != nil {
			return fusleep.CellResult{}, e.classify(ctx, runCtx, c, attempt, serr)
		}
	}
	if e.Fault.Fire(fault.CellPanic) {
		panic("injected: " + fault.CellPanic)
	}
	// The transient fault is keyed per cell, so how often one cell fails
	// does not depend on which other cells the workers evaluate meanwhile.
	// Production runs have no injector, and skip building the key.
	if e.Fault != nil && e.Fault.FireKey(fault.CellTransient, c.Key()) {
		return fusleep.CellResult{}, &fusleep.CellError{
			Key: c.Key(), Attempt: attempt, Transient: true, Err: fault.ErrTransient,
		}
	}
	res, err = e.Engine.RunCell(runCtx, c)
	if err != nil {
		return fusleep.CellResult{}, e.classify(ctx, runCtx, c, attempt, err)
	}
	return res, nil
}

// classify wraps an attempt's error: when the per-cell deadline expired
// while the job's own context was still live, the cell — not the job —
// timed out, and that is a typed, permanent CellError.
func (e *Executor) classify(jobCtx, runCtx context.Context, c fusleep.Cell, attempt int, err error) error {
	if jobCtx.Err() == nil && errors.Is(runCtx.Err(), context.DeadlineExceeded) {
		return &fusleep.CellError{Key: c.Key(), Attempt: attempt, Timeout: true, Err: err}
	}
	return err
}
