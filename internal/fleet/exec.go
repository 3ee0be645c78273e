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
	// workers collect the spans it sees into their reports. An attempt
	// run inside an EvalGroup group call is timed as an even share of
	// that call.
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
	return e.attempts(ctx, c, c.Key(), 1, faultsThenEngine)
}

// EvalGroup evaluates cells that share one SimKey, in lease order, with
// one Engine.RunCells call: the first cell's simulation serves the rest,
// which score closed-form. keys[i] is cells[i].Key(). The outcome of every
// cell is the one EvalCell would give it, with the same attempt numbers,
// attempt spans and fault-point hits:
//
//   - Each cell's first attempt consults the fault points in lease order,
//     as EvalCell would. A cell one of them touches (a stall, a panic, a
//     transient failure) finishes that attempt, and any retries, on its
//     own; the others leave their engine run to the group call.
//   - The group call runs under one per-cell deadline. If it fails (an
//     error, a panic, or the deadline), each of its cells is re-run on its
//     own from attempt 1, whose fault points were already consulted, so
//     the panic, timeout or error lands on the cell that caused it as its
//     own typed CellError.
//   - After a successful group call, each of its cells reports attempt 1
//     with an even share of the call's duration as its span.
func (e *Executor) EvalGroup(ctx context.Context, cells []fusleep.Cell, keys []string) ([]fusleep.CellResult, []error) {
	res := make([]fusleep.CellResult, len(cells))
	errs := make([]error, len(cells))
	batch := make([]int, 0, len(cells))
	for i := range cells {
		// Without an injector no fault point can touch a cell, and the
		// group call runs them all.
		if e.Fault != nil {
			start := time.Now() //fusleepvet:nondet-ok attempt latency observation; never feeds results
			r, err := e.runOnce(ctx, cells[i], keys[i], 1, faultsThenGroup)
			if !errors.Is(err, errGroupRun) {
				res[i], errs[i] = e.settle(ctx, cells[i], keys[i], 1, start, r, err)
				continue
			}
		}
		batch = append(batch, i)
	}
	if len(batch) == 0 {
		return res, errs
	}
	group := cells
	if len(batch) < len(cells) {
		group = make([]fusleep.Cell, len(batch))
		for j, i := range batch {
			group[j] = cells[i]
		}
	}
	start := time.Now() //fusleepvet:nondet-ok attempt latency observation; never feeds results
	out, err := e.runGroup(ctx, group)
	if err != nil {
		for _, i := range batch {
			res[i], errs[i] = e.attempts(ctx, cells[i], keys[i], 1, engineOnly)
		}
		return res, errs
	}
	share := time.Since(start).Seconds() / float64(len(batch))
	for j, i := range batch {
		res[i] = out[j]
		if e.OnAttempt != nil {
			e.OnAttempt(keys[i], 1, share, nil)
		}
	}
	return res, errs
}

// runGroup is the group call of EvalGroup: one contained RunCells under
// one per-cell deadline. Results that arrive after that deadline count as
// a failure, because a cell run on its own might have timed out.
func (e *Executor) runGroup(ctx context.Context, cells []fusleep.Cell) (out []fusleep.CellResult, err error) {
	runCtx := ctx
	if e.CellTimeout > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(ctx, e.CellTimeout)
		defer cancel()
	}
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, fmt.Errorf("recovered panic: %v", r)
		}
	}()
	out, err = e.Engine.RunCells(runCtx, cells)
	if err == nil && ctx.Err() == nil {
		err = runCtx.Err()
	}
	return out, err
}

// attempts runs c's attempts from attempt from on, the first of them in
// mode first and every later one in full, until one succeeds, fails
// permanently, or the retries run out.
func (e *Executor) attempts(ctx context.Context, c fusleep.Cell, key string, from int, first attemptMode) (fusleep.CellResult, error) {
	start := time.Now() //fusleepvet:nondet-ok attempt latency observation; never feeds results
	res, err := e.runOnce(ctx, c, key, from, first)
	return e.settle(ctx, c, key, from, start, res, err)
}

// settle reports a finished attempt and, when it failed transiently with
// retries left, backs off and runs the remaining attempts in full.
func (e *Executor) settle(ctx context.Context, c fusleep.Cell, key string, attempt int, start time.Time, res fusleep.CellResult, err error) (fusleep.CellResult, error) {
	e.observe(key, attempt, start, err)
	if err == nil || ctx.Err() != nil || !fusleep.IsTransientCellError(err) || attempt >= e.Retry.MaxRetries+1 {
		return res, err
	}
	if serr := e.backoff(ctx, key, attempt); serr != nil {
		return fusleep.CellResult{}, serr
	}
	return e.attempts(ctx, c, key, attempt+1, faultsThenEngine)
}

// observe reports one finished attempt to OnAttempt.
func (e *Executor) observe(key string, attempt int, start time.Time, err error) {
	if e.OnAttempt != nil {
		e.OnAttempt(key, attempt, time.Since(start).Seconds(), err)
	}
}

// backoff sleeps the jittered delay before the attempt after attempt.
func (e *Executor) backoff(ctx context.Context, key string, attempt int) error {
	delay := e.Retry.Delay(key, attempt)
	if e.OnRetry != nil {
		e.OnRetry(key, attempt, delay)
	}
	return e.sleep(ctx, delay)
}

// attemptMode selects which parts of an attempt runOnce runs.
type attemptMode uint8

const (
	// faultsThenEngine is a whole attempt: the fault points, then the
	// engine.
	faultsThenEngine attemptMode = iota
	// faultsThenGroup consults the fault points and, when none touched the
	// cell, returns errGroupRun to leave its engine run to the group call.
	faultsThenGroup
	// engineOnly runs the engine alone: the group fallback's first
	// attempt, whose fault points the group already consulted.
	engineOnly
)

// errGroupRun is runOnce's answer in faultsThenGroup mode for a cell no
// fault point touched.
var errGroupRun = errors.New("fleet: engine run left to the group call")

// runOnce is a single contained evaluation attempt.
func (e *Executor) runOnce(ctx context.Context, c fusleep.Cell, key string, attempt int, mode attemptMode) (res fusleep.CellResult, err error) {
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
				Key: key, Attempt: attempt, Panicked: true,
				Err: fmt.Errorf("recovered panic: %v", r),
			}
		}
	}()
	if mode != engineOnly {
		d := e.Fault.DelayFor(fault.CellSlow)
		if d > 0 {
			if serr := e.sleep(runCtx, d); serr != nil {
				return fusleep.CellResult{}, e.classify(ctx, runCtx, key, attempt, serr)
			}
		}
		if e.Fault.Fire(fault.CellPanic) {
			panic("injected: " + fault.CellPanic)
		}
		// The transient fault is keyed per cell, so how often one cell
		// fails does not depend on which other cells the workers evaluate
		// meanwhile. Production runs have no injector.
		if e.Fault != nil && e.Fault.FireKey(fault.CellTransient, key) {
			return fusleep.CellResult{}, &fusleep.CellError{
				Key: key, Attempt: attempt, Transient: true, Err: fault.ErrTransient,
			}
		}
		if mode == faultsThenGroup && d == 0 {
			return fusleep.CellResult{}, errGroupRun
		}
	}
	res, err = e.Engine.RunCell(runCtx, c)
	if err != nil {
		return fusleep.CellResult{}, e.classify(ctx, runCtx, key, attempt, err)
	}
	return res, nil
}

// classify wraps an attempt's error: when the per-cell deadline expired
// while the job's own context was still live, the cell — not the job —
// timed out, and that is a typed, permanent CellError.
func (e *Executor) classify(jobCtx, runCtx context.Context, key string, attempt int, err error) error {
	if jobCtx.Err() == nil && errors.Is(runCtx.Err(), context.DeadlineExceeded) {
		return &fusleep.CellError{Key: key, Attempt: attempt, Timeout: true, Err: err}
	}
	return err
}
