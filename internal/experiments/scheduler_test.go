package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/archsim/fusleep/internal/core"
	"github.com/archsim/fusleep/internal/pipeline"
	"github.com/archsim/fusleep/internal/workload"
)

// scripted returns a runner whose simulations are replaced by fn, so a
// test decides how each request fails and when it finishes.
func scripted(parallel int, fn func(ctx context.Context, spec workload.Spec, key runKey) (pipeline.Result, error)) *Runner {
	r := NewRunner(Options{Window: 1_000, Parallel: parallel})
	r.run = fn
	return r
}

// fakeRun is a finished run whose cycle count names its request.
func fakeRun(spec workload.Spec, key runKey) pipeline.Result {
	return pipeline.Result{Cycles: uint64(1000*key.mix.IntALUs + key.l2), Committed: uint64(len(spec.Name))}
}

// errNotCanceled is a scripted run's error when nothing canceled it.
var errNotCanceled = errors.New("run was never canceled")

// untilCanceled is a scripted run that lasts until its context ends, or
// fails after a timeout, so a batch that never cancels it fails instead
// of hanging.
func untilCanceled(ctx context.Context, spec workload.Spec) (pipeline.Result, error) {
	//fusleepvet:nondet-ok test timeout: the timeout arm only fails the test
	select {
	case <-ctx.Done():
		return pipeline.Result{}, fmt.Errorf("%s: %w", spec.Name, ctx.Err())
	case <-time.After(5 * time.Second):
		return pipeline.Result{}, errNotCanceled
	}
}

// waitGoroutines waits for the goroutine count to fall back to at most
// want, and fails the test if it does not within two seconds.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running, want <= %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDefaultParallelismIsGOMAXPROCS pins the runner's default bound to
// the core count, and an explicit bound to itself.
func TestDefaultParallelismIsGOMAXPROCS(t *testing.T) {
	if got, want := cap(NewRunner(Options{}).sem), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("default bound %d, want GOMAXPROCS = %d", got, want)
	}
	prev := runtime.GOMAXPROCS(3)
	defer runtime.GOMAXPROCS(prev)
	if got := cap(NewRunner(Options{}).sem); got != 3 {
		t.Errorf("default bound %d at GOMAXPROCS 3, want 3", got)
	}
	if got := cap(NewRunner(Options{Parallel: 5}).sem); got != 5 {
		t.Errorf("explicit bound %d, want 5", got)
	}
}

// TestSimBatchBoundsInFlight submits 36 misses at once and checks that no
// more than the bound ever simulate together, that every request ran
// exactly once, and that results come back in request order.
func TestSimBatchBoundsInFlight(t *testing.T) {
	for _, parallel := range []int{1, 2, 0} {
		var inFlight, peak atomic.Int64
		r := scripted(parallel, func(_ context.Context, spec workload.Spec, key runKey) (pipeline.Result, error) {
			n := inFlight.Add(1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			time.Sleep(time.Millisecond)
			inFlight.Add(-1)
			return fakeRun(spec, key), nil
		})
		var reqs []SimRequest
		for fus := 1; fus <= 4; fus++ {
			for _, name := range workload.Names() {
				reqs = append(reqs, SimRequest{Bench: name, Mix: FUMix{IntALUs: fus}, L2: 12})
			}
		}
		res, err := r.SimBatch(context.Background(), reqs)
		if err != nil {
			t.Fatal(err)
		}
		bound := cap(r.sem)
		if p := peak.Load(); p > int64(bound) {
			t.Errorf("parallel %d: %d simulations in flight, bound %d", parallel, p, bound)
		}
		if n := r.Stats().Simulations; n != uint64(len(reqs)) {
			t.Errorf("parallel %d: %d simulations for %d requests", parallel, n, len(reqs))
		}
		for i, q := range reqs {
			if want := uint64(1000*q.Mix.IntALUs + 12); res[i].Cycles != want || res[i].Committed != uint64(len(q.Bench)) {
				t.Fatalf("parallel %d: result %d is %d cycles, want %d (request order)", parallel, i, res[i].Cycles, want)
			}
		}
	}
}

// barrier returns a run that finishes only once n runs are in flight at
// the same time, or fails after a timeout: a caller that submits its
// batch in parts never reaches n.
func barrier(n int64) func(context.Context, workload.Spec, runKey) (pipeline.Result, error) {
	var arrived atomic.Int64
	all := make(chan struct{})
	return func(_ context.Context, spec workload.Spec, key runKey) (pipeline.Result, error) {
		if arrived.Add(1) == n {
			close(all)
		}
		//fusleepvet:nondet-ok test barrier: the timeout arm only fails the test
		select {
		case <-all:
			return fakeRun(spec, key), nil
		case <-time.After(5 * time.Second):
			return pipeline.Result{}, fmt.Errorf("only %d of %d runs in flight together", arrived.Load(), n)
		}
	}
}

// TestBatchPathsSubmitWholeBatch checks that EvalCells requests every
// SimKey group's suite, and Table3 every unit count's, before waiting on
// any of them: the runs only finish once all of them are in flight.
func TestBatchPathsSubmitWholeBatch(t *testing.T) {
	cells := []Cell{
		{Tech: core.DefaultTech(), FUs: 1, Benchmarks: []string{"gcc", "mcf"}, Alpha: 0.5, L2Latency: 12, Window: 1_000},
		{Tech: core.DefaultTech(), FUs: 2, Benchmarks: []string{"gcc", "mcf"}, Alpha: 0.5, L2Latency: 12, Window: 1_000},
		{Tech: core.DefaultTech(), FUs: 3, Benchmarks: []string{"gcc", "mcf"}, Alpha: 0.5, L2Latency: 32, Window: 1_000},
	}
	r := scripted(6, barrier(6))
	// The fake runs carry no unit profiles, so scoring fails after the
	// simulations; reaching it means the batch was whole.
	if _, err := EvalCells(context.Background(), r, cells); err == nil || !strings.Contains(err.Error(), "no intalu units") {
		t.Fatalf("EvalCells: %v, want the scoring error after all 6 runs", err)
	}
	n := 4 * len(workload.Benchmarks)
	if _, err := Table3(context.Background(), scripted(n, barrier(int64(n)))); err != nil {
		t.Fatalf("Table3: %v", err)
	}
}

// TestEvalCellsErrorOrder checks that a batch reports the error a
// group-by-group walk would: the first group, in first-appearance order,
// that failed for a reason other than the batch canceling it.
func TestEvalCellsErrorOrder(t *testing.T) {
	cell := func(fus int) Cell {
		return Cell{Tech: core.DefaultTech(), FUs: fus, Benchmarks: []string{"gcc", "mcf"}, Alpha: 0.5, L2Latency: 12, Window: 1_000}
	}
	// Group fus=2 appears first, fus=3 second; a third cell rejoins the
	// first group after the machine changed.
	cells := []Cell{cell(2), cell(3), cell(2)}
	errEarly, errLate := errors.New("early group failed"), errors.New("late group failed")

	t.Run("earlier failure wins", func(t *testing.T) {
		for range 20 {
			earlyStarted, lateFailed := make(chan struct{}), make(chan struct{})
			r := scripted(4, func(_ context.Context, spec workload.Spec, key runKey) (pipeline.Result, error) {
				switch {
				case key.mix.IntALUs == 3 && spec.Name == "mcf":
					<-earlyStarted
					close(lateFailed)
					return pipeline.Result{}, errLate
				case key.mix.IntALUs == 2 && spec.Name == "gcc":
					// Start before the later group fails, so the batch's
					// cancellation cannot stop this run, and fail after it.
					close(earlyStarted)
					//fusleepvet:nondet-ok test timeout: a walk that waits for this group first fails it either way
					select {
					case <-lateFailed:
					case <-time.After(5 * time.Second):
					}
					return pipeline.Result{}, errEarly
				}
				return fakeRun(spec, key), nil
			})
			_, err := EvalCells(context.Background(), r, cells)
			if !errors.Is(err, errEarly) || errors.Is(err, errLate) || !strings.Contains(err.Error(), "cell fus=2:") {
				t.Fatalf("EvalCells: %v, want the earlier group's error alone", err)
			}
		}
	})

	t.Run("canceled group is no failure", func(t *testing.T) {
		r := scripted(4, func(ctx context.Context, spec workload.Spec, key runKey) (pipeline.Result, error) {
			if key.mix.IntALUs == 3 && spec.Name == "gcc" {
				return pipeline.Result{}, errLate
			}
			return untilCanceled(ctx, spec)
		})
		_, err := EvalCells(context.Background(), r, cells)
		if !errors.Is(err, errLate) || errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "cell fus=3:") {
			t.Fatalf("EvalCells: %v, want the later group's error, not the earlier group's cancellation", err)
		}
	})

	t.Run("caller's cancellation", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		r := scripted(4, func(ctx context.Context, spec workload.Spec, _ runKey) (pipeline.Result, error) {
			return untilCanceled(ctx, spec)
		})
		time.AfterFunc(10*time.Millisecond, cancel)
		_, err := EvalCells(ctx, r, cells)
		if !errors.Is(err, context.Canceled) || !strings.HasPrefix(err.Error(), "cell fus=2:") {
			t.Fatalf("EvalCells: %v, want the first group's context error", err)
		}
		if n := strings.Count(err.Error(), "context canceled"); n != 1 {
			t.Errorf("EvalCells reported %d context errors, want 1: %v", n, err)
		}
	})
}

// TestCanceledBatchLeavesNoGoroutine cancels batches two ways, by the
// caller and by a failing request, and checks that each returns promptly
// with nothing left running and nothing cached.
func TestCanceledBatchLeavesNoGoroutine(t *testing.T) {
	errBoom := errors.New("boom")
	block := func(ctx context.Context, spec workload.Spec, key runKey) (pipeline.Result, error) {
		if key.mix.IntALUs == 4 {
			return pipeline.Result{}, errBoom
		}
		return untilCanceled(ctx, spec)
	}
	suite := func(fus int) []SimRequest {
		var reqs []SimRequest
		for _, name := range workload.Names() {
			reqs = append(reqs, SimRequest{Bench: name, Mix: FUMix{IntALUs: fus}, L2: 12})
		}
		return reqs
	}
	before := runtime.NumGoroutine()

	// The caller cancels while one run holds the only slot and the rest
	// wait for it.
	r := scripted(1, block)
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(10*time.Millisecond, cancel)
	if _, err := r.SimBatch(ctx, suite(2)); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled batch returned %v", err)
	}
	waitGoroutines(t, before)

	// One failing request cancels the eight others in flight.
	r = scripted(len(workload.Benchmarks)+1, block)
	reqs := append(suite(2), SimRequest{Bench: "gcc", Mix: FUMix{IntALUs: 4}, L2: 12})
	if _, err := r.SimBatch(context.Background(), reqs); !errors.Is(err, errBoom) || errors.Is(err, context.Canceled) {
		t.Fatalf("failing batch returned %v, want the failure alone", err)
	}
	waitGoroutines(t, before)
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.runs) != 0 || len(r.pending) != 0 {
		t.Errorf("failed batch left %d cached and %d pending runs", len(r.runs), len(r.pending))
	}
}
