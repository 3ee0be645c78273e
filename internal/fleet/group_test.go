package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/archsim/fusleep"
	"github.com/archsim/fusleep/internal/fault"
	"github.com/archsim/fusleep/internal/telemetry"
)

// randomGroup draws n cells that share one SimKey (gcc+mcf, one FU mix)
// and differ in everything the closed form scores: all six policies,
// several technology points and activity factors, per-class assignments,
// studied classes and class techs.
func randomGroup(rng *rand.Rand, n int) []fusleep.Cell {
	policy := func() fusleep.PolicyConfig {
		switch rng.Intn(6) {
		case 0:
			return fusleep.PolicyConfig{Policy: fusleep.AlwaysActive}
		case 1:
			return fusleep.PolicyConfig{Policy: fusleep.MaxSleep}
		case 2:
			return fusleep.PolicyConfig{Policy: fusleep.NoOverhead}
		case 3:
			return fusleep.PolicyConfig{Policy: fusleep.OracleMinimal}
		case 4:
			return fusleep.PolicyConfig{Policy: fusleep.GradualSleep, Slices: rng.Intn(12)}
		default:
			return fusleep.PolicyConfig{Policy: fusleep.SleepTimeout, Timeout: rng.Intn(30)}
		}
	}
	tech := func() fusleep.Tech {
		t := fusleep.DefaultTech()
		t.P = 0.02 + 0.9*rng.Float64()
		return t
	}
	cells := make([]fusleep.Cell, n)
	for i := range cells {
		c := fusleep.Cell{
			Policy:     policy(),
			Tech:       tech(),
			FUs:        2,
			FPALUs:     2,
			Benchmarks: []string{"gcc", "mcf"},
			Alpha:      0.1 + 0.8*rng.Float64(),
			L2Latency:  12,
			Window:     testWindow,
		}
		if rng.Intn(2) == 0 {
			c.Classes = []fusleep.FUClass{fusleep.FUIntALU, fusleep.FUFPALU}
			c.Assignment = fusleep.Assignment{fusleep.FUFPALU: policy()}
		}
		if rng.Intn(3) == 0 {
			c.ClassTechs = map[fusleep.FUClass]fusleep.Tech{fusleep.FUFPALU: tech()}
		}
		cells[i] = c
	}
	return cells
}

// keysOf lists the cells' keys.
func keysOf(cells []fusleep.Cell) []string {
	keys := make([]string, len(cells))
	for i, c := range cells {
		keys[i] = c.Key()
	}
	return keys
}

// span is one OnAttempt observation.
type span struct {
	key     string
	attempt int
	err     string
}

// recordSpans arms e.OnAttempt to collect every attempt in order.
func recordSpans(e *Executor) func() []span {
	var mu sync.Mutex
	var spans []span
	e.OnAttempt = func(key string, attempt int, _ float64, err error) {
		sp := span{key: key, attempt: attempt}
		if err != nil {
			sp.err = err.Error()
		}
		mu.Lock()
		spans = append(spans, sp)
		mu.Unlock()
	}
	return func() []span {
		mu.Lock()
		defer mu.Unlock()
		return append([]span(nil), spans...)
	}
}

// evalEach is the per-cell reference: EvalCell on each cell in order.
func evalEach(e *Executor, cells []fusleep.Cell) ([]fusleep.CellResult, []error) {
	res := make([]fusleep.CellResult, len(cells))
	errs := make([]error, len(cells))
	for i, c := range cells {
		res[i], errs[i] = e.EvalCell(context.Background(), c)
	}
	return res, errs
}

// sameOutcomes fails unless two evaluations of cells agree cell by cell:
// byte-identical JSON results, identical error texts.
func sameOutcomes(t *testing.T, cells []fusleep.Cell, wantRes, gotRes []fusleep.CellResult, wantErr, gotErr []error) {
	t.Helper()
	for i := range cells {
		we, ge := fmt.Sprint(wantErr[i]), fmt.Sprint(gotErr[i])
		if we != ge {
			t.Fatalf("cell %d (%s): group error %q, per-cell %q", i, cells[i].Policy.Policy, ge, we)
		}
		want, err := json.Marshal(wantRes[i])
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(gotRes[i])
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("cell %d (%s) differs:\n  group:    %s\n  per-cell: %s", i, cells[i].Policy.Policy, got, want)
		}
	}
}

// TestEvalGroupByteIdenticalToEvalCell is the group path's differential
// test: across seeded random groups, one EvalGroup call returns exactly
// the JSON bytes per-cell EvalCell does, cell by cell, with one attempt
// span per cell.
func TestEvalGroupByteIdenticalToEvalCell(t *testing.T) {
	eng := fusleep.NewEngine(fusleep.WithWindow(testWindow))
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cells := randomGroup(rng, 1+rng.Intn(40))
		ref := &Executor{Engine: eng}
		wantRes, wantErr := evalEach(ref, cells)
		e := &Executor{Engine: eng}
		spans := recordSpans(e)
		gotRes, gotErr := e.EvalGroup(context.Background(), cells, keysOf(cells))
		sameOutcomes(t, cells, wantRes, gotRes, wantErr, gotErr)
		got := spans()
		if len(got) != len(cells) {
			t.Fatalf("seed %d: %d attempt spans for %d cells", seed, len(got), len(cells))
		}
		for i, sp := range got {
			if sp.key != cells[i].Key() || sp.attempt != 1 || sp.err != "" {
				t.Fatalf("seed %d: span %d = %+v, want cell %d's clean attempt 1", seed, i, sp, i)
			}
		}
	}
}

// groupVsEach runs cells once per cell through EvalCell and once as a
// group through EvalGroup, each under its own injector armed by arm, and
// requires the same outcomes, the same attempt spans per cell, and the
// same fault-point hits.
func groupVsEach(t *testing.T, cells []fusleep.Cell, retries int, timeout time.Duration,
	sleep func(context.Context, time.Duration) error, arm func(*fault.Injector)) ([]fusleep.CellResult, []error) {
	t.Helper()
	// Simulate the group's machine first, so only an injected stall can
	// trip a per-cell deadline.
	eng := fusleep.NewEngine(fusleep.WithWindow(testWindow))
	if _, err := eng.RunCell(context.Background(), cells[0]); err != nil {
		t.Fatal(err)
	}
	run := func(group bool) ([]fusleep.CellResult, []error, map[string][]span, *fault.Injector) {
		inj := fault.New(7)
		arm(inj)
		e, _, _ := testExecutor(eng, inj, retries, timeout)
		if sleep != nil {
			e.Sleep = sleep
		}
		spans := recordSpans(e)
		var res []fusleep.CellResult
		var errs []error
		if group {
			res, errs = e.EvalGroup(context.Background(), cells, keysOf(cells))
		} else {
			res, errs = evalEach(e, cells)
		}
		byKey := map[string][]span{}
		for _, sp := range spans() {
			byKey[sp.key] = append(byKey[sp.key], sp)
		}
		return res, errs, byKey, inj
	}
	wantRes, wantErr, wantSpans, wantInj := run(false)
	gotRes, gotErr, gotSpans, gotInj := run(true)
	sameOutcomes(t, cells, wantRes, gotRes, wantErr, gotErr)
	for _, k := range keysOf(cells) {
		if fmt.Sprint(gotSpans[k]) != fmt.Sprint(wantSpans[k]) {
			t.Fatalf("cell %s attempts: group %+v, per-cell %+v", k, gotSpans[k], wantSpans[k])
		}
	}
	for _, p := range []string{fault.CellSlow, fault.CellPanic, fault.CellTransient} {
		if g, w := gotInj.Hits(p), wantInj.Hits(p); g != w {
			t.Fatalf("%s: %d hits on the group path, %d per cell", p, g, w)
		}
		if g, w := gotInj.Fired(p), wantInj.Fired(p); g != w {
			t.Fatalf("%s fired %d times on the group path, %d per cell", p, g, w)
		}
	}
	return gotRes, gotErr
}

// cellErr unwraps err as the typed CellError for key.
func cellErr(t *testing.T, err error, key string) *fusleep.CellError {
	t.Helper()
	var ce *fusleep.CellError
	if !errors.As(err, &ce) || ce.Key != key {
		t.Fatalf("error %v is not a CellError for %s", err, key)
	}
	return ce
}

// TestEvalGroupPanicFailsOnlyThatCell injects a panic into the third
// cell's attempt: that cell alone fails, with its own permanent CellError,
// and every other cell of the group evaluates.
func TestEvalGroupPanicFailsOnlyThatCell(t *testing.T) {
	cells := randomGroup(rand.New(rand.NewSource(11)), 6)
	_, errs := groupVsEach(t, cells, 2, 0, nil, func(inj *fault.Injector) {
		inj.Set(fault.CellPanic, fault.Spec{After: 2, Times: 1})
	})
	for i, err := range errs {
		if i != 2 {
			if err != nil {
				t.Fatalf("cell %d failed: %v", i, err)
			}
			continue
		}
		if ce := cellErr(t, err, cells[i].Key()); !ce.Panicked || ce.Attempt != 1 || ce.Transient {
			t.Fatalf("cell 2 error = %+v, want a permanent panic at attempt 1", ce)
		}
	}
}

// TestEvalGroupTransientRetriesOnlyThatCell fails some cells' attempts
// transiently (a keyed coin, at most twice per cell): exactly those cells
// retry, with their attempts numbered as EvalCell numbers them, and the
// whole group still succeeds.
func TestEvalGroupTransientRetriesOnlyThatCell(t *testing.T) {
	cells := randomGroup(rand.New(rand.NewSource(12)), 10)
	fs := &fakeSleep{}
	_, errs := groupVsEach(t, cells, 2, 0, fs.sleep, func(inj *fault.Injector) {
		inj.Set(fault.CellTransient, fault.Spec{Times: 2, Prob: 0.5})
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("cell %d failed after retries: %v", i, err)
		}
	}
	if len(fs.recorded()) == 0 {
		t.Fatal("no cell retried: the armed transient faults never fired")
	}
}

// TestEvalGroupTransientExhaustedIsThatCellsError gives one cell more
// transient failures than it has retries: it alone fails, with the typed
// transient CellError of its last attempt.
func TestEvalGroupTransientExhaustedIsThatCellsError(t *testing.T) {
	cells := randomGroup(rand.New(rand.NewSource(13)), 5)
	fs := &fakeSleep{}
	_, errs := groupVsEach(t, cells, 1, 0, fs.sleep, func(inj *fault.Injector) {
		inj.Set(fault.CellTransient, fault.Spec{Prob: 0.3})
	})
	failed := 0
	for i, err := range errs {
		if err == nil {
			continue
		}
		failed++
		if ce := cellErr(t, err, cells[i].Key()); !ce.Transient || ce.Attempt != 2 {
			t.Fatalf("cell %d error = %+v, want transient at attempt 2", i, ce)
		}
	}
	if failed == 0 || failed == len(cells) {
		t.Fatalf("%d of %d cells exhausted their retries; the seed should fail some, not all", failed, len(cells))
	}
}

// TestEvalGroupDeadlineFailsOnlyThatCell stalls one cell past the
// per-cell deadline: it alone fails with a typed timeout CellError.
func TestEvalGroupDeadlineFailsOnlyThatCell(t *testing.T) {
	cells := randomGroup(rand.New(rand.NewSource(14)), 4)
	_, errs := groupVsEach(t, cells, 0, 20*time.Millisecond, SleepCtx, func(inj *fault.Injector) {
		inj.Set(fault.CellSlow, fault.Spec{After: 1, Times: 1, Delay: time.Minute})
	})
	for i, err := range errs {
		if i != 1 {
			if err != nil {
				t.Fatalf("cell %d failed: %v", i, err)
			}
			continue
		}
		if ce := cellErr(t, err, cells[i].Key()); !ce.Timeout || ce.Attempt != 1 {
			t.Fatalf("cell 1 error = %+v, want a timeout at attempt 1", ce)
		}
	}
}

// TestEvalGroupFallbackOnGroupError puts one invalid cell in a group: the
// group call fails on it, the group re-runs cell by cell, and only the
// invalid cell fails — with the error EvalCell gives it, and one attempt
// span per cell.
func TestEvalGroupFallbackOnGroupError(t *testing.T) {
	cells := randomGroup(rand.New(rand.NewSource(15)), 5)
	cells[3].Alpha = 1.5
	_, errs := groupVsEach(t, cells, 2, 0, nil, func(inj *fault.Injector) {
		// Armed but never firing: the points count their hits, which the
		// per-cell re-run must not consult a second time.
		for _, p := range []string{fault.CellSlow, fault.CellPanic, fault.CellTransient} {
			inj.Set(p, fault.Spec{After: 1 << 30})
		}
	})
	for i, err := range errs {
		if (err != nil) != (i == 3) {
			t.Fatalf("cell %d error = %v; only the invalid cell 3 should fail", i, err)
		}
	}
}

// TestEvalGroupFallbackOnGroupPanic makes the group call itself panic (an
// executor without an engine): the panic is contained, and each cell
// re-runs alone and fails with its own typed panic CellError.
func TestEvalGroupFallbackOnGroupPanic(t *testing.T) {
	cells := randomGroup(rand.New(rand.NewSource(16)), 3)
	e := &Executor{}
	spans := recordSpans(e)
	_, errs := e.EvalGroup(context.Background(), cells, keysOf(cells))
	for i, err := range errs {
		if ce := cellErr(t, err, cells[i].Key()); !ce.Panicked || ce.Attempt != 1 {
			t.Fatalf("cell %d error = %+v, want its own panic at attempt 1", i, ce)
		}
	}
	if got := spans(); len(got) != len(cells) {
		t.Fatalf("%d attempt spans for %d cells, want one each", len(got), len(cells))
	}
}

// TestGroupTraceOneEvaluatedPerAttempt runs a group through a coordinator
// and an in-process worker with transient faults and retries: the job
// trace holds exactly one evaluated event per attempt per cell, and one
// leased and one reported event per cell.
func TestGroupTraceOneEvaluatedPerAttempt(t *testing.T) {
	rec := telemetry.NewRecorder(4, 1024)
	c := NewCoordinator(Config{Trace: rec})
	cells := randomGroup(rand.New(rand.NewSource(17)), 12)
	rec.Start("job", len(cells))
	inj := fault.New(3)
	inj.Set(fault.CellTransient, fault.Spec{Times: 2, Prob: 0.5})
	eng := fusleep.NewEngine(fusleep.WithWindow(testWindow))
	stop := c.StartLocal(1, Executor{
		Engine: eng, Fault: inj,
		Retry: RetryPolicy{MaxRetries: 2, Base: time.Microsecond},
	}, nil)
	defer stop()
	var wg sync.WaitGroup
	for _, cell := range cells {
		wg.Add(1)
		err := c.Dispatch(Task{Ctx: context.Background(), Cell: cell, TraceID: "job",
			Done: func(_ int, _ string, _ []byte, err error) {
				if err != nil {
					t.Errorf("cell failed: %v", err)
				}
				wg.Done()
			}})
		if err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	events, dropped, _ := rec.Snapshot("job")
	if dropped != 0 {
		t.Fatalf("trace dropped %d events", dropped)
	}
	type attempt struct {
		key string
		n   int
	}
	evaluated := map[attempt]int{}
	stages := map[string]map[string]int{}
	for _, ev := range events {
		if stages[ev.Key] == nil {
			stages[ev.Key] = map[string]int{}
		}
		stages[ev.Key][ev.Stage]++
		if ev.Stage == telemetry.StageEvaluated {
			evaluated[attempt{ev.Key, ev.Attempt}]++
		}
	}
	retried := false
	for _, cell := range cells {
		k := cell.Key()
		n := stages[k][telemetry.StageEvaluated]
		if stages[k][telemetry.StageLeased] != 1 || stages[k][telemetry.StageReported] != 1 || n < 1 {
			t.Fatalf("cell %s stages = %v", k, stages[k])
		}
		for a := 1; a <= n; a++ {
			if evaluated[attempt{k, a}] != 1 {
				t.Fatalf("cell %s attempt %d has %d evaluated events, want 1", k, a, evaluated[attempt{k, a}])
			}
		}
		retried = retried || n > 1
	}
	if !retried {
		t.Fatal("no cell retried: the armed transient faults never fired")
	}
}

// warmGroupAllocsPerCell is TestWarmGroupAllocs' measured bound; see there.
const warmGroupAllocsPerCell = 7

// TestWarmGroupAllocs bounds the in-process cost of one warm leased SimKey
// group, per cell, from dispatch to settlement: Dispatch of each cell
// with its key precomputed (as the server feeds it), one Fetch of the
// group under a cancelable job context, the worker's group evaluation,
// and one Report that runs the result hook and every task's done. The
// engine already holds the group's simulation. It measured 6.29
// allocations per cell with Go 1.24 for a 24-cell group mixing all six
// policies, per-class assignments and class techs: about 2 in the
// closed-form scoring (the per-class results and the studied-class
// list), 2 in Dispatch (the assignment, which holds its first task, and
// the routing SimKey, which this test leaves to Dispatch), and the rest
// in the group's shared slices. Holding the per-class accumulators in an
// array, sizing the per-class results once, keeping EvalCells' grouping
// in stack buffers and holding each attempt span inline in the worker's
// span map took it from 9.12; sorting class lists with slices.Sort
// instead of sort.Slice and holding the first task inline took it there
// from 12.04. The same path evaluating and journaling one cell at a time,
// with a lease context per cell, measured 36.2. Go 1.24 with
// GOEXPERIMENT=noswissmap, which lays maps out as Go 1.23 does, measured
// 6.29-6.33, so the bound leaves about 0.7 allocations per cell of
// headroom on both releases CI tests on. A change that adds allocations
// to this path must re-measure the bound and say why.
func TestWarmGroupAllocs(t *testing.T) {
	eng := fusleep.NewEngine(fusleep.WithWindow(testWindow))
	cells := randomGroup(rand.New(rand.NewSource(18)), 24)
	keys := keysOf(cells)
	c := NewCoordinator(Config{})
	settled := 0
	c.SetOnResult(func(rs []Settled) { settled += len(rs) })
	id, _ := c.register("alloc", true)
	w := &Worker{Name: "alloc", Exec: &Executor{Engine: eng}, tr: loopback{c}}
	w.start()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	failed := 0
	done := func(_ int, _ string, _ []byte, err error) {
		if err != nil {
			failed++
		}
	}
	group := func() {
		for i := range cells {
			if err := c.Dispatch(Task{Ctx: ctx, Cell: cells[i], Key: keys[i], Done: done}); err != nil {
				t.Fatal(err)
			}
		}
		leased, err := c.Fetch(ctx, id, 1, 0)
		if err != nil || len(leased) != len(cells) {
			t.Fatalf("fetched %d of %d cells: %v", len(leased), len(cells), err)
		}
		if _, err := c.Report(id, w.evaluate(ctx, leased)); err != nil {
			t.Fatal(err)
		}
	}
	group() // simulates the machine
	settled = 0
	perCell := testing.AllocsPerRun(20, group) / float64(len(cells))
	if failed != 0 || settled != 21*len(cells) {
		t.Fatalf("%d cells failed, %d journaled; want 0 and %d", failed, settled, 21*len(cells))
	}
	t.Logf("%.2f allocs per cell", perCell)
	if perCell > warmGroupAllocsPerCell {
		t.Errorf("a warm leased group made %.2f allocs per cell, want <= %d", perCell, warmGroupAllocsPerCell)
	}
}

// TestEvalGroupLateResultsFallBack gives the group call a deadline no call
// can meet. A warm engine scores the group anyway, without looking at the
// context, but results that arrive after the deadline count as a failed
// group call: each cell is re-run alone, as EvalCell would run it, and
// succeeds there the same way (the engine's cache stats show the re-runs).
func TestEvalGroupLateResultsFallBack(t *testing.T) {
	eng := fusleep.NewEngine(fusleep.WithWindow(testWindow))
	cells := randomGroup(rand.New(rand.NewSource(19)), 4)
	if _, err := eng.RunCell(context.Background(), cells[0]); err != nil {
		t.Fatal(err)
	}
	before := eng.Stats()
	e := &Executor{Engine: eng, CellTimeout: time.Nanosecond}
	spans := recordSpans(e)
	_, errs := e.EvalGroup(context.Background(), cells, keysOf(cells))
	for i, err := range errs {
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
	}
	after := eng.Stats()
	programs := uint64(len(cells[0].Benchmarks))
	if hits := after.CacheHits - before.CacheHits; hits != programs*uint64(1+len(cells)) {
		t.Fatalf("%d cache hits, want %d: one group call and one re-run per cell", hits, programs*uint64(1+len(cells)))
	}
	if got := spans(); len(got) != len(cells) {
		t.Fatalf("%d attempt spans for %d cells, want one each", len(got), len(cells))
	}
}

// TestReportJournalsGroupBeforeAcknowledging reports a whole group: the
// result hook runs once, with every cell in report order, before any
// waiting task hears of any of them.
func TestReportJournalsGroupBeforeAcknowledging(t *testing.T) {
	c := NewCoordinator(Config{Now: newFakeClock().now})
	id, _ := c.Register("w")
	group := groupedCells(t, 1)[0]
	var calls [][]string
	c.SetOnResult(func(rs []Settled) {
		var keys []string
		for _, r := range rs {
			keys = append(keys, r.Key)
		}
		calls = append(calls, keys)
	})
	for _, cell := range group {
		err := c.Dispatch(Task{Ctx: context.Background(), Cell: cell, Key: cell.Key(),
			Done: func(int, string, []byte, error) {
				if len(calls) != 1 || len(calls[0]) != len(group) {
					t.Errorf("a task was acknowledged after %d hook calls journaling %v; want the whole group first", len(calls), calls)
				}
			}})
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := reportOK(t, c, id, fetchAll(t, c, id)); n != len(group) {
		t.Fatalf("accepted %d of %d", n, len(group))
	}
	if len(calls) != 1 || fmt.Sprint(calls[0]) != fmt.Sprint(keysOf(group)) {
		t.Fatalf("hook calls = %v, want one with the group %v", calls, keysOf(group))
	}
}

// TestLocalGroupLeaseLifetime pins the in-process group lease: every cell
// of a fetched group shares one context, which outlives a report that
// settles only part of the group, ends once the last cell settles, and
// is aborted early only when every task waiting on an unsettled cell is
// canceled.
func TestLocalGroupLeaseLifetime(t *testing.T) {
	group := groupedCells(t, 1)[0]
	// lease dispatches cell i under ctxFor(i) to a local member and fetches
	// the group.
	lease := func(t *testing.T, ctxFor func(i int) context.Context) (*Coordinator, string, []LeaseCell) {
		t.Helper()
		c := NewCoordinator(Config{Now: newFakeClock().now})
		id, _ := c.register("local", true)
		for i, cell := range group {
			dispatchTask(t, c, ctxFor(i), cell)
		}
		leased := fetchAll(t, c, id)
		if len(leased) != len(group) || leased[0].ctx == nil {
			t.Fatalf("leased %d cells (ctx %v), want the whole group under a lease context", len(leased), leased[0].ctx)
		}
		for _, lc := range leased[1:] {
			if lc.ctx != leased[0].ctx {
				t.Fatal("a group's cells hold different lease contexts")
			}
		}
		return c, id, leased
	}
	waitDone := func(ctx context.Context) bool {
		select {
		case <-ctx.Done():
			return true
		case <-time.After(5 * time.Second):
			return false
		}
	}

	t.Run("settle", func(t *testing.T) {
		c, id, leased := lease(t, func(int) context.Context { return context.Background() })
		reportOK(t, c, id, leased[:1])
		if leased[0].ctx.Err() != nil {
			t.Fatal("settling one cell ended the lease the rest of the group runs under")
		}
		reportOK(t, c, id, leased[1:])
		if leased[0].ctx.Err() == nil {
			t.Fatal("the lease outlived its last cell")
		}
	})
	t.Run("abort", func(t *testing.T) {
		job1, cancel1 := context.WithCancel(context.Background())
		job2, cancel2 := context.WithCancel(context.Background())
		defer cancel2()
		_, _, leased := lease(t, func(i int) context.Context {
			if i%2 == 0 {
				return job1
			}
			return job2
		})
		cancel1()
		select {
		case <-leased[0].ctx.Done():
			t.Fatal("the lease aborted while a task on its group was live")
		case <-time.After(20 * time.Millisecond):
		}
		cancel2()
		if !waitDone(leased[0].ctx) {
			t.Fatal("the lease outlived every task waiting on its group")
		}
	})
	t.Run("abort after a settle", func(t *testing.T) {
		// A settled cell's live task no longer holds the lease.
		job, cancel := context.WithCancel(context.Background())
		c, id, leased := lease(t, func(i int) context.Context {
			if i == 0 {
				return context.Background()
			}
			return job
		})
		reportOK(t, c, id, leased[:1])
		cancel()
		if !waitDone(leased[0].ctx) {
			t.Fatal("a settled cell's task kept the lease of the canceled rest alive")
		}
	})
}
