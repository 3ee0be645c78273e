package server

import (
	"bytes"
	"context"
	"net/http"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"github.com/archsim/fusleep"
	"github.com/archsim/fusleep/internal/fault"
	"github.com/archsim/fusleep/internal/store"
	"github.com/archsim/fusleep/internal/telemetry"
)

// workerLoops counts the goroutines inside a fleet worker's serving loop,
// which a worker goroutine returns from before it signals its exit.
func workerLoops() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return bytes.Count(buf[:n], []byte("fleet.(*Worker).loop("))
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestStandaloneLifecycle pins the standalone daemon's shape as a
// coordinator with in-process workers: Config.Shards registered workers,
// no fleet wire endpoints, exactly one evaluated trace event per attempt
// per cell under retries, and a Drain that returns only after every
// in-process worker goroutine has exited.
func TestStandaloneLifecycle(t *testing.T) {
	before := workerLoops()
	inj := fault.New(3)
	// Each cell's attempts fail transiently on a seeded coin, at most
	// twice per cell, so some cells retry once or twice and none exhausts
	// MaxRetries: 2, in whatever order the workers run them.
	inj.Set(fault.CellTransient, fault.Spec{Times: 2, Prob: 0.5})
	eng := fusleep.NewEngine(fusleep.WithWindow(testWindow))
	s, ts := newTestServer(t, Config{Engine: eng, Shards: 3, Fault: inj, MaxRetries: 2, RetryBase: time.Millisecond})

	if v := metricValue(t, scrapeMetrics(t, ts.URL), "fusleepd_fleet_workers"); v != 3 {
		t.Fatalf("fusleepd_fleet_workers = %v, want 3 (Config.Shards)", v)
	}
	resp, err := http.Post(ts.URL+"/v1/fleet/register", "application/json", bytes.NewReader([]byte(`{"v":1}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /v1/fleet/register on a standalone daemon = %s, want 404", resp.Status)
	}

	sub := decodeSubmit(t, postSweep(t, ts.URL, chaosGrid))
	if _, end := rawCellResults(t, ts.URL, sub.ID); end.State != StateDone {
		t.Fatalf("sweep state = %s", end.State)
	}
	if s.retries.Load() == 0 {
		t.Fatal("no retries: the armed transient faults never fired")
	}
	_, events := getTrace(t, ts.URL, sub.ID)
	type attempt struct {
		key string
		n   int
	}
	evaluated := map[attempt]int{}
	for _, ev := range events {
		if ev.Stage == telemetry.StageEvaluated {
			evaluated[attempt{ev.Key, ev.Attempt}]++
		}
	}
	keys := map[string]bool{}
	for a, n := range evaluated {
		keys[a.key] = true
		if n != 1 {
			t.Errorf("cell %s attempt %d has %d evaluated events, want 1", a.key, a.n, n)
		}
	}
	if len(keys) != 12 || len(evaluated) <= 12 {
		t.Fatalf("evaluated events cover %d cells in %d attempts, want 12 cells and some retries", len(keys), len(evaluated))
	}

	if got := workerLoops() - before; got != 3 {
		t.Fatalf("%d in-process worker goroutines running, want 3", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if got := workerLoops() - before; got > 0 {
		t.Fatalf("%d in-process worker goroutines still running after Drain returned", got)
	}
}

// TestStandaloneStoreIsTheOnlyTier runs a store-backed standalone daemon
// whose engine has no store of its own: the coordinator's result hook
// journals every fresh cell, and a resubmit is served entirely at
// dispatch, byte-identical and without a simulation.
func TestStandaloneStoreIsTheOnlyTier(t *testing.T) {
	st, err := store.Open(filepath.Join(t.TempDir(), "store"), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	eng := fusleep.NewEngine(fusleep.WithWindow(testWindow))
	s, ts := newTestServer(t, Config{Engine: eng, Results: st.Results, Jobs: st.Jobs})

	first, end := rawCellResults(t, ts.URL, decodeSubmit(t, postSweep(t, ts.URL, chaosGrid)).ID)
	if end.State != StateDone || len(first) != 12 {
		t.Fatalf("fresh sweep: state %s with %d results", end.State, len(first))
	}
	if got := st.Results.Stats(); got.Results != 12 || got.Puts != 12 {
		t.Fatalf("store after the fresh sweep: %+v, want 12 results from 12 puts", got)
	}
	sims := eng.Stats().Simulations
	again, end := rawCellResults(t, ts.URL, decodeSubmit(t, postSweep(t, ts.URL, chaosGrid)).ID)
	if end.State != StateDone {
		t.Fatalf("resubmit state = %s", end.State)
	}
	for i, want := range first {
		if again[i] != want {
			t.Fatalf("cell %d differs on resubmit:\n  fresh:  %s\n  served: %s", i, want, again[i])
		}
	}
	if served := s.storeServed.Load(); served != 12 {
		t.Fatalf("resubmit served %d of 12 cells from the store", served)
	}
	if got := eng.Stats().Simulations; got != sims {
		t.Fatalf("resubmit ran %d simulations, want 0", got-sims)
	}
}

// TestStandaloneCancelIsNoFleetFailure cancels a sweep while its cell is
// leased to an in-process worker: the lease aborts the evaluation, and the
// aborted cell settles as skipped without counting as a fleet failure.
func TestStandaloneCancelIsNoFleetFailure(t *testing.T) {
	inj := fault.New(5)
	inj.Set(fault.CellSlow, fault.Spec{Delay: 10 * time.Minute})
	s, ts := newTestServer(t, Config{Shards: 1, Fault: inj})
	sub := decodeSubmit(t, postSweep(t, ts.URL, chaosGrid))
	waitFor(t, "a leased cell", 10*time.Second, func() bool { return s.fleet.Stats().Leased > 0 })
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/"+sub.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, _, end := readStream(t, ts.URL, sub.ID); end.State != StateCanceled || end.Failed != 0 {
		t.Fatalf("end = %+v, want canceled with no failed cells", end)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if fs := s.fleet.Stats(); fs.Failed != 0 || fs.Leased != 0 {
		t.Fatalf("fleet stats after the cancel = %+v, want no failures and no leases", fs)
	}
	for _, w := range s.fleet.Workers() {
		if w.Failed != 0 {
			t.Fatalf("worker %s counts %d failures for an aborted cell", w.ID, w.Failed)
		}
	}
	if n := s.cellsFailed.Load(); n != 0 {
		t.Fatalf("fusleepd_cells_failed_total = %d, want 0", n)
	}
}

// TestStandaloneQueueDepthWhileServing rebounds the worker queues of a
// running standalone daemon, as fusleepd's -queue does, while a sweep is
// in flight; under -race this pins that the bound is the only state
// touched and that it is read under the coordinator's lock.
func TestStandaloneQueueDepthWhileServing(t *testing.T) {
	s, ts := newTestServer(t, Config{Shards: 2})
	sub := decodeSubmit(t, postSweep(t, ts.URL, chaosGrid))
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := range 50 {
			s.Coordinator().SetQueueDepth(1 + i%3)
			time.Sleep(time.Millisecond)
		}
	}()
	results, end := rawCellResults(t, ts.URL, sub.ID)
	<-done
	if end.State != StateDone || len(results) != 12 {
		t.Fatalf("sweep ended %s with %d results, want done with 12", end.State, len(results))
	}
}
