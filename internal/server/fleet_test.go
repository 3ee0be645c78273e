package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/archsim/fusleep"
	"github.com/archsim/fusleep/internal/fault"
	"github.com/archsim/fusleep/internal/fleet"
	"github.com/archsim/fusleep/internal/store"
)

// killableTransport simulates a worker crash: once killed, every request
// fails at the transport, so the worker can neither report nor say
// goodbye — exactly the silence that forces the coordinator down the
// lease-expiry path.
type killableTransport struct {
	mu   sync.Mutex
	dead bool
}

func (k *killableTransport) kill() {
	k.mu.Lock()
	k.dead = true
	k.mu.Unlock()
}

func (k *killableTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	k.mu.Lock()
	dead := k.dead
	k.mu.Unlock()
	if dead {
		return nil, errors.New("injected: worker crashed")
	}
	return http.DefaultTransport.RoundTrip(r)
}

// startWorker runs one in-process fleet worker against the coordinator's
// public URL and returns its engine (to count simulations) and stop func.
func startWorker(t *testing.T, url string, w *fleet.Worker) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	w.Coordinator = url
	go func() {
		defer close(done)
		_ = w.Run(ctx)
	}()
	stopped := false
	stop = func() {
		if stopped {
			return
		}
		stopped = true
		cancel()
		<-done
	}
	t.Cleanup(stop)
	return stop
}

// fleetWorkers polls GET /v1/fleet/workers.
func fleetWorkers(t *testing.T, base string) []fleet.WorkerInfo {
	t.Helper()
	resp, err := http.Get(base + "/v1/fleet/workers")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out []fleet.WorkerInfo
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// waitFor polls cond until it holds or the deadline lapses.
func waitFor(t *testing.T, what string, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFleetKillWorkerMidSweepByteIdentical is the fleet chaos acceptance
// test: a coordinator with two workers loses one mid-sweep — transport
// dead, no goodbye — and the sweep must still complete with results
// byte-identical to a standalone daemon's, no accepted cell lost, and no
// completed work duplicated (a resubmit is served entirely from the
// store).
func TestFleetKillWorkerMidSweepByteIdentical(t *testing.T) {
	// Standalone reference: the same grid on a plain single-process server.
	_, tsRef := newTestServer(t, Config{})
	subRef := decodeSubmit(t, postSweep(t, tsRef.URL, chaosGrid))
	reference, endRef := rawCellResults(t, tsRef.URL, subRef.ID)
	if endRef.State != StateDone || len(reference) != 12 {
		t.Fatalf("reference run: state=%s results=%d", endRef.State, len(reference))
	}

	// Coordinator role: owns intake, WAL, and the result store; evaluates
	// nothing locally.
	st, err := store.Open(filepath.Join(t.TempDir(), "coord"), store.Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	coord := fleet.NewCoordinator(fleet.Config{WorkerTTL: 500 * time.Millisecond})
	s, ts := newTestServer(t, Config{
		Engine:  fusleep.NewEngine(fusleep.WithWindow(testWindow)),
		Fleet:   coord,
		Results: st.Results,
		Jobs:    st.Jobs,
	})

	// Worker A ("doomed") stalls every evaluation on an injected 10-minute
	// delay, so it always dies holding leases. Its transport is killable.
	stallInj := fault.New(11)
	stallInj.Set(fault.CellSlow, fault.Spec{Delay: 10 * time.Minute})
	kt := &killableTransport{}
	doomed := &fleet.Worker{
		Name: "doomed",
		Exec: &fleet.Executor{
			Engine: fusleep.NewEngine(fusleep.WithWindow(testWindow)),
			Fault:  stallInj,
		},
		Client:         &http.Client{Transport: kt},
		Parallel:       4,
		FetchBatch:     4,
		Wait:           50 * time.Millisecond,
		HeartbeatEvery: time.Hour, // only fetch/report would renew its lease
	}
	stopDoomed := startWorker(t, ts.URL, doomed)
	waitFor(t, "doomed worker registration", 10*time.Second, func() bool {
		return len(fleetWorkers(t, ts.URL)) == 1
	})

	// Worker B ("survivor") is healthy and does all the real work.
	survivorEng := fusleep.NewEngine(fusleep.WithWindow(testWindow))
	survivor := &fleet.Worker{
		Name:     "survivor",
		Exec:     &fleet.Executor{Engine: survivorEng},
		Parallel: 2,
		Wait:     50 * time.Millisecond,
	}
	startWorker(t, ts.URL, survivor)
	waitFor(t, "survivor worker registration", 10*time.Second, func() bool {
		return len(fleetWorkers(t, ts.URL)) == 2
	})

	sub := decodeSubmit(t, postSweep(t, ts.URL, chaosGrid))
	if sub.Cells != 12 {
		t.Fatalf("cells = %d, want 12", sub.Cells)
	}

	// Wait until the doomed worker actually holds leased cells, then kill
	// it: transport dead, run loop stopped, no goodbye sent.
	waitFor(t, "doomed worker to lease cells", 30*time.Second, func() bool {
		for _, w := range fleetWorkers(t, ts.URL) {
			if w.Name == "doomed" && w.Leased > 0 {
				return true
			}
		}
		return false
	})
	kt.kill()
	stopDoomed()

	// The sweep still completes: the coordinator expires the silent worker
	// after its TTL and requeues the leased cells to the survivor.
	results, end := rawCellResults(t, ts.URL, sub.ID)
	if end.State != StateDone || end.Completed != 12 || end.Failed != 0 || end.Skipped != 0 {
		t.Fatalf("fleet run end = %+v, want 12/12 done", end)
	}
	if len(results) != 12 {
		t.Fatalf("fleet run streamed %d results, want 12", len(results))
	}
	for idx, want := range reference {
		if got := results[idx]; got != want {
			t.Fatalf("cell %d differs from standalone:\n  standalone: %s\n  fleet:      %s", idx, want, got)
		}
	}
	fs := coord.Stats()
	if fs.Expired != 1 || fs.Requeues == 0 {
		t.Fatalf("fleet stats = %+v, want the doomed worker expired with requeued work", fs)
	}
	if fs.Completed != 12 {
		t.Fatalf("fleet completed %d assignments, want 12 (none lost, none duplicated)", fs.Completed)
	}
	// Every reported cell was journaled into the content-addressed store.
	if n := st.Results.Len(); n != 12 {
		t.Fatalf("store holds %d results, want 12", n)
	}
	// The job records which fleet workers computed cells.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + sub.ID + "?poll=1")
	if err != nil {
		t.Fatal(err)
	}
	var poll sweepPollResponse
	if err := json.NewDecoder(resp.Body).Decode(&poll); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(poll.Workers) != 1 || poll.Workers[0] != "survivor" {
		t.Fatalf("job workers = %v, want [survivor]", poll.Workers)
	}

	// Zero recomputation on resubmit: every cell short-circuits through the
	// store before it ever reaches the fleet.
	simsBefore := survivorEng.Stats().Simulations
	dispatchedBefore := coord.Stats().Dispatched
	servedBefore := s.storeServed.Load()
	sub2 := decodeSubmit(t, postSweep(t, ts.URL, chaosGrid))
	results2, end2 := rawCellResults(t, ts.URL, sub2.ID)
	if end2.State != StateDone || len(results2) != 12 {
		t.Fatalf("resubmit end = %+v with %d results", end2, len(results2))
	}
	for idx, want := range reference {
		if got := results2[idx]; got != want {
			t.Fatalf("resubmitted cell %d differs:\n  want: %s\n  got:  %s", idx, want, got)
		}
	}
	if sims := survivorEng.Stats().Simulations; sims != simsBefore {
		t.Fatalf("resubmit recomputed: %d -> %d simulations", simsBefore, sims)
	}
	if d := coord.Stats().Dispatched; d != dispatchedBefore {
		t.Fatalf("resubmit dispatched %d new assignments, want 0", d-dispatchedBefore)
	}
	if served := s.storeServed.Load(); served != 12 {
		t.Fatalf("storeServed = %d (was %d after run 1), want all 12 resubmitted cells (stats %+v, store len %d, end2 %+v)",
			served, servedBefore, coord.Stats(), st.Results.Len(), end2)
	}
}

// TestFleetTuneRunsThroughWorkers drives the tuner through the fleet
// dispatch path: probes evaluate on a remote worker, the run completes with
// the engine's own probes and result, and the job attributes the worker.
func TestFleetTuneRunsThroughWorkers(t *testing.T) {
	coord := fleet.NewCoordinator(fleet.Config{})
	s, ts := newTestServer(t, Config{
		Engine: fusleep.NewEngine(fusleep.WithWindow(testWindow)),
		Fleet:  coord,
	})
	worker := &fleet.Worker{
		Name:     "tuner-worker",
		Exec:     &fleet.Executor{Engine: fusleep.NewEngine(fusleep.WithWindow(testWindow))},
		Parallel: 2,
		Wait:     50 * time.Millisecond,
	}
	startWorker(t, ts.URL, worker)
	waitFor(t, "worker registration", 10*time.Second, func() bool {
		return len(fleetWorkers(t, ts.URL)) == 1
	})

	body := fmt.Sprintf(`{"benchmarks":["gcc"],"window":%d,"maxEvals":8,"rounds":1}`, testWindow)
	sub := decodeTuneSubmit(t, postTune(t, ts.URL, body))
	_, probes, end := readTuneStream(t, ts.URL, sub.ID)
	if end.State != StateDone || end.Result == nil {
		t.Fatalf("tune end = %+v, want a completed result", end)
	}
	assertTuneMatchesEngine(t, s.cfg, body, probes, end)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + sub.ID + "?poll=1")
	if err != nil {
		t.Fatal(err)
	}
	var poll tunePollResponse
	if err := json.NewDecoder(resp.Body).Decode(&poll); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(poll.Workers) != 1 || poll.Workers[0] != "tuner-worker" {
		t.Fatalf("tune job workers = %v", poll.Workers)
	}
	if fs := coord.Stats(); fs.Completed == 0 {
		t.Fatalf("fleet stats = %+v, want completed probe assignments", fs)
	}
}

// TestFleetTuneFailureOutranksAbortedProbes settles a tuner round by hand
// through a worker registered without a fetch loop: the round's second
// probe fails while its first is still leased. The failure aborts the
// round, so the first probe settles only as canceled, and the job must
// report the second probe's failure rather than the first probe's context
// error, which comes before it in input order.
func TestFleetTuneFailureOutranksAbortedProbes(t *testing.T) {
	coord := fleet.NewCoordinator(fleet.Config{})
	_, ts := newTestServer(t, Config{
		Engine: fusleep.NewEngine(fusleep.WithWindow(testWindow)),
		Fleet:  coord,
	})
	id, _ := coord.Register("manual")

	// One policy over two FU counts: the seed round is two probes, 2 FUs
	// then 4 FUs, in two SimKey groups.
	sub := decodeTuneSubmit(t, postTune(t, ts.URL, fmt.Sprintf(
		`{"benchmarks":["gcc"],"window":%d,"policies":["AlwaysActive"],"fuCounts":[2,4],"maxEvals":2}`, testWindow)))
	waitFor(t, "the seed round to queue", 10*time.Second, func() bool {
		return coord.Stats().Queued == 2
	})
	leased, err := coord.Fetch(t.Context(), id, 2, 0)
	if err != nil || len(leased) != 2 {
		t.Fatalf("fetch = %d cells, %v; want the 2-probe round", len(leased), err)
	}
	first, second := leased[0], leased[1]
	if first.Cell.FUs != 2 {
		first, second = second, first
	}
	// Settle the aborted lease at the end so the server drains cleanly.
	t.Cleanup(func() {
		_, _ = coord.Report(id, []fleet.CellReport{{Lease: first.Lease, Key: first.Key, Error: &fleet.WireError{Message: "abandoned"}}})
	})
	const cause = "second probe failed"
	if _, err := coord.Report(id, []fleet.CellReport{{Lease: second.Lease, Key: second.Key, Error: &fleet.WireError{Message: cause}}}); err != nil {
		t.Fatal(err)
	}
	_, _, end := readTuneStream(t, ts.URL, sub.ID)
	if end.State != StateFailed || end.Error != "optimize: "+cause {
		t.Fatalf("tune end = state %s error %q, want failed with %q", end.State, end.Error, cause)
	}
}

// TestFleetBackpressurePropagatesTo429 fills the single worker's queue —
// the worker never fetches — until admission control sheds a submit with
// 429 and the canonical error envelope.
func TestFleetBackpressurePropagatesTo429(t *testing.T) {
	coord := fleet.NewCoordinator(fleet.Config{QueueDepth: 1})
	s, ts := newTestServer(t, Config{
		Engine:     fusleep.NewEngine(fusleep.WithWindow(testWindow)),
		Fleet:      coord,
		MaxPending: 12,
	})
	// Register a worker directly on the coordinator (no fetch loop), so
	// dispatched cells queue but never drain.
	coord.Register("stuck")

	// First submit fills the 1-deep queue and blocks its feeder; the cells
	// stay pending, so a submit exceeding remaining capacity sheds.
	decodeSubmit(t, postSweep(t, ts.URL, chaosGrid))
	waitFor(t, "backlog to fill", 10*time.Second, func() bool {
		return s.pendingCells.Load() == 12
	})
	resp := postSweep(t, ts.URL, chaosGrid)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submit = %s, want 429", resp.Status)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	var e apiError
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.Error.Code != fleet.CodeBacklogFull || e.Error.Message == "" {
		t.Fatalf("envelope = %+v, want code %q", e, fleet.CodeBacklogFull)
	}
}

// TestFleetKillWorkerMidGroupExactlyOnce kills a worker part-way through a
// leased SimKey group: it has evaluated the group's first cell and stalls
// on the second when its transport dies. The coordinator must requeue the
// whole group to the survivor, the stream must match a standalone
// daemon's byte for byte, and every cell must settle exactly once.
func TestFleetKillWorkerMidGroupExactlyOnce(t *testing.T) {
	_, tsRef := newTestServer(t, Config{})
	reference, endRef := rawCellResults(t, tsRef.URL, decodeSubmit(t, postSweep(t, tsRef.URL, chaosGrid)).ID)
	if endRef.State != StateDone || len(reference) != 12 {
		t.Fatalf("reference run: state=%s results=%d", endRef.State, len(reference))
	}

	st, err := store.Open(filepath.Join(t.TempDir(), "coord"), store.Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	coord := fleet.NewCoordinator(fleet.Config{WorkerTTL: 500 * time.Millisecond})
	_, ts := newTestServer(t, Config{
		Engine:  fusleep.NewEngine(fusleep.WithWindow(testWindow)),
		Fleet:   coord,
		Results: st.Results,
		Jobs:    st.Jobs,
	})

	// Submit before any worker registers: the whole grid parks unrouted,
	// so the first fetch leases a complete group (chaosGrid has 3 policy
	// variants per FU count).
	sub := decodeSubmit(t, postSweep(t, ts.URL, chaosGrid))
	waitFor(t, "grid to park unrouted", 10*time.Second, func() bool {
		return coord.Stats().Unassigned == 12
	})

	// The doomed worker evaluates its group's first cell, then stalls on
	// the second.
	stallInj := fault.New(13)
	stallInj.Set(fault.CellSlow, fault.Spec{After: 1, Delay: 10 * time.Minute})
	kt := &killableTransport{}
	stopDoomed := startWorker(t, ts.URL, &fleet.Worker{
		Name:           "doomed",
		Exec:           &fleet.Executor{Engine: fusleep.NewEngine(fusleep.WithWindow(testWindow)), Fault: stallInj},
		Client:         &http.Client{Transport: kt},
		Parallel:       1,
		Wait:           50 * time.Millisecond,
		HeartbeatEvery: time.Hour,
	})
	waitFor(t, "doomed worker to stall mid-group", 30*time.Second, func() bool {
		return stallInj.Fired(fault.CellSlow) == 1
	})
	if ws := fleetWorkers(t, ts.URL); len(ws) != 1 || ws[0].Leased != 3 {
		t.Fatalf("workers = %+v, want doomed holding one 3-cell group", ws)
	}
	kt.kill()
	stopDoomed()

	startWorker(t, ts.URL, &fleet.Worker{
		Name:     "survivor",
		Exec:     &fleet.Executor{Engine: fusleep.NewEngine(fusleep.WithWindow(testWindow))},
		Parallel: 2,
		Wait:     50 * time.Millisecond,
	})

	results, end := rawCellResults(t, ts.URL, sub.ID)
	if end.State != StateDone || end.Completed != 12 || end.Failed != 0 || end.Skipped != 0 {
		t.Fatalf("fleet run end = %+v, want 12/12 done", end)
	}
	for idx, want := range reference {
		if got := results[idx]; got != want {
			t.Fatalf("cell %d differs from standalone:\n  standalone: %s\n  fleet:      %s", idx, want, got)
		}
	}
	fs := coord.Stats()
	// The leased group requeues with whatever groups were still queued on
	// the doomed worker; groups move whole, so the count is a multiple of 3.
	if fs.Expired != 1 || fs.Requeues < 3 || fs.Requeues%3 != 0 {
		t.Fatalf("fleet stats = %+v, want the doomed worker's whole groups requeued", fs)
	}
	if fs.Completed != 12 || fs.Stale != 0 {
		t.Fatalf("fleet stats = %+v, want 12 completed once each", fs)
	}
	if n := st.Results.Len(); n != 12 {
		t.Fatalf("store holds %d results, want 12", n)
	}
}

// TestFleetCancelResubmitJoinsInFlight cancels a coordinator-role sweep
// while a remote worker holds its leases, then resubmits it: every
// resubmitted cell joins the work already in the fleet — the remote worker
// finishes a canceled lease regardless — so each cell is simulated once.
func TestFleetCancelResubmitJoinsInFlight(t *testing.T) {
	const grid = `{"benchmarks": ["gcc"], "window": 20000, "fuCounts": [1,2],
  "policies": [{"policy": "AlwaysActive"}, {"policy": "MaxSleep"}, {"policy": "SleepTimeout"}]}`
	coord := fleet.NewCoordinator(fleet.Config{})
	_, ts := newTestServer(t, Config{Fleet: coord})

	// Every evaluation stalls on an injected delay until gate closes, and
	// the cache is off, so the simulation count is the evaluation count.
	gate := make(chan struct{})
	inj := fault.New(7)
	inj.Set(fault.CellSlow, fault.Spec{Delay: time.Millisecond})
	eng := fusleep.NewEngine(fusleep.WithWindow(testWindow), fusleep.WithCache(false))
	startWorker(t, ts.URL, &fleet.Worker{
		Name: "remote",
		Exec: &fleet.Executor{Engine: eng, Fault: inj, Sleep: func(ctx context.Context, _ time.Duration) error {
			select {
			case <-gate:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}},
		Wait: 50 * time.Millisecond,
	})

	first := decodeSubmit(t, postSweep(t, ts.URL, grid))
	waitFor(t, "a leased cell", 10*time.Second, func() bool { return coord.Stats().Leased > 0 })
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/"+first.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	again := decodeSubmit(t, postSweep(t, ts.URL, grid))
	waitFor(t, "the resubmit to join", 10*time.Second, func() bool { return coord.Stats().Joins == 6 })
	close(gate)
	if results, end := rawCellResults(t, ts.URL, again.ID); end.State != StateDone || len(results) != 6 {
		t.Fatalf("resubmit ended %s with %d results, want done with 6", end.State, len(results))
	}
	if fs := coord.Stats(); fs.Dispatched != 6 || fs.Failed != 0 {
		t.Fatalf("fleet stats = %+v, want 6 dispatched and no failures", fs)
	}
	if sims := eng.Stats().Simulations; sims != 6 {
		t.Fatalf("worker ran %d simulations for 6 cells", sims)
	}
}
