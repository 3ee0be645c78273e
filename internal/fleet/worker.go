package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Worker is the remote side of the fleet: it dials the coordinator's
// /v1/fleet endpoints (register → heartbeat → fetch → report), evaluates
// leased SimKey groups through the same Executor the standalone daemon
// embeds, and reports each group's outcomes in one call. The coordinator
// never dials back, so workers need no listener and work from behind NAT.
type Worker struct {
	// Coordinator is the coordinator's base URL, e.g. "http://host:8080".
	Coordinator string
	// Name is a human-readable label sent at registration; the coordinator
	// assigns the routing identity.
	Name string
	// Exec evaluates the cells. Required.
	Exec *Executor
	// Client is the HTTP client; nil means http.DefaultClient.
	Client *http.Client
	// Parallel bounds how many leased SimKey groups evaluate at once
	// (default 1). A group's cells evaluate one after another in lease
	// order, so the first pays for the simulation and the rest score
	// closed-form off the engine's cache.
	Parallel int
	// FetchBatch is how many SimKey groups one fetch may lease, each with
	// all of its queued cells (default Parallel).
	FetchBatch int
	// Wait is the fetch long-poll duration (default 5s).
	Wait time.Duration
	// HeartbeatEvery overrides the heartbeat cadence (default: a third of
	// the TTL the coordinator granted).
	HeartbeatEvery time.Duration
	// Logf, when set, receives progress lines (registration, requeues,
	// transport errors).
	Logf func(format string, args ...any)

	// Self-reported telemetry, carried on heartbeats.
	inflight   atomic.Int64
	evaluated  atomic.Uint64
	evalFailed atomic.Uint64

	// Per-key evaluation spans collected from the Executor's OnAttempt
	// hook, drained into each cell's report. The coordinator never leases
	// the same key to two workers at once (duplicate submits join the
	// in-flight assignment), so a key's spans belong to exactly one lease.
	spanMu sync.Mutex
	spans  map[string][]WireSpan
}

// stats snapshots the worker's self-reported telemetry for a heartbeat.
func (w *Worker) stats() *WorkerStats {
	return &WorkerStats{
		Inflight:  int(w.inflight.Load()),
		Evaluated: w.evaluated.Load(),
		Failed:    w.evalFailed.Load(),
	}
}

// takeSpans drains the collected spans for one cell key.
func (w *Worker) takeSpans(key string) []WireSpan {
	w.spanMu.Lock()
	defer w.spanMu.Unlock()
	sp := w.spans[key]
	delete(w.spans, key)
	return sp
}

func (w *Worker) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

func (w *Worker) client() *http.Client {
	if w.Client != nil {
		return w.Client
	}
	return http.DefaultClient
}

// post sends one wire request and decodes the response, translating the
// coordinator's error envelope into typed errors.
func (w *Worker) post(ctx context.Context, path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, w.Coordinator+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	hr.Header.Set("Content-Type", "application/json")
	res, err := w.client().Do(hr)
	if err != nil {
		return err
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		var env APIError
		_ = json.NewDecoder(res.Body).Decode(&env)
		if env.Error.Code == CodeUnknownWorker {
			return ErrUnknownWorker
		}
		if env.Error.Message != "" {
			return fmt.Errorf("%s: %s: %s", path, res.Status, env.Error.Message)
		}
		return fmt.Errorf("%s: %s", path, res.Status)
	}
	return json.NewDecoder(res.Body).Decode(resp)
}

// Run registers with the coordinator and serves fetched cells until ctx
// is canceled, re-registering whenever the coordinator has expired this
// worker (after a network partition outlasting the heartbeat TTL). On a
// clean shutdown it sends a goodbye so its work requeues immediately.
func (w *Worker) Run(ctx context.Context) error {
	if w.Exec == nil || w.Exec.Engine == nil {
		return errors.New("fleet worker: Exec with an Engine is required")
	}
	// Tap the executor's attempt hook: every finished attempt becomes a
	// wire span attached to the cell's report, and feeds the worker's
	// heartbeat-reported counters.
	prev := w.Exec.OnAttempt
	w.Exec.OnAttempt = func(key string, attempt int, seconds float64, err error) {
		if prev != nil {
			prev(key, attempt, seconds, err)
		}
		w.evaluated.Add(1)
		sp := WireSpan{Stage: "evaluated", Attempt: attempt, Seconds: seconds}
		if err != nil {
			w.evalFailed.Add(1)
			sp.Error = err.Error()
		}
		w.spanMu.Lock()
		if w.spans == nil {
			w.spans = make(map[string][]WireSpan)
		}
		w.spans[key] = append(w.spans[key], sp)
		w.spanMu.Unlock()
	}
	backoff := 100 * time.Millisecond
	for ctx.Err() == nil {
		var reg RegisterResponse
		err := w.post(ctx, "/v1/fleet/register", RegisterRequest{V: ProtocolVersion, Name: w.Name}, &reg)
		if err != nil {
			if ctx.Err() != nil {
				break
			}
			w.logf("fleet worker: register: %v (retrying in %v)", err, backoff)
			if SleepCtx(ctx, backoff) != nil {
				break
			}
			if backoff *= 2; backoff > 5*time.Second {
				backoff = 5 * time.Second
			}
			continue
		}
		backoff = 100 * time.Millisecond
		w.logf("fleet worker: registered as %s (ttl %v)", reg.ID, time.Duration(reg.TTLMillis)*time.Millisecond)
		w.serve(ctx, reg.ID, time.Duration(reg.TTLMillis)*time.Millisecond)
		// serve returns on cancellation or when the coordinator forgot us;
		// the loop re-registers in the latter case.
	}
	return ctx.Err()
}

// serve is one registration's lifetime: a heartbeat goroutine plus the
// fetch/evaluate/report loop. It returns when ctx is canceled or the
// coordinator no longer knows the worker ID.
func (w *Worker) serve(ctx context.Context, id string, ttl time.Duration) {
	hbEvery := w.HeartbeatEvery
	if hbEvery <= 0 {
		hbEvery = max(ttl/3, 10*time.Millisecond)
	}
	// stale closes when a heartbeat learns the coordinator expired us.
	stale := make(chan struct{})
	hbCtx, stopHB := context.WithCancel(ctx)
	var hb sync.WaitGroup
	hb.Add(1)
	go func() {
		defer hb.Done()
		t := time.NewTicker(hbEvery)
		defer t.Stop()
		for {
			//fusleepvet:nondet-ok heartbeat cadence; both arms only affect liveness bookkeeping
			select {
			case <-hbCtx.Done():
				return
			case <-t.C:
			}
			var resp HeartbeatResponse
			err := w.post(hbCtx, "/v1/fleet/heartbeat",
				HeartbeatRequest{V: ProtocolVersion, ID: id, Stats: w.stats()}, &resp)
			if errors.Is(err, ErrUnknownWorker) {
				close(stale)
				return
			}
			if err != nil && hbCtx.Err() == nil {
				w.logf("fleet worker %s: heartbeat: %v", id, err)
			}
		}
	}()
	defer func() {
		stopHB()
		hb.Wait()
		if ctx.Err() != nil {
			w.bye(id)
		}
	}()

	parallel := max(w.Parallel, 1)
	batch := w.FetchBatch
	if batch <= 0 {
		batch = parallel
	}
	wait := w.Wait
	if wait <= 0 {
		wait = 5 * time.Second
	}
	backoff := 100 * time.Millisecond
	for {
		//fusleepvet:nondet-ok shutdown check racing the stale signal; both exits are terminal
		select {
		case <-ctx.Done():
			return
		case <-stale:
			return
		default:
		}
		var fetched FetchResponse
		err := w.post(ctx, "/v1/fleet/fetch",
			FetchRequest{V: ProtocolVersion, ID: id, Max: batch, WaitMillis: wait.Milliseconds()}, &fetched)
		if errors.Is(err, ErrUnknownWorker) {
			w.logf("fleet worker %s: expired by coordinator; re-registering", id)
			return
		}
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			w.logf("fleet worker %s: fetch: %v (retrying in %v)", id, err, backoff)
			if SleepCtx(ctx, backoff) != nil {
				return
			}
			if backoff *= 2; backoff > 5*time.Second {
				backoff = 5 * time.Second
			}
			continue
		}
		backoff = 100 * time.Millisecond
		if len(fetched.Cells) == 0 {
			continue // long poll timed out; fetch again
		}
		if !w.runGroups(ctx, id, leaseGroups(fetched.Cells), parallel) {
			return
		}
	}
}

// leaseGroups splits a fetch into its SimKey groups: the coordinator
// leases each group's cells contiguously.
func leaseGroups(cells []LeaseCell) [][]LeaseCell {
	var groups [][]LeaseCell
	start, simKey := 0, ""
	for i, lc := range cells {
		k := lc.Cell.SimKey()
		if i > 0 && k != simKey {
			groups = append(groups, cells[start:i])
			start = i
		}
		simKey = k
	}
	if len(cells) > 0 {
		groups = append(groups, cells[start:])
	}
	return groups
}

// runGroups evaluates the fetched groups, at most parallel at a time, and
// reports each group in one call as soon as it finishes. It reports false
// when serve should end (shutdown or expiry); groups not yet started by
// then are left to the coordinator's requeue.
func (w *Worker) runGroups(ctx context.Context, id string, groups [][]LeaseCell, parallel int) bool {
	var stop atomic.Bool
	sem := make(chan struct{}, parallel)
	var wg sync.WaitGroup
	for _, g := range groups {
		sem <- struct{}{}
		if stop.Load() {
			<-sem
			break
		}
		wg.Add(1)
		go func(g []LeaseCell) {
			defer wg.Done()
			defer func() { <-sem }()
			if !w.report(ctx, id, w.evaluate(ctx, g)) {
				stop.Store(true)
			}
		}(g)
	}
	wg.Wait()
	return !stop.Load()
}

// evaluate runs one group's cells through the Executor in lease order.
func (w *Worker) evaluate(ctx context.Context, cells []LeaseCell) []CellReport {
	reports := make([]CellReport, len(cells))
	for i, lc := range cells {
		w.inflight.Add(1)
		res, err := w.Exec.EvalCell(ctx, lc.Cell)
		w.inflight.Add(-1)
		r := CellReport{Lease: lc.Lease, Key: lc.Key, Trace: w.takeSpans(lc.Key)}
		if err != nil {
			r.Error = ToWireError(err)
		} else {
			r.Result = &res
		}
		reports[i] = r
	}
	return reports
}

// report delivers outcomes, retrying transport errors so a network blip
// does not strand finished work past its lease; it reports false when
// serve should end (shutdown or expiry).
func (w *Worker) report(ctx context.Context, id string, reports []CellReport) bool {
	backoff := 100 * time.Millisecond
	for attempt := 0; ; attempt++ {
		var resp ReportResponse
		err := w.post(ctx, "/v1/fleet/report", ReportRequest{V: ProtocolVersion, ID: id, Results: reports}, &resp)
		if err == nil {
			if resp.Accepted < len(reports) {
				w.logf("fleet worker %s: %d/%d reports were stale (leases requeued)", id, len(reports)-resp.Accepted, len(reports))
			}
			return true
		}
		if errors.Is(err, ErrUnknownWorker) || ctx.Err() != nil || attempt >= 4 {
			return false
		}
		w.logf("fleet worker %s: report: %v (retrying in %v)", id, err, backoff)
		if SleepCtx(ctx, backoff) != nil {
			return false
		}
		if backoff *= 2; backoff > 2*time.Second {
			backoff = 2 * time.Second
		}
	}
}

// bye tells the coordinator this worker is leaving so its work requeues
// immediately instead of after a lease timeout. The worker's own context
// is already canceled here, so the goodbye gets a short detached one.
func (w *Worker) bye(id string) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second) //fusleepvet:ctx-ok shutdown path; the run context is already canceled
	defer cancel()
	var resp HeartbeatResponse
	_ = w.post(ctx, "/v1/fleet/heartbeat", HeartbeatRequest{V: ProtocolVersion, ID: id, Bye: true}, &resp)
}
