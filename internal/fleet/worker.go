package fleet

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/archsim/fusleep"
)

// Worker is the executing side of the fleet (register → heartbeat → fetch
// → report): it evaluates leased SimKey groups through its Executor and
// reports each group's outcomes in one call. Run dials a remote
// coordinator's /v1/fleet endpoints; StartLocal runs the same loop
// in-process. The coordinator never dials back, so remote workers need no
// listener and work from behind NAT.
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
	// (default 1). Each group evaluates with one engine call: its
	// simulation runs once and every cell scores closed-form off it.
	Parallel int
	// FetchBatch is how many SimKey groups one fetch may lease, each with
	// all of its queued cells (default Parallel).
	FetchBatch int
	// Wait is the fetch long-poll duration (default 5s).
	Wait time.Duration
	// HeartbeatEvery overrides the heartbeat cadence (default: a third of
	// the TTL the coordinator granted).
	HeartbeatEvery time.Duration
	// Logger receives the worker's structured records, each with a worker
	// attribute naming it. Nil discards.
	Logger *slog.Logger

	// tr carries the wire calls: loopback for in-process workers, HTTP to
	// Coordinator otherwise.
	tr  transport
	log *slog.Logger

	// Self-reported telemetry, carried on heartbeats.
	inflight   atomic.Int64
	evaluated  atomic.Uint64
	evalFailed atomic.Uint64

	// Per-key evaluation spans collected from the Executor's OnAttempt
	// hook, drained into each cell's report. The coordinator never leases
	// the same key to two workers at once (duplicate submits join the
	// in-flight assignment), so a key's spans belong to exactly one lease.
	spanMu sync.Mutex
	spans  map[string]keySpans
}

// keySpans are one cell key's collected spans. A leased cell almost always
// finishes in one attempt, so the first span is held inline and only
// retries allocate.
type keySpans struct {
	first WireSpan
	rest  []WireSpan
}

// transport carries a worker's wire calls: loopback (direct calls into
// the coordinator, no HTTP, no JSON) for in-process workers, and
// httpTransport for remote ones.
type transport interface {
	WireRegister(ctx context.Context, req RegisterRequest) (RegisterResponse, error)
	WireHeartbeat(ctx context.Context, req HeartbeatRequest) (HeartbeatResponse, error)
	WireFetch(ctx context.Context, req FetchRequest) (FetchResponse, error)
	WireReport(ctx context.Context, req ReportRequest) (ReportResponse, error)
}

// loopback is an in-process worker's transport: the coordinator's own
// wire entry points, registering the worker as local.
type loopback struct{ *Coordinator }

func (l loopback) WireRegister(_ context.Context, req RegisterRequest) (RegisterResponse, error) {
	id, ttl := l.register(req.Name, true)
	return RegisterResponse{V: ProtocolVersion, ID: id, TTLMillis: ttl.Milliseconds()}, nil
}

// httpTransport is a remote worker's transport: JSON POSTs to the
// coordinator's /v1/fleet endpoints.
type httpTransport struct {
	base   string
	client *http.Client
}

func (h httpTransport) WireRegister(ctx context.Context, q RegisterRequest) (r RegisterResponse, err error) {
	return r, h.post(ctx, "/v1/fleet/register", q, &r)
}
func (h httpTransport) WireHeartbeat(ctx context.Context, q HeartbeatRequest) (r HeartbeatResponse, err error) {
	return r, h.post(ctx, "/v1/fleet/heartbeat", q, &r)
}
func (h httpTransport) WireFetch(ctx context.Context, q FetchRequest) (r FetchResponse, err error) {
	return r, h.post(ctx, "/v1/fleet/fetch", q, &r)
}
func (h httpTransport) WireReport(ctx context.Context, q ReportRequest) (r ReportResponse, err error) {
	return r, h.post(ctx, "/v1/fleet/report", q, &r)
}

// post sends one wire request and decodes the response, translating the
// coordinator's error envelope into typed errors.
func (h httpTransport) post(ctx context.Context, path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, h.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	hr.Header.Set("Content-Type", "application/json")
	res, err := h.client.Do(hr)
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

// StartLocal registers n in-process workers on c, each at Parallel 1 over
// the loopback transport with its own copy of exec (a worker taps its
// executor's attempt hook), and serves them until the returned stop is
// called; stop returns once every one has exited.
func (c *Coordinator) StartLocal(n int, exec Executor, logger *slog.Logger) (stop func()) {
	ctx, cancel := context.WithCancel(context.Background()) //fusleepvet:ctx-ok in-process workers live until stopped
	var wg sync.WaitGroup
	for i := range n {
		x := exec
		w := &Worker{Name: fmt.Sprintf("local-%d", i), Exec: &x, Logger: logger, tr: loopback{c}}
		w.start()
		reg := w.register(ctx)
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.loop(ctx, reg)
		}()
	}
	return func() { cancel(); wg.Wait() }
}

// stats snapshots the worker's self-reported telemetry for a heartbeat.
func (w *Worker) stats() *WorkerStats {
	return &WorkerStats{
		Inflight:  int(w.inflight.Load()),
		Evaluated: w.evaluated.Load(),
		Failed:    w.evalFailed.Load(),
	}
}

// takeSpans drains the collected spans of a group's cells into their
// reports' traces, which share one backing array.
func (w *Worker) takeSpans(reports []CellReport) {
	w.spanMu.Lock()
	defer w.spanMu.Unlock()
	n := 0
	for i := range reports {
		if ks, ok := w.spans[reports[i].Key]; ok {
			n += 1 + len(ks.rest)
		}
	}
	if n == 0 {
		return
	}
	all := make([]WireSpan, 0, n)
	for i := range reports {
		ks, ok := w.spans[reports[i].Key]
		if !ok {
			continue
		}
		delete(w.spans, reports[i].Key)
		from := len(all)
		all = append(append(all, ks.first), ks.rest...)
		reports[i].Trace = all[from:len(all):len(all)]
	}
}

// Run registers with the coordinator and serves fetched cells until ctx
// is canceled, re-registering whenever the coordinator has expired this
// worker (after a network partition outlasting the heartbeat TTL). On a
// clean shutdown it sends a goodbye so its work requeues immediately.
func (w *Worker) Run(ctx context.Context) error {
	if w.Exec == nil || w.Exec.Engine == nil {
		return errors.New("fleet worker: Exec with an Engine is required")
	}
	w.tr = httpTransport{base: w.Coordinator, client: cmp.Or(w.Client, http.DefaultClient)}
	w.start()
	w.loop(ctx, w.register(ctx))
	return ctx.Err()
}

// start resolves the logger and taps the executor's attempt hook: every
// finished attempt becomes a wire span attached to the cell's report, and
// feeds the worker's heartbeat-reported counters.
func (w *Worker) start() {
	w.log = cmp.Or(w.Logger, discardLogger).With("worker", w.Name)
	prev := w.Exec.OnAttempt
	w.Exec.OnAttempt = func(key string, attempt int, seconds float64, err error) {
		if prev != nil {
			prev(key, attempt, seconds, err)
		}
		w.evaluated.Add(1)
		sp := WireSpan{Stage: "evaluated", Attempt: attempt, Seconds: seconds}
		if err != nil {
			// A canceled attempt (an abandoned in-process lease, or
			// shutdown) is no evaluation failure.
			if !errors.Is(err, context.Canceled) {
				w.evalFailed.Add(1)
			}
			sp.Error = err.Error()
		}
		w.spanMu.Lock()
		if w.spans == nil {
			w.spans = make(map[string]keySpans)
		}
		if ks, ok := w.spans[key]; ok {
			ks.rest = append(ks.rest, sp)
			w.spans[key] = ks
		} else {
			w.spans[key] = keySpans{first: sp}
		}
		w.spanMu.Unlock()
	}
}

// loop serves one registration after another, starting with reg, until
// ctx ends: serve returning while ctx is live means the coordinator forgot
// the worker, which then registers again.
func (w *Worker) loop(ctx context.Context, reg RegisterResponse) {
	for reg.ID != "" {
		w.serve(ctx, reg.ID, time.Duration(reg.TTLMillis)*time.Millisecond)
		reg = w.register(ctx)
	}
}

// register announces the worker, retrying with backoff; it returns the
// zero response once ctx ends.
func (w *Worker) register(ctx context.Context) RegisterResponse {
	backoff := 100 * time.Millisecond
	for ctx.Err() == nil {
		reg, err := w.tr.WireRegister(ctx, RegisterRequest{V: ProtocolVersion, Name: w.Name})
		if err == nil {
			w.log.Info("fleet worker joined", "id", reg.ID, "ttl", time.Duration(reg.TTLMillis)*time.Millisecond)
			return reg
		}
		if ctx.Err() != nil {
			break
		}
		w.log.Warn("fleet worker register failed", "err", err, "retry", backoff)
		if SleepCtx(ctx, backoff) != nil {
			break
		}
		backoff = min(2*backoff, 5*time.Second)
	}
	return RegisterResponse{}
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
			_, err := w.tr.WireHeartbeat(hbCtx, HeartbeatRequest{V: ProtocolVersion, ID: id, Stats: w.stats()})
			if errors.Is(err, ErrUnknownWorker) {
				close(stale)
				return
			}
			if err != nil && hbCtx.Err() == nil {
				w.log.Warn("fleet worker heartbeat failed", "id", id, "err", err)
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
		fetched, err := w.tr.WireFetch(ctx, FetchRequest{V: ProtocolVersion, ID: id, Max: batch, WaitMillis: wait.Milliseconds()})
		if errors.Is(err, ErrUnknownWorker) {
			w.log.Warn("fleet worker expired by coordinator; re-registering", "id", id)
			return
		}
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			w.log.Warn("fleet worker fetch failed", "id", id, "err", err, "retry", backoff)
			if SleepCtx(ctx, backoff) != nil {
				return
			}
			backoff = min(2*backoff, 5*time.Second)
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
// leases each group's cells contiguously, and one fetch holds at most one
// group per SimKey, so a group ends where the machine changes. Comparing
// machines (Cell.SameMachine) finds that without hashing a SimKey per
// cell.
func leaseGroups(cells []LeaseCell) [][]LeaseCell {
	var groups [][]LeaseCell
	start := 0
	for i := 1; i < len(cells); i++ {
		if !cells[i].Cell.SameMachine(cells[i-1].Cell) {
			groups = append(groups, cells[start:i])
			start = i
		}
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

// evaluate runs one leased group through the Executor's group path. An
// in-process group lease carries its own context, canceled once every
// task waiting on the group is, so an abandoned in-process evaluation
// stops promptly; a remote worker's groups run under its own context.
func (w *Worker) evaluate(ctx context.Context, group []LeaseCell) []CellReport {
	if group[0].ctx != nil {
		ctx = group[0].ctx
	}
	cells := make([]fusleep.Cell, len(group))
	keys := make([]string, len(group))
	for i := range group {
		cells[i], keys[i] = group[i].Cell, group[i].Key
	}
	w.inflight.Add(int64(len(group)))
	results, errs := w.Exec.EvalGroup(ctx, cells, keys)
	w.inflight.Add(-int64(len(group)))
	reports := make([]CellReport, len(group))
	for i, lc := range group {
		r := CellReport{Lease: lc.Lease, Key: lc.Key}
		if errs[i] != nil {
			r.Error = ToWireError(errs[i])
		} else {
			r.Result = &results[i]
		}
		reports[i] = r
	}
	w.takeSpans(reports)
	return reports
}

// report delivers outcomes, retrying transport errors so a network blip
// does not strand finished work past its lease; it reports false when
// serve should end (shutdown or expiry).
func (w *Worker) report(ctx context.Context, id string, reports []CellReport) bool {
	backoff := 100 * time.Millisecond
	for attempt := 0; ; attempt++ {
		resp, err := w.tr.WireReport(ctx, ReportRequest{V: ProtocolVersion, ID: id, Results: reports})
		if err == nil {
			if resp.Accepted < len(reports) {
				w.log.Info("fleet worker reports were stale (leases requeued)", "id", id,
					"stale", len(reports)-resp.Accepted, "reports", len(reports))
			}
			return true
		}
		if errors.Is(err, ErrUnknownWorker) || ctx.Err() != nil || attempt >= 4 {
			return false
		}
		w.log.Warn("fleet worker report failed", "id", id, "err", err, "retry", backoff)
		if SleepCtx(ctx, backoff) != nil {
			return false
		}
		backoff = min(2*backoff, 2*time.Second)
	}
}

// bye tells the coordinator this worker is leaving so its work requeues
// immediately instead of after a lease timeout. The worker's own context
// is already canceled here, so the goodbye gets a short detached one.
func (w *Worker) bye(id string) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second) //fusleepvet:ctx-ok shutdown path; the run context is already canceled
	defer cancel()
	_, _ = w.tr.WireHeartbeat(ctx, HeartbeatRequest{V: ProtocolVersion, ID: id, Bye: true})
}
