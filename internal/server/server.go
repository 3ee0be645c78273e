package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"iter"
	"log/slog"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/archsim/fusleep"
	"github.com/archsim/fusleep/internal/fault"
	"github.com/archsim/fusleep/internal/fleet"
	"github.com/archsim/fusleep/internal/store"
	"github.com/archsim/fusleep/internal/telemetry"
)

// Config parameterizes a Server.
type Config struct {
	// Engine executes the cells. Required.
	Engine *fusleep.Engine
	// Shards is how many in-process workers a standalone server starts on
	// its private coordinator, each evaluating one SimKey group at a time
	// (default: min(GOMAXPROCS, 8)). Ignored when Fleet is set.
	Shards int
	// MaxCells rejects sweeps that expand to more cells than this, and
	// tuner runs asking for a larger evaluation budget (default 4096).
	MaxCells int
	// MaxWindow rejects jobs asking for more than this many instructions
	// per benchmark run (default 10,000,000), bounding worst-case cell cost.
	MaxWindow uint64
	// MaxRetained bounds how many jobs (sweeps and tunes, with their
	// per-cell results) stay queryable (default 256). When a new submission
	// would exceed it, the oldest *terminal* jobs are evicted; running jobs
	// are never evicted, so a long-lived daemon's memory stays bounded.
	MaxRetained int
	// MaxPending is the load-shedding threshold: once the unsettled
	// backlog (sweep cells not yet settled plus running tune budgets)
	// reaches it, new submissions get 429 with a Retry-After hint instead
	// of queueing without bound (default: MaxCells).
	MaxPending int
	// Results, when set, is the durable content-addressed result store:
	// dispatch serves already-journaled cells and tuner probes from it, the
	// coordinator's result hook journals every freshly computed one, and
	// /metrics surfaces its stats.
	Results *store.ResultStore
	// Jobs, when set, is the job write-ahead log: accepted submissions are
	// fsynced to it before they are acknowledged, terminal jobs are marked
	// finished, and Recover replays the difference after a restart.
	Jobs *store.JobLog
	// CellTimeout bounds each cell evaluation attempt; a cell that exceeds
	// it fails permanently with a typed timeout CellError (default 0: no
	// per-cell deadline).
	CellTimeout time.Duration
	// MaxRetries is how many additional attempts a transiently failing
	// cell gets, with exponential deterministically jittered backoff
	// (default 0: fail fast).
	MaxRetries int
	// RetryBase is the first retry's nominal backoff (default 10ms).
	RetryBase time.Duration
	// Fault arms the server's fault-injection points for chaos tests; nil
	// (production) injects nothing.
	Fault *fault.Injector
	// Fleet, when set, runs the server as a fleet coordinator: cells
	// dispatch to registered remote workers and the /v1/fleet wire
	// endpoints are mounted. Nil (the default) is the standalone daemon:
	// New builds a private coordinator and starts Shards in-process workers
	// on it. Either way every cell takes the same dispatch path.
	Fleet *fleet.Coordinator
	// Registry, when set, is the metrics registry the server registers
	// into; the daemon shares one registry between the server and the
	// store so /metrics is a single exposition. Nil creates a private one.
	Registry *telemetry.Registry
	// Logger receives the server's structured logs (submissions, sheds,
	// recovery, drain). Nil discards.
	Logger *slog.Logger
	// Pprof mounts net/http/pprof under /debug/pprof/ when true.
	Pprof bool
	// TraceJobs and TraceEvents bound the in-memory trace ring: the last
	// TraceJobs job traces are kept, each capped at TraceEvents events
	// (defaults 64 and 512).
	TraceJobs   int
	TraceEvents int
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = min(runtime.GOMAXPROCS(0), 8)
	}
	if c.MaxCells <= 0 {
		c.MaxCells = 4096
	}
	if c.MaxWindow == 0 {
		c.MaxWindow = 10_000_000
	}
	if c.MaxRetained <= 0 {
		c.MaxRetained = 256
	}
	if c.MaxPending <= 0 {
		c.MaxPending = c.MaxCells
	}
	return c
}

// queueJob is the shared job resource: the retention registry's view of a
// submitted job — sweep or tune — and the handler set's uniform surface
// for listing, streaming, polling, and canceling either kind. The typed
// /v1/sweeps and /v1/optimize endpoints and the kind-agnostic /v1/jobs
// endpoints all go through it.
type queueJob interface {
	// jobState returns the job's lifecycle state (StateRunning, ...).
	jobState() string
	// requestCancel aborts the job; safe to call repeatedly.
	requestCancel()
	// info snapshots the job for listings and cancel responses.
	info() jobInfo
	// servePoll writes the ?poll=1 point-in-time JSON snapshot.
	servePoll(w http.ResponseWriter)
	// serveStream writes the NDJSON event stream until the job ends or the
	// client goes away.
	serveStream(w http.ResponseWriter, r *http.Request)
}

// Server is the sweep-and-tune service: job intake over a fleet
// coordinator — remote workers, or in-process ones on a private
// coordinator — plus the HTTP handlers that feed and observe it. Create
// with New, serve its Handler, and call Drain (then Close) on shutdown.
type Server struct {
	cfg   Config
	eng   *fusleep.Engine
	mux   *http.ServeMux
	start time.Time

	// fleet executes every dispatched cell (see Coordinator); stopWorkers
	// stops a standalone server's in-process workers.
	fleet       *fleet.Coordinator
	stopWorkers func()
	feeders     sync.WaitGroup

	mu        sync.Mutex
	jobs      map[string]queueJob
	order     []string // submission order, for listing and eviction
	seq       uint64
	draining  bool
	drainOnce sync.Once
	drainDone chan struct{} // closed once, after the workers exit
	closing   atomic.Bool   // forced shutdown: terminal aborts stay pending in the WAL
	recovered atomic.Bool   // WAL replay finished (vacuously true without a WAL)

	// pendingCells is the admission-controlled backlog: cells of accepted
	// sweeps not yet settled plus the full evaluation budget of running
	// tune jobs. Submissions shed (429) once it reaches MaxPending.
	pendingCells atomic.Int64

	// Observability: the metrics registry every counter below registers
	// into, the cell-lifecycle trace recorder, and the structured logger.
	reg   *telemetry.Registry
	trace *telemetry.Recorder
	log   *slog.Logger

	// counters (registered; Load() keeps them readable in tests)
	requests    *telemetry.Counter
	submitted   *telemetry.Counter
	rejected    *telemetry.Counter // sweep submissions rejected
	cellsDone   *telemetry.Counter
	cellsFailed *telemetry.Counter
	tunesSubmit *telemetry.Counter
	tunesReject *telemetry.Counter
	probesDone  *telemetry.Counter
	retries     *telemetry.Counter // transient cell failures retried
	sheds       *telemetry.Counter // submissions shed with 429
	replays     *telemetry.Counter // jobs replayed from the WAL
	storeServed *telemetry.Counter // cells and probes served from the result store at dispatch
	walErrs     *telemetry.Counter // WAL appends that failed (job ran non-durably)

	// distributions
	evalSeconds  *telemetry.Histogram    // per-attempt cell evaluation latency
	httpSeconds  *telemetry.HistogramVec // request duration by route and code
	queueWait    *telemetry.Histogram    // dispatch → lease
	roundtrip    *telemetry.Histogram    // fleet lease → report per cell
	retryBackoff *telemetry.Histogram    // backoff slept before retries
	stageSeconds *telemetry.HistogramVec // per-trace-stage durations

	// scrapeMu serializes /metrics renders over the one reused buffer, so
	// steady-state scrapes allocate nothing.
	scrapeMu  sync.Mutex
	scrapeBuf bytes.Buffer
}

// New builds a server and, when it is standalone, starts its in-process
// workers. It panics if cfg.Engine is nil, since every request needs one.
func New(cfg Config) *Server {
	if cfg.Engine == nil {
		panic("server: Config.Engine is required")
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		eng:       cfg.Engine,
		start:     time.Now(),
		fleet:     cfg.Fleet,
		jobs:      make(map[string]queueJob),
		drainDone: make(chan struct{}),
	}
	if s.fleet == nil {
		s.fleet = fleet.NewCoordinator(fleet.Config{})
	}
	s.reg = cfg.Registry
	if s.reg == nil {
		s.reg = telemetry.NewRegistry()
	}
	s.log = cfg.Logger
	if s.log == nil {
		s.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s.trace = telemetry.NewRecorder(cfg.TraceJobs, cfg.TraceEvents)
	s.registerMetrics()
	// Every recorded trace stage feeds the per-stage histogram; the three
	// stages with a natural latency reading also feed their dedicated ones.
	stages := stageHistograms{vec: s.stageSeconds}
	s.trace.SetStageObserver(func(stage string, seconds float64) {
		stages.of(stage).Observe(seconds)
		switch stage {
		case telemetry.StageLeased:
			s.queueWait.Observe(seconds)
		case telemetry.StageEvaluated:
			s.evalSeconds.Observe(seconds)
		case telemetry.StageReported:
			s.roundtrip.Observe(seconds)
		}
	})
	// Without a WAL there is nothing to replay; with one, readiness waits
	// for Recover.
	s.recovered.Store(cfg.Jobs == nil)
	// Results are journaled as workers report them, and lease expiry ticks
	// in the background until drain completes.
	s.fleet.SetOnResult(s.fleetResult)
	s.fleet.SetObservers(s.trace, s.log)
	go s.expiryLoop()
	s.stopWorkers = func() {}
	if cfg.Fleet == nil {
		s.stopWorkers = s.fleet.StartLocal(cfg.Shards, fleet.Executor{
			Engine:      cfg.Engine,
			CellTimeout: cfg.CellTimeout,
			Fault:       cfg.Fault,
			Retry: fleet.RetryPolicy{
				MaxRetries: cfg.MaxRetries,
				Base:       cfg.RetryBase,
				Seed:       0x66_75_73_6c_65_65_70, // "fusleep"
			},
			OnRetry: func(key string, attempt int, delay time.Duration) {
				s.retries.Inc()
				s.retryBackoff.Observe(delay.Seconds())
				s.log.Debug("cell retry scheduled", "key", key, "attempt", attempt, "backoff", delay)
			},
		}, s.log)
	}
	s.mux = http.NewServeMux()
	s.routes()
	return s
}

// Coordinator returns Config.Fleet, or a standalone server's private one.
func (s *Server) Coordinator() *fleet.Coordinator { return s.fleet }

// fleetResult is the coordinator's result hook, run once per worker
// report with its freshly computed cells — normally one SimKey group —
// and the only place a fresh result is encoded. It leaves each cell's
// canonical bytes, or its encode error, on the cell's Settled entry for
// the coordinator to fan out, and journals the encoded cells in one
// append: the daemon's only put. The coordinator runs it before any
// waiting task is settled, so the journal append lands before the stream
// lines, and a requeued replay of reported work is served from the store
// at dispatch instead of recomputed.
func (s *Server) fleetResult(results []fleet.Settled) {
	puts := make([]store.Put, 0, len(results))
	for i := range results {
		r := &results[i]
		if r.Canon, r.Err = store.EncodeCell(r.Result); r.Err != nil {
			r.Canon, r.Err = nil, fmt.Errorf("encode cell %s result: %w", r.Key, r.Err)
			continue
		}
		puts = append(puts, store.Put{Key: r.Key, Canon: r.Canon})
	}
	if s.cfg.Results == nil {
		return
	}
	// Put failures surface as fusleepd_store_put_errors_total, and the
	// trace shows no stored stage; the job still completes (it just loses
	// the replay-for-free guarantee).
	s.cfg.Results.PutCells(puts)
	stored := make([]telemetry.Entry, 0, len(puts))
	for _, r := range results {
		// puts holds the encoded results in order; puts[0] is r's.
		if r.Err == nil {
			if puts[0].Err == nil && r.TraceID != "" {
				stored = append(stored, telemetry.Entry{Job: r.TraceID, Event: telemetry.Event{Stage: telemetry.StageStored, Key: r.Key}})
			}
			puts = puts[1:]
		}
	}
	s.trace.RecordBatch(stored)
}

// stageHistograms resolves each trace stage's child of
// fusleepd_trace_stage_seconds once, on the stage's first observation, so
// the per-event observer skips HistogramVec.With's label join and lookup.
type stageHistograms struct {
	vec   *telemetry.HistogramVec
	hists [len(telemetry.Stages)]atomic.Pointer[telemetry.Histogram]
}

// of returns stage's histogram.
func (h *stageHistograms) of(stage string) *telemetry.Histogram {
	i := slices.Index(telemetry.Stages[:], stage)
	if i < 0 {
		return h.vec.With(stage)
	}
	hist := h.hists[i].Load()
	if hist == nil {
		hist = h.vec.With(stage)
		h.hists[i].Store(hist)
	}
	return hist
}

// expiryLoop ticks fleet lease expiry so a crashed worker's cells requeue
// even while no other fleet traffic arrives. It stops when the drain
// completes.
func (s *Server) expiryLoop() {
	tick := max(s.fleet.TTL()/2, 10*time.Millisecond)
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.fleet.Expire()
		case <-s.drainDone:
			return
		}
	}
}

// Handler returns the server's HTTP handler with request accounting and
// per-route duration histograms (labeled by the mux pattern that matched,
// or "unmatched"). Routes the mux does not know (404) or knows under a
// different method (405) get the canonical JSON error envelope instead of
// the mux's plain-text defaults, so every error the daemon emits has one
// shape.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Inc()
		start := time.Now() //fusleepvet:nondet-ok request duration observation; never feeds results
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		route := "unmatched"
		if h, pattern := s.mux.Handler(r); pattern == "" {
			rec := &statusRecorder{header: make(http.Header)}
			h.ServeHTTP(rec, r)
			if rec.code == http.StatusMethodNotAllowed {
				if allow := rec.header.Get("Allow"); allow != "" {
					w.Header().Set("Allow", allow)
				}
				writeError(sw, http.StatusMethodNotAllowed, fleet.CodeMethod,
					"method %s not allowed for %s", r.Method, r.URL.Path)
			} else {
				writeError(sw, http.StatusNotFound, fleet.CodeNotFound,
					"no route for %s %s", r.Method, r.URL.Path)
			}
		} else {
			route = pattern
			// Serve through the mux, not h directly: only ServeHTTP binds
			// the matched pattern's path values onto the request.
			s.mux.ServeHTTP(sw, r)
		}
		s.httpSeconds.With(route, strconv.Itoa(sw.code)).Observe(time.Since(start).Seconds())
	})
}

// statusRecorder captures the status a handler would have written,
// discarding the body; Handler uses it to learn whether the mux's
// fallback is a 404 or a 405 before enveloping it.
type statusRecorder struct {
	header http.Header
	code   int
}

func (r *statusRecorder) Header() http.Header         { return r.header }
func (r *statusRecorder) WriteHeader(code int)        { r.code = code }
func (r *statusRecorder) Write(p []byte) (int, error) { return len(p), nil }

// statusWriter passes the response through while remembering the status
// code for the request-duration histogram. It forwards Flush so the
// NDJSON job streams keep flushing per event through the wrapper.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(p)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// dispatch is the daemon's one path for a cell, sweep cell and tuner probe
// alike. A cell already journaled in the result store is served from it —
// the path's only store lookup — by calling t.Done with the stored bytes
// and worker "", without reaching a worker; any other cell goes to the
// coordinator, which routes it by SimKey to a worker, joins an identical
// in-flight cell, and journals the result before calling t.Done. dispatch
// blocks under backpressure and reports false, without calling t.Done,
// when the task's context was canceled first; the caller settles the cell
// as skipped.
func (s *Server) dispatch(t fleet.Task) bool {
	if s.cfg.Results != nil && t.Ctx.Err() == nil {
		if canon, ok := s.cfg.Results.ServeCell(t.Key); ok {
			s.storeServed.Inc()
			s.trace.Record(t.TraceID, telemetry.Event{Stage: telemetry.StageStoreServed, Key: t.Key})
			t.Done(t.Index, "", canon, nil)
			return true
		}
	}
	// Record dispatch first: it starts the cell's timeline in the job's
	// trace, so each later stage's delta measures from here.
	s.trace.Record(t.TraceID, telemetry.Event{Stage: telemetry.StageDispatched, Key: t.Key})
	return s.fleet.Dispatch(t) == nil
}

// feed dispatches a sweep job's cells, stopping early if the job is
// aborted; undispatched cells settle as skipped so the job still
// terminates. Cells already in the durable result store are served at
// dispatch, which is what makes a replayed job recompute only its
// unfinished cells. Every cell settles through the job's one settle.
func (s *Server) feed(job *sweepJob) {
	defer s.feeders.Done()
	settle := func(index int, worker string, canon []byte, err error) {
		s.settleCell(job, index, worker, canon, err)
	}
	for t := range cellTasks(job.ctx, job.id, job.cells, job.keys, settle) {
		if !s.dispatch(t) {
			s.release(len(job.cells) - t.Index)
			job.skip(len(job.cells) - t.Index)
			return
		}
	}
}

// cellTasks yields the fleet task of each of a job's cells in order, all
// settling through done. Each cell's key is written to keys before its
// task is yielded, so the cell's settlement can read it back. The SimKey
// is hashed once per run of consecutive same-machine cells, which a grid
// enumerates together.
func cellTasks(ctx context.Context, id string, cells []fusleep.Cell, keys []string, done func(int, string, []byte, error)) iter.Seq[fleet.Task] {
	return func(yield func(fleet.Task) bool) {
		simKey := ""
		for i, c := range cells {
			keys[i] = c.Key()
			if i == 0 || !c.SameMachine(cells[i-1]) {
				simKey = c.SimKey()
			}
			if !yield(fleet.Task{Ctx: ctx, Cell: c, Key: keys[i], SimKey: simKey, Index: i, TraceID: id, Done: done}) {
				return
			}
		}
	}
}

// settleCell is a sweep job's one completion path: it settles cell index
// with its outcome — canonical result bytes, or an error — records the
// trace stage, counts the metrics, and releases the cell's backlog. A
// store-served cell (worker "" and no error) records no stage here: its
// store_served event is its last.
func (s *Server) settleCell(job *sweepJob, index int, worker string, canon []byte, err error) {
	defer s.release(1)
	key := job.keys[index]
	if err != nil {
		s.trace.Record(job.id, telemetry.Event{Stage: telemetry.StageFailed, Key: key, Err: err.Error()})
		job.fail(err, s.cellsFailed.Inc)
		return
	}
	if worker != "" {
		s.trace.Record(job.id, telemetry.Event{Stage: telemetry.StageCompleted, Key: key, Worker: worker})
	}
	// Count before completing: complete may finish the job and release its
	// stream, and the metrics must already agree with what that stream
	// announced.
	s.cellsDone.Inc()
	job.complete(worker, cellLine{key: key, index: index, result: canon})
}

// capacity is the admission-control threshold on the unsettled backlog.
func (s *Server) capacity() int { return s.cfg.MaxPending }

// admit reserves backlog room for n cells, shedding the submission when
// the pending backlog has reached MaxPending. Accepted work must release
// its reservation as it settles.
func (s *Server) admit(n int) bool {
	if pending := s.pendingCells.Load(); pending >= int64(s.capacity()) {
		s.sheds.Inc()
		s.log.Warn("submission shed", "cells", n, "pending", pending, "capacity", s.capacity())
		return false
	}
	s.pendingCells.Add(int64(n))
	return true
}

// release returns n cells of backlog reservation.
func (s *Server) release(n int) { s.pendingCells.Add(-int64(n)) }

// shedBacklog is the single admission gate for submission handlers: it
// reserves backlog room for n cells, and on overload counts the rejection
// on rejects and emits the canonical shed response — a Retry-After header
// plus the CodeBacklogFull 429 envelope — so clients see identical
// backpressure signals from every endpoint. Returns whether the
// submission was admitted.
func (s *Server) shedBacklog(w http.ResponseWriter, rejects *telemetry.Counter, n int) bool {
	if s.admit(n) {
		return true
	}
	rejects.Add(1)
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	writeError(w, http.StatusTooManyRequests, fleet.CodeBacklogFull,
		"backlog full (%d pending cells); retry later", s.pendingCells.Load())
	return false
}

// retryAfterSeconds estimates how long a shed client should wait before
// resubmitting: at least a second, growing with the backlog.
func (s *Server) retryAfterSeconds() int {
	secs := 1 + int(s.pendingCells.Load())/max(s.capacity(), 1)
	return min(secs, 30)
}

// submit registers a job and starts its feeder goroutine (which pushes
// sweep cells or drives a tuner run). It fails once the server is draining.
func (s *Server) submit(id string, job queueJob, run func()) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return errDraining
	}
	s.evictLocked()
	s.jobs[id] = job
	s.order = append(s.order, id)
	s.feeders.Add(1)
	go run()
	return nil
}

// evictLocked drops the oldest terminal jobs until the new submission fits
// under MaxRetained. Running jobs are skipped, so retention never cuts a
// live stream's state out from under it. Callers must hold s.mu.
func (s *Server) evictLocked() {
	if len(s.jobs) < s.cfg.MaxRetained {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		job := s.jobs[id]
		if job.jobState() != StateRunning && len(s.jobs) >= s.cfg.MaxRetained {
			delete(s.jobs, id)
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

var errDraining = errors.New("server is draining; not accepting new jobs")

// lookupSweep finds a sweep job by id.
func (s *Server) lookupSweep(id string) (*sweepJob, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id].(*sweepJob)
	return job, ok
}

// lookupTune finds a tune job by id.
func (s *Server) lookupTune(id string) (*tuneJob, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id].(*tuneJob)
	return job, ok
}

// nextID allocates a job id with the given prefix ("s" for sweeps, "t" for
// tune jobs); the sequence is shared so ids stay globally unique.
func (s *Server) nextID(prefix string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	return jobID(prefix, s.seq)
}

// queueDepth sums the pending (not yet leased) cells: worker queues plus
// orphans waiting for a worker to register.
func (s *Server) queueDepth() int {
	st := s.fleet.Stats()
	return st.Queued + st.Unassigned
}

// Draining reports whether the server has stopped accepting jobs.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain stops accepting new jobs, lets every queued and in-flight cell
// finish (tuner runs drive to completion), and stops the in-process
// workers. If ctx expires first, the remaining jobs are canceled (their
// in-flight cells abort promptly and settle as skipped) and Drain returns
// ctx.Err after the workers exit. Drain is idempotent; concurrent calls —
// and Close calls racing a Drain — share the single drain goroutine.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	s.drainOnce.Do(func() {
		go func() {
			// No new feeders can start (draining is set), so once the live
			// ones finish the queues only shrink.
			s.log.Info("drain started", "queued", s.queueDepth())
			s.feeders.Wait()
			// Wait for the workers to report (or a forced close to cancel)
			// every outstanding assignment. The context is detached on
			// purpose — the drain must outlast the caller's ctx, and a
			// forced close unblocks it by canceling every job.
			_ = s.fleet.Quiesce(context.Background(), 10*time.Millisecond) //fusleepvet:ctx-ok forced close cancels the jobs Quiesce waits on
			s.stopWorkers()
			s.log.Info("drain complete")
			close(s.drainDone)
		}()
	})

	select {
	case <-s.drainDone:
		return nil
	case <-ctx.Done():
		// Expired drains are forced shutdowns: aborted jobs stay pending in
		// the WAL so a restart replays them.
		s.closing.Store(true)
		s.cancelAll()
		<-s.drainDone
		return ctx.Err()
	}
}

// Close force-stops the server: cancel every job, then drain. For tests
// and fatal-error paths; production shutdown should Drain first. Close
// keeps the conventional no-argument signature — after cancelAll every
// in-flight cell is aborting, so the drain below cannot hang. Jobs
// aborted here are deliberately NOT marked finished in the WAL: a forced
// stop is the in-process stand-in for a crash, and the aborted jobs are
// exactly the replay set the next start recovers.
//
//fusleepvet:ctx-ok Close is the forced path; Drain(ctx) is the cancellable one
func (s *Server) Close() {
	s.closing.Store(true)
	s.cancelAll()
	_ = s.Drain(context.Background())
}

// cancelAll aborts every registered job.
func (s *Server) cancelAll() {
	s.mu.Lock()
	jobs := make([]queueJob, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		j.requestCancel()
	}
}

// journalSubmit write-ahead-logs an accepted job — fsynced before the
// submission is acknowledged — and arms its terminal callback. A wedged
// WAL degrades to a non-durable job (it runs, it just will not replay)
// rather than failing the submission.
func (s *Server) journalSubmit(id, kind string, req any, arm func(onTerminal func(string))) {
	if s.cfg.Jobs == nil {
		return
	}
	payload, err := json.Marshal(req)
	if err == nil {
		err = s.cfg.Jobs.Submitted(id, kind, payload)
	}
	if err != nil {
		s.walErrs.Inc()
		s.log.Warn("job WAL append failed; job runs non-durably", "job", id, "kind", kind, "err", err)
		return
	}
	s.trace.Record(id, telemetry.Event{Stage: telemetry.StageJournaled})
	arm(s.finishRecord(id))
}

// finishRecord returns the terminal callback that marks a journaled job
// finished. Shutdown aborts are excluded on purpose: a job canceled
// because the process is dying is still pending work, and leaving it
// unfinished in the WAL is what makes the next start replay it.
func (s *Server) finishRecord(id string) func(state string) {
	return func(state string) {
		if state == StateCanceled && s.closing.Load() {
			return
		}
		if err := s.cfg.Jobs.Finished(id, state); err != nil {
			s.walErrs.Inc()
		}
	}
}

// Recover replays the job WAL: every job submitted but never finished is
// re-registered under its original ID and re-run. Cells already in the
// durable result store are served from disk at dispatch, so a replayed
// sweep recomputes only the cells the crash actually lost. Call Recover
// once, after New and before serving traffic; /readyz reports 503 until
// it has run (when a WAL is configured).
//
//fusleepvet:ctx-ok replayed jobs outlive the call, exactly like submissions
func (s *Server) Recover() (int, error) {
	if s.cfg.Jobs == nil {
		return 0, nil
	}
	// Keep the ID sequence monotonic past every journaled job — finished
	// ones included — so new submissions never collide with replayed IDs.
	s.mu.Lock()
	for _, id := range s.cfg.Jobs.Known() {
		if n, ok := parseJobID(id); ok && n > s.seq {
			s.seq = n
		}
	}
	s.mu.Unlock()

	replayed := 0
	var errs []error
	for _, rec := range s.cfg.Jobs.Pending() {
		if err := s.replay(rec); err != nil {
			// A payload that no longer parses (config drift across the
			// restart) is finished-failed rather than replayed forever.
			errs = append(errs, fmt.Errorf("job %s: %w", rec.ID, err))
			s.log.Warn("WAL replay failed; job marked failed", "job", rec.ID, "kind", rec.Kind, "err", err)
			if ferr := s.cfg.Jobs.Finished(rec.ID, StateFailed); ferr != nil {
				s.walErrs.Inc()
			}
			continue
		}
		replayed++
		s.replays.Inc()
	}
	s.recovered.Store(true)
	if replayed > 0 || len(errs) > 0 {
		s.log.Info("WAL recovery finished", "replayed", replayed, "failed", len(errs))
	}
	return replayed, errors.Join(errs...)
}

// replay re-submits one WAL record under its original ID.
func (s *Server) replay(rec store.JobRecord) error {
	var (
		job    queueJob
		cancel context.CancelFunc
		cells  int // backlog reservation: sweep cells or tune budget
		run    func()
	)
	switch rec.Kind {
	case "sweep":
		var req SweepRequest
		if err := json.Unmarshal(rec.Payload, &req); err != nil {
			return err
		}
		grid, _, err := s.sweepCells(req)
		if err != nil {
			return err
		}
		j := newSweepJob(context.Background(), rec.ID, grid) //fusleepvet:ctx-ok replayed job outlives the call
		j.recovered, j.rec, j.onTerminal = true, s.trace, s.finishRecord(rec.ID)
		job, cancel, cells, run = j, j.cancel, len(grid), func() { s.feed(j) }
	case "tune":
		var req TuneRequest
		if err := json.Unmarshal(rec.Payload, &req); err != nil {
			return err
		}
		opts, budget, err := req.options(s.cfg)
		if err != nil {
			return err
		}
		j := newTuneJob(context.Background(), rec.ID, budget) //fusleepvet:ctx-ok replayed job outlives the call
		j.recovered, j.rec, j.onTerminal = true, s.trace, s.finishRecord(rec.ID)
		job, cancel, cells, run = j, j.cancel, budget, func() { s.runTune(j, opts) }
	default:
		return fmt.Errorf("unknown job kind %q", rec.Kind)
	}
	// Start the trace before submit: the feeder races this function, and
	// its dispatch events must find the trace already live.
	s.trace.Start(rec.ID, cells)
	s.trace.Record(rec.ID, telemetry.Event{Stage: telemetry.StageReplayed, Detail: rec.Kind})
	s.log.Info("replaying journaled job", "job", rec.ID, "kind", rec.Kind, "cells", cells)
	s.pendingCells.Add(int64(cells))
	if err := s.submit(rec.ID, job, run); err != nil {
		s.release(cells)
		cancel()
		return err
	}
	return nil
}

// parseJobID extracts the numeric sequence from a "s-000042"-style job ID.
func parseJobID(id string) (uint64, bool) {
	i := strings.IndexByte(id, '-')
	if i < 0 {
		return 0, false
	}
	n, err := strconv.ParseUint(id[i+1:], 10, 64)
	return n, err == nil
}
