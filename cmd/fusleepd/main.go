// Command fusleepd serves sleep-policy design-space sweeps over HTTP: a
// long-lived fusleep.Engine behind a fleet coordinator's bounded worker
// queues. Clients submit policy × technology × FU-count grids, stream
// per-cell results back as NDJSON while the sweep runs, and identical
// cells — across requests and across clients — are computed once.
//
// Usage:
//
//	fusleepd -addr :8080
//	fusleepd -addr :8080 -shards 8 -queue 128 -window 500000 -parallel 4
//	fusleepd -addr :8080 -store-dir /var/lib/fusleepd -cell-timeout 30s -max-retries 2
//	fusleepd -role coordinator -addr :8080 -store-dir /var/lib/fusleepd
//	fusleepd -role worker -coordinator http://coord:8080 -worker-parallel 4
//
// # Roles
//
// The daemon runs in one of three roles (-role):
//
//   - standalone (default): intake, queueing, and evaluation in one
//     process — a coordinator with -shards in-process workers.
//   - coordinator: owns job intake, the WAL, and the content-addressed
//     result store, but evaluates nothing itself. Cells route to registered
//     workers by rendezvous hashing; a worker that crashes or partitions
//     has its leased cells requeued to the survivors, and already-reported
//     cells replay for free from the store.
//   - worker: a listener-less evaluation process running the in-process
//     workers' loop against a remote coordinator (-coordinator): register,
//     long-poll for leased cells, evaluate, report. Workers may join and
//     leave at any time.
//
// In both serving roles -queue bounds each worker's queued cells; a full
// queue blocks dispatch, which surfaces as 429 + Retry-After.
//
// With -store-dir the daemon is crash-safe: accepted jobs are fsynced to a
// write-ahead log before they are acknowledged, completed cells are
// journaled under their content-addressed configuration hash, and a
// restart over the same directory replays every unfinished job — serving
// its already-journaled cells from disk and recomputing only what the
// crash lost. -cell-timeout bounds a single cell evaluation (0 disables
// the deadline); -max-retries retries transiently failing cells with
// deterministically jittered exponential backoff.
//
// Endpoints (see API.md for the full contract):
//
//	POST   /v1/sweeps          submit a sweep grid (429 + Retry-After when full)
//	GET    /v1/sweeps/{id}     stream per-cell NDJSON results (?poll=1 snapshots)
//	DELETE /v1/sweeps/{id}     cancel a sweep
//	POST   /v1/optimize        submit a Pareto-aware tuner run
//	GET    /v1/optimize/{id}   stream per-probe NDJSON results (?poll=1 snapshots)
//	DELETE /v1/optimize/{id}   cancel a tuner run
//	GET    /v1/jobs            every retained job, sweeps and tunes alike
//	GET    /v1/jobs/{id}       stream or poll either job kind
//	DELETE /v1/jobs/{id}       cancel either job kind
//	GET    /v1/workloads       registered benchmarks
//	GET    /v1/policies        registered sleep policies and their knobs
//	GET    /v1/classes         functional-unit classes
//	POST   /v1/fleet/...       worker wire protocol (coordinator role)
//	GET    /v1/fleet/workers   live fleet membership (coordinator role)
//	GET    /healthz            liveness (503 while draining)
//	GET    /readyz             readiness (503 while draining, recovering, or shedding)
//	GET    /metrics            Prometheus text exposition: counters, gauges, histograms
//	GET    /v1/jobs/{id}/trace per-cell lifecycle span timeline (NDJSON)
//	GET    /debug/pprof/...    runtime profiles (with -pprof)
//
// Observability: -log-level and -log-format select the structured log's
// threshold and encoding (text or json); every line carries the job, cell
// key, and worker involved. /metrics includes latency histograms (cell
// evaluation, HTTP requests by route, queue wait, fleet round trips, retry
// backoff, journal appends) alongside the counters, and each job keeps a
// bounded in-memory trace of its cells' lifecycle stages, served by
// /v1/jobs/{id}/trace.
//
// On SIGTERM/SIGINT the daemon stops accepting sweeps, drains every queued
// and in-flight cell (bounded by -drain-timeout), finishes open response
// streams, and exits. A drain that exceeds its deadline aborts the
// remaining jobs; with -store-dir those stay pending in the WAL and the
// next start resumes them. A worker sends a goodbye on shutdown so the
// coordinator requeues its outstanding cells immediately.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"github.com/archsim/fusleep"
	"github.com/archsim/fusleep/internal/fleet"
	"github.com/archsim/fusleep/internal/server"
	"github.com/archsim/fusleep/internal/store"
	"github.com/archsim/fusleep/internal/telemetry"
)

// newLogger builds the daemon's structured logger from the -log-level and
// -log-format flags.
func newLogger(level, format string) (*slog.Logger, error) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("bad -log-format %q (want text or json)", format)
	}
}

func main() {
	addr := flag.String("addr", ":8080", "listen address (standalone and coordinator roles)")
	role := flag.String("role", "standalone", `daemon role: "standalone", "coordinator", or "worker"`)
	shards := flag.Int("shards", 0, "in-process workers (standalone role; 0 = min(GOMAXPROCS, 8))")
	queue := flag.Int("queue", 64, "queued cells per worker before dispatch blocks (standalone and coordinator roles)")
	maxCells := flag.Int("max-cells", 4096, "largest accepted sweep, in cells")
	window := flag.Uint64("window", 1_000_000, "default instruction window per benchmark")
	maxWindow := flag.Uint64("max-window", 10_000_000, "largest accepted per-request window")
	parallel := flag.Int("parallel", 0, "max concurrent simulations (0 = GOMAXPROCS)")
	cache := flag.Bool("cache", true, "enable the cross-request simulation cache")
	drainTimeout := flag.Duration("drain-timeout", 2*time.Minute, "max time to drain in-flight cells on shutdown")
	storeDir := flag.String("store-dir", "", "durable store directory: result journal + job WAL (empty = in-memory only)")
	cellTimeout := flag.Duration("cell-timeout", 0, "per-cell evaluation deadline (0 = none)")
	maxRetries := flag.Int("max-retries", 2, "additional attempts for transiently failing cells")
	syncEvery := flag.Int("sync-every", 1, "fsync the result journal every n appends (1 = every result durable)")
	coordURL := flag.String("coordinator", "http://localhost:8080", "coordinator base URL (worker role)")
	workerName := flag.String("worker-name", "", "worker label sent at registration (worker role; default hostname)")
	workerTTL := flag.Duration("worker-ttl", 10*time.Second, "heartbeat lease before a silent worker is expired (coordinator role)")
	workerParallel := flag.Int("worker-parallel", 0, "concurrent SimKey-group evaluations (0 = GOMAXPROCS; worker role)")
	logLevel := flag.String("log-level", "info", "structured log threshold: debug, info, warn, or error")
	logFormat := flag.String("log-format", "text", `structured log encoding: "text" or "json"`)
	pprofOn := flag.Bool("pprof", false, "mount runtime profiles under /debug/pprof/ (standalone and coordinator roles)")
	flag.Parse()

	logger, err := newLogger(*logLevel, *logFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fusleepd: %v\n", err)
		os.Exit(2)
	}

	switch *role {
	case "standalone", "coordinator":
	case "worker":
		runWorker(*coordURL, *workerName, *window, *parallel, *cache,
			*cellTimeout, *maxRetries, *workerParallel, logger)
		return
	default:
		fmt.Fprintf(os.Stderr, "fusleepd: unknown -role %q (want standalone, coordinator, or worker)\n", *role)
		os.Exit(2)
	}

	// One registry serves the whole daemon: the server's metrics and the
	// store's append-latency histogram render in a single /metrics scrape.
	reg := telemetry.NewRegistry()
	appendSeconds := reg.NewHistogramVec("fusleepd_store_append_seconds",
		"Durable journal append latency by journal (results or jobs).", telemetry.FineBuckets, "journal")

	var st *store.Store
	if *storeDir != "" {
		var err error
		st, err = store.Open(*storeDir, store.Options{
			SyncEvery: *syncEvery,
			Observe:   func(op string, s float64) { appendSeconds.With(op).Observe(s) },
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "fusleepd: open store: %v\n", err)
			os.Exit(1)
		}
		rs := st.Results.Stats()
		if rs.Recovered > 0 || rs.TruncatedBytes > 0 {
			logger.Info("store recovered", "dir", *storeDir,
				"results", rs.Recovered, "tornBytes", rs.TruncatedBytes)
		}
		if rs.Invalid > 0 {
			logger.Warn("store skipped invalid result records; their cells will be recomputed",
				"dir", *storeDir, "invalid", rs.Invalid)
		}
	}

	// The result store goes only to the server: it is checked at dispatch
	// and written at one site, the coordinator's result hook.
	cfg := server.Config{
		Engine: fusleep.NewEngine(
			fusleep.WithWindow(*window),
			fusleep.WithParallelism(*parallel),
			fusleep.WithCache(*cache),
		),
		Shards:      *shards,
		MaxCells:    *maxCells,
		MaxWindow:   *maxWindow,
		CellTimeout: *cellTimeout,
		MaxRetries:  *maxRetries,
		Registry:    reg,
		Logger:      logger,
		Pprof:       *pprofOn,
	}
	if st != nil {
		cfg.Results = st.Results
		cfg.Jobs = st.Jobs
	}
	if *role == "coordinator" {
		cfg.Fleet = fleet.NewCoordinator(fleet.Config{WorkerTTL: *workerTTL})
	}
	srv := server.New(cfg)
	srv.Coordinator().SetQueueDepth(*queue)
	if replayed, err := srv.Recover(); err != nil {
		logger.Error("recovery failed", "err", err)
	} else if replayed > 0 {
		logger.Info("replayed unfinished jobs from the WAL", "jobs", replayed)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		logger.Info("fusleepd listening", "addr", *addr, "role", *role)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	case <-ctx.Done():
	}

	// Graceful drain: stop accepting sweeps, finish queued and in-flight
	// cells, then close the listener once open streams have delivered the
	// final events.
	logger.Info("draining in-flight cells")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		logger.Warn("drain incomplete", "err", err)
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("shutdown", "err", err)
	}
	<-errc // ListenAndServe has returned http.ErrServerClosed
	if st != nil {
		if err := st.Close(); err != nil {
			logger.Warn("close store", "err", err)
		}
	}
	logger.Info("fusleepd bye")
}

// runWorker is the -role=worker entry point: no listener, no store — just
// an engine behind the fleet's fetch/evaluate/report loop until SIGTERM.
func runWorker(coordinator, name string, window uint64, parallel int, cache bool,
	cellTimeout time.Duration, maxRetries, workerParallel int, logger *slog.Logger) {
	if name == "" {
		name, _ = os.Hostname()
	}
	if workerParallel <= 0 {
		workerParallel = runtime.GOMAXPROCS(0)
	}
	eng := fusleep.NewEngine(
		fusleep.WithWindow(window),
		fusleep.WithParallelism(parallel),
		fusleep.WithCache(cache),
	)
	w := &fleet.Worker{
		Coordinator: coordinator,
		Name:        name,
		Exec: &fleet.Executor{
			Engine:      eng,
			CellTimeout: cellTimeout,
			Retry: fleet.RetryPolicy{
				MaxRetries: maxRetries,
				Seed:       0x66_75_73_6c_65_65_70, // "fusleep": match the server's jitter
			},
		},
		Parallel: workerParallel,
		Logger:   logger,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	logger = logger.With("worker", name)
	logger.Info("worker dialing coordinator", "coordinator", coordinator, "parallel", workerParallel)
	if err := w.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
		logger.Error("worker exiting on error", "err", err)
		os.Exit(1)
	}
	logger.Info("worker bye")
}
