package server

import (
	"net/http"
	"runtime"
	"sync"
	"time"

	"github.com/archsim/fusleep/internal/fleet"
	"github.com/archsim/fusleep/internal/telemetry"
)

// registerMetrics wires every server metric into s.reg: the mutation
// counters the hot paths bump directly, scrape-time funcs over engine,
// store, and fleet stats, the latency histograms, and the per-worker fleet
// collectors (remote workers, or a standalone server's in-process ones).
// Called once from New, before any traffic.
func (s *Server) registerMetrics() {
	reg := s.reg

	role := "standalone"
	if s.cfg.Fleet != nil {
		role = "coordinator"
	}
	reg.NewGaugeCollector("fusleepd_build_info",
		"Build and role metadata; the value is always 1.",
		[]string{"go_version", "role"},
		func() []telemetry.Sample {
			return []telemetry.Sample{{Labels: []string{runtime.Version(), role}, Value: 1}}
		})

	// Mutation counters. The field names and metric names predate the
	// registry; tests read them back through Counter.Load.
	s.requests = reg.NewCounter("fusleepd_http_requests_total", "HTTP requests served.")
	s.submitted = reg.NewCounter("fusleepd_sweeps_submitted_total", "Sweep jobs accepted.")
	s.tunesSubmit = reg.NewCounter("fusleepd_tunes_submitted_total", "Tuner jobs accepted.")
	s.probesDone = reg.NewCounter("fusleepd_tune_probes_total", "Tuner probes evaluated.")
	s.rejected = reg.NewCounter("fusleepd_sweeps_rejected_total", "Sweep submissions rejected.")
	s.tunesReject = reg.NewCounter("fusleepd_tunes_rejected_total", "Tuner submissions rejected.")
	s.cellsDone = reg.NewCounter("fusleepd_cells_completed_total", "Sweep cells completed successfully: evaluated fresh or served from the result store at dispatch.")
	s.cellsFailed = reg.NewCounter("fusleepd_cells_failed_total", "Sweep cells that failed with a real error.")
	s.retries = reg.NewCounter("fusleepd_cell_retries_total", "Transient cell failures retried with backoff.")
	s.sheds = reg.NewCounter("fusleepd_load_shed_total", "Submissions shed with 429 while the backlog was full.")
	s.replays = reg.NewCounter("fusleepd_recovery_replays_total", "Jobs replayed from the WAL at startup.")
	s.storeServed = reg.NewCounter("fusleepd_store_served_total", "Cells and tuner probes served from the durable result store at dispatch.")
	s.walErrs = reg.NewCounter("fusleepd_wal_errors_total", "WAL appends that failed (the job ran non-durably).")

	// Latency distributions.
	s.evalSeconds = reg.NewHistogram("fusleepd_cell_eval_seconds",
		"Cell evaluation attempt latency, local and fleet-reported.", telemetry.FineBuckets)
	s.httpSeconds = reg.NewHistogramVec("fusleepd_http_request_seconds",
		"HTTP request duration by mux route and status code.", nil, "route", "code")
	s.queueWait = reg.NewHistogram("fusleepd_queue_wait_seconds",
		"Time a cell waits between dispatch and its lease to a worker.", telemetry.FineBuckets)
	s.roundtrip = reg.NewHistogram("fusleepd_worker_roundtrip_seconds",
		"Lease-to-report round trip per cell.", nil)
	s.retryBackoff = reg.NewHistogram("fusleepd_retry_backoff_seconds",
		"Backoff slept before transient-cell retries.", nil)
	s.stageSeconds = reg.NewHistogramVec("fusleepd_trace_stage_seconds",
		"Per-stage durations observed by the cell-lifecycle trace recorder.", nil, "stage")

	// Scrape-time values: engine, queue, and job-state gauges.
	counterFn := reg.NewCounterFunc
	gaugeFn := reg.NewGaugeFunc
	counterFn("fusleepd_sim_runs_total", "Pipeline simulations executed by the engine.",
		func() float64 { return float64(s.eng.Stats().Simulations) })
	counterFn("fusleepd_sim_cache_hits_total", "Simulation requests served from the cross-call cache.",
		func() float64 { return float64(s.eng.Stats().CacheHits) })
	counterFn("fusleepd_sim_inflight_joins_total", "Simulation requests that joined an identical in-flight run.",
		func() float64 { return float64(s.eng.Stats().InflightJoins) })
	gaugeFn("fusleepd_sim_cache_hit_rate", "Fraction of simulation requests that avoided a fresh run.",
		func() float64 { return s.eng.Stats().HitRate() })
	gaugeFn("fusleepd_queue_depth", "Cells waiting in worker queues or for a worker to register.",
		func() float64 { return float64(s.queueDepth()) })
	gaugeFn("fusleepd_pending_cells", "Admission-controlled backlog of unsettled cells.",
		func() float64 { return float64(s.pendingCells.Load()) })
	gaugeFn("fusleepd_sweeps_active", "Sweep jobs not yet in a terminal state.",
		func() float64 { sweeps, _ := s.activeJobs(); return float64(sweeps) })
	gaugeFn("fusleepd_tunes_active", "Tuner jobs not yet in a terminal state.",
		func() float64 { _, tunes := s.activeJobs(); return float64(tunes) })
	gaugeFn("fusleepd_cells_per_second", "Completed cells per second of uptime.",
		func() float64 { return float64(s.cellsDone.Load()) / max(time.Since(s.start).Seconds(), 1e-9) })
	gaugeFn("fusleepd_uptime_seconds", "Seconds since the server started.",
		func() float64 { return time.Since(s.start).Seconds() })
	gaugeFn("fusleepd_trace_jobs", "Job traces held in the in-memory trace ring.",
		func() float64 { return float64(s.trace.Jobs()) })

	if rs := s.cfg.Results; rs != nil {
		counterFn("fusleepd_store_hits_total", "Result-store lookups that found a journaled cell.",
			func() float64 { return float64(rs.Stats().Hits) })
		counterFn("fusleepd_store_puts_total", "Cell results journaled to the result store.",
			func() float64 { return float64(rs.Stats().Puts) })
		counterFn("fusleepd_store_put_errors_total", "Cell results the result store failed to journal; their cells are recomputed on replay.",
			func() float64 { return float64(rs.Stats().PutErrors) })
		gaugeFn("fusleepd_store_results", "Distinct cell results in the durable store.",
			func() float64 { return float64(rs.Stats().Results) })
		gaugeFn("fusleepd_store_journal_bytes", "On-disk size of the result journal.",
			func() float64 { return float64(rs.Stats().Bytes) })
		gaugeFn("fusleepd_store_invalid_records", "Intact result records skipped at open as not canonical; their cells are recomputed.",
			func() float64 { return float64(rs.Stats().Invalid) })
	}
	if jl := s.cfg.Jobs; jl != nil {
		gaugeFn("fusleepd_wal_bytes", "On-disk size of the job WAL.",
			func() float64 { return float64(jl.Bytes()) })
	}

	fl := s.fleet
	gaugeFn("fusleepd_fleet_workers", "Registered fleet workers.",
		func() float64 { return float64(fl.Stats().Workers) })
	gaugeFn("fusleepd_fleet_queued", "Cells queued on worker queues.",
		func() float64 { return float64(fl.Stats().Queued) })
	gaugeFn("fusleepd_fleet_leased", "Cells leased to workers awaiting reports.",
		func() float64 { return float64(fl.Stats().Leased) })
	gaugeFn("fusleepd_fleet_unassigned", "Cells orphaned while no worker was registered.",
		func() float64 { return float64(fl.Stats().Unassigned) })
	counterFn("fusleepd_fleet_dispatched_total", "Cells dispatched into the fleet.",
		func() float64 { return float64(fl.Stats().Dispatched) })
	counterFn("fusleepd_fleet_joins_total", "Dispatches that joined identical in-flight fleet work.",
		func() float64 { return float64(fl.Stats().Joins) })
	counterFn("fusleepd_fleet_completed_total", "Fleet cells reported successfully.",
		func() float64 { return float64(fl.Stats().Completed) })
	counterFn("fusleepd_fleet_failed_total", "Fleet cells reported as errors.",
		func() float64 { return float64(fl.Stats().Failed) })
	counterFn("fusleepd_fleet_requeues_total", "Cells requeued after a worker left or expired.",
		func() float64 { return float64(fl.Stats().Requeues) })
	counterFn("fusleepd_fleet_rebalanced_total", "Queued cells rerouted when a worker joined.",
		func() float64 { return float64(fl.Stats().Rebalanced) })
	counterFn("fusleepd_fleet_expired_total", "Workers expired after missed heartbeats.",
		func() float64 { return float64(fl.Stats().Expired) })
	counterFn("fusleepd_fleet_stale_reports_total", "Reports discarded because their lease had been requeued.",
		func() float64 { return float64(fl.Stats().Stale) })

	// Per-worker breakdown, labeled by routing identity: queue/lease
	// depths from the coordinator's own books, inflight/evaluated from
	// each worker's latest heartbeat.
	// Label tuples are kept per membership position and reused while the
	// position's worker ID holds, so scraping a steady membership
	// allocates none.
	var labelMu sync.Mutex
	var labels [][]string
	workerSamples := func(pick func(fleet.WorkerInfo) float64) func() []telemetry.Sample {
		return func() []telemetry.Sample {
			ws := fl.Workers()
			out := make([]telemetry.Sample, len(ws))
			labelMu.Lock()
			defer labelMu.Unlock()
			for i, w := range ws {
				if i == len(labels) {
					labels = append(labels, nil)
				}
				if labels[i] == nil || labels[i][0] != w.ID {
					labels[i] = []string{w.ID}
				}
				out[i] = telemetry.Sample{Labels: labels[i], Value: pick(w)}
			}
			return out
		}
	}
	workerGauge := func(name, help string, pick func(fleet.WorkerInfo) float64) {
		reg.NewGaugeCollector(name, help, []string{"worker"}, workerSamples(pick))
	}
	workerCounter := func(name, help string, pick func(fleet.WorkerInfo) float64) {
		reg.NewCounterCollector(name, help, []string{"worker"}, workerSamples(pick))
	}
	workerGauge("fusleepd_fleet_worker_queued", "Cells queued for the worker.",
		func(w fleet.WorkerInfo) float64 { return float64(w.Queued) })
	workerGauge("fusleepd_fleet_worker_leased", "Cells leased to the worker awaiting reports.",
		func(w fleet.WorkerInfo) float64 { return float64(w.Leased) })
	workerGauge("fusleepd_fleet_worker_inflight", "Evaluations in flight on the worker (self-reported).",
		func(w fleet.WorkerInfo) float64 { return float64(w.Inflight) })
	workerCounter("fusleepd_fleet_worker_completed_total", "Cells the worker reported successfully.",
		func(w fleet.WorkerInfo) float64 { return float64(w.Done) })
	workerCounter("fusleepd_fleet_worker_failed_total", "Cells the worker reported as errors.",
		func(w fleet.WorkerInfo) float64 { return float64(w.Failed) })
	workerCounter("fusleepd_fleet_worker_evaluated_total", "Evaluation attempts the worker ran (self-reported).",
		func(w fleet.WorkerInfo) float64 { return float64(w.Evaluated) })
}

// handleMetrics renders the registry in the Prometheus text exposition
// format from one reused buffer, so steady-state scrapes do not allocate.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.scrapeMu.Lock()
	defer s.scrapeMu.Unlock()
	s.scrapeBuf.Reset()
	s.reg.WriteText(&s.scrapeBuf)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(s.scrapeBuf.Bytes())
}

// activeJobs counts the still-running jobs of each kind.
func (s *Server) activeJobs() (sweeps, tunes int) {
	s.mu.Lock()
	jobs := make([]queueJob, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		if j.jobState() != StateRunning {
			continue
		}
		if _, ok := j.(*tuneJob); ok {
			tunes++
		} else {
			sweeps++
		}
	}
	return sweeps, tunes
}
