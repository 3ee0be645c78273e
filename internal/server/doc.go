// Package server implements fusleepd, the sweep-service daemon: an
// HTTP/JSON front end over a shared fusleep.Engine. Submitted sweep grids
// are expanded into cells and fed through a bounded job queue. In
// standalone mode cells are routed to worker shards by their simulation
// identity (SimKey), so every cell needing the same simulations lands on
// the same shard and deduplicates through the engine's simulation cache
// instead of racing each other. Results stream back per cell as NDJSON,
// and the server drains in-flight cells gracefully on shutdown. Each
// result is encoded once: a stream line splices the canonical bytes the
// result store holds (or one json.Marshal when no store is wired in),
// so a store hit is served without a decode, and each batch of lines
// that completed between two stream wake-ups is flushed once.
//
// Tuner jobs (POST /v1/optimize) share the same machinery: the tuner's
// probes are cells routed through the same queue, so tuner and sweep
// workloads dedupe against each other. Sweeps and tune runs are two typed
// entry points over one internal job resource — listing, polling,
// streaming, and cancellation go through the shared jobs handlers, and
// GET /v1/jobs shows both kinds side by side.
//
// # Fleet mode
//
// With Config.Fleet set (a *fleet.Coordinator), the server evaluates
// nothing locally: accepted cells are dispatched to remote fusleepd
// workers by rendezvous hashing on Cell.SimKey over the live worker set,
// so each machine is simulated once, on one worker. Workers dial in over
// the versioned /v1/fleet wire protocol (register, heartbeat, long-poll
// fetch, report); the coordinator leases them whole SimKey groups and
// requeues the leases of any worker that misses its heartbeat TTL, so a
// worker crash mid-sweep loses nothing. Identical cells (same Cell.Key)
// from different jobs join the same in-flight assignment fleet-wide, and
// when a result store is wired in, reported cells are journaled under
// their configuration hash and later submissions short-circuit through
// the store without redispatching. Full-queue backpressure on a worker
// propagates to submission as 429 + Retry-After. See the internal/fleet
// package for the coordinator, worker loop, and wire types.
//
// # Durability and fault tolerance
//
// With a store wired in (Config.Results + Config.Jobs, typically from one
// store.Open directory), the daemon is crash-safe: accepted jobs are
// fsynced to a write-ahead log before they are acknowledged, completed
// cells are journaled under their content-addressed configuration hash,
// and Recover replays any job the previous process never finished —
// serving its already-journaled cells from disk and recomputing only what
// the crash actually lost. Worker failures are contained per cell: panics
// become typed CellErrors, an optional per-cell deadline bounds runaway
// evaluations, and transient failures retry with deterministically
// jittered exponential backoff (fleet.Executor, shared by standalone
// shards and remote workers). When the backlog fills, submissions shed
// with 429 and a Retry-After hint instead of queueing without bound.
//
// # Lifecycle
//
// A server moves through three externally visible phases:
//
//	           New + Recover                    Drain/Close
//	recovering ─────────────────▶ accepting ─────────────────▶ draining
//	(WAL replay; /readyz 503,    (/readyz 200 while the      (/healthz and
//	 /healthz 200)                backlog has room)            /readyz 503;
//	                                                           queued cells
//	                                                           finish, then
//	                                                           workers stop)
//
// /healthz is liveness (503 only while draining); /readyz is readiness —
// it also reports 503 before WAL recovery has run and while load shedding
// is active. A forced Close (or an expired Drain deadline) is the
// in-process stand-in for a crash: aborted jobs are deliberately left
// unfinished in the WAL so the next start replays them.
//
// # Endpoints
//
// Every error response, on every endpoint, is the canonical envelope
// {"error": {"code": "...", "message": "..."}} with a machine-readable
// code (fleet.CodeBadRequest, fleet.CodeBacklogFull, ...). See API.md at
// the repository root for the full contract.
//
//	POST   /v1/sweeps          submit a grid, returns {id, cells}
//	                           (429 + Retry-After when the backlog is full)
//	GET    /v1/sweeps          list sweep jobs
//	GET    /v1/sweeps/{id}     stream per-cell results as NDJSON (?poll=1 for
//	                           a point-in-time JSON snapshot instead)
//	DELETE /v1/sweeps/{id}     cancel a sweep; in-flight cells abort promptly
//	POST   /v1/optimize        submit a tuner run, returns {id, maxEvals}
//	                           (429 + Retry-After when the backlog is full)
//	GET    /v1/optimize        list tune jobs
//	GET    /v1/optimize/{id}   stream per-probe results as NDJSON (?poll=1
//	                           for a snapshot)
//	DELETE /v1/optimize/{id}   cancel a tune job
//	GET    /v1/jobs            list all jobs (sweeps and tune runs) with
//	                           recovered/worker attribution
//	GET    /v1/jobs/{id}       stream or poll any job by id
//	DELETE /v1/jobs/{id}       cancel any job by id
//	GET    /v1/workloads       the registered benchmark suite
//	GET    /v1/policies        the registered sleep policies and their knobs
//	GET    /v1/classes         the functional-unit classes
//	GET    /healthz            liveness (503 while draining)
//	GET    /readyz             readiness (503 while draining, recovering, or
//	                           shedding load)
//	GET    /metrics            Prometheus-style counters and gauges
//
// Coordinator mode additionally serves the worker wire protocol:
//
//	POST   /v1/fleet/register   worker join; returns {id, ttlMillis}
//	POST   /v1/fleet/heartbeat  keepalive (bye=true deregisters gracefully)
//	POST   /v1/fleet/fetch      long-poll lease of queued cells
//	POST   /v1/fleet/report     deliver results/errors for held leases
//	GET    /v1/fleet/workers    the live worker set with queue/lease depths
package server
