// Package server implements fusleepd, the sweep-service daemon: an
// HTTP/JSON front end over a shared fusleep.Engine. Submitted sweep grids
// are expanded into cells, and every cell — and every tuner probe — takes
// one dispatch path: a cell already in the result store is served from
// it, and any other goes to a fleet.Coordinator, which routes it by
// SimKey (its simulation identity) to a worker, so each machine is
// simulated once and its policy variants score closed-form off that
// worker's cache. Identical cells (same Cell.Key) from different jobs join
// one in-flight assignment, and full worker queues propagate to
// submission as 429 + Retry-After. Results stream back per cell as
// NDJSON, each encoded once: the coordinator's result hook encodes every
// fresh result (store.EncodeCell), whether or not a store is wired in, a
// store hit is served as its journaled bytes, and a stream line splices
// those canonical bytes. Each batch of lines that completed between two
// stream wake-ups is flushed once. Every outcome of a cell — a store hit
// at dispatch, a fresh or failed report, a join, a cancellation — reaches
// its job once, through the one settle method the job (or tuner round)
// shares.
//
// The two roles differ only in where the workers run. A standalone server
// (Config.Fleet nil) builds a private coordinator and starts Config.Shards
// in-process workers on it, which reach it by direct method calls. A
// coordinator (Config.Fleet set) mounts the versioned /v1/fleet wire
// protocol — register, heartbeat, long-poll fetch, report — for remote
// fusleepd workers, and requeues the leases of any worker that misses its
// heartbeat TTL, so a worker crash mid-sweep loses nothing. See the
// internal/fleet package for the coordinator, worker loop, and wire types.
//
// Tuner jobs (POST /v1/optimize) share the same machinery, so tuner and
// sweep workloads dedupe against each other. Sweeps and tune runs are two
// typed entry points over one internal job resource — listing, polling,
// streaming, and cancellation go through the shared jobs handlers, and
// GET /v1/jobs shows both kinds side by side.
//
// # Durability and fault tolerance
//
// With a store wired in (Config.Results + Config.Jobs, typically from one
// store.Open directory), the daemon is crash-safe: accepted jobs are
// fsynced to a write-ahead log before they are acknowledged, completed
// cells are journaled under their content-addressed configuration hash by
// the coordinator's result hook — the bytes it encoded, in one store
// append per worker report, normally one SimKey group, landing before any
// of its cells reaches a stream, with -sync-every counted per record as
// before — and Recover replays any job the previous process never
// finished — serving its already-journaled cells from disk and
// recomputing only what the crash actually lost. Worker failures are
// contained per cell: panics become typed CellErrors, an optional
// per-cell deadline bounds runaway evaluations, and transient failures
// retry with deterministically jittered exponential backoff
// (fleet.Executor, run by in-process and remote workers alike). When the
// backlog fills, submissions shed with 429 and a Retry-After hint.
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
//	                                                           in-process
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
// code (fleet.CodeBadRequest, fleet.CodeBacklogFull, ...). The routes are
// wired in routes (handlers.go); API.md at the repository root is the full
// contract, and cmd/fusleepd lists the endpoints. Only the coordinator role
// serves the /v1/fleet worker wire protocol.
package server
