// Package fleet is fusleepd's one execution path: a coordinator that owns
// routing, per-worker queues, and leases, and workers that pull leased
// cells from it and execute them. In the coordinator role the workers are
// remote processes dialing over a versioned JSON wire protocol; a
// standalone daemon runs them in-process (StartLocal), calling the
// coordinator's same wire entry points directly.
//
// # Routing
//
// Cells route to workers by rendezvous (highest-random-weight) hashing on
// Cell.SimKey, the cell's simulation identity (benchmark set, FU mix, L2
// latency, window): every dispatch scores the SimKey against each live
// worker and picks the maximum, so every policy and technology variant of
// one machine — across jobs, requests, and clients — lands on the worker
// whose cache already holds its simulation, and a membership change moves
// only the ~1/N of SimKeys whose maximum changed. The fleet simulates each
// machine once, as the paper's method does, and scores the rest
// closed-form. Cell.Key, the full result identity, still keys the
// duplicate-work join: a second dispatch of a cell already in flight joins
// the first, and one execution fans its result out to every waiter.
//
// # Leasing
//
// Each worker's queue is an ordered list of SimKey groups: a dispatch joins
// the queued group for its SimKey or opens one at the tail. Fetch leases
// whole groups — its max counts groups, so max 1 still returns every queued
// cell of the head group. The group stays the unit of work until it is
// settled: a worker evaluates it with one Engine.RunCells call
// (Executor.EvalGroup; one simulation, every cell scored closed-form off
// it) and reports it in one call, and the coordinator hands the report's
// successful results to its result hook at once, which encodes each,
// leaves its canonical bytes on its Settled entry, and journals the group
// in one store append; only then does each outcome — a report, a join, a
// cancellation — reach the one Done a task's whole job can share, as its
// Index and those bytes, never a decoded result. Fault
// points, retries, deadlines and panic containment stay per cell: a cell
// that a fault point touches runs its attempt alone, and a group call
// that fails re-runs its cells one at a time through the per-cell path.
// The queue bound (QueueDepth) still counts cells.
//
// # Flow control and fault tolerance
//
// Each worker has a bounded pending queue; a dispatch that finds its
// target queue full blocks the feeder, which propagates through the
// server's admission control to 429 + Retry-After at submit. Workers pull
// work (register → heartbeat → fetch → report), so the coordinator never
// dials them. Fetched cells are leased one lease token per cell: if a worker
// misses enough heartbeats its leases and queue are requeued over the
// survivors, a leased group re-forming whole on its new owner, and
// because completed cells are journaled in the result store as they are
// reported, a requeued replay of already-finished work is served from the
// store instead of recomputed.
//
// # Roles
//
// In-process and remote workers run the same loop and the same Executor
// (fault injection, panic containment, per-cell deadline, bounded
// deterministically jittered retry), so a fleet computes byte-identical
// results to a standalone run. Only an in-process lease is aborted, and
// it is aborted per group: an in-process group shares one lease context,
// canceled once every task waiting on any unsettled cell of the group is.
package fleet
