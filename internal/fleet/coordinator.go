package fleet

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"slices"
	"sort"
	"sync"
	"time"

	"github.com/archsim/fusleep"
	"github.com/archsim/fusleep/internal/telemetry"
)

// ErrUnknownWorker is returned to requests carrying a worker ID the
// coordinator does not know — never registered, expired after missed
// heartbeats, or deregistered. The worker's recovery is to re-register.
var ErrUnknownWorker = errors.New("unknown worker (expired or never registered)")

// Task is one cell the server wants evaluated somewhere in the fleet.
type Task struct {
	Ctx  context.Context
	Cell fusleep.Cell
	// Key is Cell.Key(), computed once by the caller; empty means Dispatch
	// computes it.
	Key string
	// SimKey is Cell.SimKey(), which a caller walking a grid computes once
	// per machine; empty means Dispatch computes it.
	SimKey string
	// Index is the cell's position in its job. Done gets it back, so one
	// Done can serve every cell of a job.
	Index int
	// Done receives the task's one outcome and must not block. A reported
	// cell, success or failure, carries the reporting worker's name; a
	// cancellation (the task's own context error) carries "". A successful
	// report carries the canonical bytes the result hook left on the
	// cell's Settled entry, or the hook's Err as err; without a hook,
	// canon is nil.
	Done func(index int, worker string, canon []byte, err error)
	// TraceID names the job trace the cell belongs to; it rides the wire
	// to workers and keys the coordinator's lifecycle events. Optional.
	TraceID string
}

// Config parameterizes a Coordinator.
type Config struct {
	// QueueDepth bounds each worker's pending (unleased) queue, counted in
	// cells; a dispatch that finds its target full blocks until a fetch
	// frees a slot, which is the backpressure that propagates to
	// submit-time 429s.
	// Requeued work from a dead worker is exempt — losing a worker must
	// never deadlock the survivors — so queues can transiently overshoot.
	// Default 64.
	QueueDepth int
	// WorkerTTL is the heartbeat lease: a worker silent for longer is
	// expired and its queued and leased cells requeued over the survivors.
	// Fetch and report renew it too. Default 10s.
	WorkerTTL time.Duration
	// MaxWait caps a fetch long-poll. Default 30s.
	MaxWait time.Duration
	// Now is the clock; tests inject a fake to drive lease expiry
	// deterministically. Nil means time.Now.
	Now func() time.Time
	// Trace, when set, receives cell-lifecycle events (leased, evaluated,
	// reported, requeued). Nil disables tracing; the Recorder is nil-safe
	// so call sites need no guards.
	Trace *telemetry.Recorder
	// Logger receives membership and requeue decisions. Nil discards.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.WorkerTTL <= 0 {
		c.WorkerTTL = 10 * time.Second
	}
	if c.MaxWait <= 0 {
		c.MaxWait = 30 * time.Second
	}
	return c
}

// member is one registered worker.
type member struct {
	id       string
	name     string
	deadline time.Time
	local    bool                   // in-process (StartLocal): its leases carry an abort context
	queue    []*group               // dispatched, not yet fetched, oldest first
	groups   map[string]*group      // queue's groups by SimKey
	queued   int                    // cells across queue
	leased   map[uint64]*assignment // fetched, not yet reported
	wake     chan struct{}          // closed and replaced when queue gains work while polled
	polled   bool                   // a fetch is waiting on wake
	done     uint64
	failed   uint64
	// Latest heartbeat-reported worker telemetry (nil until one arrives).
	reported *WorkerStats
}

// assignment is one unit of fleet work: a distinct cell key, the tasks
// waiting on it (>1 after a duplicate-work join), and where it currently
// lives. Exactly one member queue, member lease table, or the orphan list
// holds it until it is reported or every waiting task is canceled.
type assignment struct {
	key    string
	simKey string // routing key: the cell's simulation identity
	cell   fusleep.Cell
	tasks  []Task
	first  [1]Task // backs tasks until a join appends a second
	lease  uint64  // nonzero while fetched
	trace  string  // job trace id from the first task, "" when tracing is off

	// held is the in-process group lease a is part of while leased to an
	// in-process worker; nil otherwise.
	held *localLease
}

// newAssignment opens an assignment for a task's cell, in one allocation.
func newAssignment(key, simKey string, t Task) *assignment {
	a := &assignment{key: key, simKey: simKey, cell: t.Cell, trace: t.TraceID}
	a.first[0] = t
	a.tasks = a.first[:]
	return a
}

// localLease is one SimKey group leased to an in-process worker: the
// context every cell of the group evaluates under (LeaseCell.ctx), its
// cancel, and the watches that cancel it once every task waiting on an
// unsettled cell of the group is canceled. One watch serves every task
// that shares a cancellation channel, which for one job's cells is all of
// them.
type localLease struct {
	ctx     context.Context
	abort   context.CancelFunc
	cells   []*assignment     // the group as leased; settled cells no longer hold l
	open    int               // cells still holding l
	watched []<-chan struct{} // Done channels already watched
	stops   []func() bool
}

// canceled reports whether every task waiting on an unsettled cell of l
// is canceled. Callers hold c.mu.
func (l *localLease) canceled() bool {
	for _, a := range l.cells {
		if a.held == l && !a.canceled() {
			return false
		}
	}
	return true
}

// watchLocked aborts l once ctx and every other task waiting on l's
// unsettled cells are canceled. A context that can never be canceled
// needs no watch. Callers hold c.mu.
func (c *Coordinator) watchLocked(l *localLease, ctx context.Context) {
	done := ctx.Done()
	if done == nil || slices.Contains(l.watched, done) {
		return
	}
	l.watched = append(l.watched, done)
	l.stops = append(l.stops, context.AfterFunc(ctx, func() {
		c.mu.Lock()
		if l.open > 0 && l.canceled() {
			l.abort()
		}
		c.mu.Unlock()
	}))
}

// release takes a out of its in-process group lease when it settles or is
// requeued; the last cell out ends the lease context and its watches.
// Callers hold c.mu.
func (a *assignment) release() {
	l := a.held
	if l == nil {
		return
	}
	a.held = nil
	if l.open--; l.open > 0 {
		return
	}
	for _, stop := range l.stops {
		stop()
	}
	l.abort()
	l.cells, l.watched, l.stops = nil, nil, nil
}

// aborted reports whether a's in-process lease was canceled because
// nobody waits for its group any more.
func (a *assignment) aborted() bool {
	return a.held != nil && a.held.ctx.Err() != nil
}

// group is the queued assignments on one member that share a SimKey, in
// dispatch order: the unit Fetch leases. The first cell the worker
// evaluates pays for the simulation; the rest score closed-form off the
// worker's cache.
type group struct {
	simKey string
	cells  []*assignment
}

// push queues a on m, joining m's queued group for a's SimKey or opening
// one at the tail. Callers hold c.mu.
func (m *member) push(a *assignment) {
	g := m.groups[a.simKey]
	if g == nil {
		g = &group{simKey: a.simKey}
		m.groups[a.simKey] = g
		m.queue = append(m.queue, g)
	}
	g.cells = append(g.cells, a)
	m.queued++
}

// pop dequeues m's oldest group. Callers hold c.mu.
func (m *member) pop() *group {
	g := m.queue[0]
	m.queue = m.queue[1:]
	delete(m.groups, g.simKey)
	m.queued -= len(g.cells)
	return g
}

// dropLocked removes a from the duplicate-join index unless a newer
// assignment took its key. Callers hold c.mu.
func (c *Coordinator) dropLocked(a *assignment) {
	if c.byKey[a.key] == a {
		delete(c.byKey, a.key)
	}
}

// canceled reports whether every waiting task has been canceled, making
// the assignment prunable.
func (a *assignment) canceled() bool {
	for _, t := range a.tasks {
		if t.Ctx.Err() == nil {
			return false
		}
	}
	return true
}

// Stats is a point-in-time snapshot of the fleet's state and counters.
type Stats struct {
	Workers    int
	Queued     int // cells, not groups
	Leased     int
	Unassigned int
	Dispatched uint64 // assignments created (joins excluded)
	Joins      uint64 // tasks that joined an in-flight assignment
	Completed  uint64 // assignments reported successfully
	Failed     uint64 // assignments reported as errors
	Requeues   uint64 // assignments requeued off a dead worker
	Rebalanced uint64 // queued assignments moved (in whole groups) to a joining worker
	Expired    uint64 // workers expired after missed heartbeats
	Stale      uint64 // reports discarded because their lease was requeued
}

// Coordinator owns the fleet side of a coordinator-role server: worker
// membership, rendezvous routing on SimKey, per-worker bounded queues of
// SimKey groups, leases, and requeue on worker death. It never dials
// workers; they pull via Fetch/Report.
type Coordinator struct {
	cfg Config

	mu       sync.Mutex
	onResult func(results []Settled)
	workers  map[string]*member
	live     []string // sorted ids of live workers
	seq      uint64   // worker id allocator
	leaseSeq uint64
	byKey    map[string]*assignment // every live assignment by Cell.Key, for duplicate join
	orphans  []*assignment          // work with no live worker to hold it
	space    chan struct{}          // closed and replaced when capacity may have freed

	stats Stats
}

// NewCoordinator builds an empty coordinator.
func NewCoordinator(cfg Config) *Coordinator {
	return &Coordinator{
		cfg:     cfg.withDefaults(),
		workers: make(map[string]*member),
		byKey:   make(map[string]*assignment),
		space:   make(chan struct{}),
	}
}

// Settled is one successfully reported cell as the result hook sees it:
// the cell key, the job trace it was leased under, and its result. The
// hook fills in Canon, the result's canonical bytes, or Err, which fails
// the cell; the coordinator hands either to the cell's waiting tasks.
type Settled struct {
	Key     string
	TraceID string
	Result  fusleep.CellResult
	Canon   []byte
	Err     error
}

// SetOnResult arms the hook invoked once per report that settles at least
// one cell successfully, with those cells in report order, before any
// outcome of the report fans out to its waiting tasks; the server uses it
// to encode a reported group's results and journal them into the
// content-addressed store in one append, so a group is journaled before
// any of its cells is acknowledged. Set it before dispatching.
func (c *Coordinator) SetOnResult(fn func(results []Settled)) {
	c.mu.Lock()
	c.onResult = fn
	c.mu.Unlock()
}

// SetObservers injects the server's trace recorder and logger. Call it
// before any worker registers or any cell is dispatched.
func (c *Coordinator) SetObservers(trace *telemetry.Recorder, logger *slog.Logger) {
	c.mu.Lock()
	c.cfg.Trace, c.cfg.Logger = trace, logger
	c.mu.Unlock()
}

// SetQueueDepth replaces Config.QueueDepth (n <= 0 restores the default).
// Safe while workers are serving: Dispatch reads the bound under c.mu,
// and blocked dispatchers re-check it.
func (c *Coordinator) SetQueueDepth(n int) {
	c.mu.Lock()
	c.cfg.QueueDepth = Config{QueueDepth: n}.withDefaults().QueueDepth
	c.spaceLocked()
	c.mu.Unlock()
}

// discardLogger swallows log records when no Logger is configured.
var discardLogger = slog.New(slog.NewTextHandler(io.Discard, nil))

// logger resolves the configured logger.
func (c *Coordinator) logger() *slog.Logger {
	return cmp.Or(c.cfg.Logger, discardLogger)
}

// now resolves the injectable clock.
func (c *Coordinator) now() time.Time {
	if c.cfg.Now != nil {
		return c.cfg.Now()
	}
	return time.Now() //fusleepvet:nondet-ok lease bookkeeping wall clock; results never depend on it
}

// TTL returns the worker heartbeat lease.
func (c *Coordinator) TTL() time.Duration { return c.cfg.WorkerTTL }

// wakeLocked signals a worker's long-polling fetcher, if one waits.
// Callers hold c.mu.
func (c *Coordinator) wakeLocked(m *member) {
	if !m.polled {
		return
	}
	close(m.wake)
	m.wake, m.polled = make(chan struct{}), false
}

// spaceLocked signals blocked dispatchers that capacity may have freed.
// Callers hold c.mu.
func (c *Coordinator) spaceLocked() {
	close(c.space)
	c.space = make(chan struct{})
}

// pickLocked routes a SimKey to its live worker by rendezvous hashing, or
// nil when no workers are live. Callers hold c.mu.
func (c *Coordinator) pickLocked(simKey string) *member {
	id := RendezvousPick(simKey, c.live)
	if id == "" {
		return nil
	}
	return c.workers[id]
}

// Register adds a worker and rebalances: queued (unleased) groups whose
// rendezvous pick is now the new worker move over whole, and orphaned
// work is re-routed. Returns the assigned worker ID and the heartbeat TTL.
func (c *Coordinator) Register(name string) (string, time.Duration) {
	return c.register(name, false)
}

// register is Register, marking in-process workers local.
func (c *Coordinator) register(name string, local bool) (string, time.Duration) {
	c.mu.Lock()
	c.seq++
	id := fmt.Sprintf("w-%06d", c.seq)
	m := &member{
		id: id, name: name, local: local,
		deadline: c.now().Add(c.cfg.WorkerTTL),
		groups:   make(map[string]*group),
		leased:   make(map[uint64]*assignment),
		wake:     make(chan struct{}),
	}
	c.workers[id] = m
	at := sort.SearchStrings(c.live, id)
	c.live = append(c.live, "")
	copy(c.live[at+1:], c.live[at:])
	c.live[at] = id
	// Rebalance: only unleased groups move, and they move whole — yanking
	// a fetched cell back from a live worker would duplicate work, and the
	// stability property says only ~1/N SimKeys pick the newcomer anyway.
	// Members are visited in id order so the newcomer's queue order is
	// reproducible.
	for _, oid := range c.live {
		other := c.workers[oid]
		if other == m {
			continue
		}
		kept := other.queue[:0]
		for _, g := range other.queue {
			if c.pickLocked(g.simKey) != m {
				kept = append(kept, g)
				continue
			}
			delete(other.groups, g.simKey)
			other.queued -= len(g.cells)
			for _, a := range g.cells {
				m.push(a)
			}
			c.stats.Rebalanced += uint64(len(g.cells))
		}
		other.queue = kept
	}
	for _, a := range c.orphans {
		c.pickLocked(a.simKey).push(a)
	}
	c.orphans = nil
	if m.queued > 0 {
		c.wakeLocked(m)
	}
	c.spaceLocked()
	ttl := c.cfg.WorkerTTL
	rebalanced := m.queued
	c.mu.Unlock()
	c.logger().Info("fleet worker registered",
		"worker", id, "name", name, "ttl", ttl, "rebalanced", rebalanced)
	return id, ttl
}

// Heartbeat renews a worker's lease; stats, when non-nil, replaces the
// worker's self-reported telemetry snapshot.
func (c *Coordinator) Heartbeat(id string, stats *WorkerStats) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.workers[id]
	if !ok {
		return ErrUnknownWorker
	}
	m.deadline = c.now().Add(c.cfg.WorkerTTL)
	if stats != nil {
		m.reported = stats
	}
	return nil
}

// Deregister removes a worker gracefully (the heartbeat Bye), requeueing
// its outstanding work immediately.
func (c *Coordinator) Deregister(id string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.workers[id]
	if !ok {
		return ErrUnknownWorker
	}
	c.removeLocked(m, "worker deregistered")
	return nil
}

// removeLocked drops a worker from membership and requeues everything it
// held over the survivors, tagging each requeue trace event with reason.
// Callers hold c.mu.
func (c *Coordinator) removeLocked(m *member, reason string) {
	delete(c.workers, m.id)
	if at := sort.SearchStrings(c.live, m.id); at < len(c.live) && c.live[at] == m.id {
		c.live = append(c.live[:at], c.live[at+1:]...)
	}
	var orphans []*assignment
	for _, g := range m.queue {
		orphans = append(orphans, g.cells...)
	}
	leases := make([]uint64, 0, len(m.leased))
	for l := range m.leased {
		leases = append(leases, l)
	}
	// Requeue leased work in lease order so recovery is deterministic;
	// a leased group's cells hold consecutive leases, so the group
	// re-forms on its new owner.
	sort.Slice(leases, func(i, j int) bool { return leases[i] < leases[j] })
	for _, l := range leases {
		orphans = append(orphans, m.leased[l])
	}
	m.queue, m.groups, m.queued = nil, make(map[string]*group), 0
	m.leased = make(map[uint64]*assignment)
	woken := map[*member]bool{}
	var requeued []telemetry.Entry
	for _, a := range orphans {
		a.lease = 0
		a.release()
		// Requeue ignores QueueDepth on purpose: survivor queues may
		// transiently overshoot, but a dead worker's cells must land
		// somewhere without blocking inside the lock.
		if t := c.pickLocked(a.simKey); t != nil {
			t.push(a)
			woken[t] = true
		} else {
			c.orphans = append(c.orphans, a)
		}
		c.stats.Requeues++
		if a.trace != "" {
			requeued = append(requeued, telemetry.Entry{Job: a.trace, Event: telemetry.Event{
				Stage: telemetry.StageRequeued, Key: a.key,
				Worker: m.id, Detail: reason,
			}})
		}
	}
	c.cfg.Trace.RecordBatch(requeued)
	for t := range woken {
		c.wakeLocked(t)
	}
	c.spaceLocked()
	c.logger().Info("fleet worker removed",
		"worker", m.id, "name", m.name, "reason", reason, "requeued", len(orphans))
}

// expireLocked removes every worker whose heartbeat lease has lapsed.
// Callers hold c.mu.
func (c *Coordinator) expireLocked(now time.Time) {
	var dead []*member
	for _, m := range c.workers {
		if m.deadline.Before(now) {
			dead = append(dead, m)
		}
	}
	// Deterministic removal order keeps requeue placement reproducible
	// when several workers expire in one tick.
	sort.Slice(dead, func(i, j int) bool { return dead[i].id < dead[j].id })
	for _, m := range dead {
		c.removeLocked(m, "lease expired")
		c.stats.Expired++
	}
}

// Expire runs lease expiry now; the server ticks it periodically.
func (c *Coordinator) Expire() {
	c.mu.Lock()
	c.expireLocked(c.now())
	c.mu.Unlock()
}

// Dispatch routes one task into the fleet: joining an in-flight
// assignment for the same cell key if one exists, otherwise queueing a
// new assignment on the rendezvous worker of the cell's SimKey, in that
// worker's queued group for the SimKey. Routing on SimKey sends every
// policy and technology variant of one machine to the worker whose cache
// already holds its simulation. It blocks while the target queue is full
// — the fleet's backpressure — and returns the task's context error if
// it is canceled while waiting. With no live workers the task parks on
// the orphan list and is routed when a worker registers. An in-process
// lease aborted because all its tasks were canceled is not joined; the
// new task gets a fresh assignment. A remote lease is always joined: its
// worker finishes the cell regardless.
func (c *Coordinator) Dispatch(t Task) error {
	key := t.Key
	if key == "" {
		key = t.Cell.Key()
	}
	simKey := t.SimKey
	if simKey == "" {
		simKey = t.Cell.SimKey()
	}
	for {
		c.mu.Lock()
		c.expireLocked(c.now())
		if a, ok := c.byKey[key]; ok && !a.aborted() {
			a.tasks = append(a.tasks, t)
			if a.held != nil {
				c.watchLocked(a.held, t.Ctx)
			}
			c.stats.Joins++
			c.mu.Unlock()
			return nil
		}
		m := c.pickLocked(simKey)
		if m == nil {
			a := newAssignment(key, simKey, t)
			c.byKey[key] = a
			c.orphans = append(c.orphans, a)
			c.stats.Dispatched++
			c.mu.Unlock()
			return nil
		}
		if m.queued < c.cfg.QueueDepth {
			a := newAssignment(key, simKey, t)
			c.byKey[key] = a
			m.push(a)
			c.stats.Dispatched++
			c.wakeLocked(m)
			c.mu.Unlock()
			return nil
		}
		space := c.space
		c.mu.Unlock()
		//fusleepvet:nondet-ok backpressure wait; dispatch re-evaluates routing from scratch either way
		select {
		case <-space:
		case <-t.Ctx.Done():
			return t.Ctx.Err()
		}
	}
}

// Fetch leases up to max queued SimKey groups to the worker — every cell
// of each, so max 1 still returns a whole group — long-polling up to wait
// (capped at Config.MaxWait) when its queue is empty. A group's cells come
// back contiguous and in dispatch order. An empty response means the poll
// timed out; the worker just fetches again.
func (c *Coordinator) Fetch(ctx context.Context, id string, max int, wait time.Duration) ([]LeaseCell, error) {
	if max <= 0 {
		max = 1
	}
	if wait < 0 {
		wait = 0
	}
	if wait > c.cfg.MaxWait {
		wait = c.cfg.MaxWait
	}
	deadline := c.now().Add(wait)
	for {
		c.mu.Lock()
		now := c.now()
		c.expireLocked(now)
		m, ok := c.workers[id]
		if !ok {
			c.mu.Unlock()
			return nil, ErrUnknownWorker
		}
		m.deadline = now.Add(c.cfg.WorkerTTL)
		canceled := c.pruneQueueLocked(m)
		var out []LeaseCell
		var leased []telemetry.Entry
		for n := 0; n < max && len(m.queue) > 0; n++ {
			g := m.pop()
			out = slices.Grow(out, len(g.cells))
			var lease *localLease
			if m.local {
				ctx, abort := context.WithCancel(context.Background()) //fusleepvet:ctx-ok the lease outlives the fetch; its tasks' contexts cancel it
				lease = &localLease{ctx: ctx, abort: abort, cells: g.cells, open: len(g.cells)}
			}
			for _, a := range g.cells {
				c.leaseSeq++
				a.lease = c.leaseSeq
				m.leased[a.lease] = a
				lc := LeaseCell{
					Lease: a.lease, Key: a.key, Cell: a.cell,
					TraceID: a.trace, ParentSpan: a.lease,
				}
				if lease != nil {
					a.held, lc.ctx = lease, lease.ctx
					for _, t := range a.tasks {
						c.watchLocked(lease, t.Ctx)
					}
				}
				out = append(out, lc)
				if a.trace != "" {
					leased = append(leased, telemetry.Entry{Job: a.trace, Event: telemetry.Event{
						Stage: telemetry.StageLeased, Key: a.key, Worker: id,
					}})
				}
			}
		}
		c.cfg.Trace.RecordBatch(leased)
		if len(out) > 0 || len(canceled) > 0 {
			c.spaceLocked()
		}
		wake := m.wake
		m.polled = true
		c.mu.Unlock()
		deliverCanceled(canceled)
		if len(out) > 0 {
			return out, nil
		}
		remain := deadline.Sub(c.now())
		if remain <= 0 {
			return nil, nil
		}
		timer := time.NewTimer(remain)
		//fusleepvet:nondet-ok long-poll wait; every arm leads back to the same queue inspection
		select {
		case <-wake:
		case <-ctx.Done():
			timer.Stop()
			return nil, ctx.Err()
		case <-timer.C:
			return nil, nil
		}
		timer.Stop()
	}
}

// pruneQueueLocked drops queue assignments whose every waiter is
// canceled, and groups left empty, returning the assignments for
// out-of-lock delivery. Callers hold c.mu.
func (c *Coordinator) pruneQueueLocked(m *member) []*assignment {
	var gone []*assignment
	keptGroups := m.queue[:0]
	for _, g := range m.queue {
		kept := g.cells[:0]
		for _, a := range g.cells {
			if a.canceled() {
				c.dropLocked(a)
				gone = append(gone, a)
			} else {
				kept = append(kept, a)
			}
		}
		g.cells = kept
		if len(kept) > 0 {
			keptGroups = append(keptGroups, g)
		} else {
			delete(m.groups, g.simKey)
		}
	}
	m.queue = keptGroups
	m.queued -= len(gone)
	return gone
}

// deliverCanceled settles pruned assignments: every waiter gets its own
// context error.
func deliverCanceled(gone []*assignment) {
	for _, a := range gone {
		for _, t := range a.tasks {
			t.Done(t.Index, "", nil, t.Ctx.Err())
		}
	}
}

// Report settles previously leased cells. Reports whose lease the
// coordinator no longer holds — the worker was presumed dead and its work
// requeued — are counted stale and discarded; the requeued copy (or the
// result store) wins.
func (c *Coordinator) Report(id string, results []CellReport) (accepted int, err error) {
	// fan is one settled assignment: its failure, or at, the index of its
	// Settled entry.
	type fan struct {
		a   *assignment
		err error
		at  int
	}
	c.mu.Lock()
	m, ok := c.workers[id]
	if !ok {
		c.mu.Unlock()
		return 0, ErrUnknownWorker
	}
	m.deadline = c.now().Add(c.cfg.WorkerTTL)
	fans := make([]fan, 0, len(results))
	settled := make([]Settled, 0, len(results))
	var events []telemetry.Entry
	for _, r := range results {
		a, ok := m.leased[r.Lease]
		if !ok {
			c.stats.Stale++
			continue
		}
		delete(m.leased, r.Lease)
		c.dropLocked(a)
		// An aborted in-process group failed because nobody waits for it
		// any more; its cells settle as canceled, not as fleet failures.
		aborted := a.aborted()
		a.release()
		accepted++
		if a.trace != "" {
			// Splice the worker-measured attempt spans in first (explicit
			// durations), then stamp the reported event, whose local delta
			// measures the full leased-to-reported round trip.
			for _, sp := range r.Trace {
				events = append(events, telemetry.Entry{Job: a.trace, Event: telemetry.Event{
					Stage: telemetry.StageEvaluated, Key: a.key, Worker: id,
					Attempt: sp.Attempt, Seconds: sp.Seconds, Err: sp.Error,
				}})
			}
			ev := telemetry.Entry{Job: a.trace, Event: telemetry.Event{Stage: telemetry.StageReported, Key: a.key, Worker: id}}
			if r.Error != nil {
				ev.Err = r.Error.Message
			}
			events = append(events, ev)
		}
		if r.Error != nil {
			if !aborted {
				m.failed++
				c.stats.Failed++
			}
			fans = append(fans, fan{a: a, err: r.Error.Err()})
		} else {
			m.done++
			c.stats.Completed++
			fans = append(fans, fan{a: a, at: len(settled)})
			settled = append(settled, Settled{Key: a.key, TraceID: a.trace})
			if r.Result != nil {
				settled[len(settled)-1].Result = *r.Result
			}
		}
	}
	c.cfg.Trace.RecordBatch(events)
	name := m.name
	if name == "" {
		name = m.id
	}
	onResult := c.onResult
	c.mu.Unlock()
	// The whole report is journaled before any of its cells is
	// acknowledged to a waiting task.
	if len(settled) > 0 && onResult != nil {
		onResult(settled)
	}
	for _, f := range fans {
		var canon []byte
		err := f.err
		if err == nil {
			canon, err = settled[f.at].Canon, settled[f.at].Err
		}
		for _, t := range f.a.tasks {
			// A task canceled while its cell was in flight settles with its
			// own context error, exactly like the embedded queue.
			if cerr := t.Ctx.Err(); cerr != nil {
				t.Done(t.Index, "", nil, cerr)
			} else {
				t.Done(t.Index, name, canon, err)
			}
		}
	}
	return accepted, nil
}

// WireRegister is Register on wire types, behind /v1/fleet/register.
func (c *Coordinator) WireRegister(_ context.Context, req RegisterRequest) (RegisterResponse, error) {
	if err := checkVersion(req.V); err != nil {
		return RegisterResponse{}, err
	}
	id, ttl := c.Register(req.Name)
	return RegisterResponse{V: ProtocolVersion, ID: id, TTLMillis: ttl.Milliseconds()}, nil
}

// WireHeartbeat renews a worker's lease, or with Bye deregisters it.
func (c *Coordinator) WireHeartbeat(_ context.Context, req HeartbeatRequest) (HeartbeatResponse, error) {
	err := checkVersion(req.V)
	switch {
	case err != nil:
	case req.Bye:
		err = c.Deregister(req.ID)
	default:
		err = c.Heartbeat(req.ID, req.Stats)
	}
	return HeartbeatResponse{V: ProtocolVersion, OK: err == nil}, err
}

// WireFetch is Fetch on wire types; ctx bounds the long poll.
func (c *Coordinator) WireFetch(ctx context.Context, req FetchRequest) (FetchResponse, error) {
	if err := checkVersion(req.V); err != nil {
		return FetchResponse{}, err
	}
	cells, err := c.Fetch(ctx, req.ID, req.Max, time.Duration(req.WaitMillis)*time.Millisecond)
	return FetchResponse{V: ProtocolVersion, Cells: cells}, err
}

// WireReport is Report on wire types.
func (c *Coordinator) WireReport(_ context.Context, req ReportRequest) (ReportResponse, error) {
	if err := checkVersion(req.V); err != nil {
		return ReportResponse{}, err
	}
	accepted, err := c.Report(req.ID, req.Results)
	return ReportResponse{V: ProtocolVersion, Accepted: accepted}, err
}

// Quiesce blocks until no assignments remain — queued, leased, or
// orphaned — expiring dead workers and pruning fully canceled work as it
// polls. The server's drain calls it after the feeders stop, mirroring
// the embedded queue's drain-to-empty.
func (c *Coordinator) Quiesce(ctx context.Context, poll time.Duration) error {
	if poll <= 0 {
		poll = 10 * time.Millisecond
	}
	for {
		c.mu.Lock()
		c.expireLocked(c.now())
		var gone []*assignment
		leased := 0
		for _, m := range c.workers {
			gone = append(gone, c.pruneQueueLocked(m)...)
			leased += len(m.leased)
		}
		kept := c.orphans[:0]
		for _, a := range c.orphans {
			if a.canceled() {
				c.dropLocked(a)
				gone = append(gone, a)
			} else {
				kept = append(kept, a)
			}
		}
		c.orphans = kept
		// An aborted lease may have left byKey but still owes its tasks a
		// settlement.
		empty := len(c.byKey) == 0 && leased == 0
		if len(gone) > 0 {
			c.spaceLocked()
		}
		c.mu.Unlock()
		deliverCanceled(gone)
		if empty {
			return nil
		}
		if err := SleepCtx(ctx, poll); err != nil {
			return err
		}
	}
}

// Stats snapshots the fleet counters and gauges.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Workers = len(c.workers)
	st.Unassigned = len(c.orphans)
	for _, m := range c.workers {
		st.Queued += m.queued
		st.Leased += len(m.leased)
	}
	return st
}

// Workers lists the registered workers, sorted by ID.
func (c *Coordinator) Workers() []WorkerInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]WorkerInfo, 0, len(c.live))
	for _, id := range c.live {
		m := c.workers[id]
		wi := WorkerInfo{
			ID: m.id, Name: m.name,
			Queued: m.queued, Leased: len(m.leased),
			Done: m.done, Failed: m.failed,
		}
		if m.reported != nil {
			wi.Inflight = m.reported.Inflight
			wi.Evaluated = m.reported.Evaluated
		}
		out = append(out, wi)
	}
	return out
}
