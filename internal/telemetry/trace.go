package telemetry

import (
	"sync"
	"time"
)

// Cell-lifecycle stages, in the order a healthy fleet cell visits them.
// Standalone cells skip the fleet stages (leased, reported); store-served
// cells skip straight from dispatch to store_served.
const (
	StageSubmitted   = "submitted"    // job accepted by the HTTP layer
	StageJournaled   = "journaled"    // job fsynced to the WAL
	StageReplayed    = "replayed"     // job re-registered from the WAL after a restart
	StageDispatched  = "dispatched"   // cell routed to a fleet worker
	StageStoreServed = "store_served" // cell served from the durable result store
	StageLeased      = "leased"       // cell fetched by a fleet worker
	StageEvaluated   = "evaluated"    // one evaluation attempt finished (attempt=N)
	StageReported    = "reported"     // fleet worker's report accepted
	StageRequeued    = "requeued"     // cell requeued off a dead or departing worker
	StageStored      = "stored"       // result journaled to the content-addressed store
	StageCompleted   = "completed"    // cell settled successfully in its job
	StageFailed      = "failed"       // cell settled as a real failure
	StageStreamed    = "streamed"     // a client stream delivered the job's end event
)

// Stages lists every stage constant, in the order above.
var Stages = [...]string{
	StageSubmitted, StageJournaled, StageReplayed, StageDispatched,
	StageStoreServed, StageLeased, StageEvaluated, StageReported,
	StageRequeued, StageStored, StageCompleted, StageFailed, StageStreamed,
}

// Event is one span of a job's trace: what happened, to which cell, where,
// and how long since the previous event for that cell.
type Event struct {
	// Seq is the event's 1-based ordinal within its job trace (dropped
	// events still consume ordinals, so gaps reveal truncation).
	Seq int `json:"seq"`
	// Time is the coordinator-side wall time the event was recorded.
	Time time.Time `json:"t"`
	// Stage is one of the Stage constants.
	Stage string `json:"stage"`
	// Key is the cell's configuration hash; empty for job-level events.
	Key string `json:"key,omitempty"`
	// Worker is the fleet worker involved, when any.
	Worker string `json:"worker,omitempty"`
	// Attempt numbers evaluation attempts (1-based).
	Attempt int `json:"attempt,omitempty"`
	// Seconds is the stage's duration: remote-measured for evaluated
	// events, otherwise the time since the cell's previous local event.
	Seconds float64 `json:"seconds,omitempty"`
	// Detail carries free-form context ("12 cells", "lease expired").
	Detail string `json:"detail,omitempty"`
	// Err is the error message for failed stages.
	Err string `json:"err,omitempty"`
}

// jobTrace is one job's bounded event list.
type jobTrace struct {
	id      string
	start   time.Time
	events  []Event
	dropped int
	// lastByKey is the per-cell local timeline: the time of the last
	// locally stamped event for each key ("" is the job-level chain).
	lastByKey map[string]time.Time
}

// Entry is one event bound for a job's trace, the unit RecordBatch takes.
type Entry struct {
	Job string
	Event
}

// Recorder keeps the last N job traces in a bounded ring. All methods are
// safe for concurrent use and no-ops on a nil receiver, so call sites need
// no guards. Events recorded for unknown (never started or evicted) jobs
// are dropped silently.
type Recorder struct {
	mu        sync.Mutex
	maxJobs   int
	maxEvents int
	now       func() time.Time
	onStage   func(stage string, seconds float64)
	jobs      map[string]*jobTrace
	order     []string // insertion order, oldest first
}

// NewRecorder builds a recorder keeping up to maxJobs traces of up to
// maxEvents events each (defaults 64 and 512).
func NewRecorder(maxJobs, maxEvents int) *Recorder {
	if maxJobs <= 0 {
		maxJobs = 64
	}
	if maxEvents <= 0 {
		maxEvents = 512
	}
	return &Recorder{
		maxJobs:   maxJobs,
		maxEvents: maxEvents,
		now:       time.Now,
		jobs:      make(map[string]*jobTrace),
	}
}

// SetClock injects the recorder's clock (tests).
func (r *Recorder) SetClock(now func() time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.now = now
	r.mu.Unlock()
}

// SetStageObserver arms a hook invoked once per recorded event with the
// stage name and its duration; the server feeds per-stage histograms
// through it. The hook runs after the recorder lock is released, so it
// may be called concurrently and for one batch after another batch's
// events; it must be safe for concurrent use.
func (r *Recorder) SetStageObserver(fn func(stage string, seconds float64)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.onStage = fn
	r.mu.Unlock()
}

// Start begins (or restarts) a job's trace, evicting the oldest trace
// when the ring is full. keys sizes the per-cell timeline for the number
// of cells the job is expected to touch (0 when unknown).
func (r *Recorder) Start(jobID string, keys int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.jobs[jobID]; ok {
		r.evictLocked(jobID)
	}
	for len(r.jobs) >= r.maxJobs && len(r.order) > 0 {
		r.evictLocked(r.order[0])
	}
	r.jobs[jobID] = &jobTrace{
		id:        jobID,
		start:     r.now(),
		lastByKey: make(map[string]time.Time, keys+1),
	}
	r.order = append(r.order, jobID)
}

// evictLocked drops one trace. Callers hold r.mu.
func (r *Recorder) evictLocked(jobID string) {
	if _, ok := r.jobs[jobID]; !ok {
		return
	}
	delete(r.jobs, jobID)
	for i, id := range r.order {
		if id == jobID {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
}

// Record appends one event to a job's trace, stamping its sequence
// number, time, and — when Seconds is unset — the elapsed time since the
// cell's previous event (or the trace start).
func (r *Recorder) Record(jobID string, ev Event) {
	one := [1]Entry{{Job: jobID, Event: ev}}
	r.RecordBatch(one[:])
}

// RecordBatch records entries in order, as Record would one by one,
// except that it takes the lock once and reads the clock once, so every
// event of the batch carries the same time. It stamps each recorded
// entry's Seq, Time and Seconds in place and leaves Seq 0 on an entry
// whose job is unknown; the observer sees the recorded entries after the
// lock is released.
func (r *Recorder) RecordBatch(entries []Entry) {
	if r == nil || len(entries) == 0 {
		return
	}
	r.mu.Lock()
	now := r.now()
	for i := range entries {
		e := &entries[i]
		e.Seq = 0
		if jt, ok := r.jobs[e.Job]; ok {
			r.appendLocked(jt, &e.Event, now)
		}
	}
	onStage := r.onStage
	r.mu.Unlock()
	if onStage == nil {
		return
	}
	for i := range entries {
		if entries[i].Seq != 0 {
			onStage(entries[i].Stage, entries[i].Seconds)
		}
	}
}

// appendLocked stamps ev at now and appends it to jt. Callers hold r.mu.
func (r *Recorder) appendLocked(jt *jobTrace, ev *Event, now time.Time) {
	ev.Time = now
	if ev.Seconds == 0 {
		// Locally timed stage: delta since the cell's previous local event.
		prev, ok := jt.lastByKey[ev.Key]
		if !ok {
			prev = jt.start
		}
		ev.Seconds = now.Sub(prev).Seconds()
		jt.lastByKey[ev.Key] = now
	}
	// Remote-measured durations (evaluated spans from workers) do not
	// advance the local timeline; the next local delta still measures
	// from the last coordinator-side event.
	ev.Seq = len(jt.events) + jt.dropped + 1
	if len(jt.events) < r.maxEvents {
		jt.events = append(jt.events, *ev)
	} else {
		jt.dropped++
	}
}

// Snapshot returns a copy of a job's events plus how many were dropped to
// the per-job bound; ok is false when the trace was never started or has
// been evicted.
func (r *Recorder) Snapshot(jobID string) (events []Event, dropped int, ok bool) {
	if r == nil {
		return nil, 0, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	jt, found := r.jobs[jobID]
	if !found {
		return nil, 0, false
	}
	events = make([]Event, len(jt.events))
	copy(events, jt.events)
	return events, jt.dropped, true
}

// Jobs returns how many traces the ring currently holds.
func (r *Recorder) Jobs() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.jobs)
}
