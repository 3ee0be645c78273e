package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"sort"
	"sync"
	"time"

	"github.com/archsim/fusleep"
	"github.com/archsim/fusleep/internal/report"
	"github.com/archsim/fusleep/internal/store"
	"github.com/archsim/fusleep/internal/telemetry"
)

// Sweep job states.
const (
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// sweepJob is one submitted grid: its resolved cell list plus the mutable
// completion state the workers fill in and the stream handlers watch.
type sweepJob struct {
	id    string
	cells []fusleep.Cell
	// keys holds each cell's Cell.Key, written by feed as it dispatches.
	keys    []string
	ctx     context.Context
	cancel  context.CancelFunc
	created time.Time

	// recovered marks a job replayed from the WAL after a restart.
	recovered bool
	// rec receives the job's trace events (nil-safe; nil when untraced).
	rec *telemetry.Recorder
	// onTerminal, when set, is invoked exactly once — outside j.mu — when
	// the job reaches a terminal state; the WAL uses it to mark journaled
	// jobs finished.
	onTerminal func(state string)

	mu       sync.Mutex
	results  []cellLine          // completion order, not grid order
	workers  map[string]struct{} // fleet workers that completed cells
	settled  int                 // cells accounted for (completed + failed + skipped)
	failed   int
	skipped  int
	canceled bool // an explicit cancel request arrived
	err      error
	state    string
	updated  chan struct{} // closed and replaced on a state change while watched
	watched  bool          // a watcher holds updated
}

func newSweepJob(parent context.Context, id string, cells []fusleep.Cell) *sweepJob {
	ctx, cancel := context.WithCancel(parent)
	return &sweepJob{
		id:      id,
		cells:   cells,
		keys:    make([]string, len(cells)),
		ctx:     ctx,
		cancel:  cancel,
		created: time.Now(),
		state:   StateRunning,
		updated: make(chan struct{}),
	}
}

// broadcast wakes every watcher. Callers must hold j.mu.
func (j *sweepJob) broadcast() {
	if !j.watched {
		return
	}
	close(j.updated)
	j.updated, j.watched = make(chan struct{}), false
}

// maybeFinish moves the job to its terminal state once every cell is
// accounted for, returning the armed terminal notification (nil when the
// job is still running or has no callback). Callers must hold j.mu and
// invoke the returned func after unlocking.
func (j *sweepJob) maybeFinish() (notify func()) {
	if j.settled < len(j.cells) || j.state != StateRunning {
		return nil
	}
	switch {
	case j.canceled:
		j.state = StateCanceled
	case j.err != nil:
		j.state = StateFailed
	default:
		j.state = StateDone
	}
	if j.onTerminal == nil {
		return nil
	}
	cb, state := j.onTerminal, j.state
	j.onTerminal = nil
	return func() { cb(state) }
}

// cellLine is one completed cell as the job serves it: the cell key, its
// grid index, and its result in the result store's canonical encoding
// (Index 0; store.AppendIndexed sets the index on the way out). result
// may be shared with the store's index and is never modified.
type cellLine struct {
	key    string
	index  int
	result []byte
}

// appendResult appends the line's result JSON, Index set.
func (l cellLine) appendResult(dst []byte) []byte {
	return store.AppendIndexed(dst, l.result, l.index)
}

// appendEvent appends the line's NDJSON "cell" event for the job whose
// JSON-quoted ID is idJSON: byte-for-byte what json.Encoder writes for
// streamEvent{Event: "cell", ID, Key, Result}. The key is hex, so it
// needs no escaping.
func (l cellLine) appendEvent(dst, idJSON []byte) []byte {
	dst = append(dst, `{"event":"cell","id":`...)
	dst = append(dst, idJSON...)
	dst = append(dst, `,"key":"`...)
	dst = append(dst, l.key...)
	dst = append(dst, `","result":`...)
	dst = l.appendResult(dst)
	return append(dst, "}\n"...)
}

// complete records one finished cell; worker names the fleet worker that
// computed it ("" for a cell served from the result store).
func (j *sweepJob) complete(worker string, line cellLine) {
	j.mu.Lock()
	j.results = append(j.results, line)
	if worker != "" {
		if j.workers == nil {
			j.workers = make(map[string]struct{})
		}
		j.workers[worker] = struct{}{}
	}
	j.settled++
	notify := j.maybeFinish()
	j.broadcast()
	j.mu.Unlock()
	if notify != nil {
		notify()
	}
}

// skip accounts for n cells that will never run (job aborted before they
// were dispatched, or a worker dropped them after cancellation).
func (j *sweepJob) skip(n int) {
	if n == 0 {
		return
	}
	j.mu.Lock()
	j.skipped += n
	j.settled += n
	notify := j.maybeFinish()
	j.broadcast()
	j.mu.Unlock()
	if notify != nil {
		notify()
	}
}

// isContextErr reports whether err is a cancellation or deadline error: a
// settlement of aborted work rather than a failure of its own.
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// fail records one cell's error. Cancellation-shaped errors on an already
// aborted job count as skips; a real error latches as the job's failure and
// cancels the remaining cells. countReal runs for a real failure before
// the job can finish, so a metrics scrape taken after the stream's
// terminal event already counts the failure.
func (j *sweepJob) fail(err error, countReal func()) {
	realFailure := false
	j.mu.Lock()
	if isContextErr(err) && (j.canceled || j.err != nil) {
		j.skipped++
	} else {
		j.failed++
		if j.err == nil {
			j.err = err
		}
		realFailure = true
		countReal()
	}
	j.settled++
	notify := j.maybeFinish()
	j.broadcast()
	j.mu.Unlock()
	if realFailure {
		// Abort the job's remaining cells; their cancellation errors and
		// unfed remainders settle as skips.
		j.cancel()
	}
	if notify != nil {
		notify()
	}
}

// jobState implements queueJob for the retention registry.
func (j *sweepJob) jobState() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// requestCancel marks the job canceled and aborts its context. Safe to call
// repeatedly and after completion.
func (j *sweepJob) requestCancel() {
	j.mu.Lock()
	if j.state == StateRunning {
		j.canceled = true
	}
	j.mu.Unlock()
	j.cancel()
}

// infoLocked builds the job's wire snapshot. Callers must hold j.mu.
func (j *sweepJob) infoLocked() jobInfo {
	info := jobInfo{
		ID:        j.id,
		Kind:      KindSweep,
		State:     j.state,
		Cells:     len(j.cells),
		Completed: len(j.results),
		Failed:    j.failed,
		Skipped:   j.skipped,
		Recovered: j.recovered,
		Workers:   workerList(j.workers),
		Created:   j.created,
	}
	if j.err != nil {
		info.Error = j.err.Error()
	}
	return info
}

// info implements queueJob for listings.
func (j *sweepJob) info() jobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.infoLocked()
}

// watch returns the lines that completed at or after offset, the current
// state, and the channel that closes on the next change — everything a
// streaming handler needs per iteration, under one lock acquisition.
func (j *sweepJob) watch(offset int) (fresh []cellLine, state string, updated <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if offset < len(j.results) {
		fresh = make([]cellLine, len(j.results)-offset)
		copy(fresh, j.results[offset:])
	}
	j.watched = true
	return fresh, j.state, j.updated
}

// sweepPollResponse is the ?poll=1 snapshot: status plus completed
// results, each the same JSON document the stream's cell line carries.
type sweepPollResponse struct {
	jobInfo
	Results []json.RawMessage `json:"results"`
}

// servePoll implements queueJob: the point-in-time JSON snapshot. The
// results are spliced from their stored encodings, never decoded.
func (j *sweepJob) servePoll(w http.ResponseWriter) {
	j.mu.Lock()
	info := j.infoLocked()
	lines := append([]cellLine(nil), j.results...)
	j.mu.Unlock()
	results := make([]json.RawMessage, len(lines))
	for i, l := range lines {
		results[i] = l.appendResult(nil)
	}
	writeJSON(w, http.StatusOK, sweepPollResponse{jobInfo: info, Results: results})
}

// streamEvent is one NDJSON line of a sweep stream.
type streamEvent struct {
	// Event is "sweep" (stream header), "cell" (one completed cell), or
	// "end" (terminal summary; always the last line).
	Event string `json:"event"`
	ID    string `json:"id"`
	// Header and end fields.
	State     string `json:"state,omitempty"`
	Cells     int    `json:"cells,omitempty"`
	Completed int    `json:"completed,omitempty"`
	Failed    int    `json:"failed,omitempty"`
	Skipped   int    `json:"skipped,omitempty"`
	Error     string `json:"error,omitempty"`
	// Cell fields. serveStream writes cell lines with cellLine.appendEvent,
	// which produces exactly this struct's json.Encoder encoding.
	Key    string              `json:"key,omitempty"`
	Result *fusleep.CellResult `json:"result,omitempty"`
}

// streamChunk bounds the bytes serveStream buffers before handing a
// wake-up batch's lines to the connection.
const streamChunk = 32 << 10

// serveStream implements queueJob: a header line, one line per completed
// cell as it lands (completion order), and a terminal summary line. Cell
// lines are spliced from the cells' canonical result bytes, and each
// wake-up's batch of them is flushed once.
func (j *sweepJob) serveStream(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	enc := report.NewStreamEncoder(w)
	info := j.info()
	if err := enc.Encode(streamEvent{Event: "sweep", ID: j.id, State: info.State, Cells: info.Cells}); err != nil {
		return
	}
	idJSON, err := json.Marshal(j.id)
	if err != nil {
		return
	}
	var buf []byte
	sent := 0
	for {
		fresh, state, updated := j.watch(sent)
		for i, line := range fresh {
			buf = line.appendEvent(buf, idJSON)
			if len(buf) >= streamChunk || i == len(fresh)-1 {
				if err := enc.WriteRaw(buf); err != nil {
					return
				}
				buf = buf[:0]
			}
		}
		sent += len(fresh)
		if len(fresh) > 0 {
			enc.Flush()
		}
		if state != StateRunning {
			info := j.info()
			j.rec.Record(j.id, telemetry.Event{Stage: telemetry.StageStreamed, Detail: info.State})
			_ = enc.Encode(streamEvent{
				Event: "end", ID: j.id, State: info.State, Cells: info.Cells,
				Completed: info.Completed, Failed: info.Failed, Skipped: info.Skipped, Error: info.Error,
			})
			return
		}
		select {
		case <-updated:
		case <-r.Context().Done():
			return
		}
	}
}

// workerList renders a worker set as a sorted slice (nil when empty, so
// the field omits cleanly for standalone runs).
func workerList(set map[string]struct{}) []string {
	if len(set) == 0 {
		return nil
	}
	out := make([]string, 0, len(set))
	for w := range set {
		out = append(out, w)
	}
	sort.Strings(out)
	return out
}
