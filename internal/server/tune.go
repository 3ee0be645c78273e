package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"github.com/archsim/fusleep"
	"github.com/archsim/fusleep/internal/fleet"
	"github.com/archsim/fusleep/internal/report"
	"github.com/archsim/fusleep/internal/telemetry"
)

// TuneRequest is the wire form of a tuner run: the search space (same
// conventions as SweepRequest — zero values resolve to engine defaults),
// the objective, and the evaluation budget.
type TuneRequest struct {
	// Objective selects the scalarization: "ed" (default), "ed2", or
	// "leakage".
	Objective string `json:"objective,omitempty"`
	// SlowdownCap bounds a candidate's relative delay; 0 = unconstrained.
	SlowdownCap float64 `json:"slowdownCap,omitempty"`
	// Policies selects the policy families to search by name.
	Policies []string `json:"policies,omitempty"`
	// TimeoutRange and SlicesRange bound the refinable parameter axes,
	// inclusive.
	TimeoutRange *[2]int `json:"timeoutRange,omitempty"`
	SlicesRange  *[2]int `json:"slicesRange,omitempty"`
	// FUCounts, Ps, Techs, Benchmarks, Alpha, L2Latency, Window: as in
	// SweepRequest.
	FUCounts   []int      `json:"fuCounts,omitempty"`
	Ps         []float64  `json:"ps,omitempty"`
	Techs      []TechSpec `json:"techs,omitempty"`
	Benchmarks []string   `json:"benchmarks,omitempty"`
	Alpha      float64    `json:"alpha,omitempty"`
	L2Latency  int        `json:"l2Latency,omitempty"`
	Window     uint64     `json:"window,omitempty"`
	// Classes widens the search to per-class policy assignments over the
	// named functional-unit classes (plus a final composition round);
	// empty keeps the single-pool IntALU search.
	Classes []string `json:"classes,omitempty"`
	// AGUs, Mults, FPALUs, FPMults fix the machine's per-class unit counts
	// for every candidate (0 = Table 2 defaults). A dedicated AGU pool is
	// required before "agu" is searchable.
	AGUs    int `json:"agus,omitempty"`
	Mults   int `json:"mults,omitempty"`
	FPALUs  int `json:"fpalus,omitempty"`
	FPMults int `json:"fpmults,omitempty"`
	// MaxEvals bounds distinct cell evaluations (default 64, capped by the
	// service's MaxCells); Rounds bounds refinement rounds (default 4).
	MaxEvals int `json:"maxEvals,omitempty"`
	Rounds   int `json:"rounds,omitempty"`
}

// options validates the request and resolves it into tuner options plus
// the effective evaluation budget.
func (req TuneRequest) options(cfg Config) ([]fusleep.TuneOption, int, error) {
	obj := fusleep.TuneObjective{SlowdownCap: req.SlowdownCap}
	if req.Objective != "" {
		kind, err := fusleep.ParseTuneObjective(req.Objective)
		if err != nil {
			return nil, 0, err
		}
		obj.Kind = kind
	}
	if err := obj.Validate(); err != nil {
		return nil, 0, err
	}
	sp := fusleep.TuneSpace{
		FUCounts:   req.FUCounts,
		AGUs:       req.AGUs,
		Mults:      req.Mults,
		FPALUs:     req.FPALUs,
		FPMults:    req.FPMults,
		Benchmarks: req.Benchmarks,
		Alpha:      req.Alpha,
		L2Latency:  req.L2Latency,
		Window:     req.Window,
	}
	for _, name := range req.Policies {
		p, err := fusleep.ParsePolicy(name)
		if err != nil {
			return nil, 0, err
		}
		sp.Policies = append(sp.Policies, p)
	}
	for _, name := range req.Classes {
		cl, err := fusleep.ParseFUClass(name)
		if err != nil {
			return nil, 0, err
		}
		sp.Classes = append(sp.Classes, cl)
	}
	for _, r := range []*[2]int{req.TimeoutRange, req.SlicesRange} {
		// WithDefaults reads a zero range as unset; a client that sent one
		// asked for an empty range.
		if r != nil && *r == ([2]int{}) {
			return nil, 0, fmt.Errorf("bad parameter range [0, 0]")
		}
	}
	if req.TimeoutRange != nil {
		sp.TimeoutRange = *req.TimeoutRange
	}
	if req.SlicesRange != nil {
		sp.SlicesRange = *req.SlicesRange
	}
	def := fusleep.DefaultTech()
	for _, spec := range req.Techs {
		sp.Techs = append(sp.Techs, spec.tech(def))
	}
	for _, p := range req.Ps {
		sp.Techs = append(sp.Techs, def.WithP(p))
	}
	if err := sp.WithDefaults(def, 1).Validate(); err != nil {
		return nil, 0, err
	}
	if req.L2Latency < 0 {
		return nil, 0, fmt.Errorf("negative l2Latency %d", req.L2Latency)
	}
	if req.Window > cfg.MaxWindow {
		return nil, 0, fmt.Errorf("window %d exceeds the service limit %d", req.Window, cfg.MaxWindow)
	}
	budget := req.MaxEvals
	if budget == 0 {
		budget = 64
	}
	if budget < 0 || budget > cfg.MaxCells {
		return nil, 0, fmt.Errorf("maxEvals %d outside [1, %d]", req.MaxEvals, cfg.MaxCells)
	}
	if req.Rounds < 0 {
		return nil, 0, fmt.Errorf("negative rounds %d", req.Rounds)
	}
	opts := []fusleep.TuneOption{
		fusleep.WithTuneSpace(sp),
		fusleep.WithTuneObjective(obj),
		fusleep.WithTuneBudget(budget),
	}
	if req.Rounds > 0 {
		opts = append(opts, fusleep.WithTuneRounds(req.Rounds))
	}
	return opts, budget, nil
}

// tuneJob is one submitted tuner run: its mutable probe trace, terminal
// result, and the watch machinery the stream handlers share with sweepJob.
type tuneJob struct {
	id       string
	maxEvals int
	ctx      context.Context
	cancel   context.CancelFunc
	created  time.Time

	// recovered marks a job replayed from the WAL after a restart.
	recovered bool
	// rec receives the job's trace events (nil-safe; nil when untraced).
	rec *telemetry.Recorder
	// onTerminal, when set, is invoked exactly once — outside j.mu — when
	// the job reaches a terminal state; the WAL uses it to mark journaled
	// jobs finished.
	onTerminal func(state string)

	mu       sync.Mutex
	probes   []fusleep.TuneProbe
	result   *fusleep.TuneResult
	workers  map[string]struct{} // fleet workers that evaluated probes
	state    string
	canceled bool
	err      error
	updated  chan struct{} // closed and replaced on every state change
}

func newTuneJob(parent context.Context, id string, maxEvals int) *tuneJob {
	ctx, cancel := context.WithCancel(parent)
	return &tuneJob{
		id:       id,
		maxEvals: maxEvals,
		ctx:      ctx,
		cancel:   cancel,
		created:  time.Now(),
		state:    StateRunning,
		updated:  make(chan struct{}),
	}
}

// broadcast wakes every watcher. Callers must hold j.mu.
func (j *tuneJob) broadcast() {
	close(j.updated)
	j.updated = make(chan struct{})
}

// addProbe appends one completed probe to the trace.
func (j *tuneJob) addProbe(p fusleep.TuneProbe) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.probes = append(j.probes, p)
	j.broadcast()
}

// addWorker attributes one evaluated cell to a fleet worker.
func (j *tuneJob) addWorker(worker string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.workers == nil {
		j.workers = make(map[string]struct{})
	}
	j.workers[worker] = struct{}{}
}

// finish records the run's outcome and moves the job to its terminal state.
func (j *tuneJob) finish(res fusleep.TuneResult, err error) {
	j.mu.Lock()
	switch {
	case j.canceled && (err == nil || isContextErr(err)):
		j.state = StateCanceled
	case err != nil:
		j.state = StateFailed
		j.err = err
	default:
		j.state = StateDone
		j.result = &res
	}
	notify, state := j.onTerminal, j.state
	j.onTerminal = nil
	j.broadcast()
	j.mu.Unlock()
	if notify != nil {
		notify(state)
	}
}

// jobState implements queueJob for the retention registry.
func (j *tuneJob) jobState() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// requestCancel marks the job canceled and aborts its context. Safe to call
// repeatedly and after completion.
func (j *tuneJob) requestCancel() {
	j.mu.Lock()
	if j.state == StateRunning {
		j.canceled = true
	}
	j.mu.Unlock()
	j.cancel()
}

// infoLocked builds the job's wire snapshot. Callers must hold j.mu.
func (j *tuneJob) infoLocked() jobInfo {
	info := jobInfo{
		ID:        j.id,
		Kind:      KindTune,
		State:     j.state,
		Probes:    len(j.probes),
		MaxEvals:  j.maxEvals,
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
func (j *tuneJob) info() jobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.infoLocked()
}

// snapshot returns the job's status together with its terminal result
// (nil while running).
func (j *tuneJob) snapshot() (jobInfo, *fusleep.TuneResult) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.infoLocked(), j.result
}

// watch returns the probes recorded at or after offset, the current state,
// and the channel that closes on the next change.
func (j *tuneJob) watch(offset int) (fresh []fusleep.TuneProbe, state string, updated <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if offset < len(j.probes) {
		fresh = make([]fusleep.TuneProbe, len(j.probes)-offset)
		copy(fresh, j.probes[offset:])
	}
	return fresh, j.state, j.updated
}

// roundDispatcher sends every probe of a tuner round down the daemon's one
// dispatch path, the one sweep cells take, so tune and sweep workloads
// share workers, and identical cells — across job kinds, requests, and
// clients — are served from the result store, join in-flight work, or
// dedupe through the simulation cache. Probe lifecycles land on the job's
// trace, and each fleet worker that evaluated a probe is attributed to the
// job. Results return in input order. A probe failure cancels the rest of
// the round; a real failure is reported before any context error.
func (s *Server) roundDispatcher(job *tuneJob) fusleep.TuneBatchEvaluator {
	return func(ctx context.Context, cells []fusleep.Cell) ([]fusleep.CellResult, error) {
		ctx, cancel := context.WithCancel(ctx)
		defer cancel()
		type outcome struct {
			i   int
			res fusleep.CellResult
			err error
		}
		settled := make(chan outcome, len(cells)) // buffered: the callbacks never block
		for i, c := range cells {
			key := c.Key()
			done := func(worker string, res fusleep.CellResult, err error) {
				if err != nil {
					s.trace.Record(job.id, telemetry.Event{Stage: telemetry.StageFailed, Key: key, Err: err.Error()})
				} else {
					if worker != "" {
						job.addWorker(worker)
					}
					s.trace.Record(job.id, telemetry.Event{Stage: telemetry.StageCompleted, Key: key, Worker: worker})
				}
				settled <- outcome{i, res, err}
				if err != nil {
					cancel()
				}
			}
			served := func(canon []byte) {
				var res fusleep.CellResult
				err := json.Unmarshal(canon, &res)
				done("", res, err)
			}
			// Dispatch is refused only once ctx is done, which the wait
			// below reports.
			if !s.dispatch(task{ctx: ctx, cell: c, key: key, trace: job.id, served: served, done: done}) {
				break
			}
		}

		results := make([]fusleep.CellResult, len(cells))
		for n := 0; n < len(cells); {
			select {
			case o := <-settled:
				switch {
				case o.err == nil:
					results[o.i] = o.res
					n++
				case !isContextErr(o.err):
					return nil, o.err
				}
				// A context error means the round is aborting: done cancels
				// ctx, so the wait ends below.
			case <-ctx.Done():
				// A real failure settles before it cancels ctx, so it is
				// buffered here and outranks the context error; only this
				// goroutine receives, so the drain never blocks.
				for len(settled) > 0 {
					if o := <-settled; o.err != nil && !isContextErr(o.err) {
						return nil, o.err
					}
				}
				return nil, ctx.Err()
			}
		}
		return results, nil
	}
}

// runTune drives one tuner run to completion. It runs on the job's feeder
// goroutine: every probe it dispatches reaches the coordinator before the
// feeder exits, which is what makes Drain's quiesce-after-feeders ordering
// safe.
func (s *Server) runTune(job *tuneJob, opts []fusleep.TuneOption) {
	defer s.feeders.Done()
	// Tune jobs reserve their full evaluation budget at admission; the
	// whole reservation releases when the run terminates.
	defer s.release(job.maxEvals)
	opts = append(opts, fusleep.WithTuneBatchEvaluator(s.roundDispatcher(job)))
	res, err := s.eng.OptimizeStream(job.ctx, func(p fusleep.TuneProbe) error {
		// Count before publishing: a stream reader that sees the probe
		// must find it in the metrics too.
		s.probesDone.Add(1)
		job.addProbe(p)
		return nil
	}, opts...)
	job.finish(res, err)
}

// tuneSubmitResponse acknowledges an accepted tuner run.
type tuneSubmitResponse struct {
	ID       string `json:"id"`
	MaxEvals int    `json:"maxEvals"`
	URL      string `json:"url"`
}

func (s *Server) handleTuneSubmit(w http.ResponseWriter, r *http.Request) {
	var req TuneRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.tunesReject.Add(1)
		writeError(w, http.StatusBadRequest, fleet.CodeBadRequest, "bad tune request: %v", err)
		return
	}
	opts, budget, err := req.options(s.cfg)
	if err != nil {
		s.tunesReject.Add(1)
		writeError(w, http.StatusBadRequest, fleet.CodeBadRequest, "bad tune request: %v", err)
		return
	}
	if !s.shedBacklog(w, s.tunesReject, budget) {
		return
	}
	// Accepted tune jobs outlive the submitting request; the queue owns
	// their lifecycle.
	job := newTuneJob(context.Background(), s.nextID("t"), budget) //fusleepvet:ctx-ok job outlives the HTTP request
	job.rec = s.trace
	// Start the trace before submit: the tuner's evaluator races the rest
	// of this handler, and its dispatch events must find the trace live.
	s.trace.Start(job.id)
	s.trace.Record(job.id, telemetry.Event{
		Stage: telemetry.StageSubmitted, Detail: fmt.Sprintf("budget %d", budget),
	})
	s.journalSubmit(job.id, "tune", req, func(cb func(string)) { job.onTerminal = cb })
	s.log.Info("tune accepted", "job", job.id, "budget", budget)
	if err := s.submit(job.id, job, func() { s.runTune(job, opts) }); err != nil {
		s.tunesReject.Add(1)
		s.release(budget)
		job.cancel()
		// The client gets an error, so the journaled submission must not
		// replay as if it had been acknowledged.
		if s.cfg.Jobs != nil {
			_ = s.cfg.Jobs.Finished(job.id, StateCanceled)
		}
		writeError(w, http.StatusServiceUnavailable, fleet.CodeDraining, "%v", err)
		return
	}
	s.tunesSubmit.Add(1)
	writeJSON(w, http.StatusAccepted, tuneSubmitResponse{
		ID: job.id, MaxEvals: budget, URL: "/v1/optimize/" + job.id,
	})
}

// handleTuneList is GET /v1/optimize: the shared jobs listing filtered to
// tune jobs.
func (s *Server) handleTuneList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.listJobs(KindTune))
}

// tunePollResponse is the ?poll=1 snapshot: status, the probe trace so
// far, and the terminal result once present.
type tunePollResponse struct {
	jobInfo
	Trace  []fusleep.TuneProbe `json:"trace"`
	Result *fusleep.TuneResult `json:"result,omitempty"`
}

// servePoll implements queueJob: the point-in-time JSON snapshot.
func (j *tuneJob) servePoll(w http.ResponseWriter) {
	info, res := j.snapshot()
	trace, _, _ := j.watch(0)
	if trace == nil {
		trace = []fusleep.TuneProbe{}
	}
	writeJSON(w, http.StatusOK, tunePollResponse{jobInfo: info, Trace: trace, Result: res})
}

// tuneStreamEvent is one NDJSON line of a tune stream.
type tuneStreamEvent struct {
	// Event is "tune" (stream header), "probe" (one evaluated candidate),
	// or "end" (terminal summary; always the last line).
	Event string `json:"event"`
	ID    string `json:"id"`
	// Header and end fields.
	State    string `json:"state,omitempty"`
	MaxEvals int    `json:"maxEvals,omitempty"`
	Probes   int    `json:"probes,omitempty"`
	Error    string `json:"error,omitempty"`
	// Probe is set on "probe" events; Result on the "end" event of a
	// completed run.
	Probe  *fusleep.TuneProbe  `json:"probe,omitempty"`
	Result *fusleep.TuneResult `json:"result,omitempty"`
}

// serveStream implements queueJob: a header line, one line per probe as it
// lands (evaluation order), and a terminal summary line carrying the result.
func (j *tuneJob) serveStream(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	enc := report.NewStreamEncoder(w)
	info := j.info()
	if err := enc.Encode(tuneStreamEvent{Event: "tune", ID: j.id, State: info.State, MaxEvals: info.MaxEvals}); err != nil {
		return
	}
	sent := 0
	for {
		fresh, state, updated := j.watch(sent)
		for i := range fresh {
			if err := enc.Encode(tuneStreamEvent{Event: "probe", ID: j.id, Probe: &fresh[i]}); err != nil {
				return
			}
			sent++
		}
		if state != StateRunning {
			info, res := j.snapshot()
			j.rec.Record(j.id, telemetry.Event{Stage: telemetry.StageStreamed, Detail: info.State})
			_ = enc.Encode(tuneStreamEvent{
				Event: "end", ID: j.id, State: info.State, MaxEvals: info.MaxEvals,
				Probes: info.Probes, Error: info.Error, Result: res,
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

// handleTune is GET /v1/optimize/{id}: stream or poll one tune job.
func (s *Server) handleTune(w http.ResponseWriter, r *http.Request) {
	job, ok := s.lookupJob(r.PathValue("id"), KindTune)
	if !ok {
		writeNotFound(w, "tune job", r.PathValue("id"))
		return
	}
	serveJob(w, r, job)
}

// handleTuneCancel is DELETE /v1/optimize/{id}.
func (s *Server) handleTuneCancel(w http.ResponseWriter, r *http.Request) {
	job, ok := s.lookupJob(r.PathValue("id"), KindTune)
	if !ok {
		writeNotFound(w, "tune job", r.PathValue("id"))
		return
	}
	cancelJob(w, job)
}
