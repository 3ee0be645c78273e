package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"time"

	"github.com/archsim/fusleep"
	"github.com/archsim/fusleep/internal/fleet"
	"github.com/archsim/fusleep/internal/pipeline"
	"github.com/archsim/fusleep/internal/telemetry"
)

// jobID formats the n-th accepted job's identifier under its kind prefix
// ("s" for sweeps, "t" for tune jobs).
func jobID(prefix string, n uint64) string { return fmt.Sprintf("%s-%06d", prefix, n) }

// SweepRequest is the wire form of a sweep grid. Every field is optional;
// zero values resolve to the engine's defaults exactly like fusleep.Grid
// (all four paper policies, the engine's technology, paper FU counts, the
// full nine-benchmark suite, alpha 0.5, 12-cycle L2, the engine's window).
type SweepRequest struct {
	// Policies selects policy configurations by name, e.g.
	// {"policy": "GradualSleep", "slices": 4}.
	Policies []fusleep.PolicyConfig `json:"policies,omitempty"`
	// Ps lists leakage factors; each becomes the default technology with p
	// replaced — the common one-knob technology sweep.
	Ps []float64 `json:"ps,omitempty"`
	// Techs lists technology points. Omitted fields inherit from the
	// paper's default technology, so {"p": 0.5} is valid; explicit zeros
	// (e.g. "sleepOverhead": 0 for free transitions) are honored.
	Techs []TechSpec `json:"techs,omitempty"`
	// FUCounts lists integer-ALU counts; 0 means the paper's per-benchmark
	// Table 3 counts.
	FUCounts []int `json:"fuCounts,omitempty"`
	// AGUCounts, MultCounts, FPALUCounts, FPMultCounts are the per-class
	// unit-count axes; 0 in a list means the Table 2 default for that
	// class.
	AGUCounts    []int `json:"aguCounts,omitempty"`
	MultCounts   []int `json:"multCounts,omitempty"`
	FPALUCounts  []int `json:"fpaluCounts,omitempty"`
	FPMultCounts []int `json:"fpmultCounts,omitempty"`
	// Classes lists the functional-unit classes every cell accounts energy
	// for, by name ("intalu", "agu", "mult", "fpalu", "fpmult"); empty
	// keeps the paper's single-pool IntALU view.
	Classes []string `json:"classes,omitempty"`
	// Assignments lists per-class policy assignments to score, each an
	// object keyed by class name, e.g.
	// {"intalu": {"policy": "GradualSleep", "slices": 4},
	//  "fpalu":  {"policy": "MaxSleep"}}.
	Assignments []fusleep.Assignment `json:"assignments,omitempty"`
	// ClassTechs overrides the technology point per class in every cell,
	// keyed by class name.
	ClassTechs map[string]TechSpec `json:"classTechs,omitempty"`
	// Benchmarks restricts the suite.
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Alpha is the activity factor.
	Alpha float64 `json:"alpha,omitempty"`
	// L2Latency is the L2 hit latency in cycles.
	L2Latency int `json:"l2Latency,omitempty"`
	// Window is the per-benchmark instruction count.
	Window uint64 `json:"window,omitempty"`
}

// TechSpec is one technology point on the wire. Pointer fields distinguish
// "omitted — use the paper default" from an explicit zero, which the model
// domain allows for c and e_slp (Tech.Validate accepts both at 0).
type TechSpec struct {
	P             float64  `json:"p"`
	C             *float64 `json:"c,omitempty"`
	SleepOverhead *float64 `json:"sleepOverhead,omitempty"`
	Duty          *float64 `json:"duty,omitempty"`
}

// tech resolves the spec against the default technology point.
func (s TechSpec) tech(def fusleep.Tech) fusleep.Tech {
	t := def
	if s.P != 0 {
		t.P = s.P
	}
	if s.C != nil {
		t.C = *s.C
	}
	if s.SleepOverhead != nil {
		t.SleepOverhead = *s.SleepOverhead
	}
	if s.Duty != nil {
		t.Duty = *s.Duty
	}
	return t
}

// grid resolves the request into an engine grid, validating everything the
// cell evaluator would otherwise only reject after simulation started.
func (req SweepRequest) grid(maxWindow uint64) (fusleep.Grid, error) {
	g := fusleep.Grid{
		Policies:     req.Policies,
		Assignments:  req.Assignments,
		FUCounts:     req.FUCounts,
		AGUCounts:    req.AGUCounts,
		MultCounts:   req.MultCounts,
		FPALUCounts:  req.FPALUCounts,
		FPMultCounts: req.FPMultCounts,
		Benchmarks:   req.Benchmarks,
		Alpha:        req.Alpha,
		L2Latency:    req.L2Latency,
		Window:       req.Window,
	}
	def := fusleep.DefaultTech()
	for _, name := range req.Classes {
		cl, err := fusleep.ParseFUClass(name)
		if err != nil {
			return fusleep.Grid{}, err
		}
		g.Classes = append(g.Classes, cl)
	}
	for _, a := range req.Assignments {
		if err := a.Validate(); err != nil {
			return fusleep.Grid{}, err
		}
	}
	if len(req.ClassTechs) > 0 {
		g.ClassTechs = make(map[fusleep.FUClass]fusleep.Tech, len(req.ClassTechs))
		for name, spec := range req.ClassTechs {
			cl, err := fusleep.ParseFUClass(name)
			if err != nil {
				return fusleep.Grid{}, err
			}
			t := spec.tech(def)
			if err := t.Validate(); err != nil {
				return fusleep.Grid{}, err
			}
			g.ClassTechs[cl] = t
		}
	}
	for _, spec := range req.Techs {
		g.Techs = append(g.Techs, spec.tech(def))
	}
	for _, p := range req.Ps {
		g.Techs = append(g.Techs, def.WithP(p))
	}
	for _, t := range g.Techs {
		if err := t.Validate(); err != nil {
			return fusleep.Grid{}, err
		}
	}
	names := map[string]bool{}
	for _, n := range fusleep.BenchmarkNames() {
		names[n] = true
	}
	for _, b := range g.Benchmarks {
		if !names[b] {
			return fusleep.Grid{}, fmt.Errorf("unknown benchmark %q (have %v)", b, fusleep.BenchmarkNames())
		}
	}
	if req.Alpha < 0 || req.Alpha > 1 {
		return fusleep.Grid{}, fmt.Errorf("alpha %g out of range [0,1]", req.Alpha)
	}
	if req.L2Latency < 0 {
		return fusleep.Grid{}, fmt.Errorf("negative l2Latency %d", req.L2Latency)
	}
	if req.Window > maxWindow {
		return fusleep.Grid{}, fmt.Errorf("window %d exceeds the service limit %d", req.Window, maxWindow)
	}
	return g, nil
}

// apiError is the canonical error envelope, shared with the fleet wire
// protocol: {"error": {"code": "...", "message": "..."}}.
type apiError = fleet.APIError

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError emits the canonical envelope with a machine-readable code and
// a formatted human-readable message.
func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, fleet.NewAPIError(code, fmt.Sprintf(format, args...)))
}

// writeNotFound is the uniform 404 body for missing resources.
func writeNotFound(w http.ResponseWriter, what, id string) {
	writeError(w, http.StatusNotFound, fleet.CodeNotFound, "no %s %q", what, id)
}

// routes wires the endpoint table.
func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/sweeps", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/sweeps", s.handleList)
	s.mux.HandleFunc("GET /v1/sweeps/{id}", s.handleSweep)
	s.mux.HandleFunc("DELETE /v1/sweeps/{id}", s.handleCancel)
	s.mux.HandleFunc("POST /v1/optimize", s.handleTuneSubmit)
	s.mux.HandleFunc("GET /v1/optimize", s.handleTuneList)
	s.mux.HandleFunc("GET /v1/optimize/{id}", s.handleTune)
	s.mux.HandleFunc("DELETE /v1/optimize/{id}", s.handleTuneCancel)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	s.mux.HandleFunc("GET /v1/workloads", s.handleWorkloads)
	s.mux.HandleFunc("GET /v1/policies", s.handlePolicies)
	s.mux.HandleFunc("GET /v1/classes", s.handleClasses)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if fl := s.cfg.Fleet; fl != nil {
		s.mux.HandleFunc("POST /v1/fleet/register", fleetRoute(fl.WireRegister))
		s.mux.HandleFunc("POST /v1/fleet/heartbeat", fleetRoute(fl.WireHeartbeat))
		s.mux.HandleFunc("POST /v1/fleet/fetch", fleetRoute(fl.WireFetch))
		s.mux.HandleFunc("POST /v1/fleet/report", fleetRoute(fl.WireReport))
		s.mux.HandleFunc("GET /v1/fleet/workers", func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, http.StatusOK, fl.Workers())
		})
	}
	if s.cfg.Pprof {
		// Explicit registration instead of the package's init side effect on
		// DefaultServeMux: the profiles mount only when the flag asks.
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
}

// fleetRoute serves one /v1/fleet wire call: it decodes the request, runs
// the coordinator's wire entry point (the same one the loopback transport
// calls), and encodes the response or the error envelope.
func fleetRoute[Req, Resp any](call func(context.Context, Req) (Resp, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req Req
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20)).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, fleet.CodeBadRequest, "bad fleet request: %v", err)
			return
		}
		resp, err := call(r.Context(), req)
		switch {
		case err == nil:
			writeJSON(w, http.StatusOK, resp)
		case errors.Is(err, fleet.ErrUnknownWorker):
			// The worker client maps this code to ErrUnknownWorker and
			// re-registers.
			writeError(w, http.StatusNotFound, fleet.CodeUnknownWorker, "%v", err)
		case errors.Is(err, fleet.ErrVersion):
			writeError(w, http.StatusBadRequest, fleet.CodeVersion, "%v", err)
		default:
			// A fetch whose client went away mid-poll; best-effort.
			writeError(w, http.StatusBadRequest, fleet.CodeBadRequest, "%v", err)
		}
	}
}

// submitResponse acknowledges an accepted sweep.
type submitResponse struct {
	ID    string `json:"id"`
	Cells int    `json:"cells"`
	URL   string `json:"url"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.rejected.Add(1)
		writeError(w, http.StatusBadRequest, fleet.CodeBadRequest, "bad sweep request: %v", err)
		return
	}
	cells, tooLarge, err := s.sweepCells(req)
	if err != nil {
		s.rejected.Add(1)
		if tooLarge {
			writeError(w, http.StatusRequestEntityTooLarge, fleet.CodeGridTooLarge, "%v", err)
		} else {
			writeError(w, http.StatusBadRequest, fleet.CodeBadRequest, "bad sweep grid: %v", err)
		}
		return
	}
	if !s.shedBacklog(w, s.rejected, len(cells)) {
		return
	}
	// Accepted jobs outlive the submitting request by design; their
	// lifecycle is owned by the queue (s.submit/cancelAll), not the
	// client connection.
	job := newSweepJob(context.Background(), s.nextID("s"), cells) //fusleepvet:ctx-ok job outlives the HTTP request
	job.rec = s.trace
	// Start the trace before submit: the feeder races the rest of this
	// handler, and its dispatch events must find the trace already live.
	s.trace.Start(job.id, len(cells))
	s.trace.Record(job.id, telemetry.Event{
		Stage: telemetry.StageSubmitted, Detail: fmt.Sprintf("%d cells", len(cells)),
	})
	s.journalSubmit(job.id, "sweep", req, func(cb func(string)) { job.onTerminal = cb })
	s.log.Info("sweep accepted", "job", job.id, "cells", len(cells))
	if err := s.submit(job.id, job, func() { s.feed(job) }); err != nil {
		s.rejected.Add(1)
		s.release(len(cells))
		job.cancel()
		// The client gets an error, so the journaled submission must not
		// replay as if it had been acknowledged.
		if s.cfg.Jobs != nil {
			_ = s.cfg.Jobs.Finished(job.id, StateCanceled)
		}
		writeError(w, http.StatusServiceUnavailable, fleet.CodeDraining, "%v", err)
		return
	}
	s.submitted.Add(1)
	writeJSON(w, http.StatusAccepted, submitResponse{
		ID: job.id, Cells: len(cells), URL: "/v1/sweeps/" + job.id,
	})
}

// sweepCells expands a sweep request into its cells under the service
// limits, for submissions and WAL replays alike; tooLarge marks a grid
// over MaxCells.
func (s *Server) sweepCells(req SweepRequest) (cells []fusleep.Cell, tooLarge bool, err error) {
	g, err := req.grid(s.cfg.MaxWindow)
	if err != nil {
		return nil, false, err
	}
	// Bound the grid's cardinality BEFORE expansion: the seven axes
	// multiply, so a small request body can describe an astronomically
	// large grid, and expanding it first would allocate (or overflow the
	// preallocation size) before the limit check ever ran. The product is
	// checked axis by axis, so it is rejected long before it can overflow.
	bound := 1
	for _, n := range []int{
		len(req.Policies) + len(req.Assignments), len(req.Techs) + len(req.Ps),
		len(req.FUCounts), len(req.AGUCounts), len(req.MultCounts),
		len(req.FPALUCounts), len(req.FPMultCounts),
	} {
		bound *= max(n, 1)
		if bound > s.cfg.MaxCells {
			return nil, true, fmt.Errorf("grid describes at least %d cells; the service limit is %d", bound, s.cfg.MaxCells)
		}
	}
	cells = s.eng.Cells(g)
	if len(cells) > s.cfg.MaxCells {
		return nil, true, fmt.Errorf("grid expands to %d cells; the service limit is %d", len(cells), s.cfg.MaxCells)
	}
	// Validate every cell up front so a bad class/assignment combination
	// (e.g. studying the AGU class on a shared-port machine point) is a 400
	// at submit instead of a failed job after simulation started.
	for i, c := range cells {
		if err := c.Validate(); err != nil {
			return nil, false, fmt.Errorf("cell %d: %w", i, err)
		}
	}
	return cells, false, nil
}

// traceHeader is the first NDJSON line of a job-trace response.
type traceHeader struct {
	Event   string `json:"event"` // always "trace"
	ID      string `json:"id"`
	Events  int    `json:"events"`
	Dropped int    `json:"dropped"`
}

// handleJobTrace is GET /v1/jobs/{id}/trace: the job's cell-lifecycle
// span timeline as NDJSON — one header line, then one line per event in
// recording order (each with seq, stage, key, worker, attempt, seconds).
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	events, dropped, ok := s.trace.Snapshot(id)
	if !ok {
		writeNotFound(w, "trace for job", id)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	_ = enc.Encode(traceHeader{Event: "trace", ID: id, Events: len(events), Dropped: dropped})
	for _, ev := range events {
		_ = enc.Encode(ev)
	}
}

// handleList is GET /v1/sweeps: the shared jobs listing filtered to sweeps.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.listJobs(KindSweep))
}

// handleSweep is GET /v1/sweeps/{id}: stream or poll one sweep.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	job, ok := s.lookupJob(r.PathValue("id"), KindSweep)
	if !ok {
		writeNotFound(w, "sweep", r.PathValue("id"))
		return
	}
	serveJob(w, r, job)
}

// handleCancel is DELETE /v1/sweeps/{id}.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	job, ok := s.lookupJob(r.PathValue("id"), KindSweep)
	if !ok {
		writeNotFound(w, "sweep", r.PathValue("id"))
		return
	}
	cancelJob(w, job)
}

// workloadInfo describes one registered benchmark on the wire.
type workloadInfo struct {
	Name        string  `json:"name"`
	Suite       string  `json:"suite"`
	PaperFUs    int     `json:"paperFUs"`
	PaperIPC    float64 `json:"paperIPC"`
	PaperMaxIPC float64 `json:"paperMaxIPC"`
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	var out []workloadInfo
	for _, b := range fusleep.Benchmarks() {
		out = append(out, workloadInfo{
			Name: b.Name, Suite: b.Suite,
			PaperFUs: b.PaperFUs, PaperIPC: b.PaperIPC, PaperMaxIPC: b.PaperMaxIPC,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// policyInfo describes one registered sleep policy on the wire.
type policyInfo struct {
	Name string `json:"name"`
	// Causal reports whether the policy is implementable cycle by cycle
	// (OracleMinimal is offline-only).
	Causal bool   `json:"causal"`
	Desc   string `json:"desc"`
	// Params names the policy's tuning knobs as they appear in PolicyConfig
	// JSON (and in the tuner's search axes); zero values select the paper's
	// breakeven-derived defaults.
	Params []string `json:"params,omitempty"`
}

func (s *Server) handlePolicies(w http.ResponseWriter, r *http.Request) {
	out := []policyInfo{
		{Name: fusleep.AlwaysActive.String(), Causal: true, Desc: "never sleep; clock-gated idle only (baseline)"},
		{Name: fusleep.MaxSleep.String(), Causal: true, Desc: "assert Sleep on every idle cycle"},
		{Name: fusleep.NoOverhead.String(), Causal: true, Desc: "MaxSleep with free transitions (lower bound)"},
		{Name: fusleep.GradualSleep.String(), Causal: true, Desc: "stagger Sleep across K slices per idle cycle",
			Params: []string{"slices"}},
		{Name: fusleep.SleepTimeout.String(), Causal: true, Desc: "sleep after a threshold idle timeout (breakeven default)",
			Params: []string{"timeout"}},
		{Name: fusleep.OracleMinimal.String(), Causal: false, Desc: "per-interval oracle: cheaper of sleeping or idling"},
	}
	writeJSON(w, http.StatusOK, out)
}

// classInfo describes one functional-unit class on the wire.
type classInfo struct {
	Name string `json:"name"`
	// DefaultUnits is the Table 2 unit count; 0 means the class has no
	// dedicated pool by default (AGU shares the integer ALU ports until a
	// positive aguCounts/agus provisions one).
	DefaultUnits int    `json:"defaultUnits"`
	Desc         string `json:"desc"`
}

func (s *Server) handleClasses(w http.ResponseWriter, r *http.Request) {
	// Counts come from the simulator's actual defaults so the endpoint
	// cannot drift from the Table 2 machine.
	def := pipeline.DefaultConfig()
	out := []classInfo{
		{Name: fusleep.FUIntALU.String(), DefaultUnits: def.IntALUs, Desc: "single-cycle integer ALUs (the units under study)"},
		{Name: fusleep.FUAGU.String(), DefaultUnits: def.AGUs, Desc: "address generation; shares the IntALU ports unless provisioned"},
		{Name: fusleep.FUMult.String(), DefaultUnits: def.IntMults, Desc: "integer multiply/divide"},
		{Name: fusleep.FUFPALU.String(), DefaultUnits: def.FPALUs, Desc: "FP add/compare"},
		{Name: fusleep.FUFPMult.String(), DefaultUnits: def.FPMults, Desc: "FP multiply/divide"},
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	type health struct {
		Status   string  `json:"status"`
		Draining bool    `json:"draining"`
		Uptime   float64 `json:"uptimeSeconds"`
	}
	h := health{Status: "ok", Draining: s.Draining(), Uptime: time.Since(s.start).Seconds()}
	code := http.StatusOK
	if h.Draining {
		h.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}

// handleReadyz is the readiness probe, distinct from /healthz liveness: a
// live daemon is not ready while it is draining, before WAL recovery has
// replayed pending jobs, or while the backlog is shedding submissions.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	type readiness struct {
		Ready        bool  `json:"ready"`
		Draining     bool  `json:"draining"`
		Recovered    bool  `json:"recovered"`
		PendingCells int64 `json:"pendingCells"`
		Capacity     int   `json:"capacity"`
	}
	rd := readiness{
		Draining:     s.Draining(),
		Recovered:    s.recovered.Load(),
		PendingCells: s.pendingCells.Load(),
		Capacity:     s.capacity(),
	}
	rd.Ready = !rd.Draining && rd.Recovered && rd.PendingCells < int64(rd.Capacity)
	code := http.StatusOK
	if !rd.Ready {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, rd)
}
