package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"github.com/archsim/fusleep/internal/fleet"
)

// decodeFleet decodes one fleet wire request and enforces the protocol
// version; it reports false after writing the error response itself.
func decodeFleet(w http.ResponseWriter, r *http.Request, v interface {
	version() int
}) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20))
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, fleet.CodeBadRequest, "bad fleet request: %v", err)
		return false
	}
	if got := v.version(); got != fleet.ProtocolVersion {
		writeError(w, http.StatusBadRequest, fleet.CodeVersion,
			"fleet protocol version %d; this coordinator speaks %d", got, fleet.ProtocolVersion)
		return false
	}
	return true
}

// Wire request wrappers so decodeFleet can check the version uniformly.
type registerReq struct{ fleet.RegisterRequest }
type heartbeatReq struct{ fleet.HeartbeatRequest }
type fetchReq struct{ fleet.FetchRequest }
type reportReq struct{ fleet.ReportRequest }

func (r *registerReq) version() int  { return r.V }
func (r *heartbeatReq) version() int { return r.V }
func (r *fetchReq) version() int     { return r.V }
func (r *reportReq) version() int    { return r.V }

// writeUnknownWorker is the uniform 404 for requests naming an expired or
// never-registered worker; the worker client maps it to ErrUnknownWorker
// and re-registers.
func writeUnknownWorker(w http.ResponseWriter, id string) {
	writeError(w, http.StatusNotFound, fleet.CodeUnknownWorker, "unknown worker %q", id)
}

// handleFleetRegister is POST /v1/fleet/register: admit a worker into the
// rendezvous ring and grant its heartbeat lease.
func (s *Server) handleFleetRegister(w http.ResponseWriter, r *http.Request) {
	var req registerReq
	if !decodeFleet(w, r, &req) {
		return
	}
	id, ttl := s.cfg.Fleet.Register(req.Name)
	writeJSON(w, http.StatusOK, fleet.RegisterResponse{
		V: fleet.ProtocolVersion, ID: id, TTLMillis: ttl.Milliseconds(),
	})
}

// handleFleetHeartbeat is POST /v1/fleet/heartbeat: renew a worker's lease,
// or with bye=true deregister it gracefully.
func (s *Server) handleFleetHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req heartbeatReq
	if !decodeFleet(w, r, &req) {
		return
	}
	var err error
	if req.Bye {
		err = s.cfg.Fleet.Deregister(req.ID)
	} else {
		err = s.cfg.Fleet.Heartbeat(req.ID, req.Stats)
	}
	if errors.Is(err, fleet.ErrUnknownWorker) {
		writeUnknownWorker(w, req.ID)
		return
	}
	writeJSON(w, http.StatusOK, fleet.HeartbeatResponse{V: fleet.ProtocolVersion, OK: true})
}

// handleFleetFetch is POST /v1/fleet/fetch: lease up to max queued SimKey
// groups (every cell of each) to the worker, long-polling while its queue
// is empty.
func (s *Server) handleFleetFetch(w http.ResponseWriter, r *http.Request) {
	var req fetchReq
	if !decodeFleet(w, r, &req) {
		return
	}
	cells, err := s.cfg.Fleet.Fetch(r.Context(), req.ID, req.Max, time.Duration(req.WaitMillis)*time.Millisecond)
	if errors.Is(err, fleet.ErrUnknownWorker) {
		writeUnknownWorker(w, req.ID)
		return
	}
	if err != nil {
		// The client went away mid-poll; the response is best-effort.
		writeError(w, http.StatusBadRequest, fleet.CodeBadRequest, "fetch: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, fleet.FetchResponse{V: fleet.ProtocolVersion, Cells: cells})
}

// handleFleetReport is POST /v1/fleet/report: accept evaluation outcomes;
// stale leases (requeued while the worker was partitioned) are counted but
// discarded.
func (s *Server) handleFleetReport(w http.ResponseWriter, r *http.Request) {
	var req reportReq
	if !decodeFleet(w, r, &req) {
		return
	}
	accepted, err := s.cfg.Fleet.Report(req.ID, req.Results)
	if errors.Is(err, fleet.ErrUnknownWorker) {
		writeUnknownWorker(w, req.ID)
		return
	}
	writeJSON(w, http.StatusOK, fleet.ReportResponse{V: fleet.ProtocolVersion, Accepted: accepted})
}

// handleFleetWorkers is GET /v1/fleet/workers: the live membership with
// per-worker queue depths and completion counts.
func (s *Server) handleFleetWorkers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.cfg.Fleet.Workers())
}
