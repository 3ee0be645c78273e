package fleet

import (
	"context"
	"errors"
	"fmt"

	"github.com/archsim/fusleep"
)

// ProtocolVersion is the fleet wire protocol's version. Every request a
// worker sends carries it in the "v" field; a coordinator speaking a
// different version rejects the request with the version_mismatch error
// code instead of mis-parsing it, so mixed-version fleets fail loudly at
// registration rather than subtly mid-sweep.
const ProtocolVersion = 1

// Error codes carried in the canonical JSON error envelope. The daemon
// returns the same envelope from every endpoint — validation, shedding,
// not-found, and the fleet protocol alike.
const (
	CodeBadRequest    = "bad_request"
	CodeNotFound      = "not_found"
	CodeMethod        = "method_not_allowed"
	CodeGridTooLarge  = "grid_too_large"
	CodeBacklogFull   = "backlog_full"
	CodeDraining      = "draining"
	CodeVersion       = "version_mismatch"
	CodeUnknownWorker = "unknown_worker"
)

// ErrVersion rejects a wire request that speaks another ProtocolVersion.
var ErrVersion = errors.New("fleet protocol version mismatch")

// checkVersion vets a wire request's protocol version.
func checkVersion(v int) error {
	if v != ProtocolVersion {
		return fmt.Errorf("%w: got %d, this coordinator speaks %d", ErrVersion, v, ProtocolVersion)
	}
	return nil
}

// APIError is the canonical JSON error envelope every fusleepd endpoint
// returns: {"error": {"code": "...", "message": "..."}}.
type APIError struct {
	Error ErrorBody `json:"error"`
}

// ErrorBody is the envelope's payload: a stable machine-readable code and
// a human-readable message.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// NewAPIError builds the envelope.
func NewAPIError(code, message string) APIError {
	return APIError{Error: ErrorBody{Code: code, Message: message}}
}

// RegisterRequest announces a worker to the coordinator.
type RegisterRequest struct {
	V int `json:"v"`
	// Name is a human-readable label (hostname, container id); the
	// coordinator assigns the authoritative worker ID.
	Name string `json:"name,omitempty"`
}

// RegisterResponse acknowledges a registration.
type RegisterResponse struct {
	V int `json:"v"`
	// ID is the coordinator-assigned worker identity; every subsequent
	// request carries it, and rendezvous routing hashes against it.
	ID string `json:"id"`
	// TTLMillis is the heartbeat lease: a worker silent for longer is
	// expired and its work requeued. Workers should heartbeat at a
	// comfortable fraction of this (fetch and report also renew it).
	TTLMillis int64 `json:"ttlMillis"`
}

// HeartbeatRequest renews a worker's lease; with Bye set it instead
// deregisters the worker gracefully, requeueing its outstanding work
// immediately rather than after a lease timeout.
type HeartbeatRequest struct {
	V   int    `json:"v"`
	ID  string `json:"id"`
	Bye bool   `json:"bye,omitempty"`
	// Stats, when present, is the worker's self-reported telemetry; the
	// coordinator exports it per worker on /metrics. Optional, so
	// heartbeats from older workers still parse.
	Stats *WorkerStats `json:"stats,omitempty"`
}

// WorkerStats is a worker's self-reported telemetry snapshot, carried on
// heartbeats.
type WorkerStats struct {
	// Inflight is how many cells the worker is evaluating right now.
	Inflight int `json:"inflight"`
	// Evaluated counts evaluation attempts the worker has finished
	// (retries count separately).
	Evaluated uint64 `json:"evaluated"`
	// Failed counts attempts that ended in an error.
	Failed uint64 `json:"failed"`
}

// HeartbeatResponse acknowledges a heartbeat.
type HeartbeatResponse struct {
	V  int  `json:"v"`
	OK bool `json:"ok"`
}

// FetchRequest asks for up to Max leased cells, long-polling for up to
// WaitMillis when the worker's queue is empty.
type FetchRequest struct {
	V          int    `json:"v"`
	ID         string `json:"id"`
	Max        int    `json:"max,omitempty"`
	WaitMillis int64  `json:"waitMillis,omitempty"`
}

// FetchResponse carries the leased cells; empty when the long poll timed
// out with nothing queued.
type FetchResponse struct {
	V     int         `json:"v"`
	Cells []LeaseCell `json:"cells,omitempty"`
}

// LeaseCell is one leased unit of work: the cell to evaluate and the lease
// token the worker must echo when reporting. A report whose lease the
// coordinator no longer holds (the worker was expired and the cell
// requeued) is acknowledged but discarded.
type LeaseCell struct {
	Lease uint64       `json:"lease"`
	Key   string       `json:"key"`
	Cell  fusleep.Cell `json:"cell"`
	// TraceID is the job trace the cell belongs to; workers echo it on
	// the spans they report. Optional, so mixed builds interoperate.
	TraceID string `json:"traceId,omitempty"`
	// ParentSpan links worker-side spans back to the coordinator-side
	// lease; fusleepd sets it to the lease token.
	ParentSpan uint64 `json:"parentSpan,omitempty"`

	// ctx is an in-process group lease's context, canceled once every task
	// waiting on the group is; JSON does not carry it, so remote leases
	// leave it nil.
	ctx context.Context
}

// ReportRequest returns evaluation outcomes for previously fetched cells.
type ReportRequest struct {
	V       int          `json:"v"`
	ID      string       `json:"id"`
	Results []CellReport `json:"results"`
}

// CellReport is one cell's outcome: exactly one of Result or Error is set.
type CellReport struct {
	Lease uint64 `json:"lease"`
	Key   string `json:"key"`
	// Result is the evaluated cell, marshaled exactly as the worker's
	// engine produced it; encoding/json's shortest-round-trip float
	// encoding makes the coordinator's re-encoding byte-identical to a
	// local evaluation.
	Result *fusleep.CellResult `json:"result,omitempty"`
	Error  *WireError          `json:"error,omitempty"`
	// Trace carries the worker-side evaluation spans (one per attempt)
	// so the coordinator can splice remote timing into the job trace.
	// Optional; coordinators ignore it when tracing is off.
	Trace []WireSpan `json:"trace,omitempty"`
}

// WireSpan is one worker-measured span: a single evaluation attempt's
// stage, duration, and outcome.
type WireSpan struct {
	Stage   string  `json:"stage"`
	Attempt int     `json:"attempt,omitempty"`
	Seconds float64 `json:"seconds"`
	Error   string  `json:"error,omitempty"`
}

// ReportResponse acknowledges a report.
type ReportResponse struct {
	V int `json:"v"`
	// Accepted counts the reports whose leases were still live; the rest
	// were requeued in the meantime and the worker's answer was discarded.
	Accepted int `json:"accepted"`
}

// WireError carries a cell failure across the wire with enough structure
// to rebuild the typed CellError the local evaluation path would have
// produced, so retry classification and job error strings match the
// standalone daemon's.
type WireError struct {
	Message   string `json:"message"`
	Key       string `json:"key,omitempty"`
	Attempt   int    `json:"attempt,omitempty"`
	Transient bool   `json:"transient,omitempty"`
	Panicked  bool   `json:"panicked,omitempty"`
	Timeout   bool   `json:"timeout,omitempty"`
	// Cell marks errors that were typed *fusleep.CellError on the worker;
	// untyped errors rebuild as plain errors instead.
	Cell bool `json:"cell,omitempty"`
}

// ToWireError converts an evaluation error for transport.
func ToWireError(err error) *WireError {
	if err == nil {
		return nil
	}
	we := &WireError{Message: err.Error()}
	var ce *fusleep.CellError
	if errors.As(err, &ce) {
		we.Cell = true
		we.Key = ce.Key
		we.Attempt = ce.Attempt
		we.Transient = ce.Transient
		we.Panicked = ce.Panicked
		we.Timeout = ce.Timeout
		if ce.Err != nil {
			we.Message = ce.Err.Error()
		}
	}
	return we
}

// Err rebuilds the transported error.
func (we *WireError) Err() error {
	if we == nil {
		return nil
	}
	if we.Cell {
		return &fusleep.CellError{
			Key: we.Key, Attempt: we.Attempt,
			Transient: we.Transient, Panicked: we.Panicked, Timeout: we.Timeout,
			Err: fmt.Errorf("%s", we.Message),
		}
	}
	return fmt.Errorf("%s", we.Message)
}

// WorkerInfo is one registered worker in the GET /v1/fleet/workers
// listing.
type WorkerInfo struct {
	ID     string `json:"id"`
	Name   string `json:"name,omitempty"`
	Queued int    `json:"queued"`
	Leased int    `json:"leased"`
	// Done counts the assignments this worker has reported successfully.
	Done uint64 `json:"done"`
	// Failed counts the assignments this worker reported as errors.
	Failed uint64 `json:"failed"`
	// Inflight and Evaluated mirror the worker's latest heartbeat-reported
	// WorkerStats (zero until the worker sends one).
	Inflight  int    `json:"inflight,omitempty"`
	Evaluated uint64 `json:"evaluated,omitempty"`
}
