package experiments

import (
	"errors"
	"fmt"
)

// CellError is a contained cell-evaluation failure: instead of a panic or
// raw error taking down a worker, the evaluation path wraps the
// outcome with the cell's identity and a classification the retry policy
// can act on.
type CellError struct {
	// Key is the failing cell's stable configuration hash.
	Key string
	// Attempt is the 1-based evaluation attempt that produced this error.
	Attempt int
	// Transient marks failures worth retrying (injected transients,
	// resource blips); permanent failures (validation, panics, per-cell
	// timeouts) fail the cell immediately.
	Transient bool
	// Panicked marks an evaluation that panicked and was recovered.
	Panicked bool
	// Timeout marks an evaluation that exceeded its per-cell deadline.
	Timeout bool
	// Err is the underlying cause.
	Err error
}

// Error renders the failure with its classification.
func (e *CellError) Error() string {
	kind := "failed"
	switch {
	case e.Panicked:
		kind = "panicked"
	case e.Timeout:
		kind = "timed out"
	case e.Transient:
		kind = "failed transiently"
	}
	return fmt.Sprintf("cell %s %s (attempt %d): %v", e.Key, kind, e.Attempt, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *CellError) Unwrap() error { return e.Err }

// IsTransientCellError reports whether err is (or wraps) a CellError
// marked transient, or any error exposing a true Transient() bool — the
// retry policy's eligibility test.
func IsTransientCellError(err error) bool {
	var ce *CellError
	if errors.As(err, &ce) {
		return ce.Transient
	}
	var t interface{ Transient() bool }
	if errors.As(err, &t) {
		return t.Transient()
	}
	return false
}
