package report

import (
	"encoding/json"
	"io"
	"net/http"
)

// RenderNDJSON writes each artifact as one compact JSON object per line
// (newline-delimited JSON). Unlike RenderJSON's single indented array, the
// output is incrementally parseable: consumers can act on each line as it
// arrives, which is what streaming services and `... | jq` pipelines want.
// Each line unmarshals into an Artifact.
func RenderNDJSON(w io.Writer, artifacts []Artifact) error {
	enc := json.NewEncoder(w)
	for _, a := range artifacts {
		if err := enc.Encode(a); err != nil {
			return err
		}
	}
	return nil
}

// StreamEncoder writes arbitrary values as NDJSON, flushing after every
// encoded line when the destination supports it (http.Flusher or a
// *bufio.Writer style Flush method), so long-lived HTTP responses deliver
// each event as it happens rather than when the connection buffer fills.
// Callers that already hold encoded lines write them with WriteRaw, which
// does not flush, and push a whole batch downstream with one Flush.
type StreamEncoder struct {
	w     io.Writer
	enc   *json.Encoder
	flush func()
}

// NewStreamEncoder wraps w for line-at-a-time NDJSON emission.
func NewStreamEncoder(w io.Writer) *StreamEncoder {
	s := &StreamEncoder{w: w, enc: json.NewEncoder(w)}
	switch f := w.(type) {
	case http.Flusher:
		s.flush = f.Flush
	case interface{ Flush() error }:
		s.flush = func() { _ = f.Flush() }
	}
	return s
}

// Encode writes one value as a JSON line and flushes it downstream.
func (s *StreamEncoder) Encode(v any) error {
	if err := s.enc.Encode(v); err != nil {
		return err
	}
	s.Flush()
	return nil
}

// WriteRaw writes already-encoded NDJSON (whole lines, each ending in a
// newline) without flushing; call Flush once the batch is written.
func (s *StreamEncoder) WriteRaw(p []byte) error {
	_, err := s.w.Write(p)
	return err
}

// Flush pushes everything written so far downstream (a no-op when the
// destination cannot flush).
func (s *StreamEncoder) Flush() {
	if s.flush != nil {
		s.flush()
	}
}
