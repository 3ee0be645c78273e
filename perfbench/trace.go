package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one job
// share its job id and spans of one cell share its cell key.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Job    string `json:"job,omitempty"`
	Key    string `json:"key,omitempty"`
	// StartNs and EndNs are nanoseconds since the tracer started.
	StartNs int64 `json:"startNs"`
	EndNs   int64 `json:"endNs"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced repetitions run the same code.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	next  uint64
	spans []span
	// keyJob maps cell keys to the job that submitted them, for spans
	// (worker evaluations) that only know the key.
	keyJob map[string]string
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), keyJob: map[string]string{}}
}

// active is an open span; end closes it.
type active struct {
	tr *tracer
	sp span
}

// start opens a span under parent (0 for a root span).
func (t *tracer) start(name string, parent uint64, job, key string) *active {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return &active{tr: t, sp: span{ID: id, Parent: parent, Name: name, Job: job, Key: key,
		StartNs: time.Since(t.t0).Nanoseconds()}}
}

// id is the span's id, for children; 0 when untraced.
func (a *active) id() uint64 {
	if a == nil {
		return 0
	}
	return a.sp.ID
}

// setJob names the job once the call that creates it returns.
func (a *active) setJob(job string) {
	if a != nil {
		a.sp.Job = job
	}
}

func (a *active) end() {
	if a == nil {
		return
	}
	a.sp.EndNs = time.Since(a.tr.t0).Nanoseconds()
	a.tr.mu.Lock()
	a.tr.spans = append(a.tr.spans, a.sp)
	a.tr.mu.Unlock()
}

// record adds a root span measured elsewhere: it ended now and lasted d.
func (t *tracer) record(name, key string, d time.Duration) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.next++
	t.spans = append(t.spans, span{ID: t.next, Name: name, Job: t.keyJob[key], Key: key,
		StartNs: now - d.Nanoseconds(), EndNs: now})
	t.mu.Unlock()
}

// bindKeys attributes cell keys to a job.
func (t *tracer) bindKeys(job string, keys []string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	for _, k := range keys {
		t.keyJob[k] = job
	}
	t.mu.Unlock()
}

// durations returns the durations, in seconds, of every span named name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNs-s.StartNs)/1e9)
		}
	}
	return out
}

// write dumps the spans as NDJSON.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// countingTransport counts the calls and body bytes a fleet worker's HTTP
// client exchanges with the coordinator, per URL path, and records one
// span per call.
type countingTransport struct {
	base http.RoundTripper
	tr   *tracer

	mu    sync.Mutex
	calls map[string]int
	bytes int64
}

func newCountingTransport(base http.RoundTripper, tr *tracer) *countingTransport {
	return &countingTransport{base: base, tr: tr, calls: map[string]int{}}
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	sp := c.tr.start("fleet "+r.URL.Path, 0, "", "")
	c.mu.Lock()
	c.calls[r.URL.Path]++
	if r.ContentLength > 0 {
		c.bytes += r.ContentLength
	}
	c.mu.Unlock()
	resp, err := c.base.RoundTrip(r)
	if err != nil {
		sp.end()
		return nil, err
	}
	resp.Body = &countingBody{rc: resp.Body, t: c, sp: sp}
	return resp, nil
}

// snapshot returns the calls to path and the total body bytes so far.
func (c *countingTransport) snapshot(path string) (calls int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls[path], c.bytes
}

// countingBody counts response body bytes; Close drains what the reader
// left so every byte on the wire is counted, then ends the call's span.
type countingBody struct {
	rc   io.ReadCloser
	t    *countingTransport
	sp   *active
	once sync.Once
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.t.mu.Lock()
	b.t.bytes += int64(n)
	b.t.mu.Unlock()
	return n, err
}

func (b *countingBody) Close() error {
	n, _ := io.Copy(io.Discard, b.rc) // drained bytes still crossed the wire
	b.t.mu.Lock()
	b.t.bytes += n
	b.t.mu.Unlock()
	b.once.Do(b.sp.end)
	return b.rc.Close()
}
