package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestCountingTransportCountsAKnownSequence replays a fixed request
// sequence and checks the per-path call counts, the byte total (request
// bodies plus response bodies, including bytes the reader left unread),
// and one span per call.
func TestCountingTransportCountsAKnownSequence(t *testing.T) {
	replies := map[string]string{
		"/v1/fleet/fetch":  `{"v":1,"cells":[]}` + "\n",
		"/v1/fleet/report": `{"v":1,"accepted":1}` + "\n",
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		_, _ = io.WriteString(w, replies[r.URL.Path])
	}))
	defer srv.Close()

	tr := newTracer()
	tx := newCountingTransport(http.DefaultTransport.(*http.Transport).Clone(), tr)
	defer tx.base.(*http.Transport).CloseIdleConnections()
	c := &http.Client{Transport: tx}
	calls := []struct {
		path, body string
		readAll    bool
	}{
		{"/v1/fleet/fetch", `{"v":1,"id":"w-1","max":1}`, true},
		{"/v1/fleet/report", `{"v":1,"id":"w-1","results":[]}`, true},
		{"/v1/fleet/fetch", `{"v":1,"id":"w-1","max":1}`, false}, // closed unread
	}
	want := int64(0)
	for _, call := range calls {
		resp, err := c.Post(srv.URL+call.path, "application/json", strings.NewReader(call.body))
		if err != nil {
			t.Fatal(err)
		}
		if call.readAll {
			_, _ = io.ReadAll(resp.Body)
		}
		resp.Body.Close()
		want += int64(len(call.body) + len(replies[call.path]))
	}
	fetches, bytes := tx.snapshot("/v1/fleet/fetch")
	reports, _ := tx.snapshot("/v1/fleet/report")
	if fetches != 2 || reports != 1 {
		t.Errorf("calls: %d fetches, %d reports; want 2 and 1", fetches, reports)
	}
	if bytes != want {
		t.Errorf("bytes = %d, want %d", bytes, want)
	}
	if n := len(tr.durations("fleet /v1/fleet/fetch")); n != 2 {
		t.Errorf("%d fetch spans, want 2", n)
	}
	if n := len(tr.durations("fleet /v1/fleet/report")); n != 1 {
		t.Errorf("%d report spans, want 1", n)
	}
}

func TestSpansShareJobAndKey(t *testing.T) {
	tr := newTracer()
	root := tr.start("repetition", 0, "", "")
	sub := tr.start("server.submit", root.id(), "", "")
	sub.setJob("s-000001")
	sub.end()
	tr.bindKeys("s-000001", []string{"k1"})
	tr.record("worker.eval", "k1", 0)
	root.end()
	var untraced *tracer
	untraced.start("x", 0, "", "").end() // a nil tracer records nothing
	untraced.record("x", "", 0)

	if len(tr.spans) != 3 {
		t.Fatalf("%d spans, want 3", len(tr.spans))
	}
	s, w := tr.spans[0], tr.spans[1]
	if s.Parent != root.id() || s.Job != "s-000001" {
		t.Errorf("submit span %+v", s)
	}
	if w.Job != "s-000001" || w.Key != "k1" {
		t.Errorf("worker span %+v not attributed to the job", w)
	}
}
