package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/archsim/fusleep"
)

// TestInterleavedSweepTuneSubmitCancelDrain exercises the shared queueJob
// registry the way the race detector wants to see it: sweep and optimize
// jobs — legacy and class-aware — submitted concurrently from many
// goroutines, a subset canceled mid-flight while pollers read their
// status, then a full drain. Every job must reach a terminal state, jobs
// that were never canceled must complete, and the shard workers must shut
// down cleanly. The windows are tiny so the whole interleaving stays fast
// under -race -short.
func TestInterleavedSweepTuneSubmitCancelDrain(t *testing.T) {
	eng := fusleep.NewEngine(fusleep.WithWindow(5_000))
	s, ts := newTestServer(t, Config{Engine: eng, Shards: 3})

	sweepBodies := []string{
		`{"benchmarks": ["gcc"], "window": 5000, "fuCounts": [2]}`,
		`{"benchmarks": ["gcc"], "window": 5000, "classes": ["intalu", "fpalu"],
		  "assignments": [{"intalu": {"policy": "GradualSleep", "slices": 4},
		                   "fpalu": {"policy": "MaxSleep"}}],
		  "policies": [{"policy": "AlwaysActive"}]}`,
		`{"benchmarks": ["gcc"], "window": 5000, "fuCounts": [4], "multCounts": [2]}`,
	}
	tuneBodies := []string{
		`{"benchmarks": ["gcc"], "window": 5000, "maxEvals": 6,
		  "policies": ["AlwaysActive", "MaxSleep"]}`,
		`{"benchmarks": ["gcc"], "window": 5000, "maxEvals": 8,
		  "classes": ["intalu", "fpalu"],
		  "policies": ["AlwaysActive", "MaxSleep"]}`,
	}

	type job struct {
		id       string
		kind     string // "sweeps" or "optimize"
		canceled bool
	}
	const rounds = 2
	jobs := make([]job, 0, rounds*(len(sweepBodies)+len(tuneBodies)))
	var mu sync.Mutex
	var wg sync.WaitGroup

	submit := func(kind, body string, cancel bool) {
		defer wg.Done()
		resp, err := http.Post(ts.URL+"/v1/"+kind, "application/json", strings.NewReader(body))
		if err != nil {
			t.Error(err)
			return
		}
		var sub struct {
			ID string `json:"id"`
		}
		if err := decodeBody(resp, &sub); err != nil {
			t.Errorf("%s submit: %v", kind, err)
			return
		}
		if cancel {
			req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/"+kind+"/"+sub.ID, nil)
			dresp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, dresp.Body)
			dresp.Body.Close()
		}
		// Poll once while the system is in motion; any well-formed answer
		// is acceptable, it just has to be race-clean.
		presp, err := http.Get(ts.URL + "/v1/" + kind + "/" + sub.ID + "?poll=1")
		if err != nil {
			t.Error(err)
			return
		}
		io.Copy(io.Discard, presp.Body)
		presp.Body.Close()
		mu.Lock()
		jobs = append(jobs, job{id: sub.ID, kind: kind, canceled: cancel})
		mu.Unlock()
	}

	for r := 0; r < rounds; r++ {
		for i, body := range sweepBodies {
			wg.Add(1)
			go submit("sweeps", body, (r+i)%3 == 0)
		}
		for i, body := range tuneBodies {
			wg.Add(1)
			go submit("optimize", body, (r+i)%3 == 1)
		}
	}
	wg.Wait()

	ctx, stop := context.WithTimeout(context.Background(), 60*time.Second)
	defer stop()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	for _, j := range jobs {
		var state string
		switch j.kind {
		case "sweeps":
			sw, ok := s.lookupSweep(j.id)
			if !ok {
				t.Errorf("sweep %s missing from the registry", j.id)
				continue
			}
			state = sw.jobState()
		default:
			tn, ok := s.lookupTune(j.id)
			if !ok {
				t.Errorf("tune %s missing from the registry", j.id)
				continue
			}
			state = tn.jobState()
		}
		if state == StateRunning {
			t.Errorf("%s %s still running after drain", j.kind, j.id)
		}
		if state == StateFailed {
			t.Errorf("%s %s failed", j.kind, j.id)
		}
		if !j.canceled && state != StateDone {
			t.Errorf("uncanceled %s %s ended %q, want %q", j.kind, j.id, state, StateDone)
		}
	}
}

// decodeBody decodes a 202 submit response.
func decodeBody(resp *http.Response, v any) error {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("got %s: %s", resp.Status, b)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
