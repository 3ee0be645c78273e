package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/archsim/fusleep"
	"github.com/archsim/fusleep/internal/store"
)

// warmSweepGrid is a 2000-cell policy grid over 4 machines (2 IntALU x 2
// multiplier counts) and 3 programs: 20 policies x 25 technology points
// per machine, the shape of a design-space sweep over one simulated
// machine set. Alpha is left to the caller, so every submission can score
// fresh cells against the same cached simulations.
func warmSweepGrid(alpha float64) SweepRequest {
	req := SweepRequest{
		Benchmarks: []string{"gcc", "mcf", "vpr"},
		Window:     testWindow,
		FUCounts:   []int{2, 4},
		MultCounts: []int{1, 2},
		Alpha:      alpha,
		Policies: []fusleep.PolicyConfig{
			{Policy: fusleep.MaxSleep}, {Policy: fusleep.NoOverhead},
			{Policy: fusleep.AlwaysActive}, {Policy: fusleep.OracleMinimal},
		},
	}
	for k := range 8 {
		req.Policies = append(req.Policies,
			fusleep.PolicyConfig{Policy: fusleep.GradualSleep, Slices: 1 + 7*k},
			fusleep.PolicyConfig{Policy: fusleep.SleepTimeout, Timeout: 2 + 5*k})
	}
	for i := range 25 {
		req.Ps = append(req.Ps, 0.02+0.04*float64(i))
	}
	return req
}

// BenchmarkWarmSweep is the daemon's server-side cost of a warm cell: one
// op submits a 2000-cell grid whose machines are already simulated to a
// standalone daemon (result store at SyncEvery 64, two in-process
// workers) and reads its NDJSON stream to the end without decoding it.
// Every op uses a fresh activity factor, so every cell is evaluated,
// journaled and streamed, none served from the store. It reports ns/cell
// and allocs/cell (client and server together, in one process); the
// client does no JSON decoding, which is what separates this layer from
// an end-to-end client measurement.
//
//	go test -run '^$' -bench WarmSweep -benchtime 20x ./internal/server
func BenchmarkWarmSweep(b *testing.B) {
	st, err := store.Open(b.TempDir(), store.Options{SyncEvery: 64})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	eng := fusleep.NewEngine(fusleep.WithWindow(testWindow))
	s := New(Config{Engine: eng, Shards: 2, Results: st.Results, Jobs: st.Jobs})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()

	// Simulate every machine once, at an activity factor no op uses.
	warm := warmSweepGrid(0.9)
	warm.Policies, warm.Ps = warm.Policies[:1], warm.Ps[:1]
	var buf bytes.Buffer
	sweep := func(req SweepRequest) int {
		body, err := json.Marshal(req)
		if err != nil {
			b.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		var sub submitResponse
		err = json.NewDecoder(resp.Body).Decode(&sub)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusAccepted {
			b.Fatalf("submit: %s: %v", resp.Status, err)
		}
		resp, err = http.Get(ts.URL + "/v1/sweeps/" + sub.ID)
		if err != nil {
			b.Fatal(err)
		}
		buf.Reset()
		_, err = io.Copy(&buf, resp.Body)
		resp.Body.Close()
		if err != nil {
			b.Fatal(err)
		}
		if n := bytes.Count(buf.Bytes(), []byte(`{"event":"cell"`)); n != sub.Cells ||
			!bytes.Contains(buf.Bytes(), []byte(`"state":"done"`)) {
			b.Fatalf("sweep %s streamed %d of %d cells:\n%s", sub.ID, n, sub.Cells, tail(buf.Bytes()))
		}
		return sub.Cells
	}
	sweep(warm)
	sims := eng.Stats().Simulations

	var before, after runtime.MemStats
	cells := 0
	runtime.GC()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := range b.N {
		cells += sweep(warmSweepGrid(0.1 + 0.7*float64(i+1)/float64(b.N+1)))
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	if got := eng.Stats().Simulations; got != sims {
		b.Fatalf("the timed sweeps ran %d simulations; every machine should be warm", got-sims)
	}
	if served := s.storeServed.Load(); served != 0 {
		b.Fatalf("%d cells served from the store; every timed cell should be fresh", served)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cells), "ns/cell")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(cells), "allocs/cell")
}

// warmSweepAllocsPerCell bounds TestWarmSweepAllocs: its measured value
// plus one.
const warmSweepAllocsPerCell = 8.9

// TestWarmSweepAllocs bounds the server side of a warm cell: it runs a
// 320-cell grid whose machines are already simulated through a standalone
// daemon (result store at SyncEvery 64, two in-process workers) from
// submission to the job's terminal state, with no HTTP client, and
// counts the allocations per cell. Every run scores fresh cells, so each
// is evaluated, encoded, journaled and settled; none is served from the
// store. A -race build skips it: sync.Pool drops items at random there,
// so the count bounds nothing, and the rest of the suite races the same
// sweep path.
func TestWarmSweepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not deterministic under -race")
	}
	results, err := store.OpenResults(filepath.Join(t.TempDir(), store.ResultsFile), store.JournalOptions{SyncEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer results.Close()
	eng := fusleep.NewEngine(fusleep.WithWindow(testWindow))
	s := New(Config{Engine: eng, Shards: 2, Results: results})
	defer s.Close()
	const runs = 4
	grids := make([][]fusleep.Cell, runs+2) // a warm-up sweep, AllocsPerRun's own, then runs
	for i := range grids {
		req := warmSweepGrid(0.1 + 0.1*float64(i))
		if i == 0 {
			// The first grid only simulates every machine.
			req.Policies = req.Policies[:1]
		}
		req.Ps = req.Ps[:4]
		cells, _, err := s.sweepCells(req)
		if err != nil {
			t.Fatal(err)
		}
		grids[i] = cells
	}
	next := 0
	sweep := func() {
		cells := grids[next]
		next++
		job := newSweepJob(context.Background(), s.nextID("s"), cells)
		job.rec = s.trace
		s.trace.Start(job.id, len(cells))
		s.pendingCells.Add(int64(len(cells)))
		if err := s.submit(job.id, job, func() { s.feed(job) }); err != nil {
			t.Fatal(err)
		}
		for {
			_, state, updated := job.watch(len(cells))
			if state != StateRunning {
				if info := job.info(); state != StateDone || info.Completed != len(cells) {
					t.Fatalf("sweep %s ended %q with %d of %d cells", job.id, state, info.Completed, len(cells))
				}
				return
			}
			<-updated
		}
	}
	sweep()
	sims := eng.Stats().Simulations
	perCell := testing.AllocsPerRun(runs, sweep) / float64(len(grids[1]))
	if got := eng.Stats().Simulations; got != sims {
		t.Fatalf("the measured sweeps ran %d simulations; every machine should be warm", got-sims)
	}
	if served := s.storeServed.Load(); served != 0 {
		t.Fatalf("%d cells served from the store; every measured cell should be fresh", served)
	}
	t.Logf("%.2f allocs per cell", perCell)
	if perCell > warmSweepAllocsPerCell {
		t.Errorf("a warm sweep made %.2f allocs per cell, want <= %.2f", perCell, warmSweepAllocsPerCell)
	}
}

// tail returns the last few hundred bytes of a stream, for failure messages.
func tail(p []byte) []byte {
	return p[max(0, len(p)-512):]
}
