package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/archsim/fusleep"
	"github.com/archsim/fusleep/internal/fleet"
	"github.com/archsim/fusleep/internal/store"
)

// randomGrid draws a seeded sweep over two FU-class axes (4 SimKeys per
// benchmark set), several policy/assignment variants and technology points
// per SimKey, and a repeated policy so the grid carries duplicate cells.
func randomGrid(seed int64, window uint64) SweepRequest {
	rng := rand.New(rand.NewSource(seed))
	pick := func(n, from int) []int {
		perm := rng.Perm(from)[:n]
		for i := range perm {
			perm[i]++
		}
		return perm
	}
	policies := []fusleep.PolicyConfig{
		{Policy: fusleep.AlwaysActive},
		{Policy: fusleep.MaxSleep},
		{Policy: fusleep.NoOverhead},
		{Policy: fusleep.GradualSleep, Slices: 1 + rng.Intn(6)},
		{Policy: fusleep.SleepTimeout, Timeout: 1 + rng.Intn(20)},
	}
	rng.Shuffle(len(policies), func(i, j int) { policies[i], policies[j] = policies[j], policies[i] })
	chosen := append(policies[:3:3], policies[0]) // duplicate variant
	benches := []string{"gcc", "parser", "twolf", "vpr", "mst"}
	rng.Shuffle(len(benches), func(i, j int) { benches[i], benches[j] = benches[j], benches[i] })
	return SweepRequest{
		Benchmarks:  benches[:2],
		Window:      window,
		FUCounts:    pick(2, 4),
		FPALUCounts: pick(2, 3),
		Classes:     []string{"intalu", "fpalu"},
		Policies:    chosen,
		Assignments: []fusleep.Assignment{{
			fusleep.FUIntALU: policies[3],
			fusleep.FUFPALU:  policies[4],
		}},
		Ps: []float64{0.05 + 0.45*rng.Float64(), 0.05 + 0.45*rng.Float64()},
	}
}

// marshalResults renders engine results as the daemon streams them: one
// CellResult JSON document per grid index.
func marshalResults(t *testing.T, results []fusleep.CellResult) map[int]string {
	t.Helper()
	out := make(map[int]string, len(results))
	for i, res := range results {
		res.Index = i
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = string(b)
	}
	return out
}

// sweepDaemon submits body to base and returns the streamed results,
// after checking that the job's ?poll=1 snapshot carries byte-identical
// results.
func sweepDaemon(t *testing.T, base, body string, cells int) map[int]string {
	t.Helper()
	sub := decodeSubmit(t, postSweep(t, base, body))
	out, end := rawCellResults(t, base, sub.ID)
	if end.State != StateDone || len(out) != cells {
		t.Fatalf("sweep end = %+v with %d results, want %d done", end, len(out), cells)
	}
	polled := pollResults(t, base, sub.ID)
	if len(polled) != len(out) {
		t.Fatalf("poll snapshot has %d results, stream had %d", len(polled), len(out))
	}
	for i, want := range out {
		if polled[i] != want {
			t.Fatalf("cell %d: poll snapshot differs from stream:\n  stream: %s\n  poll:   %s", i, want, polled[i])
		}
	}
	return out
}

// pollResults fetches a sweep's ?poll=1 snapshot and returns each result
// document exactly as served, keyed by grid index.
func pollResults(t *testing.T, base, id string) map[int]string {
	t.Helper()
	resp, err := http.Get(base + "/v1/sweeps/" + id + "?poll=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap struct {
		Results []json.RawMessage `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	out := make(map[int]string, len(snap.Results))
	for _, raw := range snap.Results {
		var idx struct {
			Index int `json:"index"`
		}
		if err := json.Unmarshal(raw, &idx); err != nil {
			t.Fatal(err)
		}
		out[idx.Index] = string(raw)
	}
	return out
}

// sweepRestarted runs body on a store-backed daemon (fresh cells, streamed
// from the bytes the result hook journaled), closes it and its store, then
// reopens the store under a new Server and resubmits: every cell of the
// second stream is served from the reopened journal. It returns both
// streams.
func sweepRestarted(t *testing.T, body string, cells int) (fresh, replayed map[int]string) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "store")
	incarnation := func() (*Server, string, func()) {
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		eng := fusleep.NewEngine(fusleep.WithWindow(testWindow))
		s, ts := newTestServer(t, Config{Engine: eng, Results: st.Results, Jobs: st.Jobs})
		if _, err := s.Recover(); err != nil {
			t.Fatal(err)
		}
		return s, ts.URL, func() {
			ts.Close()
			s.Close()
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	_, base, stop := incarnation()
	fresh = sweepDaemon(t, base, body, cells)
	stop()
	s, base, stop := incarnation()
	defer stop()
	replayed = sweepDaemon(t, base, body, cells)
	if served := s.storeServed.Load(); served != uint64(cells) {
		t.Fatalf("restarted daemon served %d of %d cells from the store", served, cells)
	}
	return fresh, replayed
}

// sweepFleet runs body on a fresh coordinator with one worker per entry of
// parallel and returns the stream plus the workers' summed simulations.
func sweepFleet(t *testing.T, body string, cells int, parallel ...int) (map[int]string, uint64) {
	t.Helper()
	coord := fleet.NewCoordinator(fleet.Config{})
	_, ts := newTestServer(t, Config{Fleet: coord})
	var engines []*fusleep.Engine
	var stops []func()
	for _, p := range parallel {
		eng := fusleep.NewEngine(fusleep.WithWindow(testWindow))
		engines = append(engines, eng)
		stops = append(stops, startWorker(t, ts.URL, &fleet.Worker{
			Exec: &fleet.Executor{Engine: eng}, Parallel: p, Wait: 50 * time.Millisecond,
		}))
	}
	waitFor(t, "fleet registration", 10*time.Second, func() bool {
		return coord.Stats().Workers == len(parallel)
	})
	out := sweepDaemon(t, ts.URL, body, cells)
	for _, stop := range stops {
		stop()
	}
	var sims uint64
	for _, eng := range engines {
		sims += eng.Stats().Simulations
	}
	return out, sims
}

// TestDifferentialByteIdentity runs the six-way differential check below
// under GOMAXPROCS 1 and 4 as well as the default — a standalone daemon's
// default worker count follows it — restoring the setting afterwards.
// Each non-default setting draws a grid of its own at a 5,000-instruction
// window, so the suite covers four grids while its race-detector stress
// run stays within go test's default timeout.
func TestDifferentialByteIdentity(t *testing.T) {
	for _, run := range []struct {
		procs  int
		window uint64
		seeds  []int64
	}{{0, testWindow, []int64{1, 2}}, {1, 5_000, []int64{3}}, {4, 5_000, []int64{4}}} {
		name := "GOMAXPROCS=default"
		if run.procs > 0 {
			name = fmt.Sprintf("GOMAXPROCS=%d", run.procs)
		}
		t.Run(name, func(t *testing.T) {
			if run.procs > 0 {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(run.procs))
			}
			differentialByteIdentity(t, run.window, run.seeds...)
		})
	}
}

// differentialByteIdentity evaluates seeded random grids six ways —
// Engine.RunCell per cell, Engine.RunCells, a standalone daemon, a
// 1-coordinator/2-worker fleet with Parallel 1 and with one worker at
// Parallel 2, and a store-backed daemon restarted over its store and
// resubmitted — and requires byte-identical CellResult JSON from all six.
// Every daemon way also checks its ?poll=1 snapshot against its stream,
// so poll results match for fresh, marshalled, and store-served cells.
// The fleets must also simulate each (SimKey, program) pair exactly once:
// SimKey routing keeps every variant of a machine on one worker.
func differentialByteIdentity(t *testing.T, window uint64, seeds ...int64) {
	for _, seed := range seeds {
		req := randomGrid(seed, window)
		g, err := req.grid(10_000_000)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		cells := fusleep.NewEngine(fusleep.WithWindow(testWindow)).Cells(g)
		simKeys := map[string]bool{}
		keys := map[string]bool{}
		for _, c := range cells {
			simKeys[c.SimKey()] = true
			keys[c.Key()] = true
		}
		if len(simKeys) < 4 || len(keys) == len(cells) {
			t.Fatalf("seed %d: %d cells over %d SimKeys with %d distinct; want >= 4 SimKeys and duplicates",
				seed, len(cells), len(simKeys), len(keys))
		}
		wantSims := uint64(len(simKeys) * len(req.Benchmarks))
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}

		ctx := context.Background()
		eng := fusleep.NewEngine(fusleep.WithWindow(testWindow))
		perCell := make([]fusleep.CellResult, len(cells))
		for i, c := range cells {
			if perCell[i], err = eng.RunCell(ctx, c); err != nil {
				t.Fatalf("seed %d: RunCell %d: %v", seed, i, err)
			}
		}
		batch, err := fusleep.NewEngine(fusleep.WithWindow(testWindow)).RunCells(ctx, cells)
		if err != nil {
			t.Fatalf("seed %d: RunCells: %v", seed, err)
		}
		_, ts := newTestServer(t, Config{})
		fleet1, sims1 := sweepFleet(t, string(body), len(cells), 1, 1)
		fleet2, sims2 := sweepFleet(t, string(body), len(cells), 1, 2)
		stored, replayed := sweepRestarted(t, string(body), len(cells))

		want := marshalResults(t, perCell)
		ways := []struct {
			name string
			got  map[int]string
		}{
			{"Engine.RunCells", marshalResults(t, batch)},
			{"standalone daemon", sweepDaemon(t, ts.URL, string(body), len(cells))},
			{"fleet, Parallel 1", fleet1},
			{"fleet, one worker at Parallel 2", fleet2},
			{"store-backed daemon", stored},
			{"restarted daemon, replayed from the store", replayed},
		}
		for _, w := range ways {
			for i := range cells {
				if w.got[i] != want[i] {
					t.Fatalf("seed %d: cell %d differs:\n  Engine.RunCell: %s\n  %s: %s",
						seed, i, want[i], w.name, strings.TrimSpace(w.got[i]))
				}
			}
		}
		for _, s := range []struct {
			name string
			sims uint64
		}{{"Parallel 1", sims1}, {"Parallel 2", sims2}} {
			if s.sims != wantSims {
				t.Errorf("seed %d: fleet (%s) ran %d simulations, want %d (%d SimKeys x %d programs)",
					seed, s.name, s.sims, wantSims, len(simKeys), len(req.Benchmarks))
			}
		}
	}
}
