package server

import (
	"context"
	"testing"
	"time"

	"github.com/archsim/fusleep"
	"github.com/archsim/fusleep/internal/store"
)

// FuzzJobLogReplay feeds Server.replay arbitrary job WAL records: kind
// sweep, tune, or anything else, with any payload bytes. Replay must never
// panic. It either returns an error and registers nothing, or registers a
// job that reaches a terminal state once the server drains; either way
// the admission backlog returns to zero. The service limits are small so
// that any accepted payload stays cheap to run.
func FuzzJobLogReplay(f *testing.F) {
	for _, seed := range []struct{ kind, payload string }{
		{"sweep", chaosGrid},
		{"sweep", `{"benchmarks": ["gcc"], "fuCounts": [2], "classes": ["intalu", "fpalu"],
		  "assignments": [{"intalu": {"policy": "GradualSleep", "slices": 4}, "fpalu": {"policy": "MaxSleep"}}],
		  "policies": [{"policy": "AlwaysActive"}]}`},
		{"sweep", `{"ps": [0.1, 0.2, 0.3, 0.4, 0.5]}`},
		{"tune", `{"benchmarks": ["gcc"], "maxEvals": 6, "policies": ["AlwaysActive", "MaxSleep"]}`},
		{"tune", `{"benchmarks": ["gcc"], "maxEvals": 8, "classes": ["intalu", "fpalu"],
		  "policies": ["AlwaysActive", "MaxSleep"]}`},
		{"tune", `{"maxEvals": 64}`},
		{"sweep", `{"window": 999999999}`},
		{"cleanup", `{}`},
		{"sweep", `not json`},
		{"tune", ``},
	} {
		f.Add(seed.kind, []byte(seed.payload))
	}
	eng := fusleep.NewEngine(fusleep.WithWindow(testWindow))
	f.Fuzz(func(t *testing.T, kind string, payload []byte) {
		const id = "s-000001"
		// Replay runs under Recover, so the server has a WAL to mark the
		// job finished in.
		st, err := store.Open(t.TempDir(), store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		s := New(Config{Engine: eng, Jobs: st.Jobs, Shards: 1, MaxCells: 16, MaxWindow: testWindow})
		err = s.replay(store.JobRecord{ID: id, Kind: kind, Payload: payload})
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if derr := s.Drain(ctx); derr != nil {
			t.Fatalf("drain: %v", derr)
		}
		s.mu.Lock()
		job, registered := s.jobs[id]
		s.mu.Unlock()
		switch {
		case err != nil && registered:
			t.Fatalf("replay failed (%v) but registered job %s", err, id)
		case err == nil && !registered:
			t.Fatal("replay succeeded but registered no job")
		case err == nil && job.jobState() == StateRunning:
			t.Fatalf("replayed %s job still running after drain", kind)
		}
		if n := s.pendingCells.Load(); n != 0 {
			t.Fatalf("pendingCells = %d after drain, want 0", n)
		}
	})
}
