package server

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/archsim/fusleep"
	"github.com/archsim/fusleep/internal/fault"
	"github.com/archsim/fusleep/internal/store"
	"github.com/archsim/fusleep/internal/telemetry"
)

// chaosGrid is the crash-recovery workload: 12 cells (3 policies x 4 FU
// counts) on one benchmark, small enough for -race and large enough that
// a mid-sweep crash strands real work.
const chaosGrid = `{"benchmarks": ["gcc"], "window": 20000, "fuCounts": [1,2,3,4],
  "policies": [{"policy": "AlwaysActive"}, {"policy": "MaxSleep"}, {"policy": "SleepTimeout"}]}`

// rawCellResults streams a sweep to completion and returns each cell's
// result line exactly as served, keyed by grid index — the unit of the
// byte-identity contract.
func rawCellResults(t *testing.T, base, id string) (map[int]string, streamEvent) {
	t.Helper()
	resp, err := http.Get(base + "/v1/sweeps/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := make(map[int]string)
	var end streamEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		var ev struct {
			Event  string          `json:"event"`
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		switch ev.Event {
		case "cell":
			var idx struct {
				Index int `json:"index"`
			}
			if err := json.Unmarshal(ev.Result, &idx); err != nil {
				t.Fatal(err)
			}
			out[idx.Index] = string(ev.Result)
		case "end":
			if err := json.Unmarshal(sc.Bytes(), &end); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out, end
}

// crashServer is one daemon incarnation over a shared store directory.
func crashServer(t *testing.T, dir string, inj *fault.Injector) (*Server, *httptest.Server, *store.Store, *fusleep.Engine) {
	t.Helper()
	st, err := store.Open(dir, store.Options{SyncEvery: 1, Inject: inj})
	if err != nil {
		t.Fatal(err)
	}
	eng := fusleep.NewEngine(fusleep.WithWindow(testWindow))
	s := New(Config{Engine: eng, Results: st.Results, Jobs: st.Jobs, Fault: inj})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
		st.Close()
	})
	return s, ts, st, eng
}

// TestCrashRecoveryByteIdentical is the chaos acceptance test: a sweep's
// durability layer "crashes" mid-run (an injected fsync failure wedges
// both journals after 4 results landed, exactly like a dying disk; the
// job's Finished record is lost with it), the server is force-closed and
// a new incarnation opens the same store directory. Recovery must replay
// the job under its original ID, serve the 4 journaled cells from disk
// without recomputation, and stream a result set byte-identical to the
// uninterrupted run.
func TestCrashRecoveryByteIdentical(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "fusleepd")

	// Incarnation A: the fsync point is armed to survive 5 syncs — the
	// WAL's submitted record plus 4 result appends — then fail forever.
	inj := fault.New(1)
	inj.Set(fault.JournalFsync, fault.Spec{After: 5})
	sA, tsA, stA, _ := crashServer(t, dir, inj)

	sub := decodeSubmit(t, postSweep(t, tsA.URL, chaosGrid))
	if sub.Cells != 12 {
		t.Fatalf("cells = %d, want 12", sub.Cells)
	}
	// The sweep itself completes — store failures degrade to lost
	// durability, never failed cells — and its stream is the uninterrupted
	// reference.
	reference, end := rawCellResults(t, tsA.URL, sub.ID)
	if end.State != StateDone || len(reference) != 12 {
		t.Fatalf("reference run: state=%s results=%d", end.State, len(reference))
	}
	if !stA.Results.Wedged() {
		t.Fatal("results journal survived the injected fsync failures")
	}
	journaled := stA.Results.Len()
	if journaled != 4 {
		t.Fatalf("journaled %d results before the crash, want 4", journaled)
	}
	// The result hook is the only put, so each fresh cell the wedged
	// journal refused failed exactly one put, and the scrape says so.
	if v := metricValue(t, scrapeMetrics(t, tsA.URL), "fusleepd_store_put_errors_total"); v != float64(12-journaled) {
		t.Fatalf("fusleepd_store_put_errors_total = %v, want %d", v, 12-journaled)
	}
	// The trace marks a cell stored only when its put landed.
	_, events := getTrace(t, tsA.URL, sub.ID)
	stored := 0
	for _, ev := range events {
		if ev.Stage == telemetry.StageStored {
			stored++
		}
	}
	if stored != journaled {
		t.Fatalf("trace shows %d stored cells, want %d", stored, journaled)
	}
	// Force-stop: the in-process stand-in for a kill. The job's Finished
	// append already hit the wedged WAL, so on disk it is still pending.
	tsA.Close()
	sA.Close()
	if err := stA.Close(); err != nil {
		t.Fatal(err)
	}

	// Incarnation B: same directory, no faults.
	sB, tsB, stB, engB := crashServer(t, dir, nil)
	if stB.Results.Len() != journaled {
		t.Fatalf("reopened store has %d results, want %d", stB.Results.Len(), journaled)
	}
	replayed, err := sB.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if replayed != 1 {
		t.Fatalf("replayed %d jobs, want 1", replayed)
	}

	// The replayed job keeps its original ID and completes.
	recovered, endB := rawCellResults(t, tsB.URL, sub.ID)
	if endB.State != StateDone || len(recovered) != 12 {
		t.Fatalf("recovered run: state=%s results=%d", endB.State, len(recovered))
	}
	// Byte-identity: every cell's served JSON matches the uninterrupted
	// run exactly.
	for idx, want := range reference {
		if got := recovered[idx]; got != want {
			t.Fatalf("cell %d differs after recovery:\n  before: %s\n  after:  %s", idx, want, got)
		}
	}
	// Zero recomputation of journaled cells: they were served at feed
	// time, straight from disk.
	if served := sB.storeServed.Load(); served != uint64(journaled) {
		t.Fatalf("storeServed = %d, want %d", served, journaled)
	}
	// And the rest really ran: the engine simulated only what the crash
	// lost.
	if sims := engB.Stats().Simulations; sims == 0 || sims > 12 {
		t.Fatalf("recovery ran %d simulations, want within (0, 12]", sims)
	}
	// A second restart replays nothing: the recovered job finished and
	// its Finished record is durable this time.
	tsB.Close()
	sB.Close()
	if err := stB.Close(); err != nil {
		t.Fatal(err)
	}
	sC, _, stC, _ := crashServer(t, dir, nil)
	if stC.Results.Len() != 12 {
		t.Fatalf("final store has %d results, want 12", stC.Results.Len())
	}
	if replayed, err := sC.Recover(); err != nil || replayed != 0 {
		t.Fatalf("second recovery replayed %d jobs (err %v), want 0", replayed, err)
	}
}

// TestFaultContainedSweepCompletes drives a sweep through injected
// transient failures and asserts retries absorb them: the job completes,
// and its results match a clean run's.
func TestFaultContainedSweepCompletes(t *testing.T) {
	inj := fault.New(3)
	// Each cell's attempts fail transiently on a seeded coin, at most
	// twice per cell, so some cells retry once or twice and none exhausts
	// MaxRetries: 2, in whatever order the workers run them.
	inj.Set(fault.CellTransient, fault.Spec{Times: 2, Prob: 0.5})
	eng := fusleep.NewEngine(fusleep.WithWindow(testWindow))
	s := New(Config{Engine: eng, Fault: inj, MaxRetries: 2, RetryBase: time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	sub := decodeSubmit(t, postSweep(t, ts.URL, chaosGrid))
	faulted, end := rawCellResults(t, ts.URL, sub.ID)
	if end.State != StateDone || end.Failed != 0 {
		t.Fatalf("faulted run: state=%s failed=%d", end.State, end.Failed)
	}
	if s.retries.Load() == 0 {
		t.Fatal("no retries recorded despite armed transient faults")
	}

	_, cleanTS := newTestServer(t, Config{})
	cleanSub := decodeSubmit(t, postSweep(t, cleanTS.URL, chaosGrid))
	clean, _ := rawCellResults(t, cleanTS.URL, cleanSub.ID)
	for idx, want := range clean {
		if got := faulted[idx]; got != want {
			t.Fatalf("cell %d differs under fault injection:\n  clean:   %s\n  faulted: %s", idx, want, got)
		}
	}
}

// TestCellPanicFailsJobNotServer injects a panic into one cell: the job
// fails with a typed error, the worker shard survives, and the server
// keeps serving.
func TestCellPanicFailsJobNotServer(t *testing.T) {
	inj := fault.New(5)
	inj.Set(fault.CellPanic, fault.Spec{Times: 1})
	eng := fusleep.NewEngine(fusleep.WithWindow(testWindow))
	s := New(Config{Engine: eng, Fault: inj})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	sub := decodeSubmit(t, postSweep(t, ts.URL, chaosGrid))
	_, end := rawCellResults(t, ts.URL, sub.ID)
	if end.State != StateFailed || !strings.Contains(end.Error, "panicked") {
		t.Fatalf("panicked sweep: state=%s error=%q", end.State, end.Error)
	}
	// The shard workers survived: a fresh sweep on the same server runs
	// clean.
	sub2 := decodeSubmit(t, postSweep(t, ts.URL, chaosGrid))
	_, end2 := rawCellResults(t, ts.URL, sub2.ID)
	if end2.State != StateDone {
		t.Fatalf("post-panic sweep: state=%s error=%q", end2.State, end2.Error)
	}
}

// TestLoadShedAndReadyz fills the backlog with a stalled sweep and
// asserts further submissions shed with 429 + Retry-After while /readyz
// reports not ready.
func TestLoadShedAndReadyz(t *testing.T) {
	inj := fault.New(9)
	// Every cell stalls long enough for the assertions below.
	inj.Set(fault.CellSlow, fault.Spec{Delay: 30 * time.Second})
	eng := fusleep.NewEngine(fusleep.WithWindow(testWindow))
	s := New(Config{Engine: eng, Fault: inj, MaxPending: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	sub := decodeSubmit(t, postSweep(t, ts.URL,
		`{"benchmarks": ["gcc"], "window": 20000, "fuCounts": [1,2], "policies": [{"policy": "MaxSleep"}]}`))
	if sub.Cells != 2 {
		t.Fatalf("cells = %d, want 2", sub.Cells)
	}

	resp := postSweep(t, ts.URL, chaosGrid)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit over full backlog = %s, want 429", resp.Status)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("Retry-After = %q, want a positive hint", ra)
	}
	if s.sheds.Load() != 1 {
		t.Fatalf("sheds = %d, want 1", s.sheds.Load())
	}

	rz, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer rz.Body.Close()
	if rz.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz under full backlog = %s, want 503", rz.Status)
	}
	var rd struct {
		Ready        bool  `json:"ready"`
		PendingCells int64 `json:"pendingCells"`
	}
	if err := json.NewDecoder(rz.Body).Decode(&rd); err != nil {
		t.Fatal(err)
	}
	if rd.Ready || rd.PendingCells != 2 {
		t.Fatalf("/readyz = %+v", rd)
	}
	// /healthz stays green: the daemon is alive, just busy.
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("/healthz under load = %s, want 200", hz.Status)
	}
}

// TestCloseDuringDrainNoDoubleClose is the Close-vs-Drain regression
// test: concurrent Drain and Close calls — with live jobs in flight —
// must share one shutdown (no double close of the shard channels, no
// send on a closed channel) and all return.
func TestCloseDuringDrainNoDoubleClose(t *testing.T) {
	eng := fusleep.NewEngine(fusleep.WithWindow(testWindow))
	s := New(Config{Engine: eng, Shards: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 3; i++ {
		decodeSubmit(t, postSweep(t, ts.URL, chaosGrid))
	}

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Close()
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			_ = s.Drain(ctx)
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("concurrent Close/Drain deadlocked")
	}
	// The server refuses new work but stays queryable.
	resp := postSweep(t, ts.URL, chaosGrid)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit after shutdown = %s, want 503", resp.Status)
	}
}

// TestRecoveredJobVisibleInListing asserts a replayed sweep carries its
// original ID and the recovered marker through the listing API.
func TestRecoveredJobVisibleInListing(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "fusleepd")
	stA, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Journal a submission by hand, as if the daemon died right after the
	// ack: submitted, never finished.
	if err := stA.Jobs.Submitted("s-000007", "sweep", []byte(chaosGrid)); err != nil {
		t.Fatal(err)
	}
	if err := stA.Close(); err != nil {
		t.Fatal(err)
	}

	s, ts, _, _ := crashServer(t, dir, nil)
	if replayed, err := s.Recover(); err != nil || replayed != 1 {
		t.Fatalf("recover = %d, %v", replayed, err)
	}
	resp, err := http.Get(ts.URL + "/v1/sweeps")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []jobInfo
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != "s-000007" || !list[0].Recovered {
		t.Fatalf("listing = %+v, want the recovered s-000007", list)
	}
	// New submissions continue past the replayed sequence number.
	sub := decodeSubmit(t, postSweep(t, ts.URL, chaosGrid))
	if sub.ID != "s-000008" {
		t.Fatalf("next id = %s, want s-000008", sub.ID)
	}
}

// TestRecoveredStoreSkipsInvalidRecords plants CRC-valid result records
// that are not canonical CellResult encodings under real cell keys — the
// kind of record a bug or a hand-edited journal could leave behind. Hits
// are served as raw stored bytes, so such a record must never reach a
// stream: OpenResults drops it and counts it, and the daemon recomputes
// the cell, streams the correct result, and journals it anew.
func TestRecoveredStoreSkipsInvalidRecords(t *testing.T) {
	_, tsRef := newTestServer(t, Config{})
	sub := decodeSubmit(t, postSweep(t, tsRef.URL, chaosGrid))
	reference, end := rawCellResults(t, tsRef.URL, sub.ID)
	if end.State != StateDone || len(reference) != 12 {
		t.Fatalf("reference run: state=%s results=%d", end.State, len(reference))
	}

	var req SweepRequest
	if err := json.Unmarshal([]byte(chaosGrid), &req); err != nil {
		t.Fatal(err)
	}
	g, err := req.grid(10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	cells := fusleep.NewEngine(fusleep.WithWindow(testWindow)).Cells(g)
	// Each planted record would stream a visibly wrong relEnergy if it were
	// spliced: the reference result with one number changed.
	tamper := func(i int) string {
		return strings.Replace(reference[i], `"relEnergy":`, `"relEnergy":99,"x":`, 1)
	}
	planted := map[int]string{
		0: `not json at all`,
		1: `{"index":0,"cell":"gcc"}`,
		2: strings.Replace(tamper(2), `{"index":2,`, `{"cell":{},"index":0,`, 1), // no canonical prefix
		3: strings.Replace(reference[3], `{"index":3,`, `{"index":0, `, 1),       // decodes, not canonical
		4: strings.Replace(tamper(4), `{"index":4,`, `{"index":0,`, 1),           // unknown field
	}
	dir := filepath.Join(t.TempDir(), "fusleepd")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	j, _, err := store.OpenJournal(filepath.Join(dir, store.ResultsFile), store.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, data := range planted {
		// Kind 1 is the result store's record kind.
		if err := j.Append(store.Record{Kind: 1, Key: cells[i].Key(), Data: []byte(data)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	s, ts, st, eng := crashServer(t, dir, nil)
	if got := st.Results.Stats(); got.Invalid != len(planted) || got.Results != 0 {
		t.Fatalf("opened store: %+v, want %d invalid records and no results", got, len(planted))
	}
	body := scrapeMetrics(t, ts.URL)
	if v := metricValue(t, body, "fusleepd_store_invalid_records"); v != float64(len(planted)) {
		t.Fatalf("fusleepd_store_invalid_records = %v, want %d", v, len(planted))
	}
	sub = decodeSubmit(t, postSweep(t, ts.URL, chaosGrid))
	got, end := rawCellResults(t, ts.URL, sub.ID)
	if end.State != StateDone || len(got) != 12 {
		t.Fatalf("run over planted store: state=%s results=%d", end.State, len(got))
	}
	for idx, want := range reference {
		if got[idx] != want {
			t.Fatalf("cell %d differs from the reference:\n  want %s\n  got  %s", idx, want, got[idx])
		}
	}
	if served := s.storeServed.Load(); served != 0 {
		t.Fatalf("served %d cells from a store holding only invalid records", served)
	}
	if sims := eng.Stats().Simulations; sims == 0 {
		t.Fatal("no simulations: the planted cells were not recomputed")
	}
	if n := st.Results.Len(); n != 12 {
		t.Fatalf("store holds %d results after the run, want 12", n)
	}
}
