package server

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/archsim/fusleep"
	"github.com/archsim/fusleep/internal/fault"
	"github.com/archsim/fusleep/internal/fleet"
	"github.com/archsim/fusleep/internal/store"
	"github.com/archsim/fusleep/internal/telemetry"
)

// scrapeMetrics fetches /metrics, asserts the exposition content type, and
// returns the body after running it through the strict format validator.
func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("/metrics content type = %q, want the 0.0.4 exposition format", ct)
	}
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteByte('\n')
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	if err := telemetry.ValidateExposition(body); err != nil {
		t.Fatalf("/metrics failed exposition validation: %v", err)
	}
	return body
}

// metricValue extracts an unlabeled sample's value from exposition text.
func metricValue(t *testing.T, body, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		rest, ok := strings.CutPrefix(line, name+" ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			t.Fatalf("metric %s: bad value in line %q: %v", name, line, err)
		}
		return v
	}
	t.Fatalf("metric %s not found in scrape", name)
	return 0
}

// getTrace fetches a job's trace endpoint and decodes the NDJSON stream.
func getTrace(t *testing.T, base, id string) (traceHeader, []telemetry.Event) {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace fetch = %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("trace content type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	if !sc.Scan() {
		t.Fatal("trace stream empty")
	}
	var hdr traceHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		t.Fatalf("bad trace header %q: %v", sc.Text(), err)
	}
	if hdr.Event != "trace" || hdr.ID != id {
		t.Fatalf("trace header = %+v", hdr)
	}
	var events []telemetry.Event
	for sc.Scan() {
		var ev telemetry.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad trace line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if hdr.Events != len(events) {
		t.Fatalf("header claims %d events, stream carried %d", hdr.Events, len(events))
	}
	return hdr, events
}

// stagesByKey indexes which stages each cell key visited ("" collects the
// job-level chain).
func stagesByKey(events []telemetry.Event) map[string]map[string]int {
	out := make(map[string]map[string]int)
	for _, ev := range events {
		m := out[ev.Key]
		if m == nil {
			m = make(map[string]int)
			out[ev.Key] = m
		}
		m[ev.Stage]++
	}
	return out
}

// TestMetricsExpositionValid runs a sweep on a store-backed server and
// asserts the scrape parses under the strict exposition validator with the
// expected counter and histogram families present.
func TestMetricsExpositionValid(t *testing.T) {
	st, err := store.Open(filepath.Join(t.TempDir(), "telemetry"), store.Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	eng := fusleep.NewEngine(fusleep.WithWindow(testWindow))
	_, ts := newTestServer(t, Config{Engine: eng, Results: st.Results, Jobs: st.Jobs})

	sub := decodeSubmit(t, postSweep(t, ts.URL, chaosGrid))
	if _, end := rawCellResults(t, ts.URL, sub.ID); end.State != StateDone {
		t.Fatalf("sweep state = %s", end.State)
	}

	body := scrapeMetrics(t, ts.URL)
	for _, want := range []string{
		"fusleepd_build_info{",
		"fusleepd_http_requests_total ",
		"fusleepd_cells_completed_total 12",
		"fusleepd_store_put_errors_total 0",
		"fusleepd_cell_eval_seconds_bucket{",
		"fusleepd_cell_eval_seconds_count ",
		"fusleepd_cell_eval_seconds_sum ",
		"fusleepd_http_request_seconds_bucket{",
		"fusleepd_queue_wait_seconds_count ",
		"fusleepd_trace_stage_seconds_bucket{",
		// Warm cells and idle-shard waits finish under 100µs; both
		// histograms resolve down to 1µs.
		`fusleepd_cell_eval_seconds_bucket{le="1e-06"} `,
		`fusleepd_queue_wait_seconds_bucket{le="5e-05"} `,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	if v := metricValue(t, body, "fusleepd_cell_eval_seconds_count"); v < 12 {
		t.Errorf("eval histogram observed %v cells, want >= 12", v)
	}
	if v := metricValue(t, body, "fusleepd_queue_wait_seconds_count"); v < 12 {
		t.Errorf("queue-wait histogram observed %v cells, want >= 12", v)
	}
	// HTTP histogram routes carry the mux pattern, not raw URLs.
	if !strings.Contains(body, `route="POST /v1/sweeps"`) {
		t.Error("http histogram missing the sweep-submit route label")
	}
}

// TestJobTraceEndpointTimeline submits a sweep and asserts its trace
// timeline is complete: the job-level chain and every cell's dispatched →
// evaluated → completed progression, finished by the stream delivery.
func TestJobTraceEndpointTimeline(t *testing.T) {
	st, err := store.Open(filepath.Join(t.TempDir(), "trace"), store.Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	eng := fusleep.NewEngine(fusleep.WithWindow(testWindow))
	_, ts := newTestServer(t, Config{Engine: eng, Results: st.Results, Jobs: st.Jobs})

	sub := decodeSubmit(t, postSweep(t, ts.URL, chaosGrid))
	if _, end := rawCellResults(t, ts.URL, sub.ID); end.State != StateDone {
		t.Fatalf("sweep state = %s", end.State)
	}

	hdr, events := getTrace(t, ts.URL, sub.ID)
	if hdr.Dropped != 0 {
		t.Fatalf("trace dropped %d events under the default bound", hdr.Dropped)
	}
	byKey := stagesByKey(events)
	job := byKey[""]
	for _, stage := range []string{telemetry.StageSubmitted, telemetry.StageJournaled, telemetry.StageStreamed} {
		if job[stage] == 0 {
			t.Errorf("job-level trace missing %q (have %v)", stage, job)
		}
	}
	cells := 0
	for key, stages := range byKey {
		if key == "" {
			continue
		}
		cells++
		for _, stage := range []string{telemetry.StageDispatched, telemetry.StageEvaluated, telemetry.StageCompleted} {
			if stages[stage] == 0 {
				t.Errorf("cell %s missing stage %q (have %v)", key, stage, stages)
			}
		}
	}
	if cells != 12 {
		t.Fatalf("trace covers %d cells, want 12", cells)
	}
	// Sequence numbers are a contiguous 1-based chain.
	for i, ev := range events {
		if ev.Seq != i+1 {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}

	// Unknown jobs get the canonical 404 envelope.
	resp, err := http.Get(ts.URL + "/v1/jobs/s-404404/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown trace = %s, want 404", resp.Status)
	}
	var e apiError
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.Error.Code == "" {
		t.Fatalf("404 envelope = %+v", e)
	}
}

// TestFleetTraceLeaseExpiryTimeline is the fleet trace acceptance test: a
// coordinator with two workers loses one mid-sweep, and the job's trace
// must carry every cell's full span timeline — leased, evaluated (with the
// worker attributed), reported, stored, completed — including the requeue
// event the lease expiry recorded.
func TestFleetTraceLeaseExpiryTimeline(t *testing.T) {
	st, err := store.Open(filepath.Join(t.TempDir(), "coord"), store.Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	coord := fleet.NewCoordinator(fleet.Config{WorkerTTL: killTTL})
	_, ts := newTestServer(t, Config{
		Engine:  fusleep.NewEngine(fusleep.WithWindow(testWindow)),
		Fleet:   coord,
		Results: st.Results,
		Jobs:    st.Jobs,
	})

	// Worker A stalls forever on every cell and dies without a goodbye.
	stallInj := fault.New(11)
	stallInj.Set(fault.CellSlow, fault.Spec{Delay: 10 * time.Minute})
	kt := &killableTransport{}
	doomed := &fleet.Worker{
		Name: "doomed",
		Exec: &fleet.Executor{
			Engine: fusleep.NewEngine(fusleep.WithWindow(testWindow)),
			Fault:  stallInj,
		},
		Client:         &http.Client{Transport: kt},
		Parallel:       4,
		FetchBatch:     4,
		Wait:           50 * time.Millisecond,
		HeartbeatEvery: time.Hour,
	}
	stopDoomed := startWorker(t, ts.URL, doomed)
	waitFor(t, "doomed worker registration", 10*time.Second, func() bool {
		return len(fleetWorkers(t, ts.URL)) == 1
	})
	survivor := &fleet.Worker{
		Name:     "survivor",
		Exec:     &fleet.Executor{Engine: fusleep.NewEngine(fusleep.WithWindow(testWindow))},
		Parallel: 2,
		Wait:     50 * time.Millisecond,
	}
	startWorker(t, ts.URL, survivor)
	waitFor(t, "survivor worker registration", 10*time.Second, func() bool {
		return len(fleetWorkers(t, ts.URL)) == 2
	})

	sub := decodeSubmit(t, postSweep(t, ts.URL, chaosGrid))
	waitFor(t, "doomed worker to lease cells", 30*time.Second, func() bool {
		for _, w := range fleetWorkers(t, ts.URL) {
			if w.Name == "doomed" && w.Leased > 0 {
				return true
			}
		}
		return false
	})
	kt.kill()
	stopDoomed()

	if _, end := rawCellResults(t, ts.URL, sub.ID); end.State != StateDone || end.Completed != 12 {
		t.Fatalf("fleet sweep end = %+v, want 12 completed", end)
	}

	_, events := getTrace(t, ts.URL, sub.ID)
	byKey := stagesByKey(events)
	cells := 0
	for key, stages := range byKey {
		if key == "" {
			continue
		}
		cells++
		for _, stage := range []string{
			telemetry.StageDispatched, telemetry.StageLeased, telemetry.StageEvaluated,
			telemetry.StageReported, telemetry.StageStored, telemetry.StageCompleted,
		} {
			if stages[stage] == 0 {
				t.Errorf("fleet cell %s missing stage %q (have %v)", key, stage, stages)
			}
		}
	}
	if cells != 12 {
		t.Fatalf("trace covers %d cells, want 12", cells)
	}
	// The lease expiry left its mark: at least one requeue with the reason.
	requeues := 0
	for _, ev := range events {
		if ev.Stage == telemetry.StageRequeued {
			requeues++
			if ev.Detail != "lease expired" {
				t.Errorf("requeue detail = %q, want \"lease expired\"", ev.Detail)
			}
			if ev.Key == "" || ev.Worker == "" {
				t.Errorf("requeue event missing cell or worker: %+v", ev)
			}
		}
	}
	if requeues == 0 {
		t.Fatal("trace has no requeued event for the expired worker's leases")
	}
	// Every evaluated span is attributed to a worker and carries a
	// remote-measured duration.
	for _, ev := range events {
		if ev.Stage == telemetry.StageEvaluated {
			if ev.Worker == "" || ev.Attempt == 0 {
				t.Fatalf("evaluated span unattributed: %+v", ev)
			}
		}
	}

	// The scrape agrees: per-worker fleet series exist and the roundtrip
	// histogram saw every reported cell.
	body := scrapeMetrics(t, ts.URL)
	if !strings.Contains(body, `fusleepd_fleet_worker_completed_total{worker=`) {
		t.Error("scrape missing per-worker completion counters")
	}
	if v := metricValue(t, body, "fusleepd_worker_roundtrip_seconds_count"); v < 12 {
		t.Errorf("roundtrip histogram observed %v cells, want >= 12", v)
	}
}

// TestFleetConcurrentScrapeAndTrace hammers /metrics and the trace
// endpoint while a fleet sweep runs — the race-detector contract for the
// observability surfaces.
func TestFleetConcurrentScrapeAndTrace(t *testing.T) {
	coord := fleet.NewCoordinator(fleet.Config{})
	_, ts := newTestServer(t, Config{
		Engine: fusleep.NewEngine(fusleep.WithWindow(testWindow)),
		Fleet:  coord,
	})
	worker := &fleet.Worker{
		Name:     "scraped",
		Exec:     &fleet.Executor{Engine: fusleep.NewEngine(fusleep.WithWindow(testWindow))},
		Parallel: 2,
		Wait:     50 * time.Millisecond,
	}
	startWorker(t, ts.URL, worker)
	waitFor(t, "worker registration", 10*time.Second, func() bool {
		return len(fleetWorkers(t, ts.URL)) == 1
	})

	sub := decodeSubmit(t, postSweep(t, ts.URL, chaosGrid))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/metrics")
				if err != nil {
					continue
				}
				resp.Body.Close()
			}
		}()
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/v1/jobs/" + sub.ID + "/trace")
				if err != nil {
					continue
				}
				resp.Body.Close()
			}
		}()
	}

	_, end := rawCellResults(t, ts.URL, sub.ID)
	close(stop)
	wg.Wait()
	if end.State != StateDone || end.Completed != 12 {
		t.Fatalf("sweep under scrape load = %+v", end)
	}
	// A final quiet scrape and trace still parse clean.
	scrapeMetrics(t, ts.URL)
	if _, events := getTrace(t, ts.URL, sub.ID); len(events) == 0 {
		t.Fatal("trace empty after sweep")
	}
}

// TestCrashReplayTraceShowsReplay asserts the chaos observability
// contract: a job recovered from the WAL carries the replayed event in its
// trace, and fusleepd_recovery_replays_total matches the number of
// replayed traces.
func TestCrashReplayTraceShowsReplay(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "fusleepd")
	stA, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The daemon "died" right after acking the submission.
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
	if _, end := rawCellResults(t, ts.URL, "s-000007"); end.State != StateDone {
		t.Fatalf("recovered sweep state = %s", end.State)
	}

	_, events := getTrace(t, ts.URL, "s-000007")
	replays := 0
	for _, ev := range events {
		if ev.Stage == telemetry.StageReplayed {
			replays++
			if ev.Detail != "sweep" {
				t.Errorf("replayed detail = %q, want \"sweep\"", ev.Detail)
			}
		}
	}
	if replays != 1 {
		t.Fatalf("trace has %d replayed events, want 1", replays)
	}
	body := scrapeMetrics(t, ts.URL)
	if v := metricValue(t, body, "fusleepd_recovery_replays_total"); int(v) != replays {
		t.Fatalf("fusleepd_recovery_replays_total = %v, want %d (the traced replay count)", v, replays)
	}
}

// TestMetricsScrapeAllocationBounded pins the scrape path's allocation
// budget: rendering from the reused buffer must stay within a handful of
// allocations per scrape (scrape-time snapshots, not output bytes).
func TestMetricsScrapeAllocationBounded(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	sub := decodeSubmit(t, postSweep(t, ts.URL, chaosGrid))
	if _, end := rawCellResults(t, ts.URL, sub.ID); end.State != StateDone {
		t.Fatalf("sweep state = %s", end.State)
	}
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w := nopResponseWriter{h: make(http.Header)}
	if avg := testing.AllocsPerRun(50, func() { s.handleMetrics(w, req) }); avg > 32 {
		t.Fatalf("scrape allocates %.0f objects per run, want <= 32 (buffer reuse broken?)", avg)
	}
}

// nopResponseWriter drains a response with no buffering, so the benchmark
// measures the scrape path rather than the recorder.
type nopResponseWriter struct{ h http.Header }

func (w nopResponseWriter) Header() http.Header         { return w.h }
func (w nopResponseWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w nopResponseWriter) WriteHeader(int)             {}

// BenchmarkMetricsScrape measures a steady-state /metrics render on a
// server that has done real work: the reused buffer keeps per-scrape
// allocations independent of output size.
func BenchmarkMetricsScrape(b *testing.B) {
	eng := fusleep.NewEngine(fusleep.WithWindow(testWindow))
	s := New(Config{Engine: eng})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	sub := decodeSubmitB(b, ts.URL)
	drainSweepB(b, ts.URL, sub)

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w := nopResponseWriter{h: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.handleMetrics(w, req)
	}
}

// decodeSubmitB and drainSweepB are benchmark-shaped twins of the test
// helpers (testing.B cannot call t.Fatal helpers).
func decodeSubmitB(b *testing.B, base string) string {
	b.Helper()
	resp, err := http.Post(base+"/v1/sweeps", "application/json", strings.NewReader(chaosGrid))
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	var sub submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		b.Fatal(err)
	}
	return sub.ID
}

func drainSweepB(b *testing.B, base, id string) {
	b.Helper()
	resp, err := http.Get(base + "/v1/sweeps/" + id)
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
	}
	if err := sc.Err(); err != nil {
		b.Fatal(err)
	}
}
