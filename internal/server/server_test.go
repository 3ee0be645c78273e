package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/archsim/fusleep"
)

// testWindow keeps per-cell simulation cost small enough for -race runs.
const testWindow = 20_000

// newTestServer builds a server over a small-window engine and an
// httptest front end; both are torn down with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Engine == nil {
		cfg.Engine = fusleep.NewEngine(fusleep.WithWindow(testWindow))
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postSweep(t *testing.T, base, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(base+"/v1/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeSubmit(t *testing.T, resp *http.Response) submitResponse {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: got %s: %s", resp.Status, b)
	}
	var sub submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	return sub
}

// readStream consumes a sweep's NDJSON stream to the end and returns the
// events by type.
func readStream(t *testing.T, base, id string) (header streamEvent, cells []streamEvent, end streamEvent) {
	t.Helper()
	resp, err := http.Get(base + "/v1/sweeps/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	sawEnd := false
	for sc.Scan() {
		var ev streamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		switch ev.Event {
		case "sweep":
			header = ev
		case "cell":
			cells = append(cells, ev)
		case "end":
			end = ev
			sawEnd = true
		default:
			t.Fatalf("unknown stream event %q", ev.Event)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawEnd {
		t.Fatal("stream ended without a terminal event")
	}
	return header, cells, end
}

func TestSubmitStreamComplete(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	sub := decodeSubmit(t, postSweep(t, ts.URL,
		fmt.Sprintf(`{"ps":[0.05,0.5],"benchmarks":["gcc"],"window":%d}`, testWindow)))
	if sub.Cells != 8 { // 2 techs x 4 default policies
		t.Fatalf("cells = %d, want 8", sub.Cells)
	}

	header, cells, end := readStream(t, ts.URL, sub.ID)
	if header.ID != sub.ID || header.Cells != 8 {
		t.Errorf("header = %+v", header)
	}
	if len(cells) != 8 {
		t.Fatalf("streamed %d cells, want 8", len(cells))
	}
	seen := map[int]bool{}
	for _, ev := range cells {
		if ev.Result == nil || ev.Key == "" {
			t.Fatalf("cell event missing payload: %+v", ev)
		}
		if ev.Key != ev.Result.Cell.Key() {
			t.Errorf("event key %q != cell key %q", ev.Key, ev.Result.Cell.Key())
		}
		if ev.Result.RelEnergy <= 0 || ev.Result.RelEnergy > 1.5 {
			t.Errorf("cell %d has implausible E/E_base %g", ev.Result.Index, ev.Result.RelEnergy)
		}
		seen[ev.Result.Index] = true
	}
	for i := 0; i < 8; i++ {
		if !seen[i] {
			t.Errorf("no result for grid index %d", i)
		}
	}
	if end.State != StateDone || end.Completed != 8 || end.Failed != 0 {
		t.Errorf("end = %+v, want done 8/8", end)
	}

	// The poll view agrees with the stream.
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + sub.ID + "?poll=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var poll sweepPollResponse
	if err := json.NewDecoder(resp.Body).Decode(&poll); err != nil {
		t.Fatal(err)
	}
	if poll.State != StateDone || poll.Completed != 8 || len(poll.Results) != 8 {
		t.Errorf("poll = %+v", poll.jobInfo)
	}
}

func TestResubmitHitsSimulationCache(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	body := fmt.Sprintf(`{"ps":[0.05],"benchmarks":["gcc"],"window":%d}`, testWindow)

	sub := decodeSubmit(t, postSweep(t, ts.URL, body))
	readStream(t, ts.URL, sub.ID)
	first := s.eng.Stats()
	if first.Simulations == 0 {
		t.Fatal("first sweep ran no simulations")
	}

	sub2 := decodeSubmit(t, postSweep(t, ts.URL, body))
	readStream(t, ts.URL, sub2.ID)
	second := s.eng.Stats()
	if second.Simulations != first.Simulations {
		t.Errorf("resubmit re-simulated: %d -> %d runs", first.Simulations, second.Simulations)
	}
	if second.CacheHits <= first.CacheHits {
		t.Errorf("resubmit did not hit the cache: hits %d -> %d", first.CacheHits, second.CacheHits)
	}

	// The /metrics cache-hit counter reflects it.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	metrics, _ := io.ReadAll(resp.Body)
	var hits uint64
	for _, line := range strings.Split(string(metrics), "\n") {
		if strings.HasPrefix(line, "fusleepd_sim_cache_hits_total ") {
			fmt.Sscanf(line, "fusleepd_sim_cache_hits_total %d", &hits)
		}
	}
	if hits != second.CacheHits {
		t.Errorf("/metrics cache hits = %d, engine says %d", hits, second.CacheHits)
	}
}

func TestCancelMidSweep(t *testing.T) {
	// One shard and a long window serialize the cells, so the cancel
	// lands while most of the sweep is still queued or in flight.
	eng := fusleep.NewEngine(fusleep.WithWindow(5_000_000))
	_, ts := newTestServer(t, Config{Engine: eng, Shards: 1})
	sub := decodeSubmit(t, postSweep(t, ts.URL, `{"ps":[0.05,0.1,0.2],"benchmarks":["gcc","mcf"]}`))

	time.Sleep(50 * time.Millisecond)
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/"+sub.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	_, cells, end := readStream(t, ts.URL, sub.ID)
	if end.State != StateCanceled {
		t.Fatalf("end state = %q, want canceled (end = %+v)", end.State, end)
	}
	if end.Completed+end.Skipped+end.Failed != sub.Cells {
		t.Errorf("cells unaccounted: completed %d + skipped %d + failed %d != %d",
			end.Completed, end.Skipped, end.Failed, sub.Cells)
	}
	if len(cells) == sub.Cells {
		t.Error("cancellation completed every cell; nothing was actually canceled")
	}
}

func TestMalformedGridRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxCells: 16})
	cases := []struct {
		name, body string
		wantCode   int
	}{
		{"truncated json", `{"ps":[0.05`, http.StatusBadRequest},
		{"unknown field", `{"frequencies":[1.0]}`, http.StatusBadRequest},
		{"unknown benchmark", `{"benchmarks":["dhrystone"]}`, http.StatusBadRequest},
		{"unknown policy", `{"policies":[{"policy":"TurboSleep"}]}`, http.StatusBadRequest},
		{"leakage out of range", `{"ps":[1.5]}`, http.StatusBadRequest},
		{"alpha out of range", `{"alpha":2}`, http.StatusBadRequest},
		{"window too large", `{"window":999999999999}`, http.StatusBadRequest},
		{"too many cells", `{"ps":[0.1,0.2,0.3,0.4,0.5]}`, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postSweep(t, ts.URL, tc.body)
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantCode {
				b, _ := io.ReadAll(resp.Body)
				t.Errorf("got %s (%s), want %d", resp.Status, b, tc.wantCode)
			}
			var e apiError
			if err := json.NewDecoder(resp.Body).Decode(&e); err == nil && (e.Error.Message == "" || e.Error.Code == "") {
				t.Error("rejection carried no error code or message")
			}
		})
	}
	// Rejections must not leave jobs behind.
	resp, err := http.Get(ts.URL + "/v1/sweeps")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []jobInfo
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 0 {
		t.Errorf("rejected submissions registered %d jobs", len(list))
	}
}

func TestConcurrentIdenticalSubmitsDedupe(t *testing.T) {
	s, ts := newTestServer(t, Config{Shards: 4})
	body := fmt.Sprintf(`{"ps":[0.05],"benchmarks":["gcc"],"window":%d}`, testWindow)

	const n = 4
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var sub submitResponse
			if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
				t.Error(err)
				return
			}
			ids[i] = sub.ID
		}(i)
	}
	wg.Wait()
	for _, id := range ids {
		if id == "" {
			t.Fatal("a submit failed")
		}
		_, cells, end := readStream(t, ts.URL, id)
		if end.State != StateDone || len(cells) != 4 {
			t.Fatalf("sweep %s: state %q with %d cells", id, end.State, len(cells))
		}
	}
	// All four sweeps need exactly one gcc simulation between them:
	// identical cells share a shard (so they serialize), and either the
	// coordinator joins them to the in-flight cell or the engine cache or
	// in-flight dedupe serves them. A worker asks the engine once per
	// leased group, so when every identical cell joined the first group
	// the engine sees a single request and only the joins show it.
	st := s.eng.Stats()
	if st.Simulations != 1 {
		t.Errorf("%d identical sweeps ran %d simulations, want 1", n, st.Simulations)
	}
	if st.CacheHits+st.InflightJoins+s.fleet.Stats().Joins == 0 {
		t.Error("no fleet joins, cache hits or in-flight joins recorded")
	}
}

func TestDrainCompletesQueuedCells(t *testing.T) {
	s, ts := newTestServer(t, Config{Shards: 2})
	sub := decodeSubmit(t, postSweep(t, ts.URL,
		fmt.Sprintf(`{"ps":[0.05,0.5],"benchmarks":["gcc","mcf"],"window":%d}`, testWindow)))

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// Every queued cell completed before the workers stopped.
	_, cells, end := readStream(t, ts.URL, sub.ID)
	if end.State != StateDone || len(cells) != sub.Cells {
		t.Fatalf("after drain: state %q, %d/%d cells", end.State, len(cells), sub.Cells)
	}

	// The drained server refuses new work but still serves reads.
	resp := postSweep(t, ts.URL, `{"ps":[0.05]}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain submit: got %s, want 503", resp.Status)
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining healthz: got %s, want 503", hresp.Status)
	}
	var h struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&h); err != nil || h.Status != "draining" {
		t.Errorf("healthz status = %q (err %v)", h.Status, err)
	}
}

// TestOversizedGridRejectedBeforeExpansion pins the pre-expansion
// cardinality bound: a small request body whose seven axes multiply into
// an astronomical grid must be a fast 413, not an expansion-then-check
// (which would allocate the cell list first).
func TestOversizedGridRejectedBeforeExpansion(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxCells: 64})
	axis := make([]string, 200)
	for i := range axis {
		axis[i] = fmt.Sprintf("%d", i+1)
	}
	list := "[" + strings.Join(axis, ",") + "]"
	body := fmt.Sprintf(`{"fuCounts": %s, "multCounts": %s, "fpaluCounts": %s, "fpmultCounts": %s, "aguCounts": %s}`,
		list, list, list, list, list) // 200^5 * 4 default policies >> 64
	start := time.Now()
	resp := postSweep(t, ts.URL, body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("oversized grid: got %s: %s", resp.Status, b)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("rejection took %v; the bound must run before expansion", d)
	}
}

func TestRegistryEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, err := http.Get(ts.URL + "/v1/workloads")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var workloads []workloadInfo
	if err := json.NewDecoder(resp.Body).Decode(&workloads); err != nil {
		t.Fatal(err)
	}
	if len(workloads) != 9 {
		t.Errorf("workloads = %d, want the nine-benchmark suite", len(workloads))
	}

	presp, err := http.Get(ts.URL + "/v1/policies")
	if err != nil {
		t.Fatal(err)
	}
	defer presp.Body.Close()
	var policies []policyInfo
	if err := json.NewDecoder(presp.Body).Decode(&policies); err != nil {
		t.Fatal(err)
	}
	names := map[string][]string{}
	for _, p := range policies {
		names[p.Name] = p.Params
	}
	for _, want := range []string{"AlwaysActive", "MaxSleep", "NoOverhead", "GradualSleep", "SleepTimeout", "OracleMinimal"} {
		if _, ok := names[want]; !ok {
			t.Errorf("policy %q missing from /v1/policies", want)
		}
	}
	// The tuner's refinable knobs are advertised under their PolicyConfig
	// JSON names, so clients can build tune requests from the registry.
	if got := names["SleepTimeout"]; len(got) != 1 || got[0] != "timeout" {
		t.Errorf("SleepTimeout params = %v, want [timeout]", got)
	}
	if got := names["GradualSleep"]; len(got) != 1 || got[0] != "slices" {
		t.Errorf("GradualSleep params = %v, want [slices]", got)
	}

	cresp, err := http.Get(ts.URL + "/v1/classes")
	if err != nil {
		t.Fatal(err)
	}
	defer cresp.Body.Close()
	var classes []classInfo
	if err := json.NewDecoder(cresp.Body).Decode(&classes); err != nil {
		t.Fatal(err)
	}
	classNames := map[string]classInfo{}
	for _, c := range classes {
		classNames[c.Name] = c
	}
	for _, want := range []string{"intalu", "agu", "mult", "fpalu", "fpmult"} {
		if _, ok := classNames[want]; !ok {
			t.Errorf("class %q missing from /v1/classes", want)
		}
	}
	if classNames["agu"].DefaultUnits != 0 {
		t.Errorf("agu advertises %d default units, want 0 (shared)", classNames["agu"].DefaultUnits)
	}

	// Unknown sweep ids are a clean 404.
	gresp, err := http.Get(ts.URL + "/v1/sweeps/s-999999")
	if err != nil {
		t.Fatal(err)
	}
	defer gresp.Body.Close()
	if gresp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown sweep: got %s, want 404", gresp.Status)
	}
}

// TestSweepRequestGridDefaults pins the wire-level tech defaulting rule:
// partial tech points inherit the paper's default parameters.
func TestSweepRequestGridDefaults(t *testing.T) {
	var req SweepRequest
	if err := json.Unmarshal([]byte(`{"techs":[{"p":0.5}]}`), &req); err != nil {
		t.Fatal(err)
	}
	g, err := req.grid(10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	def := fusleep.DefaultTech()
	if len(g.Techs) != 1 {
		t.Fatalf("techs = %d, want 1", len(g.Techs))
	}
	got := g.Techs[0]
	if got.P != 0.5 || got.C != def.C || got.SleepOverhead != def.SleepOverhead || got.Duty != def.Duty {
		t.Errorf("tech = %+v, want p=0.5 with default c/e_slp/duty", got)
	}

	// Explicit zeros are legal model points (free transitions, perfect
	// low-leakage state) and must not be rewritten to the defaults.
	if err := json.Unmarshal([]byte(`{"techs":[{"p":0.5,"c":0,"sleepOverhead":0}]}`), &req); err != nil {
		t.Fatal(err)
	}
	g, err = req.grid(10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Techs[0]; got.C != 0 || got.SleepOverhead != 0 || got.Duty != def.Duty {
		t.Errorf("explicit zeros rewritten: %+v", got)
	}
}

// TestRetentionEvictsOldestTerminalSweeps pins the memory bound: a
// long-lived daemon must not accumulate finished sweeps forever.
func TestRetentionEvictsOldestTerminalSweeps(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxRetained: 2})
	body := fmt.Sprintf(`{"ps":[0.05],"benchmarks":["gcc"],"window":%d}`, testWindow)
	var ids []string
	for i := 0; i < 3; i++ {
		sub := decodeSubmit(t, postSweep(t, ts.URL, body))
		readStream(t, ts.URL, sub.ID) // wait until terminal
		ids = append(ids, sub.ID)
	}
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + ids[0])
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("oldest sweep still retained: got %s, want 404", resp.Status)
	}
	for _, id := range ids[1:] {
		r, err := http.Get(ts.URL + "/v1/sweeps/" + id + "?poll=1")
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Errorf("recent sweep %s evicted: %s", id, r.Status)
		}
	}
}

// TestStreamEventRoundTrip pins the cell-event wire format the example
// client parses.
func TestStreamEventRoundTrip(t *testing.T) {
	eng := fusleep.NewEngine()
	cells := eng.Cells(fusleep.Grid{Benchmarks: []string{"gcc"}})
	res := fusleep.CellResult{Index: 3, Cell: cells[0], RelEnergy: 0.42, LeakageFraction: 0.1}
	ev := streamEvent{Event: "cell", ID: "s-000001", Key: cells[0].Key(), Result: &res}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(ev); err != nil {
		t.Fatal(err)
	}
	var back streamEvent
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Result == nil || back.Result.Cell.Key() != ev.Key || back.Result.RelEnergy != 0.42 {
		t.Errorf("round trip lost data: %+v", back.Result)
	}
	if !strings.Contains(buf.String(), `"policy":"MaxSleep"`) {
		t.Errorf("policy not serialized by name: %s", buf.String())
	}
}

// TestCellLineMatchesEncoder pins the spliced cell line to the bytes
// json.Encoder writes for the equivalent streamEvent, including HTML
// escaping in the job ID and in result strings.
func TestCellLineMatchesEncoder(t *testing.T) {
	eng := fusleep.NewEngine()
	cells := eng.Cells(fusleep.Grid{
		Benchmarks:  []string{"gcc", "mcf"},
		Assignments: []fusleep.Assignment{{fusleep.FUIntALU: {Policy: fusleep.GradualSleep, Slices: 3}}},
	})
	res := fusleep.CellResult{Cell: cells[0], RelEnergy: 0.42, LeakageFraction: 1e-9, MeanCycles: 31557.5}
	canon, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"s-000001", `s-<&>"\x`} {
		idJSON, err := json.Marshal(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, idx := range []int{0, 9, 4095} {
			line := cellLine{key: cells[0].Key(), index: idx, result: canon}
			r := res
			r.Index = idx
			var want bytes.Buffer
			ev := streamEvent{Event: "cell", ID: id, Key: line.key, Result: &r}
			if err := json.NewEncoder(&want).Encode(ev); err != nil {
				t.Fatal(err)
			}
			if got := line.appendEvent(nil, idJSON); string(got) != want.String() {
				t.Fatalf("id %q index %d:\n  got  %s  want %s", id, idx, got, want.String())
			}
		}
	}
}

// TestCellTasksSimKeys: every task a job dispatches carries its cell's Key
// and SimKey, although cellTasks hashes SimKey only where the machine
// changes. The cells mix grid order (runs of one machine), a machine per
// cell (as a tuner round may), and machines that differ only in their
// program list.
func TestCellTasksSimKeys(t *testing.T) {
	g := fusleep.Grid{
		Benchmarks: []string{"gcc", "mcf"},
		FUCounts:   []int{2, 4},
		MultCounts: []int{1, 2},
		Techs:      []fusleep.Tech{fusleep.DefaultTech(), fusleep.DefaultTech().WithP(0.3)},
		Policies:   []fusleep.PolicyConfig{{Policy: fusleep.MaxSleep}, {Policy: fusleep.GradualSleep, Slices: 3}},
		Window:     testWindow,
	}
	eng := fusleep.NewEngine(fusleep.WithWindow(testWindow))
	cells := eng.Cells(g)
	n := len(cells)
	for i := range n {
		cells = append(cells, cells[i*5%n])
	}
	g.Benchmarks = []string{"gcc"}
	cells = append(cells, eng.Cells(g)...)
	g.Benchmarks = []string{"mcf", "gcc"}
	cells = append(cells, eng.Cells(g)...)

	keys := make([]string, len(cells))
	yielded := 0
	for task := range cellTasks(context.Background(), "s1", cells, keys, nil) {
		i, c := yielded, cells[yielded]
		if task.Index != i || task.Key != c.Key() || keys[i] != task.Key || task.SimKey != c.SimKey() {
			t.Fatalf("task %d: index %d, key %s (keys[%d] %s), SimKey %s; want key %s, SimKey %s",
				i, task.Index, task.Key, i, keys[i], task.SimKey, c.Key(), c.SimKey())
		}
		yielded++
	}
	if yielded != len(cells) {
		t.Fatalf("cellTasks yielded %d tasks for %d cells", yielded, len(cells))
	}
}
