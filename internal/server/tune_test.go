package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/archsim/fusleep"
	"github.com/archsim/fusleep/internal/fault"
)

func postTune(t *testing.T, base, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(base+"/v1/optimize", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeTuneSubmit(t *testing.T, resp *http.Response) tuneSubmitResponse {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("tune submit: got %s: %s", resp.Status, b)
	}
	var sub tuneSubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	return sub
}

// readTuneStream consumes a tune job's NDJSON stream to the end.
func readTuneStream(t *testing.T, base, id string) (header tuneStreamEvent, probes []tuneStreamEvent, end tuneStreamEvent) {
	t.Helper()
	resp, err := http.Get(base + "/v1/optimize/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	sawEnd := false
	for sc.Scan() {
		var ev tuneStreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		switch ev.Event {
		case "tune":
			header = ev
		case "probe":
			probes = append(probes, ev)
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
	return header, probes, end
}

// assertTuneMatchesEngine checks a daemon's tune run against the engine's
// own: every streamed probe and the end result must be JSON-equal to what
// OptimizeStream yields for the options the request builds.
func assertTuneMatchesEngine(t *testing.T, cfg Config, body string, probes []tuneStreamEvent, end tuneStreamEvent) {
	t.Helper()
	var req TuneRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	opts, _, err := req.options(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want []fusleep.TuneProbe
	res, err := fusleep.NewEngine(fusleep.WithWindow(testWindow)).OptimizeStream(context.Background(),
		func(p fusleep.TuneProbe) error { want = append(want, p); return nil }, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if len(probes) != len(want) {
		t.Fatalf("daemon streamed %d probes, engine %d", len(probes), len(want))
	}
	same := func(what string, got, want any) {
		t.Helper()
		g, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		w, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("%s differs from the engine's:\n  daemon: %s\n  engine: %s", what, g, w)
		}
	}
	for i := range want {
		same(fmt.Sprintf("probe %d", i), probes[i].Probe, &want[i])
	}
	same("result", end.Result, &res)
}

func TestTuneSubmitStreamComplete(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	body := fmt.Sprintf(`{"objective":"ed","benchmarks":["gcc"],"window":%d,
		"policies":["AlwaysActive","SleepTimeout"],"timeoutRange":[1,64],
		"fuCounts":[2,4],"maxEvals":20}`, testWindow)
	sub := decodeTuneSubmit(t, postTune(t, ts.URL, body))
	if sub.MaxEvals != 20 || !strings.HasPrefix(sub.ID, "t-") {
		t.Fatalf("submit = %+v", sub)
	}

	header, probes, end := readTuneStream(t, ts.URL, sub.ID)
	if header.ID != sub.ID || header.MaxEvals != 20 {
		t.Errorf("header = %+v", header)
	}
	if end.State != StateDone || end.Result == nil {
		t.Fatalf("end = %+v", end)
	}
	if len(probes) == 0 || len(probes) != end.Result.Probes {
		t.Errorf("streamed %d probes, result says %d", len(probes), end.Result.Probes)
	}
	if end.Result.Evals > 20 {
		t.Errorf("evals = %d exceeds budget", end.Result.Evals)
	}
	for i, ev := range probes {
		if ev.Probe == nil || ev.Probe.Seq != i {
			t.Fatalf("probe %d malformed: %+v", i, ev)
		}
	}
	if len(end.Result.Frontier) == 0 || !end.Result.Best.Feasible {
		t.Errorf("result = %+v", end.Result)
	}
	// The best point must not be dominated by any frontier point.
	for _, p := range end.Result.Frontier {
		if p.Delay < end.Result.Best.Delay && p.Energy < end.Result.Best.Energy {
			t.Errorf("best %+v dominated by frontier point %+v", end.Result.Best, p)
		}
	}
	assertTuneMatchesEngine(t, s.cfg, body, probes, end)
}

// TestTuneProbePanicFailsJob injects a panic into one probe: the panic
// aborts the rest of its round, and the job must fail with the panic's cell
// error — not the round's context error — and still close its stream.
func TestTuneProbePanicFailsJob(t *testing.T) {
	inj := fault.New(5)
	inj.Set(fault.CellPanic, fault.Spec{Times: 1})
	_, ts := newTestServer(t, Config{Fault: inj})
	sub := decodeTuneSubmit(t, postTune(t, ts.URL,
		fmt.Sprintf(`{"benchmarks":["gcc"],"window":%d,"maxEvals":8}`, testWindow)))
	_, _, end := readTuneStream(t, ts.URL, sub.ID)
	if end.State != StateFailed || end.Result != nil {
		t.Fatalf("tune end = %+v, want failed without a result", end)
	}
	panicked := regexp.MustCompile(`^optimize: cell \S+ panicked \(attempt 1\): recovered panic: injected: ` + regexp.QuoteMeta(fault.CellPanic) + `$`)
	if !panicked.MatchString(end.Error) {
		t.Fatalf("tune error = %q, want the panicked cell's error", end.Error)
	}
}

func TestTunePollAndList(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := fmt.Sprintf(`{"benchmarks":["gcc"],"window":%d,"policies":["MaxSleep"],"maxEvals":4}`, testWindow)
	sub := decodeTuneSubmit(t, postTune(t, ts.URL, body))
	// Wait for completion via the stream, then poll.
	_, _, end := readTuneStream(t, ts.URL, sub.ID)
	if end.State != StateDone {
		t.Fatalf("end state = %s", end.State)
	}
	resp, err := http.Get(ts.URL + "/v1/optimize/" + sub.ID + "?poll=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var poll tunePollResponse
	if err := json.NewDecoder(resp.Body).Decode(&poll); err != nil {
		t.Fatal(err)
	}
	if poll.State != StateDone || poll.Result == nil || len(poll.Trace) != poll.Probes {
		t.Errorf("poll = %+v", poll)
	}

	resp, err = http.Get(ts.URL + "/v1/optimize")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []jobInfo
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != sub.ID {
		t.Errorf("list = %+v", list)
	}
}

func TestTuneCancelMidRun(t *testing.T) {
	// A big window and budget keep the run alive long enough to cancel.
	_, ts := newTestServer(t, Config{})
	body := `{"benchmarks":["gcc","mcf","twolf"],"window":2000000,"maxEvals":200}`
	sub := decodeTuneSubmit(t, postTune(t, ts.URL, body))

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/optimize/"+sub.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st jobInfo
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// The stream must terminate with a canceled state.
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, _, end := readTuneStream(t, ts.URL, sub.ID)
		if end.State == StateCanceled {
			if end.Result != nil {
				t.Errorf("canceled run carried a result: %+v", end.Result)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never settled canceled; state = %s", end.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestTuneBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxWindow: 100_000, MaxCells: 64})
	cases := []struct {
		name, body string
		code       int
	}{
		{"malformed json", `{`, http.StatusBadRequest},
		{"unknown field", `{"nope":1}`, http.StatusBadRequest},
		{"unknown objective", `{"objective":"speed"}`, http.StatusBadRequest},
		{"unknown policy", `{"policies":["TurboSleep"]}`, http.StatusBadRequest},
		{"bad range", `{"timeoutRange":[0,10]}`, http.StatusBadRequest},
		{"explicit zero range", `{"timeoutRange":[0,0]}`, http.StatusBadRequest},
		{"inverted range", `{"slicesRange":[9,3]}`, http.StatusBadRequest},
		{"unknown benchmark", `{"benchmarks":["nosuch"]}`, http.StatusBadRequest},
		{"window too big", `{"window":200000}`, http.StatusBadRequest},
		{"budget too big", `{"maxEvals":1000}`, http.StatusBadRequest},
		{"negative cap", `{"slowdownCap":-1}`, http.StatusBadRequest},
		{"bad tech", `{"ps":[2.0]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postTune(t, ts.URL, tc.body)
			defer resp.Body.Close()
			if resp.StatusCode != tc.code {
				b, _ := io.ReadAll(resp.Body)
				t.Errorf("got %s: %s", resp.Status, b)
			}
		})
	}
	resp, err := http.Get(ts.URL + "/v1/optimize/t-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing job: got %s", resp.Status)
	}
}

// TestTuneSharesCacheWithSweeps proves the queue reuse pays off: a sweep
// that covers the tuner's FU configuration first means the tuner's probes
// hit the simulation cache instead of re-simulating.
func TestTuneSharesCacheWithSweeps(t *testing.T) {
	eng := fusleep.NewEngine(fusleep.WithWindow(testWindow))
	_, ts := newTestServer(t, Config{Engine: eng})

	sub := decodeSubmit(t, postSweep(t, ts.URL,
		fmt.Sprintf(`{"benchmarks":["gcc"],"fuCounts":[2],"window":%d}`, testWindow)))
	readStream(t, ts.URL, sub.ID)
	simsAfterSweep := eng.Stats().Simulations

	tsub := decodeTuneSubmit(t, postTune(t, ts.URL, fmt.Sprintf(
		`{"benchmarks":["gcc"],"fuCounts":[2],"window":%d,"policies":["SleepTimeout"],"maxEvals":12}`, testWindow)))
	_, _, end := readTuneStream(t, ts.URL, tsub.ID)
	if end.State != StateDone {
		t.Fatalf("tune end = %+v", end)
	}
	if sims := eng.Stats().Simulations; sims != simsAfterSweep {
		t.Errorf("tuner re-simulated: %d -> %d pipeline runs", simsAfterSweep, sims)
	}
}

func TestTuneRejectedWhileDraining(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if err := s.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
	resp := postTune(t, ts.URL, `{"benchmarks":["gcc"],"maxEvals":4}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining submit: got %s", resp.Status)
	}
}
