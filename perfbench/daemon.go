package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"github.com/archsim/fusleep"
	"github.com/archsim/fusleep/internal/fleet"
	"github.com/archsim/fusleep/internal/server"
	"github.com/archsim/fusleep/internal/store"
	"github.com/archsim/fusleep/internal/telemetry"
)

// daemonShards is the standalone daemon's shard count; the host has two
// cores and the benchmark runs with GOMAXPROCS equal to them.
const daemonShards = 2

// storeSyncEvery batches result-journal fsyncs (fusleepd -sync-every).
// The store lives in the checkout, on whatever disk that is; syncing every
// cell would time that disk's fsync latency, which other tenants' I/O
// moves by a factor of several between runs, as the store's cost. Every
// 64th append still syncs, and the job WAL syncs every record.
const storeSyncEvery = 64

// daemon is one fusleepd instance on loopback HTTP, wired the way
// cmd/fusleepd wires it: a durable store whose append latencies feed the
// shared registry, an engine journaling into that store, and the server.
type daemon struct {
	eng    *fusleep.Engine
	st     *store.Store
	srv    *server.Server
	hs     *http.Server
	base   string
	served chan error
}

// startDaemon opens a fresh store in dir and serves a new daemon on a
// loopback port; coord non-nil makes it a fleet coordinator.
func startDaemon(dir string, window uint64, coord *fleet.Coordinator) (*daemon, error) {
	reg := telemetry.NewRegistry()
	appendSeconds := reg.NewHistogramVec("fusleepd_store_append_seconds",
		"Durable journal append latency by journal (results or jobs).", nil, "journal")
	st, err := store.Open(dir, store.Options{
		SyncEvery: storeSyncEvery,
		Observe:   func(op string, s float64) { appendSeconds.With(op).Observe(s) },
	})
	if err != nil {
		return nil, err
	}
	eng := fusleep.NewEngine(fusleep.WithWindow(window), fusleep.WithResultStore(st.Results))
	srv := server.New(server.Config{
		Engine:   eng,
		Shards:   daemonShards,
		Results:  st.Results,
		Jobs:     st.Jobs,
		Fleet:    coord,
		Registry: reg,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		st.Close()
		return nil, err
	}
	d := &daemon{
		eng: eng, st: st, srv: srv,
		hs:     &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop drains the daemon, closes its listener and store, and waits for the
// serving goroutine to return.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.srv.Drain(ctx)
	if serr := d.hs.Shutdown(ctx); err == nil {
		err = serr
	}
	if serr := <-d.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	d.srv.Close()
	if cerr := d.st.Close(); err == nil {
		err = cerr
	}
	return err
}

// fleetPool is a set of in-process fleet workers dialing one coordinator,
// each with its own cold engine and a counting HTTP transport.
type fleetPool struct {
	engines []*fusleep.Engine
	tx      *countingTransport
	cancel  context.CancelFunc
	done    chan error
}

// startFleet starts n workers (Parallel 1 each) against base and waits
// until the coordinator lists all of them.
func startFleet(base string, n int, window uint64, coord *fleet.Coordinator, tr *tracer) (*fleetPool, error) {
	ctx, cancel := context.WithCancel(context.Background())
	p := &fleetPool{
		tx:     newCountingTransport(http.DefaultTransport.(*http.Transport).Clone(), tr),
		cancel: cancel,
		done:   make(chan error, n),
	}
	client := &http.Client{Transport: p.tx}
	for i := 0; i < n; i++ {
		eng := fusleep.NewEngine(fusleep.WithWindow(window))
		p.engines = append(p.engines, eng)
		w := &fleet.Worker{
			Coordinator: base,
			Name:        fmt.Sprintf("bench-%d", i),
			Exec: &fleet.Executor{
				Engine: eng,
				OnAttempt: func(key string, _ int, seconds float64, _ error) {
					tr.record("worker.eval", key, time.Duration(seconds*float64(time.Second)))
				},
			},
			Client:   client,
			Parallel: 1,
		}
		go func() { p.done <- w.Run(ctx) }()
	}
	deadline := time.Now().Add(10 * time.Second)
	for coord.Stats().Workers < n {
		if time.Now().After(deadline) {
			p.stop()
			return nil, fmt.Errorf("fleet: %d of %d workers registered in 10s", coord.Stats().Workers, n)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return p, nil
}

// stop cancels every worker and waits for each to return.
func (p *fleetPool) stop() {
	p.cancel()
	for range p.engines {
		<-p.done
	}
	p.tx.base.(*http.Transport).CloseIdleConnections()
}

// stats sums the workers' engine counters.
func (p *fleetPool) stats() fusleep.EngineStats {
	var sum fusleep.EngineStats
	for _, e := range p.engines {
		s := e.Stats()
		sum.Simulations += s.Simulations
		sum.CacheHits += s.CacheHits
		sum.InflightJoins += s.InflightJoins
		sum.ProfileBuilds += s.ProfileBuilds
		sum.ProfileReuses += s.ProfileReuses
	}
	return sum
}

// client is the benchmark's single closed-loop HTTP client.
var client = &http.Client{Transport: http.DefaultTransport.(*http.Transport).Clone()}

// submitted is a job acknowledgement.
type submitted struct {
	ID    string `json:"id"`
	Cells int    `json:"cells"`
}

// submit POSTs a job body and decodes the 202 acknowledgement.
func submit(ctx context.Context, base, path string, body []byte) (submitted, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+path, bytes.NewReader(body))
	if err != nil {
		return submitted{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return submitted{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(resp.Body)
		return submitted{}, fmt.Errorf("POST %s: %s: %s", path, resp.Status, bytes.TrimSpace(msg))
	}
	var sub submitted
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		return submitted{}, fmt.Errorf("POST %s: %w", path, err)
	}
	return sub, nil
}

// sweepStream is one sweep's NDJSON stream read to its end.
type sweepStream struct {
	// results holds each cell's raw result JSON by grid index.
	results map[int]string
	// keys holds each streamed cell's key by grid index.
	keys map[int]string
	// bytes is the whole stream's size; cellLines the cell events seen.
	bytes     int
	cellLines int
	state     string
	completed int
	failed    int
	skipped   int
}

// streamSweep GETs a sweep's stream and reads every line to the end.
func streamSweep(ctx context.Context, base, id string) (sweepStream, error) {
	out := sweepStream{results: map[int]string{}, keys: map[int]string{}}
	err := readNDJSON(ctx, base+"/v1/jobs/"+id, func(line []byte) error {
		out.bytes += len(line) + 1 // the newline
		var ev struct {
			Event     string          `json:"event"`
			Key       string          `json:"key"`
			Result    json.RawMessage `json:"result"`
			State     string          `json:"state"`
			Completed int             `json:"completed"`
			Failed    int             `json:"failed"`
			Skipped   int             `json:"skipped"`
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			return fmt.Errorf("bad stream line %q: %w", line, err)
		}
		switch ev.Event {
		case "cell":
			var idx struct {
				Index int `json:"index"`
			}
			if err := json.Unmarshal(ev.Result, &idx); err != nil {
				return err
			}
			out.results[idx.Index] = string(ev.Result)
			out.keys[idx.Index] = ev.Key
			out.cellLines++
		case "end":
			out.state, out.completed, out.failed, out.skipped = ev.State, ev.Completed, ev.Failed, ev.Skipped
		}
		return nil
	})
	return out, err
}

// tuneStream is one tuner run's stream read to its end.
type tuneStream struct {
	probes int
	state  string
	evals  int
	// result is the end event's raw result JSON.
	result string
}

// streamTune GETs a tune job's stream and reads every line to the end.
func streamTune(ctx context.Context, base, id string) (tuneStream, error) {
	var out tuneStream
	err := readNDJSON(ctx, base+"/v1/jobs/"+id, func(line []byte) error {
		var ev struct {
			Event  string          `json:"event"`
			State  string          `json:"state"`
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			return fmt.Errorf("bad stream line %q: %w", line, err)
		}
		switch ev.Event {
		case "probe":
			out.probes++
		case "end":
			out.state, out.result = ev.State, string(ev.Result)
			var r struct {
				Evals int `json:"evals"`
			}
			if len(ev.Result) > 0 {
				if err := json.Unmarshal(ev.Result, &r); err != nil {
					return err
				}
			}
			out.evals = r.Evals
		}
		return nil
	})
	return out, err
}

// readNDJSON GETs url and hands each line to fn.
func readNDJSON(ctx context.Context, url string, fn func([]byte) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	br := bufio.NewReaderSize(resp.Body, 64*1024)
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			if ferr := fn(bytes.TrimSuffix(line, []byte("\n"))); ferr != nil {
				return ferr
			}
		}
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// scrape fetches the daemon's Prometheus exposition.
func scrape(ctx context.Context, base string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return string(b), nil
}
