package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"github.com/archsim/fusleep"
	"github.com/archsim/fusleep/internal/bpred"
	"github.com/archsim/fusleep/internal/cache"
	"github.com/archsim/fusleep/internal/core"
	"github.com/archsim/fusleep/internal/fleet"
	"github.com/archsim/fusleep/internal/isa"
	"github.com/archsim/fusleep/internal/optimize"
	"github.com/archsim/fusleep/internal/pipeline"
	gen "github.com/archsim/fusleep/internal/workload"
)

// ladderInput is what the layer ladder measures: the workload's grid (its
// programs, window, policies, and cells) and, for repro, the artifacts its
// repetitions rendered.
type ladderInput struct {
	gridJob
	artifacts []fusleep.Artifact
}

// ladderRepeats is how many times each timed rung repeats; rungs report
// the median like the end-to-end timings.
const ladderRepeats = 5

// batcher is the trace generator's bulk interface.
type batcher interface {
	NextBatch(recycle []isa.Inst) ([]isa.Inst, bool)
}

// drain reads a generator's trace to its end through NextBatch, appending
// the instructions to keep when it is non-nil, and returns how many it
// read.
func drain(s isa.Stream, keep *[]isa.Inst) int {
	defer s.Close()
	b := s.(batcher) // every workload generator batches
	var recycle []isa.Inst
	n := 0
	for {
		batch, ok := b.NextBatch(recycle)
		if !ok {
			return n
		}
		n += len(batch)
		if keep != nil {
			*keep = append(*keep, batch...)
		}
		recycle = batch
	}
}

// repeated times f ladderRepeats times and returns the median in seconds.
func repeated(tr *tracer, name string, f func() error) (float64, error) {
	var ts []float64
	for i := 0; i < ladderRepeats; i++ {
		sp := tr.start(name, 0, "", "")
		t, err := timed(f)
		sp.end()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		ts = append(ts, t)
	}
	return median(ts), nil
}

// ladder measures each layer on its own, over the workload's inputs. The
// modelled caches, predictor, and TLBs start empty in every rung.
func ladder(ctx context.Context, in ladderInput, tr *tracer, dir string) (map[string]metric, error) {
	m := map[string]metric{}
	programs := in.draw.benchmarks

	// internal/workload: drain each program's generator.
	specs := make([]gen.Spec, len(programs))
	traces := make([][]isa.Inst, len(programs))
	insts := 0
	for i, name := range programs {
		spec, err := gen.ByName(name)
		if err != nil {
			return nil, err
		}
		specs[i] = spec
		traces[i] = make([]isa.Inst, 0, in.draw.window)
		insts += drain(spec.NewTrace(in.draw.window), &traces[i])
	}
	emit, err := repeated(tr, "workload.emit", func() error {
		for _, spec := range specs {
			drain(spec.NewTrace(in.draw.window), nil)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	emitNs := emit * 1e9 / float64(insts)
	m["workload.emit_ns_per_inst"] = metric{Value: emitNs, Unit: "ns", n: insts}

	// internal/bpred and internal/cache: replay the traces' branches and
	// memory accesses through fresh Table 2 structures.
	var branches, mems []isa.Inst
	for _, t := range traces {
		for _, x := range t {
			switch {
			case x.Class.IsCtrl():
				branches = append(branches, x)
			case x.Class.IsMem():
				mems = append(mems, x)
			}
		}
	}
	bp, err := repeated(tr, "bpred.replay", func() error {
		p, err := bpred.New(bpred.DefaultConfig())
		if err != nil {
			return err
		}
		for i := range branches {
			p.UpdateRef(&branches[i], p.PredictRef(&branches[i]))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	m["bpred.ns_per_branch"] = metric{Value: bp * 1e9 / float64(max(len(branches), 1)), Unit: "ns", n: len(branches)}
	ca, err := repeated(tr, "cache.replay", func() error {
		h, err := cache.NewHierarchy(cache.DefaultHierarchyConfig())
		if err != nil {
			return err
		}
		for i := range mems {
			h.L1D.Access(mems[i].Addr, mems[i].Class == isa.Store)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	m["cache.ns_per_access"] = metric{Value: ca * 1e9 / float64(max(len(mems), 1)), Unit: "ns", n: len(mems)}

	// internal/pipeline: simulate each program on the paper's machine from
	// its pre-generated trace, so emission is excluded.
	var results []pipeline.Result
	var cycles uint64
	var allocs uint64
	simulate := func() error {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		var rs []pipeline.Result
		var cyc uint64
		for i, spec := range specs {
			cfg := pipeline.DefaultConfig().WithIntALUs(spec.PaperFUs)
			cfg.MaxInsts = in.draw.window
			cpu, err := pipeline.New(cfg, isa.NewSliceStream(traces[i]))
			if err != nil {
				return err
			}
			res, err := cpu.RunContext(ctx)
			if err != nil {
				return err
			}
			rs = append(rs, res)
			cyc += res.Cycles
		}
		runtime.ReadMemStats(&ms1)
		if results != nil && cyc != cycles {
			return fmt.Errorf("simulated cycles changed between identical runs: %d then %d", cycles, cyc)
		}
		results, cycles, allocs = rs, cyc, ms1.TotalAlloc-ms0.TotalAlloc
		return nil
	}
	sim, err := repeated(tr, "pipeline.simulate", simulate)
	if err != nil {
		return nil, err
	}
	var committed uint64
	for _, r := range results {
		committed += r.Committed
	}
	pipeNs := sim * 1e9 / float64(committed)
	m["pipeline.ns_per_inst"] = metric{Value: pipeNs, Unit: "ns", n: int(committed)}
	m["pipeline.ns_per_cycle"] = metric{Value: sim * 1e9 / float64(cycles), Unit: "ns", n: int(cycles)}
	m["pipeline.alloc_bytes_per_sim"] = metric{Value: float64(allocs) / float64(len(specs)), Unit: "B", n: len(specs)}
	m["pipeline.sim_cycles"] = metric{Value: float64(cycles), Unit: "cycles", n: len(specs)}
	m["pipeline.emit_share"] = metric{Value: emitNs / (emitNs + pipeNs), Unit: "ratio"}

	// internal/core: every recorded unit profile under every policy.
	var profiles []*core.IdleProfile
	for _, r := range results {
		for _, u := range r.FUs {
			p := core.NewIdleProfile()
			p.ActiveCycles = u.ActiveCycles
			for _, l := range u.SortedLengths() {
				p.AddIdle(l, u.Intervals[l])
			}
			profiles = append(profiles, p)
		}
	}
	tech := core.DefaultTech()
	const evalLoops = 20
	ev, err := repeated(tr, "core.EvalProfile", func() error {
		for i := 0; i < evalLoops; i++ {
			for _, pc := range in.draw.policies {
				for _, p := range profiles {
					tech.EvalProfile(pc, 0.5, p)
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	evals := evalLoops * len(in.draw.policies) * len(profiles)
	m["core.evalprofile_ns"] = metric{Value: ev * 1e9 / float64(evals), Unit: "ns", n: evals}

	// internal/experiments: closed-form scoring of every cell on an engine
	// whose simulations and profiles are already warm.
	eng := fusleep.NewEngine(fusleep.WithWindow(in.draw.window))
	if _, err := eng.RunCells(ctx, in.cells); err != nil {
		return nil, err
	}
	cf, err := repeated(tr, "experiments.RunCells", func() error {
		_, err := eng.RunCells(ctx, in.cells)
		return err
	})
	if err != nil {
		return nil, err
	}
	m["experiments.closed_form_us_per_cell"] = metric{Value: cf * 1e6 / float64(len(in.cells)), Unit: "us", n: len(in.cells)}

	// internal/optimize: one tuner search on the warm engine, each round
	// evaluated in one batch.
	if err := tuneRung(ctx, in, eng, tr, m); err != nil {
		return nil, err
	}

	// internal/server, internal/fleet, internal/store: the grid through a
	// cold standalone daemon and a cold 1-coordinator/2-worker fleet.
	if err := serviceRung(ctx, in, tr, dir, m); err != nil {
		return nil, err
	}
	return m, nil
}

// tuneRung runs the workload's tuner search in-process on a warm engine.
func tuneRung(ctx context.Context, in ladderInput, eng *fusleep.Engine, tr *tracer, m map[string]metric) error {
	req := in.draw.tuneRequest()
	sp := optimize.Space{
		FUCounts: req.FUCounts, Mults: req.Mults, FPALUs: req.FPALUs,
		Benchmarks: req.Benchmarks, Window: req.Window,
	}
	for _, p := range req.Ps {
		sp.Techs = append(sp.Techs, core.DefaultTech().WithP(p))
	}
	var rounds []float64
	before := eng.Stats()
	res, err := optimize.Run(ctx, optimize.Config{
		Space:    sp,
		MaxEvals: req.MaxEvals,
		BatchEval: func(ctx context.Context, cells []fusleep.Cell) ([]fusleep.CellResult, error) {
			s := tr.start("optimize.round", 0, "", "")
			defer s.end()
			t0 := time.Now()
			out, err := eng.RunCells(ctx, cells)
			rounds = append(rounds, time.Since(t0).Seconds())
			return out, err
		},
	}, nil)
	if err != nil {
		return err
	}
	after := eng.Stats()
	requests := (after.Simulations + after.CacheHits + after.InflightJoins) -
		(before.Simulations + before.CacheHits + before.InflightJoins)
	m["optimize.round_ms"] = metric{Value: median(rounds) * 1e3, Unit: "ms", n: len(rounds)}
	m["optimize.evals_per_round"] = metric{Value: float64(res.Evals) / float64(max(res.Rounds, 1)), Unit: "count", n: res.Rounds}
	m["optimize.sim_requests"] = metric{Value: float64(requests), Unit: "count", n: res.Evals}
	return nil
}

// serviceRung sweeps the workload's grid through a standalone daemon and a
// fleet and reads the layers' latencies from their /metrics histograms.
func serviceRung(ctx context.Context, in ladderInput, tr *tracer, dir string, m map[string]metric) error {
	s := sample{phase: map[string]float64{}}
	out, err := in.runPasses(ctx, tr, 0, filepath.Join(dir, "ladder"), &s, true)
	defer os.RemoveAll(filepath.Join(dir, "ladder"))
	if err != nil {
		return err
	}
	n := float64(len(in.cells))
	pct := func(name, text, metricName string, match map[string]string, unitScale float64, unit string) error {
		h, err := parseHistogram(text, metricName, match)
		if err != nil {
			return err
		}
		m[name+".p50"] = metric{Value: h.quantile(0.5) * unitScale, Unit: unit, n: int(h.count)}
		m[name+".p99"] = metric{Value: h.quantile(0.99) * unitScale, Unit: unit, n: int(h.count)}
		m[name+".n"] = metric{Value: h.count, Unit: "count"}
		return nil
	}
	for _, p := range []struct {
		name, text, metric string
		match              map[string]string
		scale              float64
		unit               string
	}{
		{"server.queue_wait_ms", out.standaloneMetrics, "fusleepd_queue_wait_seconds", nil, 1e3, "ms"},
		{"server.cell_eval_ms", out.standaloneMetrics, "fusleepd_cell_eval_seconds", nil, 1e3, "ms"},
		{"store.append_us", out.standaloneMetrics, "fusleepd_store_append_seconds", map[string]string{"journal": "results"}, 1e6, "us"},
		{"fleet.roundtrip_ms", out.fleetMetrics, "fusleepd_worker_roundtrip_seconds", nil, 1e3, "ms"},
		{"fleet.lease_wait_ms", out.fleetMetrics, "fusleepd_queue_wait_seconds", nil, 1e3, "ms"},
	} {
		if err := pct(p.name, p.text, p.metric, p.match, p.scale, p.unit); err != nil {
			return err
		}
	}
	m["server.stream_bytes_per_cell"] = metric{Value: float64(out.standalone.bytes) / n, Unit: "B", n: len(in.cells)}
	m["server.store_served"] = metric{Value: out.storeServed, Unit: "count", n: len(in.cells)}
	m["store.get_us"] = metric{Value: out.getSeconds * 1e6, Unit: "us", n: len(in.cells)}
	m["store.journal_bytes_per_cell"] = metric{Value: float64(out.journalBytes) / n, Unit: "B", n: len(in.cells)}
	m["fleet.simulations"] = metric{Value: float64(out.fleetStats.Simulations), Unit: "count"}
	m["fleet.fetch_calls_per_cell"] = metric{Value: float64(out.fetchCalls) / n, Unit: "count", n: out.fetchCalls}
	m["fleet.report_calls_per_cell"] = metric{Value: float64(out.reportCalls) / n, Unit: "count", n: out.reportCalls}
	m["fleet.wire_bytes_per_cell"] = metric{Value: float64(out.wireBytes) / n, Unit: "B", n: len(in.cells)}
	m["fleet.requeues"] = metric{Value: float64(out.requeues), Unit: "count"}

	// The wire codec: each cell as a lease and its result as a report,
	// encoded and decoded.
	results := make([]fusleep.CellResult, len(in.cells))
	for i := range results {
		if err := json.Unmarshal([]byte(out.standalone.results[i]), &results[i]); err != nil {
			return err
		}
	}
	codec, err := repeated(tr, "fleet.wire_codec", func() error {
		for i, c := range in.cells {
			b, err := json.Marshal(fleet.FetchResponse{V: fleet.ProtocolVersion, Cells: []fleet.LeaseCell{{Lease: uint64(i), Key: c.Key(), Cell: c}}})
			if err != nil {
				return err
			}
			var lease fleet.FetchResponse
			if err := json.Unmarshal(b, &lease); err != nil {
				return err
			}
			b, err = json.Marshal(fleet.ReportRequest{V: fleet.ProtocolVersion, Results: []fleet.CellReport{{Lease: uint64(i), Key: c.Key(), Result: &results[i]}}})
			if err != nil {
				return err
			}
			var rep fleet.ReportRequest
			if err := json.Unmarshal(b, &rep); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["fleet.wire_codec_us_per_cell"] = metric{Value: codec * 1e6 / n, Unit: "us", n: len(in.cells)}

	// internal/report: the workload's artifacts, or its sweep table.
	arts := in.artifacts
	if arts == nil {
		eng := fusleep.NewEngine(fusleep.WithWindow(in.draw.window))
		t := eng.NewSweepTable(in.draw.grid())
		sort.Slice(results, func(i, j int) bool { return results[i].Index < results[j].Index })
		for _, r := range results {
			fusleep.AddSweepRow(t, r)
		}
		arts = []fusleep.Artifact{fusleep.TableArtifact("sweep", t)}
	}
	render, err := repeated(tr, "report.RenderJSON", func() error {
		return fusleep.RenderJSON(io.Discard, arts)
	})
	if err != nil {
		return err
	}
	m["report.render_ms"] = metric{Value: render * 1e3, Unit: "ms", n: len(arts)}
	return nil
}
