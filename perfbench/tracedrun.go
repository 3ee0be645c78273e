package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// traced is the --trace 1 run: repetitions alternate untraced and traced
// (spans plus a CPU profile), then the layer ladder runs over the
// workload's inputs. It reports the per-layer metrics.
func traced(ctx context.Context, e env, w workload, dumpDir string) (result, error) {
	tr := newTracer()
	profDir := filepath.Join(e.work, "profiles")
	if err := os.MkdirAll(profDir, 0o755); err != nil {
		return result{}, err
	}
	alloc0, gc0, cpu0 := runtimeCounters()
	r, err := measureReps(ctx, e, w, tr, profDir)
	alloc1, gc1, cpu1 := runtimeCounters()
	res := result{Correct: err == nil && r.failed == 0, Attempted: max(r.ops, 1), Failed: r.failed}
	if err != nil {
		return res, err
	}
	if r.failed > 0 {
		return res, checkf("%d of %d operations failed", r.failed, r.ops)
	}
	plain, trs := r.plain, r.traced
	m, err := ladder(ctx, w.inputs(), tr, e.work)
	if err != nil {
		return res, err
	}

	// The repetitions' own counts: engine counters of the last traced
	// repetition, and the Go runtime over every repetition, the warm-up
	// included.
	last := trs[len(trs)-1]
	m["experiments.simulations"] = metric{Value: float64(last.stats.Simulations), Unit: "count"}
	m["experiments.distinct_simkeys"] = metric{Value: float64(last.distinct), Unit: "count"}
	m["experiments.cache_hits"] = metric{Value: float64(last.stats.CacheHits), Unit: "count"}
	m["experiments.inflight_joins"] = metric{Value: float64(last.stats.InflightJoins), Unit: "count"}
	m["experiments.profile_builds"] = metric{Value: float64(last.stats.ProfileBuilds), Unit: "count"}
	m["experiments.profile_reuses"] = metric{Value: float64(last.stats.ProfileReuses), Unit: "count"}
	// A workload whose repetitions run a fleet reports that fleet's
	// simulations, summed over its workers, beside distinct_simkeys; the
	// others keep the ladder's fleet pass.
	if last.fleet.Simulations > 0 {
		m["fleet.simulations"] = metric{Value: float64(last.fleet.Simulations), Unit: "count"}
	}
	m["go.alloc_bytes_per_cell"] = metric{Value: (alloc1 - alloc0) / float64(r.units), Unit: "B", n: r.units}
	m["go.gc_cpu_share"] = metric{Value: 100 * (gc1 - gc0) / (cpu1 - cpu0), Unit: "%"}

	// Client-timed submits, from the repetitions and the ladder alike.
	submits := tr.durations("server.submit")
	m["server.submit_ms.p50"] = metric{Value: 1e3 * quantile(submits, 0.5), Unit: "ms", n: len(submits)}
	m["server.submit_ms.p99"] = metric{Value: 1e3 * quantile(submits, 0.99), Unit: "ms", n: len(submits)}
	m["server.submit_ms.n"] = metric{Value: float64(len(submits)), Unit: "count"}

	job := func(reps []sample) float64 {
		return median(column(reps, func(s sample) float64 { return s.phase["job"] }))
	}
	m["bench.trace_overhead_pct"] = metric{Value: 100 * (job(trs)/job(plain) - 1), Unit: "%", n: len(trs)}

	// Emit-versus-simulate reconciliation: the ladder's per-instruction
	// costs times the instructions the repetitions simulated, against the
	// CPU time the repetitions' simulation phase took.
	all := append(append([]sample(nil), plain...), trs...)
	predicted := float64(all[0].simInsts) *
		(m["workload.emit_ns_per_inst"].Value + m["pipeline.ns_per_inst"].Value) / 1e9
	measured := median(column(all, func(s sample) float64 { return s.simCPU }))
	m["bench.unexplained_share"] = metric{Value: 1 - predicted/measured, Unit: "ratio", n: len(all)}

	shares, err := cpuShares(ctx, r.profiles)
	if err != nil {
		return res, err
	}
	for k, v := range shares {
		m[k] = metric{Value: v, Unit: "%", n: len(r.profiles)}
	}

	if err := os.MkdirAll(dumpDir, 0o755); err != nil {
		return res, err
	}
	if err := tr.write(filepath.Join(dumpDir, fmt.Sprintf("%s.ndjson", filepath.Base(e.work)))); err != nil {
		return res, err
	}
	res.Metrics = m
	return res, nil
}

// stageFuncs maps each cycle-engine stage share to the function whose
// cumulative CPU it reports.
var stageFuncs = map[string]string{
	"pipeline.cpu_share.fetch":    "internal/pipeline.(*CPU).fetch",
	"pipeline.cpu_share.dispatch": "internal/pipeline.(*CPU).dispatch",
	"pipeline.cpu_share.issue":    "internal/pipeline.(*CPU).issue",
	"pipeline.cpu_share.complete": "internal/pipeline.(*CPU).complete",
	"pipeline.cpu_share.commit":   "internal/pipeline.(*CPU).commit",
}

// cpuShares merges the traced repetitions' CPU profiles with
// `go tool pprof -top` and returns each stage's share of all samples, in
// percent: the cumulative share of each cycle-engine stage function, the
// flat share of the functional-unit recorder (internal/pipeline.(*classPool)
// methods, which the stages call), and the flat share of the trace
// generator (internal/workload).
func cpuShares(ctx context.Context, profiles []string) (map[string]float64, error) {
	args := append([]string{"tool", "pprof", "-top", "-nodecount=100000"}, profiles...)
	cmd := exec.CommandContext(ctx, "go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.Bytes())
	}
	return parseTop(out)
}

// parseTop reads `pprof -top` output into the stage shares.
func parseTop(out []byte) (map[string]float64, error) {
	shares := map[string]float64{"pipeline.cpu_share.record": 0, "workload.cpu_share": 0}
	for k := range stageFuncs {
		shares[k] = 0
	}
	header := false
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !header {
			header = len(f) == 5 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		flat, err1 := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		cum, err2 := strconv.ParseFloat(strings.TrimSuffix(f[4], "%"), 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("pprof -top: bad line %q", sc.Text())
		}
		name := f[5]
		for k, fn := range stageFuncs {
			if strings.HasSuffix(name, fn) {
				shares[k] += cum
			}
		}
		switch {
		case strings.Contains(name, "internal/pipeline.(*classPool)."):
			shares["pipeline.cpu_share.record"] += flat
		case strings.Contains(name, "internal/workload."):
			shares["workload.cpu_share"] += flat
		}
	}
	if !header {
		return nil, fmt.Errorf("pprof -top: no header in output")
	}
	return shares, sc.Err()
}
