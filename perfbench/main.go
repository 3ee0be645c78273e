// Command perfbench is fusleep's benchmark. It drives the simulator and the
// sweep service from outside, through their public Go and HTTP surfaces,
// over three workloads:
//
//   - repro: Engine.RunExperiments over every registered experiment, then
//     RenderJSON — what `fusleep -exp all -format json` runs.
//   - policy-grid: a warm standalone daemon scoring one large grid of
//     fresh cells, the same grid again (served from the store), and one
//     /v1/optimize run over the same machines.
//   - cold-sweep: one cold grid through a standalone daemon and through a
//     coordinator with two in-process workers.
//
// Each run is a series of short repetitions of identical cost. Every
// repetition starts cold (a fresh Engine, fresh store directories, a fresh
// daemon and fleet) and times its set-up apart from its job; one untimed
// repetition warms the process first. Every set-up starts with the guard:
// the nine programs simulated on the paper's machine and checked, cycle
// for cycle, against recorded values, so a change to the simulated results
// fails the run. Host timings are the median over the repetitions (on a
// shared host the per-core speed drifts within a run, and the median of a
// run's repetitions moves less from run to run than its fastest ones do),
// reported at a nominal host speed measured by a fixed reference kernel
// before each repetition (see hostspeed.go). Exact counts back every
// timing.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload repro --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object: with --trace 0 the
// end-to-end metrics, with --trace 1 the per-layer metrics of a separate
// traced run (spans from the benchmark's own calls into each layer, a CPU
// profile, and the layer ladder).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// n is the sample count behind the value, printed in the table only.
	n int
}

// result is the JSON object printed as the last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// extra holds metrics printed in the table but kept out of the JSON
	// line: the workload's own named metrics.
	extra map[string]metric
}

// env is what every workload gets from the command line.
type env struct {
	// work is the run's scratch directory inside the checkout.
	work    string
	seed    int64
	seconds time.Duration
}

func main() {
	os.Exit(run())
}

func run() int {
	root := flag.String("root", ".", "repository checkout the benchmark runs in")
	name := flag.String("workload", "", "workload: repro, policy-grid, or cold-sweep")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 30, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()

	mk, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown -workload %q (want repro, policy-grid, or cold-sweep)\n", *name)
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: -seconds %d < 1\n", *seconds)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: -trace %d (want 0 or 1)\n", *trace)
		return 2
	}
	work, err := filepath.Abs(filepath.Join(*root, ".bench_build", "run", fmt.Sprintf("%s-%d-%d", *name, *seed, os.Getpid())))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	e := env{work: work, seed: *seed, seconds: time.Duration(*seconds) * time.Second}
	w := mk(e)
	// A run must end within three minutes; a hung stream or daemon turns
	// into an error instead of a stuck run.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	var res result
	if *trace == 1 {
		res, err = traced(ctx, e, w, filepath.Join(*root, ".bench_build", "traces"))
	} else {
		res, err = untraced(ctx, e, w)
	}
	var bad *checkError
	if err != nil && !errors.As(err, &bad) {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if res.Metrics == nil {
		res.Metrics = map[string]metric{}
	}
	printTable(*name, res.Metrics)
	printTable(*name, res.extra)
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", jerr)
		return 1
	}
	fmt.Println(string(line))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: output check failed:", err)
		return 1
	}
	return 0
}

// checkError is a failed output check: the run still reports, with
// correct=false.
type checkError struct{ msg string }

func (e *checkError) Error() string { return e.msg }

func checkf(format string, args ...any) error {
	return &checkError{fmt.Sprintf(format, args...)}
}

// printTable writes the metrics as aligned name/value/unit lines, with the
// sample count where one applies.
func printTable(workload string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := ms[n]
		line := fmt.Sprintf("%-14s %-40s %16.6g %s", workload, n, m.Value, m.Unit)
		if m.n > 0 {
			line += fmt.Sprintf("  (n=%d)", m.n)
		}
		fmt.Println(line)
	}
}
