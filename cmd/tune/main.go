// Command tune runs the Pareto-aware policy auto-tuner from the command
// line: instead of exhaustively sweeping the policy × parameter ×
// technology × FU-count grid, it searches the space with adaptive grid
// refinement and successive halving, streaming probe progress to stderr
// and rendering the best point and the energy-delay Pareto frontier as
// structured artifacts.
//
// Usage:
//
//	tune                                         # E·D over the default space
//	tune -objective leakage -slowdown-cap 1.1    # min leakage, bounded delay
//	tune -policies SleepTimeout,GradualSleep -timeout-range 1:512
//	tune -fus 2,4 -p 0.05,0.5 -benchmarks gcc,mcf -window 200000
//	tune -max-evals 96 -rounds 6 -format json
//	tune -classes intalu,fpalu,fpmult -max-evals 128   # per-class assignments
//	tune -classes intalu,agu -agus 2                   # dedicated AGU pool
//
// Interrupting the process (SIGINT/SIGTERM) cancels in-flight simulations
// promptly via context cancellation.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/archsim/fusleep"
)

func main() {
	objective := flag.String("objective", "ed", "objective: ed | ed2 | leakage")
	slowdownCap := flag.Float64("slowdown-cap", 0, "max relative delay (0 = unconstrained)")
	policies := flag.String("policies", "", "policy families to search, comma-separated (default: all causal policies)")
	timeoutRange := flag.String("timeout-range", "", "SleepTimeout threshold range lo:hi (default 1:256)")
	slicesRange := flag.String("slices-range", "", "GradualSleep K range lo:hi (default 1:128)")
	fus := flag.String("fus", "0", "FU counts, comma-separated (0 = paper counts)")
	classes := flag.String("classes", "", "FU classes to assign policies over, comma-separated (intalu,agu,mult,fpalu,fpmult); widens the search to per-class assignments with a final composition round")
	agus := flag.Int("agus", 0, "dedicated AGU count (0 = shared with IntALUs; required > 0 to search the agu class)")
	mults := flag.Int("mults", 0, "multiplier unit count (0 = default 1)")
	fpalus := flag.Int("fpalus", 0, "FP adder unit count (0 = default 1)")
	fpmults := flag.Int("fpmults", 0, "FP multiplier unit count (0 = default 1)")
	ps := flag.String("p", "", "leakage factors, comma-separated (default: the paper's p=0.05)")
	benchmarks := flag.String("benchmarks", "", "benchmark subset, comma-separated (default: all nine)")
	alpha := flag.Float64("alpha", 0.5, "activity factor")
	window := flag.Uint64("window", 250_000, "instruction window per benchmark")
	maxEvals := flag.Int("max-evals", 64, "cell evaluation budget")
	rounds := flag.Int("rounds", 4, "refinement rounds after the seed round")
	quiet := flag.Bool("quiet", false, "suppress per-probe progress on stderr")
	format := flag.String("format", "text", "output format: "+strings.Join(fusleep.Formats(), " | "))
	flag.Parse()

	render, err := fusleep.RendererFor(*format)
	if err != nil {
		fmt.Fprintf(os.Stderr, "invalid -format: %v\n", err)
		os.Exit(2)
	}
	kind, err := fusleep.ParseTuneObjective(*objective)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	space := fusleep.TuneSpace{
		Alpha: *alpha, Window: *window,
		AGUs: *agus, Mults: *mults, FPALUs: *fpalus, FPMults: *fpmults,
	}
	if space.Classes, err = fusleep.ParseFUClasses(*classes); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *policies != "" {
		for _, name := range strings.Split(*policies, ",") {
			p, err := fusleep.ParsePolicy(strings.TrimSpace(name))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			space.Policies = append(space.Policies, p)
		}
	}
	if space.TimeoutRange, err = parseRange(*timeoutRange); err != nil {
		fmt.Fprintf(os.Stderr, "-timeout-range: %v\n", err)
		os.Exit(2)
	}
	if space.SlicesRange, err = parseRange(*slicesRange); err != nil {
		fmt.Fprintf(os.Stderr, "-slices-range: %v\n", err)
		os.Exit(2)
	}
	if space.FUCounts, err = parseInts(*fus); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *ps != "" {
		vals, err := parseFloats(*ps)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		for _, p := range vals {
			space.Techs = append(space.Techs, fusleep.DefaultTech().WithP(p))
		}
	}
	if *benchmarks != "" {
		for _, b := range strings.Split(*benchmarks, ",") {
			space.Benchmarks = append(space.Benchmarks, strings.TrimSpace(b))
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	eng := fusleep.NewEngine(fusleep.WithWindow(*window))
	opts := []fusleep.TuneOption{
		fusleep.WithTuneSpace(space),
		fusleep.WithTuneObjective(fusleep.TuneObjective{Kind: kind, SlowdownCap: *slowdownCap}),
		fusleep.WithTuneBudget(*maxEvals),
		fusleep.WithTuneRounds(*rounds),
	}

	start := time.Now()
	observe := func(p fusleep.TuneProbe) error {
		if *quiet {
			return nil
		}
		mark := " "
		switch {
		case p.Improved:
			mark = "*"
		case p.Accepted:
			mark = "+"
		}
		fmt.Fprintf(os.Stderr, "%s probe %3d r%d  %-40s score %.4f  D %.3f  E %.4f\n",
			mark, p.Seq, p.Round, p.Point.Label(), p.Point.Score, p.Point.Delay, p.Point.Energy)
		return nil
	}
	res, err := eng.OptimizeStream(ctx, observe, opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	stats := eng.Stats()
	fmt.Fprintf(os.Stderr, "%d cells in %d rounds, %d pipeline runs (cache hit rate %.0f%%), %v\n",
		res.Evals, res.Rounds, stats.Simulations, 100*stats.HitRate(),
		time.Since(start).Round(time.Millisecond))

	if err := render(os.Stdout, fusleep.TuneArtifacts(res)); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// parseRange parses "lo:hi" into an inclusive integer range.
func parseRange(s string) ([2]int, error) {
	if s == "" {
		return [2]int{}, nil
	}
	lo, hi, ok := strings.Cut(s, ":")
	if !ok {
		return [2]int{}, fmt.Errorf("want lo:hi, got %q", s)
	}
	l, err := strconv.Atoi(strings.TrimSpace(lo))
	if err != nil {
		return [2]int{}, fmt.Errorf("bad int %q: %w", lo, err)
	}
	h, err := strconv.Atoi(strings.TrimSpace(hi))
	if err != nil {
		return [2]int{}, fmt.Errorf("bad int %q: %w", hi, err)
	}
	if l < 1 || h < l {
		return [2]int{}, fmt.Errorf("bad range [%d, %d]", l, h)
	}
	return [2]int{l, h}, nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, fmt.Errorf("bad float %q: %w", f, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad int %q: %w", f, err)
		}
		out = append(out, v)
	}
	return out, nil
}
