// Command fusleep regenerates the tables and figures of Dropsho et al.,
// "Managing Static Leakage Energy in Microprocessor Functional Units"
// (MICRO 2002), through the fusleep.Engine API: one long-lived engine
// shares suite simulations across the selected experiments, and results
// are structured artifacts renderable as text, JSON, or CSV.
//
// Usage:
//
//	fusleep -list                           # show available experiments
//	fusleep -exp fig8a                      # one experiment
//	fusleep -exp fig7,fig8a,fig8b           # several (simulations are shared)
//	fusleep -exp all -window 2000000        # full run at a larger window
//	fusleep -exp fig8a -format json         # machine-readable artifacts
//	fusleep -exp all -format csv -timeout 10m
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
	"strings"
	"syscall"
	"time"

	"github.com/archsim/fusleep"
)

func main() {
	exp := flag.String("exp", "", "experiment id(s), comma-separated, or 'all'")
	list := flag.Bool("list", false, "list experiments")
	window := flag.Uint64("window", 1_000_000, "instruction window per benchmark")
	sweep := flag.Uint64("sweep", 750_000, "instruction window per Table 3 sweep run")
	parallel := flag.Int("parallel", 0, "max concurrent simulations (0 = GOMAXPROCS)")
	format := flag.String("format", "text", "output format: "+strings.Join(fusleep.Formats(), " | "))
	timeout := flag.Duration("timeout", 0, "abort after this duration (0 = none)")
	flag.Parse()

	// Validate the format before any other mode handling, so a typo fails
	// fast with the accepted format list instead of surfacing after (or
	// silently bypassing) a long run.
	render, err := fusleep.RendererFor(*format)
	if err != nil {
		fmt.Fprintf(os.Stderr, "invalid -format: %v\n", err)
		os.Exit(2)
	}

	if *list || *exp == "" {
		fmt.Println("Experiments served by fusleep.Engine.RunExperiments:")
		fmt.Printf("%-15s %-10s %-4s %s\n", "id", "paper", "sim", "description")
		for _, e := range fusleep.Experiments() {
			sim := ""
			if e.Simulated {
				sim = "yes"
			}
			fmt.Printf("%-15s %-10s %-4s %s\n", e.ID, e.Paper, sim, e.Desc)
		}
		if *exp == "" && !*list {
			fmt.Fprintln(os.Stderr, "\nselect experiments with -exp <id>[,<id>...] or -exp all")
			fmt.Fprintf(os.Stderr, "render with -format %s; ^C cancels cleanly\n", strings.Join(fusleep.Formats(), "|"))
		}
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	eng := fusleep.NewEngine(
		fusleep.WithWindow(*window),
		fusleep.WithSweep(*sweep),
		fusleep.WithParallelism(*parallel),
	)

	var ids []string
	if *exp == "all" {
		for _, e := range fusleep.Experiments() {
			ids = append(ids, e.ID)
		}
	} else {
		for _, id := range strings.Split(*exp, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}
	start := time.Now()
	if *format == "text" {
		// Text streams experiment by experiment, so long runs show progress
		// and a late failure doesn't discard finished output.
		n := 0
		for _, id := range ids {
			arts, err := eng.RunExperiments(ctx, id)
			if err != nil {
				// Everything rendered so far already reached stdout; say so
				// instead of silently abandoning the partial output.
				if n > 0 {
					fmt.Fprintf(os.Stderr, "%d artifact(s) flushed before the failure\n", n)
				}
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if err := render(os.Stdout, arts); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			n += len(arts)
		}
		fmt.Fprintf(os.Stderr, "%d artifact(s) in %v\n", n, time.Since(start).Round(time.Millisecond))
		return
	}
	// Machine formats are atomic: one JSON array / CSV document.
	arts, err := eng.RunExperiments(ctx, ids...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := render(os.Stdout, arts); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
