package main

import (
	"context"
	"math"

	"github.com/archsim/fusleep"
)

// paperMachineCycles are the simulated cycles of each program on the
// paper's machine (its Table 3 IntALU count) over benchWindow
// instructions, with every modelled cache, predictor, and TLB starting
// empty. They are exact: a change that only claims speed must leave every
// one of them unchanged, and a run whose simulator disagrees fails. A
// change that means to alter the simulated machine records the new
// values here.
var paperMachineCycles = map[string]uint64{
	"gcc":    94161,
	"gzip":   67292,
	"health": 504386,
	"mcf":    211976,
	"mst":    123851,
	"parser": 89930,
	"twolf":  92038,
	"vortex": 62748,
	"vpr":    102516,
}

// guard simulates every program on the paper's machine with a fresh
// engine and checks each against paperMachineCycles and the window. It
// returns the mean relative IPC error against Table 3, in percent: an
// exact, deterministic figure (the kernels are synthetic, so it measures a
// calibration gap, not a validation).
//
// Every repetition runs the guard as the first part of its set-up, so the
// set-up always holds the same fixed simulation work and every repetition
// re-checks the simulated results.
func guard(ctx context.Context) (float64, error) {
	eng := fusleep.NewEngine(fusleep.WithWindow(benchWindow))
	bs := fusleep.Benchmarks()
	if len(bs) != len(paperMachineCycles) {
		return 0, checkf("guard: %d programs, %d recorded", len(bs), len(paperMachineCycles))
	}
	sum := 0.0
	for _, b := range bs {
		rep, err := eng.Simulate(ctx, b.Name, fusleep.SimFUs(b.PaperFUs))
		if err != nil {
			return 0, err
		}
		if rep.Committed != benchWindow {
			return 0, checkf("guard: %s committed %d instructions, want the window %d", b.Name, rep.Committed, benchWindow)
		}
		if want, ok := paperMachineCycles[b.Name]; !ok || rep.Cycles != want {
			return 0, checkf("guard: %s ran %d cycles on the paper machine, recorded %d", b.Name, rep.Cycles, want)
		}
		sum += math.Abs(rep.IPC-b.PaperIPC) / b.PaperIPC
	}
	return 100 * sum / float64(len(bs)), nil
}
