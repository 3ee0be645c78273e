// Package optimize searches the sleep-policy parameter space for
// Pareto-optimal energy-delay configurations instead of exhaustively
// sweeping it.
//
// The paper's central result is that no single leakage policy wins
// everywhere: the best choice of policy, SleepTimeout threshold,
// GradualSleep slice count, and functional-unit provisioning shifts with
// benchmark, FU count, and technology point (Figures 8-10), and Section 7
// speculates about "more complex control strategies" tuned per
// configuration. This package is that tuner. It trades the exhaustive grid
// of experiments.RunSweep for a deterministic adaptive search:
//
//   - An objective layer (Objective) scores evaluated cells: minimize the
//     energy-delay product E·D, the delay-emphasizing E·D², or the leakage
//     energy alone subject to a slowdown cap.
//   - A search driver (Run) seeds a coarse logarithmic grid over the
//     parameterized policy axes (SleepTimeout threshold, GradualSleep K)
//     crossed with the discrete axes (policy family, FU count, technology
//     point), then applies successive halving: each round keeps the
//     top 1/Eta candidates and refines their parameter neighborhoods by
//     geometric bisection. Probes evaluate through the caller-supplied
//     Evaluator — the engine routes them through experiments.EvalCells, so
//     repeated probes deduplicate through the simulation cache for free —
//     and run in bounded parallel within a round.
//   - A Pareto-frontier accumulator (Frontier) keeps every non-dominated
//     (delay, energy) point seen, with dominance pruning, and the driver
//     streams a trace of accepted and rejected probes to its observer.
//
// Everything is deterministic: the same Space, Objective, and budget
// produce the same probe sequence, the same frontier, and the same best
// point on every run, which is what makes the golden tuner test possible.
package optimize
