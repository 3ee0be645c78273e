// Package fusleep is a library-level reproduction of "Managing Static
// Leakage Energy in Microprocessor Functional Units" (Dropsho, Kursun,
// Albonesi, Dwarkadas, Friedman; MICRO-35, 2002).
//
// The paper studies when dual threshold voltage domino logic should enter
// its low-leakage sleep mode given that the transition itself costs energy.
// This package exposes:
//
//   - the architecture-level static-energy model (Tech, Breakdown,
//     Scenario) with its breakeven-interval analysis;
//   - the four sleep-management policies (AlwaysActive, MaxSleep,
//     NoOverhead, GradualSleep) plus the OracleMinimal bound, applied
//     either to closed-form scenarios or to measured idle profiles;
//   - the circuit-level functional-unit model of Section 2 (CircuitFU);
//   - an Engine serving the trace-driven out-of-order simulation of the
//     paper's Alpha-21264-like machine over nine calibrated synthetic
//     benchmarks, every table and figure of the evaluation, and batch
//     policy × technology × FU-count grids — all as structured Artifacts.
//
// # The Engine
//
// Engine is the entry point for everything simulated. It is long-lived and
// safe for concurrent use: one instance owns a simulation cache and a
// parallelism bound, so scenario requests share work instead of repeating
// it. Construction takes functional options; every method takes a
// context.Context and aborts promptly when it is canceled.
//
//	eng := fusleep.NewEngine(
//		fusleep.WithWindow(1_000_000),  // default per-benchmark scale
//		fusleep.WithParallelism(4),     // bound concurrent simulations
//	)
//
//	// One benchmark, measured idle profiles included.
//	rep, err := eng.Simulate(ctx, "mcf", fusleep.SimFUs(2))
//
//	// Paper artifacts, machine-readable.
//	arts, err := eng.RunExperiments(ctx, "fig8a", "fig9b")
//
//	// A batch grid over the whole suite.
//	arts, err = eng.Sweep(ctx, fusleep.Grid{
//		Techs:    []fusleep.Tech{fusleep.DefaultTech(), fusleep.HighLeakTech()},
//		FUCounts: []int{2, 4},
//	})
//
// # Streaming sweeps and the sweep service
//
// A Grid expands into an ordered list of Cells — one policy × technology ×
// FU-count point each, with a stable configuration hash (Cell.Key). Engine
// exposes the incremental form of Sweep for services and progress UIs:
// SweepStream delivers a CellResult per completed cell, RunCell evaluates a
// single cell against the shared cache, and Stats reports the simulation /
// cache-hit accounting. NewSweepTable and AddSweepRow assemble streamed
// cells into the same table Sweep returns, so partial output renders
// identically to batch output.
//
//	err := eng.SweepStream(ctx, grid, func(res fusleep.CellResult) error {
//		fmt.Printf("%s: E/E_base=%.4f\n", res.Cell.Policy.Policy, res.RelEnergy)
//		return nil
//	})
//
// cmd/fusleepd serves these sweeps over HTTP as a long-lived daemon: grids
// are submitted as JSON and expanded into cells. Each cell is checked once
// against the daemon's result store at dispatch; any other cell goes to a
// fleet coordinator with in-process workers, which routes it by
// Cell.SimKey, so cells that share a simulation land on one worker and
// identical cells — across requests and clients — join one evaluation.
// Per-cell results stream back as NDJSON while the sweep runs. See the
// internal/server package comment for the endpoint contract and
// examples/sweepservice for a complete client.
//
// # Per-class configuration
//
// The machine's functional units divide into classes — FUIntALU, FUAGU,
// FUMult, FUFPALU, FUFPMult — whose idle-interval distributions and
// breakeven points differ, which is exactly why the paper separates
// integer ALUs from FP adders and multipliers. Every class pool records
// its own busy/idle profile (Simulate returns them as
// BenchmarkReport.ClassProfiles; address generation shares the IntALU
// ports unless SimAGUs provisions a dedicated pool), and an Assignment
// maps classes to sleep policies so one machine runs a heterogeneous
// policy mix:
//
//	a, _ := fusleep.ParseAssignment("intalu=GradualSleep:slices=4,fpalu=MaxSleep")
//	arts, err := eng.Sweep(ctx, fusleep.Grid{
//		Classes:     []fusleep.FUClass{fusleep.FUIntALU, fusleep.FUFPALU},
//		Assignments: []fusleep.Assignment{a},
//	})
//
// A Grid (and a Cell) carries the studied class list, per-class unit
// counts (AGUCounts, MultCounts, ...), per-class technology overrides
// (ClassTechs — each class's breakeven resolves through its own effective
// Tech; see ClassBreakeven), and assignment rows next to uniform policy
// rows. Class-aware sweeps add a per-class companion table
// (AddClassRows) splitting E/E_base by class. A uniform assignment —
// every class running one policy — reproduces the single-pool results
// exactly, which is what pins the refactor to the pre-class goldens.
//
// The tuner searches per-class assignments too: give TuneSpace a Classes
// list and each candidate assigns one class's policy (the others idle at
// the baseline), the same successive-halving driver refines every class's
// parameter axis, and a final composition round evaluates the assignment
// combining each class's best policy. From the command line:
//
//	tune -classes intalu,fpalu,fpmult -max-evals 128 -p 0.5
//
// reports the best heterogeneous mix (e.g. busy integer ALUs kept awake
// while the mostly-idle FP units sleep aggressively) and its Pareto
// frontier.
//
// # The policy auto-tuner
//
// Engine.Optimize searches the policy-parameter space — policy family ×
// SleepTimeout threshold × GradualSleep slice count × FU count ×
// technology point — for Pareto-optimal energy-delay configurations
// instead of exhaustively sweeping it, following the paper's observation
// that no single policy wins everywhere (Figures 8-10, Section 7). The
// search is a deterministic adaptive grid with successive halving: each
// round evaluates its candidates in bounded parallel through the engine's
// simulation cache (probes sharing an FU count share one suite
// simulation), keeps the top third by the objective, and bisects the
// survivors' parameter neighborhoods geometrically. Objectives are E·D,
// E·D², or leakage energy under a slowdown cap (TuneObjective), delay
// being cycles relative to the fastest AlwaysActive baseline evaluated.
//
//	res, err := eng.Optimize(ctx,
//		fusleep.WithTuneSpace(fusleep.TuneSpace{FUCounts: []int{2, 4}}),
//		fusleep.WithTuneObjective(fusleep.TuneObjective{
//			Kind: fusleep.TuneMinLeakage, SlowdownCap: 1.10}),
//		fusleep.WithTuneBudget(64),
//	)
//	// res.Best, res.Frontier (non-dominated delay × energy points),
//	// res.Evals vs. the grid cardinality it replaced.
//
// OptimizeStream additionally delivers every probe — accepted or rejected,
// with its Pareto and incumbent status — in deterministic evaluation
// order. TuneArtifacts renders a result as the usual artifacts. The same
// search runs from the command line (cmd/tune) and as a daemon endpoint
// (POST /v1/optimize on fusleepd, where tuner probes take the same
// dispatch path as sweep cells and dedupe against them).
//
// # Artifacts and renderers
//
// Results are Artifact values: an experiment identity plus a typed payload,
// either a Table (header and string rows) or a Series (named float64
// curves over a shared x axis). Render them with RenderText, RenderJSON,
// or RenderCSV — RenderJSON output unmarshals back into []Artifact — or
// look a Renderer up by name with RendererFor("json").
//
//	arts, _ := eng.RunExperiments(ctx, "table1")
//	_ = fusleep.RenderJSON(os.Stdout, arts)
//
// # Quick start (closed-form model, no simulation)
//
//	tech := fusleep.DefaultTech()                  // p=0.05, c=0.001, e=0.01, d=0.5
//	be := tech.Breakeven(0.5)                      // ~20 cycles
//	s := fusleep.Scenario{TotalCycles: 1e6, Usage: 0.5, MeanIdle: 10, Alpha: 0.5}
//	rel := tech.RelativeToBase(fusleep.PolicyConfig{Policy: fusleep.MaxSleep}, s)
//
// # Performance
//
// The cycle engine is built for sweep-scale workloads: completion runs on
// an event wheel, issue selects from a wakeup-driven ready list instead of
// scanning the reorder buffer, and the steady-state hot loop performs no
// heap allocation (see the internal/pipeline package comment for the full
// performance model). Simulation results are cycle-exact regardless of
// these optimizations, pinned by a golden determinism test: the same seed
// produces byte-identical results across runs, cache settings, and
// parallelism bounds.
//
// BenchmarkPipelineSimulation reports simulated inst/s, cycles/s, and
// allocs/op; BENCH_pipeline.json tracks those numbers across PRs, and CI
// gates on them: the bench-gate job fails the build when inst/s drops below
// 70% of the tracked baseline or allocs/op more than doubles (see
// internal/ci/benchgate and the README's CI section; refresh the baseline
// in BENCH_pipeline.json when a PR legitimately moves it). To profile the
// hot path, use cmd/simcpu's -cpuprofile and -memprofile flags.
//
// All entry points go through the Engine; the pre-Engine one-shot helpers
// (SimulateBenchmark, RunExperiment, RunExperiments, RunAll) have been
// removed. See the examples directory for complete programs.
package fusleep
