package fusleep

import (
	"context"

	"github.com/archsim/fusleep/internal/optimize"
)

// Policy auto-tuner types, re-exported from internal/optimize. The tuner
// searches the policy-parameter space (policy family × SleepTimeout
// threshold × GradualSleep K × FU count × technology point) for
// Pareto-optimal energy-delay configurations instead of exhaustively
// sweeping it; see Engine.Optimize.
type (
	// TuneSpace is the tuner's search domain; zero-valued fields resolve
	// against the engine's defaults.
	TuneSpace = optimize.Space
	// TuneObjective scores candidates: an objective kind plus an optional
	// slowdown cap.
	TuneObjective = optimize.Objective
	// TuneObjectiveKind names one scalarization of the energy-delay
	// trade-off.
	TuneObjectiveKind = optimize.Kind
	// TunePoint is one evaluated configuration in objective coordinates.
	TunePoint = optimize.Point
	// TuneProbe is one trace entry of a tuner run.
	TuneProbe = optimize.Probe
	// TuneResult is a completed tuner run: best point, Pareto frontier,
	// and evaluation accounting.
	TuneResult = optimize.Result
	// TuneEvaluator scores one candidate cell; see WithTuneEvaluator.
	TuneEvaluator = optimize.Evaluator
	// TuneBatchEvaluator scores one tuner round's cells in a single call;
	// see WithTuneBatchEvaluator.
	TuneBatchEvaluator = optimize.BatchEvaluator
)

// The tuner's objective kinds: minimize E·D, E·D², or leakage energy.
const (
	TuneMinED      = optimize.KindED
	TuneMinED2     = optimize.KindED2
	TuneMinLeakage = optimize.KindLeakage
)

// ParseTuneObjective maps an objective name ("ed", "ed2", "leakage",
// case-insensitively) to its kind.
func ParseTuneObjective(name string) (TuneObjectiveKind, error) {
	return optimize.ParseKind(name)
}

// TuneObjectives lists the accepted objective kinds.
func TuneObjectives() []TuneObjectiveKind { return optimize.Kinds() }

// TuneOption configures one Engine.Optimize run.
type TuneOption func(*optimize.Config)

// WithTuneSpace sets the search domain (default: every causal policy over
// the full suite at the engine's technology and window).
func WithTuneSpace(s TuneSpace) TuneOption {
	return func(c *optimize.Config) { c.Space = s }
}

// WithTuneObjective sets the objective (default: minimize E·D).
func WithTuneObjective(o TuneObjective) TuneOption {
	return func(c *optimize.Config) { c.Objective = o }
}

// WithTuneBudget bounds the number of distinct cells the tuner may
// evaluate (default 64). Values < 1 are ignored.
func WithTuneBudget(maxEvals int) TuneOption {
	return func(c *optimize.Config) {
		if maxEvals > 0 {
			c.MaxEvals = maxEvals
		}
	}
}

// WithTuneRounds bounds the refinement rounds after the seed round
// (default 4). Values < 1 are ignored.
func WithTuneRounds(n int) TuneOption {
	return func(c *optimize.Config) {
		if n > 0 {
			c.Rounds = n
		}
	}
}

// WithTuneParallelism bounds concurrent candidate evaluations within a
// round (default 4). Values < 1 are ignored.
func WithTuneParallelism(n int) TuneOption {
	return func(c *optimize.Config) {
		if n > 0 {
			c.Parallel = n
		}
	}
}

// WithTuneEvaluator overrides how candidate cells are evaluated, cell by
// cell. The default evaluates rounds batched through the engine's shared
// simulation cache (Engine.RunCells); the sweep service substitutes an
// evaluator that dispatches probes like sweep cells — one store check, then
// the coordinator's SimKey routing — so tuner and sweep cells share workers
// and dedupe.
func WithTuneEvaluator(eval TuneEvaluator) TuneOption {
	return func(c *optimize.Config) { c.Eval = eval }
}

// WithTuneBatchEvaluator overrides how whole tuner rounds are evaluated; it
// takes precedence over WithTuneEvaluator. The batch evaluator must return
// exactly the per-cell results the cell-by-cell path would, in input order.
func WithTuneBatchEvaluator(eval TuneBatchEvaluator) TuneOption {
	return func(c *optimize.Config) { c.BatchEval = eval }
}

// Optimize searches the policy-parameter space for the configuration that
// minimizes the objective, evaluating candidates through the engine's
// shared simulation cache. It is the batch form of OptimizeStream.
func (e *Engine) Optimize(ctx context.Context, opts ...TuneOption) (TuneResult, error) {
	return e.OptimizeStream(ctx, nil, opts...)
}

// OptimizeStream runs the tuner and streams every probe — accepted or
// rejected — to fn in deterministic evaluation order as it completes.
// fn may be nil; a non-nil error from fn aborts the run. The search is
// deterministic: the same engine configuration, space, objective, and
// budget reproduce the same probe sequence and the same result.
func (e *Engine) OptimizeStream(ctx context.Context, fn func(TuneProbe) error, opts ...TuneOption) (TuneResult, error) {
	var cfg optimize.Config
	for _, o := range opts {
		o(&cfg)
	}
	cfg.Space = cfg.Space.WithDefaults(e.tech, e.window)
	if cfg.Eval == nil && cfg.BatchEval == nil {
		// Default evaluation is batched: each tuner round's probes are
		// grouped by simulation identity, simulated once per (workload,
		// FU-mix) group, and scored closed-form off the recorded profiles.
		// A caller-supplied evaluator (WithTuneEvaluator — e.g. the sweep
		// service's dispatch path) keeps the per-cell path.
		cfg.BatchEval = func(ctx context.Context, cells []Cell) ([]CellResult, error) {
			return e.RunCells(ctx, cells)
		}
	}
	return optimize.Run(ctx, cfg, fn)
}

// TuneArtifacts renders a completed tuner run as structured artifacts —
// the best point and the Pareto frontier in table and series form —
// renderable as text, JSON, CSV, or NDJSON like every other artifact.
func TuneArtifacts(res TuneResult) []Artifact { return res.Artifacts() }
