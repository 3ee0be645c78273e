package fusleep

import (
	"context"
	"io"

	"github.com/archsim/fusleep/internal/core"
	"github.com/archsim/fusleep/internal/experiments"
	"github.com/archsim/fusleep/internal/report"
)

// Artifact is one structured, machine-readable experiment result: an
// identified, titled payload that is either a table of rows or a set of
// named curves. Render artifacts with RenderText, RenderJSON, or RenderCSV.
type Artifact = report.Artifact

// ArtifactKind discriminates an Artifact's typed payload.
type ArtifactKind = report.ArtifactKind

// Artifact payload kinds.
const (
	KindTable  = report.KindTable
	KindSeries = report.KindSeries
)

// Table is a titled grid with a header row — the payload of a KindTable
// artifact.
type Table = report.Table

// Series is a titled set of named curves sharing an x axis — the payload
// of a KindSeries artifact.
type Series = report.Series

// NewTable builds an empty table with the given header.
func NewTable(title string, columns ...string) *Table { return report.NewTable(title, columns...) }

// NewSeries builds an empty series set with the given curve names.
func NewSeries(title, xlabel, ylabel string, names ...string) *Series {
	return report.NewSeries(title, xlabel, ylabel, names...)
}

// TableArtifact wraps a table as an ad-hoc artifact.
func TableArtifact(id string, t *Table) Artifact { return report.TableArtifact(id, t) }

// SeriesArtifact wraps a series set as an ad-hoc artifact.
func SeriesArtifact(id string, s *Series) Artifact { return report.SeriesArtifact(id, s) }

// Renderer writes a set of artifacts in one output format.
type Renderer = report.Renderer

// RenderText writes artifacts as aligned text tables with identity banners.
func RenderText(w io.Writer, artifacts []Artifact) error { return report.RenderText(w, artifacts) }

// RenderJSON writes artifacts as one indented JSON array that unmarshals
// back into []Artifact.
func RenderJSON(w io.Writer, artifacts []Artifact) error { return report.RenderJSON(w, artifacts) }

// RenderCSV writes each artifact as a titled CSV block.
func RenderCSV(w io.Writer, artifacts []Artifact) error { return report.RenderCSV(w, artifacts) }

// RenderNDJSON writes each artifact as one compact JSON object per line,
// for incremental consumers; each line unmarshals back into an Artifact.
func RenderNDJSON(w io.Writer, artifacts []Artifact) error { return report.RenderNDJSON(w, artifacts) }

// RendererFor maps a format name ("text", "json", "csv", "ndjson") to its
// renderer.
func RendererFor(format string) (Renderer, error) { return report.RendererFor(format) }

// Formats lists the built-in renderer names.
func Formats() []string { return report.Formats() }

// Grid describes a batch evaluation for Engine.Sweep: every policy ×
// technology point × FU-count combination is scored over the benchmark
// suite. Zero-valued fields select defaults (the paper's four policies, the
// engine's technology, the paper's per-benchmark FU counts, all nine
// benchmarks, alpha 0.5, 12-cycle L2, the engine's window).
type Grid = experiments.Grid

// CellError is a contained cell-evaluation failure: the cell's identity
// plus a transient/panicked/timed-out classification that retry policies
// act on.
type CellError = experiments.CellError

// IsTransientCellError reports whether err is a retryable cell failure.
func IsTransientCellError(err error) bool { return experiments.IsTransientCellError(err) }

// Engine is the long-lived entry point of the package: it owns a shared
// simulation cache, a parallelism bound, and default scale parameters, so
// many scenario requests — single benchmarks, paper experiments, batch
// grids — can be served concurrently without re-paying for simulations.
// Engines are safe for concurrent use; every method honors its context.
type Engine struct {
	window     uint64
	sweep      uint64
	parallel   int
	tech       Tech
	classTechs map[FUClass]Tech
	cache      bool
	runner     *experiments.Runner
}

// Option configures an Engine at construction.
type Option func(*Engine)

// WithWindow sets the default per-benchmark instruction count
// (default 1,000,000). Zero is ignored.
func WithWindow(n uint64) Option {
	return func(e *Engine) {
		if n > 0 {
			e.window = n
		}
	}
}

// WithSweep sets the per-run instruction count for FU-count sweep
// experiments such as Table 3 (default 750,000). Zero is ignored.
func WithSweep(n uint64) Option {
	return func(e *Engine) {
		if n > 0 {
			e.sweep = n
		}
	}
}

// WithParallelism bounds concurrent pipeline simulations (default:
// GOMAXPROCS, since the simulations are CPU-bound). Values < 1 are
// ignored.
func WithParallelism(n int) Option {
	return func(e *Engine) {
		if n > 0 {
			e.parallel = n
		}
	}
}

// WithTech sets the engine's default technology point, used by Sweep when
// the grid names none (default: DefaultTech, the paper's p = 0.05 point).
func WithTech(t Tech) Option {
	return func(e *Engine) { e.tech = t }
}

// WithCache enables or disables the cross-call simulation cache
// (default: enabled).
func WithCache(enabled bool) Option {
	return func(e *Engine) { e.cache = enabled }
}

// WithClassTechs sets the engine's default per-class technology overrides:
// grids and cells that carry none inherit this map, so a machine whose FP
// multiplier leaks differently from its integer ALUs configures that once.
// The map is copied.
func WithClassTechs(m map[FUClass]Tech) Option {
	return func(e *Engine) {
		if len(m) == 0 {
			return
		}
		e.classTechs = make(map[FUClass]Tech, len(m))
		for c, t := range m {
			e.classTechs[c] = t
		}
	}
}

// WithResultStore does nothing: the engine has no store tier. A daemon
// checks its result store once, at dispatch, and writes it from the
// coordinator's result hook, so pass the store to server.Config.Results.
// The option remains only because the benchmark's frozen code still calls
// it, and goes with the next benchmark change.
//
// Deprecated: a no-op; pass the store to server.Config.Results.
func WithResultStore(any) Option { return func(*Engine) {} }

// NewEngine builds an engine with the given options.
func NewEngine(opts ...Option) *Engine {
	e := &Engine{
		window: 1_000_000,
		sweep:  750_000,
		tech:   core.DefaultTech(),
		cache:  true,
	}
	for _, o := range opts {
		o(e)
	}
	e.runner = experiments.NewRunner(experiments.Options{
		Window:       e.window,
		Sweep:        e.sweep,
		Parallel:     e.parallel,
		DisableCache: !e.cache,
	})
	return e
}

// Window returns the engine's default per-benchmark instruction count.
func (e *Engine) Window() uint64 { return e.window }

// SweepWindow returns the engine's per-run FU-sweep instruction count.
func (e *Engine) SweepWindow() uint64 { return e.sweep }

// Parallelism returns the configured simulation bound (0 = GOMAXPROCS).
func (e *Engine) Parallelism() int { return e.parallel }

// Tech returns the engine's default technology point.
func (e *Engine) Tech() Tech { return e.tech }

// ClassTechs returns a copy of the engine's default per-class technology
// overrides (nil when none are configured).
func (e *Engine) ClassTechs() map[FUClass]Tech {
	if e.classTechs == nil {
		return nil
	}
	out := make(map[FUClass]Tech, len(e.classTechs))
	for c, t := range e.classTechs {
		out[c] = t
	}
	return out
}

// CacheEnabled reports whether cross-call simulation caching is on.
func (e *Engine) CacheEnabled() bool { return e.cache }

// simConfig holds per-call simulation parameters.
type simConfig struct {
	window uint64
	mix    experiments.FUMix
	l2     int
}

// SimOption configures one Engine.Simulate call.
type SimOption func(*simConfig)

// SimWindow overrides the instruction count for one simulation.
func SimWindow(n uint64) SimOption { return func(c *simConfig) { c.window = n } }

// SimFUs sets the integer functional-unit count; 0 selects the paper's
// Table 3 count for the benchmark.
func SimFUs(n int) SimOption { return func(c *simConfig) { c.mix.IntALUs = n } }

// SimAGUs provisions dedicated address-generation units; 0 (the default)
// issues address generation down the integer ALU ports.
func SimAGUs(n int) SimOption { return func(c *simConfig) { c.mix.AGUs = n } }

// SimMults sets the dedicated multiplier unit count (0 = the Table 2
// default of one).
func SimMults(n int) SimOption { return func(c *simConfig) { c.mix.Mults = n } }

// SimFPALUs sets the FP adder unit count (0 = the Table 2 default of one).
func SimFPALUs(n int) SimOption { return func(c *simConfig) { c.mix.FPALUs = n } }

// SimFPMults sets the FP multiplier unit count (0 = the Table 2 default of
// one).
func SimFPMults(n int) SimOption { return func(c *simConfig) { c.mix.FPMults = n } }

// SimL2Latency sets the unified L2 hit latency in cycles (default 12).
func SimL2Latency(n int) SimOption { return func(c *simConfig) { c.l2 = n } }

// Simulate runs one suite benchmark on the Table 2 machine and returns its
// measured report. Results are cached across calls (same benchmark,
// FU count, L2 latency, and window) unless the cache is disabled, and the
// run aborts promptly when ctx is canceled.
func (e *Engine) Simulate(ctx context.Context, name string, opts ...SimOption) (BenchmarkReport, error) {
	cfg := simConfig{window: e.window, l2: 12}
	for _, o := range opts {
		o(&cfg)
	}
	res, err := e.runner.SimMix(ctx, name, cfg.mix, cfg.l2, cfg.window)
	if err != nil {
		return BenchmarkReport{}, err
	}
	rep := BenchmarkReport{
		Name:                  name,
		FUs:                   len(res.FUs),
		Cycles:                res.Cycles,
		Committed:             res.Committed,
		IPC:                   res.IPC(),
		BranchAccuracy:        res.Bpred.DirAccuracy(),
		Mispredicts:           res.Bpred.Mispredicts,
		L1IMissRate:           res.L1I.MissRate(),
		L1DMissRate:           res.L1D.MissRate(),
		L2MissRate:            res.L2.MissRate(),
		DTLBMissRate:          res.DTLB.MissRate(),
		LoadForwards:          res.LoadForwards,
		FetchMispredictStalls: res.FetchMispredictStalls,
		MeanFUUtilization:     res.MeanFUUtilization(),
	}
	// Clones, so a report the caller mutates never aliases the runner's
	// cached simulation results.
	for i := range res.FUs {
		rep.FUProfiles = append(rep.FUProfiles, res.FUs[i].Clone())
	}
	rep.ClassProfiles = make(map[FUClass][]*IdleProfile, len(res.Classes))
	for _, cp := range res.Classes {
		profs := make([]*IdleProfile, 0, len(cp.Units))
		for i := range cp.Units {
			profs = append(profs, cp.Units[i].Clone())
		}
		rep.ClassProfiles[cp.Class] = profs
	}
	return rep, nil
}

// Experiments lists every table/figure reproduction and extension.
func (e *Engine) Experiments() []ExperimentInfo { return Experiments() }

// RunExperiments executes the named experiments in order against the
// engine's shared simulation cache and returns their structured artifacts.
// With no ids it runs every registered experiment.
func (e *Engine) RunExperiments(ctx context.Context, ids ...string) ([]Artifact, error) {
	if len(ids) == 0 {
		ids = experiments.IDs()
	}
	var arts []Artifact
	for _, id := range ids {
		exp, err := experiments.ByID(id)
		if err != nil {
			return nil, err
		}
		a, err := exp.Artifacts(ctx, e.runner)
		if err != nil {
			return nil, err
		}
		arts = append(arts, a...)
	}
	return arts, nil
}

// RunExperiment executes one experiment by ID.
func (e *Engine) RunExperiment(ctx context.Context, id string) ([]Artifact, error) {
	return e.RunExperiments(ctx, id)
}

// Sweep evaluates a policy × technology × FU-count grid over the benchmark
// suite in one batch: one (cached, parallel, cancelable) suite simulation
// per FU count, then the closed-form energy model at every grid point. It
// returns a table artifact with one row per combination.
func (e *Engine) Sweep(ctx context.Context, g Grid) ([]Artifact, error) {
	return experiments.RunSweep(ctx, e.runner, e.resolveGrid(g), e.tech)
}

// Cell is one fully-resolved sweep grid point: a policy evaluated at one
// technology point and FU count over a fixed benchmark set. Cell.Key()
// returns a stable configuration hash, so services can dedupe identical
// cells and serve them from a result store; Cell.SimKey() names the
// simulation a cell shares with others, so a service routes those cells to
// one worker.
type Cell = experiments.Cell

// CellResult is one completed sweep cell: its identity plus the
// suite-averaged relative energy and leakage fraction.
type CellResult = experiments.CellResult

// EngineStats snapshots the engine's simulation accounting: completed
// pipeline simulations, cache hits, and joins onto identical in-flight
// runs. Its HitRate method folds the hits into a single utilization figure.
type EngineStats = experiments.RunnerStats

// Cells expands a grid into its ordered cell list after resolving zero
// values against the engine's defaults, without running anything. The order
// matches Sweep's row order and CellResult.Index.
func (e *Engine) Cells(g Grid) []Cell {
	return e.resolveGrid(g).Cells(e.tech)
}

// resolveGrid fills a grid's zero-valued scale and technology fields from
// the engine's defaults.
func (e *Engine) resolveGrid(g Grid) Grid {
	if g.Window == 0 {
		g.Window = e.window
	}
	if g.ClassTechs == nil {
		g.ClassTechs = e.ClassTechs()
	}
	return g
}

// RunCell evaluates one sweep cell against the engine's shared simulation
// cache: the cell's benchmark suite is simulated (or re-used) at its FU
// count, then the closed-form energy model is applied at its technology ×
// policy point. The returned result's Index is zero; grid enumerators set
// it. Identical cells are deduplicated through the cache, so re-running a
// cell is a map lookup.
func (e *Engine) RunCell(ctx context.Context, c Cell) (CellResult, error) {
	out, err := experiments.EvalCells(ctx, e.runner, []Cell{e.resolveCell(c)})
	if err != nil {
		return CellResult{}, err
	}
	return out[0], nil
}

// RunCells evaluates a batch of sweep cells with shared-pass batching:
// cells that share a simulation identity (benchmark set, FU mix, L2
// latency, window) simulate once, and their policy/technology variants are
// evaluated closed-form off the recorded idle-interval profiles. Per-cell
// results are identical to calling RunCell on each cell; results return in
// input order. This is the evaluation path Optimize uses for each tuner
// round.
func (e *Engine) RunCells(ctx context.Context, cells []Cell) ([]CellResult, error) {
	resolved := make([]Cell, len(cells))
	for i, c := range cells {
		resolved[i] = e.resolveCell(c)
	}
	return experiments.EvalCells(ctx, e.runner, resolved)
}

// resolveCell fills a cell's zero-valued window and class-technology fields
// from the engine's defaults.
func (e *Engine) resolveCell(c Cell) Cell {
	if c.Window == 0 {
		c.Window = e.window
	}
	if c.ClassTechs == nil {
		c.ClassTechs = e.ClassTechs()
	}
	return c
}

// SweepStream evaluates a grid cell by cell, invoking fn with each
// completed CellResult in grid order — the incremental form of Sweep, for
// callers (services, progress UIs, partial-output flushing) that need
// results as they complete rather than one artifact at the end. Evaluation
// stops at the first cell error or the first non-nil error from fn.
func (e *Engine) SweepStream(ctx context.Context, g Grid, fn func(CellResult) error) error {
	return experiments.RunSweepStream(ctx, e.runner, e.resolveGrid(g), e.tech, fn)
}

// Stats returns a snapshot of the engine's simulation accounting. Services
// expose it as their cache-utilization metric.
func (e *Engine) Stats() EngineStats { return e.runner.Stats() }

// NewSweepTable returns the empty standard sweep result table for a grid —
// the same table Sweep produces — so SweepStream consumers can accumulate
// partial results in the canonical format.
func (e *Engine) NewSweepTable(g Grid) *Table {
	return experiments.SweepTable(e.resolveGrid(g), e.tech)
}

// NewClassSweepTable returns the empty per-class companion table of a
// class-aware sweep; fill it with AddClassRows.
func (e *Engine) NewClassSweepTable(g Grid) *Table {
	return experiments.ClassSweepTable(e.resolveGrid(g), e.tech)
}

// AddSweepRow appends one completed cell to a sweep table in Sweep's row
// format.
func AddSweepRow(t *Table, res CellResult) { experiments.AddSweepRow(t, res) }

// AddClassRows appends one completed cell's per-class breakdown to a
// per-class sweep table (one row per studied class).
func AddClassRows(t *Table, res CellResult) { experiments.AddClassRows(t, res) }
