package optimize

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"github.com/archsim/fusleep/internal/core"
	"github.com/archsim/fusleep/internal/experiments"
	"github.com/archsim/fusleep/internal/stats"
)

// Evaluator scores one candidate cell. The engine supplies its cached cell
// runner (experiments.EvalCells through the shared simulation cache); the
// sweep service supplies an evaluator that routes through its cell
// dispatch path. Evaluators must be deterministic for the tuner to be.
type Evaluator func(ctx context.Context, c experiments.Cell) (experiments.CellResult, error)

// BatchEvaluator scores one round's candidate cells in a single call,
// returning results in input order. A batch evaluator sees the whole round
// at once, so it can simulate each (workload, FU-mix) group exactly once
// and evaluate the policy/tech variants closed-form off the recorded
// profiles (experiments.EvalCells). It must be deterministic and must
// produce exactly the results the per-cell Evaluator would.
type BatchEvaluator func(ctx context.Context, cells []experiments.Cell) ([]experiments.CellResult, error)

// Config parameterizes one tuner run.
type Config struct {
	// Space is the search domain; zero-valued fields resolve to defaults.
	Space Space
	// Objective scores candidates (default: minimize E·D).
	Objective Objective
	// MaxEvals bounds the number of distinct cells evaluated (default 64).
	MaxEvals int
	// Rounds bounds the refinement rounds after the seed round (default 4).
	Rounds int
	// Eta is the successive-halving keep divisor: each round the top
	// ceil(n/Eta) candidates survive into refinement (default 3).
	Eta int
	// InitialPoints is the number of log-spaced seed points per refinable
	// parameter axis (default 5).
	InitialPoints int
	// Parallel bounds concurrent candidate evaluations within a round
	// (default 4).
	Parallel int
	// Eval evaluates candidates one at a time. Required unless BatchEval
	// is set.
	Eval Evaluator
	// BatchEval, when set, evaluates whole rounds in one call and takes
	// precedence over Eval; Parallel then bounds nothing the tuner controls
	// (the batch evaluator schedules its own simulations).
	BatchEval BatchEvaluator
}

// withDefaults resolves the scalar knobs. Space and Objective defaults are
// resolved separately in Run, so callers can pre-resolve Space against an
// engine's technology and window.
func (cfg Config) withDefaults() Config {
	if cfg.MaxEvals <= 0 {
		cfg.MaxEvals = 64
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 4
	}
	if cfg.Eta < 2 {
		cfg.Eta = 3
	}
	if cfg.InitialPoints <= 0 {
		cfg.InitialPoints = 5
	}
	if cfg.Parallel <= 0 {
		cfg.Parallel = 4
	}
	return cfg
}

// Probe is one evaluated candidate in the tuner's trace, in evaluation
// order.
type Probe struct {
	// Seq is the probe's position in the run (0-based).
	Seq int `json:"seq"`
	// Round is the search round that issued the probe (0 = seed round).
	Round int `json:"round"`
	// Point is the evaluated configuration with its metrics and score.
	Point Point `json:"point"`
	// Accepted reports that the point joined the Pareto frontier when it
	// was evaluated (it may be evicted by later probes).
	Accepted bool `json:"accepted"`
	// Improved reports that the point became the objective's new incumbent.
	Improved bool `json:"improved"`
}

// Summary condenses a run's trace for reports: probe-score and
// delay-weighted frontier-energy quantiles.
type Summary struct {
	// ScoreP50 and ScoreP90 are quantiles of the objective score over every
	// probe issued.
	ScoreP50 float64 `json:"scoreP50"`
	ScoreP90 float64 `json:"scoreP90"`
	// FrontierEnergyP50 and FrontierEnergyP90 are frontier-energy
	// quantiles weighted by the delay span each frontier point covers.
	FrontierEnergyP50 float64 `json:"frontierEnergyP50"`
	FrontierEnergyP90 float64 `json:"frontierEnergyP90"`
}

// Result is a completed tuner run.
type Result struct {
	// Objective and Space echo the resolved run parameters.
	Objective Objective `json:"objective"`
	Space     Space     `json:"-"`
	// Best is the top-ranked point: the best-scoring feasible point, or the
	// best-scoring point overall when nothing satisfied the slowdown cap
	// (check Best.Feasible).
	Best Point `json:"best"`
	// Frontier is the non-dominated (delay, energy) set, ascending delay.
	Frontier []Point `json:"frontier"`
	// Evals counts distinct cells evaluated; Probes counts trace entries
	// (equal to Evals — duplicates are skipped before evaluation).
	Evals  int `json:"evals"`
	Probes int `json:"probes"`
	// Rounds is the number of rounds actually run (seed round included).
	Rounds int `json:"rounds"`
	// RefCycles is the delay normalization: the minimum mean cycle count
	// among the AlwaysActive reference baselines.
	RefCycles float64 `json:"refCycles"`
	// Summary condenses the trace for frontier reports.
	Summary Summary `json:"summary"`
}

// Run executes the search: seed the candidate grid, evaluate in bounded
// parallel, rank, keep the top 1/Eta, refine their parameter neighborhoods
// by geometric bisection, and repeat until the budget, the round limit, or
// the refinement fixpoint stops it. observe (optional) receives every probe
// in deterministic evaluation order; a non-nil error from it aborts the run.
func Run(ctx context.Context, cfg Config, observe func(Probe) error) (Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Eval == nil && cfg.BatchEval == nil {
		return Result{}, fmt.Errorf("optimize: Config.Eval or Config.BatchEval is required")
	}
	sp := cfg.Space.WithDefaults(core.DefaultTech(), experiments.DefaultOptions().Window)
	if err := sp.Validate(); err != nil {
		return Result{}, err
	}
	obj := cfg.Objective.withDefaults()
	if err := obj.Validate(); err != nil {
		return Result{}, err
	}

	var (
		evaluated = make(map[string]bool)  // cell key -> probed
		probed    = make(map[family][]int) // sorted probed params per refinable family
		frontier  Frontier
		best      Point
		haveBest  bool
		scores    []float64
		refCycles float64
		seq       int
		rounds    int
	)

	// slotBest tracks the best policy found per (tech, FU, class) slot, the
	// raw material of the composition round in a class-wide search.
	type slotKey struct{ techIdx, fuIdx, classIdx int }
	type slotPick struct {
		pc core.PolicyConfig
		pt Point
		ok bool
	}
	slots := make(map[slotKey]slotPick)

	markProbed := func(fam family, v int) {
		if _, refinable := sp.paramRange(fam.policy); !refinable {
			return
		}
		vs := probed[fam]
		i := sort.SearchInts(vs, v)
		if i < len(vs) && vs[i] == v {
			return
		}
		vs = append(vs, 0)
		copy(vs[i+1:], vs[i:])
		vs[i] = v
		probed[fam] = vs
	}

	current := dedupeCandidates(sp, append(sp.references(), sp.seeds(cfg.InitialPoints)...), evaluated)
	for round := 0; len(current) > 0; round++ {
		remaining := cfg.MaxEvals - len(evaluated)
		if remaining <= 0 {
			break
		}
		if len(current) > remaining {
			current = current[:remaining]
		}
		cells := make([]experiments.Cell, len(current))
		for i, c := range current {
			cells[i] = sp.cell(c.fam, c.param)
			evaluated[cells[i].Key()] = true
		}
		results, err := evalBatch(ctx, cfg, cells)
		if err != nil {
			return Result{}, err
		}
		rounds = round + 1
		if round == 0 {
			refCycles = math.Inf(1)
			for _, res := range results {
				refCycles = math.Min(refCycles, res.MeanCycles)
			}
		}
		points := make([]Point, len(results))
		for i, res := range results {
			p := obj.point(res, refCycles)
			points[i] = p
			accepted := frontier.Add(p)
			improved := !haveBest || better(p, best)
			if improved {
				best, haveBest = p, true
			}
			markProbed(current[i].fam, current[i].param)
			// An AlwaysActive candidate is the all-baseline machine whatever
			// class it nominally belongs to (it is seeded once, not per
			// class), so it competes for every class's slot; other policies
			// compete only for their own class.
			pc := policyConfig(current[i].fam.policy, current[i].param)
			slotClasses := []int{current[i].fam.classIdx}
			if len(sp.Classes) > 0 && current[i].fam.policy == core.AlwaysActive {
				slotClasses = slotClasses[:0]
				for ci := range sp.Classes {
					slotClasses = append(slotClasses, ci)
				}
			}
			for _, ci := range slotClasses {
				sk := slotKey{current[i].fam.techIdx, current[i].fam.fuIdx, ci}
				if cur := slots[sk]; !cur.ok || better(p, cur.pt) {
					slots[sk] = slotPick{pc: pc, pt: p, ok: true}
				}
			}
			scores = append(scores, p.Score)
			if observe != nil {
				if err := observe(Probe{Seq: seq, Round: round, Point: p, Accepted: accepted, Improved: improved}); err != nil {
					return Result{}, err
				}
			}
			seq++
		}
		if round >= cfg.Rounds {
			break
		}
		current = refine(sp, current, points, probed, evaluated, cfg.Eta)
	}
	if !haveBest {
		return Result{}, fmt.Errorf("optimize: no candidates evaluated (budget %d)", cfg.MaxEvals)
	}

	// Composition round: in a class-wide search, combine each class's best
	// policy per machine coordinate into one full assignment and evaluate
	// it — the heterogeneous mix the per-class probing was for. Runs under
	// the same budget and streams through observe like any other round.
	if len(sp.Classes) > 1 {
		var composedCells []experiments.Cell
		for ti := range sp.Techs {
			for fi := range sp.FUCounts {
				a := make(core.Assignment, len(sp.Classes))
				complete := true
				for ci, cl := range sp.Classes {
					pick, ok := slots[slotKey{ti, fi, ci}]
					if !ok {
						complete = false
						break
					}
					a[cl] = pick.pc
				}
				if !complete {
					continue
				}
				c := sp.composed(ti, fi, a)
				if key := c.Key(); !evaluated[key] && len(evaluated) < cfg.MaxEvals {
					evaluated[key] = true
					composedCells = append(composedCells, c)
				}
			}
		}
		if len(composedCells) > 0 {
			results, err := evalBatch(ctx, cfg, composedCells)
			if err != nil {
				return Result{}, err
			}
			for _, res := range results {
				p := obj.point(res, refCycles)
				accepted := frontier.Add(p)
				improved := better(p, best)
				if improved {
					best = p
				}
				scores = append(scores, p.Score)
				if observe != nil {
					if err := observe(Probe{Seq: seq, Round: rounds, Point: p, Accepted: accepted, Improved: improved}); err != nil {
						return Result{}, err
					}
				}
				seq++
			}
			rounds++
		}
	}

	res := Result{
		Objective: obj,
		Space:     sp,
		Best:      best,
		Frontier:  frontier.Points(),
		Evals:     len(evaluated),
		Probes:    seq,
		Rounds:    rounds,
		RefCycles: refCycles,
	}
	res.Summary = summarize(scores, res.Frontier)
	return res, nil
}

// evalBatch evaluates one round's cells and returns their results in input
// order. With a BatchEvaluator configured the whole round goes down in one
// call — shared-pass batching decides how to schedule its simulations —
// otherwise the cells are evaluated concurrently (bounded by cfg.Parallel)
// through the per-cell Evaluator; the first error in input order wins and
// cancels the rest.
func evalBatch(ctx context.Context, cfg Config, cells []experiments.Cell) ([]experiments.CellResult, error) {
	if cfg.BatchEval != nil {
		results, err := cfg.BatchEval(ctx, cells)
		if err != nil {
			return nil, fmt.Errorf("optimize: %w", err)
		}
		if len(results) != len(cells) {
			return nil, fmt.Errorf("optimize: batch evaluator returned %d results for %d cells", len(results), len(cells))
		}
		return results, nil
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make([]experiments.CellResult, len(cells))
	errs := make([]error, len(cells))
	sem := make(chan struct{}, cfg.Parallel)
	var wg sync.WaitGroup
	for i := range cells {
		wg.Add(1)
		go func(i int, cell experiments.Cell) {
			defer wg.Done()
			//fusleepvet:nondet-ok semaphore-vs-cancel race: results land at fixed indices and the first error in input order wins regardless of arrival
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
			case <-ctx.Done():
				errs[i] = ctx.Err()
				return
			}
			results[i], errs[i] = cfg.Eval(ctx, cell)
			if errs[i] != nil {
				cancel()
			}
		}(i, cells[i])
	}
	wg.Wait()
	// A real evaluation error cancels the rest of the batch, so sibling
	// candidates settle with context errors; report the real cause.
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			return nil, fmt.Errorf("optimize: %w", err)
		}
		if first == nil {
			first = err
		}
	}
	if first != nil {
		return nil, first
	}
	return results, nil
}

// refine ranks the round's candidates (feasible first, then ascending
// score, ties by probe order) and returns the next round's candidates: for
// each of the top ceil(n/Eta) survivors with a refinable axis, the
// geometric midpoints between its parameter and the nearest already-probed
// values on each side.
func refine(sp Space, cands []candidate, points []Point, probed map[family][]int, evaluated map[string]bool, eta int) []candidate {
	order := make([]int, len(cands))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return better(points[order[a]], points[order[b]]) })
	keep := (len(order) + eta - 1) / eta

	var next []candidate
	pending := make(map[string]bool)
	for _, idx := range order[:keep] {
		c := cands[idx]
		if _, refinable := sp.paramRange(c.fam.policy); !refinable {
			continue
		}
		vs := probed[c.fam]
		pos := sort.SearchInts(vs, c.param)
		for _, side := range [2]int{pos - 1, pos + 1} {
			if side < 0 || side >= len(vs) {
				continue
			}
			mid := geomMid(c.param, vs[side])
			if mid == c.param || mid == vs[side] {
				continue
			}
			key := sp.cell(c.fam, mid).Key()
			if evaluated[key] || pending[key] {
				continue
			}
			pending[key] = true
			next = append(next, candidate{fam: c.fam, param: mid})
		}
	}
	return next
}

// dedupeCandidates drops candidates whose cell already appeared earlier in
// the list or was evaluated in a previous round, preserving order.
func dedupeCandidates(sp Space, cands []candidate, evaluated map[string]bool) []candidate {
	seen := make(map[string]bool, len(cands))
	out := cands[:0:0]
	for _, c := range cands {
		key := sp.cell(c.fam, c.param).Key()
		if seen[key] || evaluated[key] {
			continue
		}
		seen[key] = true
		out = append(out, c)
	}
	return out
}

// summarize condenses the trace: probe-score quantiles plus frontier-energy
// quantiles weighted by the delay span each frontier point covers (its gap
// to the next-slower point; the slowest point gets the mean gap, or weight
// 1 on a single-point frontier).
func summarize(scores []float64, frontier []Point) Summary {
	var s Summary
	if p, err := stats.Quantile(scores, 0.5); err == nil {
		s.ScoreP50 = p
	}
	if p, err := stats.Quantile(scores, 0.9); err == nil {
		s.ScoreP90 = p
	}
	energies := make([]float64, len(frontier))
	weights := make([]float64, len(frontier))
	var gapSum float64
	for i, p := range frontier {
		energies[i] = p.Energy
		if i < len(frontier)-1 {
			weights[i] = frontier[i+1].Delay - p.Delay
			gapSum += weights[i]
		}
	}
	if n := len(frontier); n > 0 {
		if n == 1 || gapSum == 0 {
			for i := range weights {
				weights[i] = 1
			}
		} else {
			weights[n-1] = gapSum / float64(n-1)
		}
	}
	if p, err := stats.WeightedQuantile(energies, weights, 0.5); err == nil {
		s.FrontierEnergyP50 = p
	}
	if p, err := stats.WeightedQuantile(energies, weights, 0.9); err == nil {
		s.FrontierEnergyP90 = p
	}
	return s
}
