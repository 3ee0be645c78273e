package optimize

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"github.com/archsim/fusleep/internal/core"
	"github.com/archsim/fusleep/internal/experiments"
)

func pt(delay, energy float64) Point { return Point{Delay: delay, Energy: energy} }

func TestFrontierDominance(t *testing.T) {
	var f Frontier
	if !f.Add(pt(1.0, 0.8)) {
		t.Fatal("first point rejected")
	}
	if f.Add(pt(1.1, 0.9)) {
		t.Error("dominated point (slower and hungrier) accepted")
	}
	if f.Add(pt(1.0, 0.8)) {
		t.Error("exact duplicate accepted")
	}
	if !f.Add(pt(1.5, 0.5)) {
		t.Error("trade-off point rejected")
	}
	if !f.Add(pt(0.9, 0.95)) {
		t.Error("faster point rejected")
	}
	if f.Len() != 3 {
		t.Fatalf("frontier size = %d, want 3", f.Len())
	}
	// A point dominating the middle evicts it but keeps the ends.
	if !f.Add(pt(0.95, 0.7)) {
		t.Error("dominating point rejected")
	}
	pts := f.Points()
	if len(pts) != 3 {
		t.Fatalf("after eviction size = %d, want 3 (%v)", len(pts), pts)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Delay <= pts[i-1].Delay || pts[i].Energy >= pts[i-1].Energy {
			t.Errorf("frontier invariant broken at %d: %v", i, pts)
		}
	}
	// Equal delay, lower energy replaces.
	before := f.Len()
	if !f.Add(pt(1.5, 0.4)) {
		t.Error("equal-delay improvement rejected")
	}
	if f.Len() != before {
		t.Errorf("equal-delay improvement changed size: %d -> %d", before, f.Len())
	}
}

func TestLogSpacedInts(t *testing.T) {
	got := logSpacedInts(1, 256, 5)
	want := []int{1, 4, 16, 64, 256}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("logSpacedInts(1,256,5) = %v, want %v", got, want)
	}
	if got := logSpacedInts(3, 3, 5); !reflect.DeepEqual(got, []int{3}) {
		t.Errorf("degenerate range = %v", got)
	}
	got = logSpacedInts(1, 4, 8) // more points than integers: dedupe, keep ends
	if got[0] != 1 || got[len(got)-1] != 4 {
		t.Errorf("endpoints missing: %v", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Errorf("not strictly ascending: %v", got)
		}
	}
}

func TestObjectiveScoringAndParse(t *testing.T) {
	p := Point{Energy: 0.5, Delay: 2, LeakEnergy: 0.1}
	if s := (Objective{}).score(p); s != 1.0 {
		t.Errorf("default ED score = %g, want 1", s)
	}
	if s := (Objective{Kind: KindED2}).score(p); s != 2.0 {
		t.Errorf("ED2 score = %g, want 2", s)
	}
	if s := (Objective{Kind: KindLeakage}).score(p); s != 0.1 {
		t.Errorf("leakage score = %g, want 0.1", s)
	}
	if !(Objective{}).feasible(p) {
		t.Error("uncapped objective infeasible")
	}
	if (Objective{SlowdownCap: 1.5}).feasible(p) {
		t.Error("cap 1.5 accepted delay 2")
	}
	for _, name := range []string{"ed", "ED", "Ed2", "LEAKAGE"} {
		if _, err := ParseKind(name); err != nil {
			t.Errorf("ParseKind(%q): %v", name, err)
		}
	}
	if _, err := ParseKind("speed"); err == nil {
		t.Error("unknown kind parsed")
	}
	if err := (Objective{Kind: "bogus"}).Validate(); err == nil {
		t.Error("bogus kind validated")
	}
	if err := (Objective{SlowdownCap: -1}).Validate(); err == nil {
		t.Error("negative cap validated")
	}
}

// synthEnergy is the synthetic landscape: a V shape in log-parameter space
// with a known optimum per policy, scaled by the FU count so fewer units
// mean less energy but more delay.
func synthEnergy(pc core.PolicyConfig, fus int) float64 {
	var base float64
	switch pc.Policy {
	case core.SleepTimeout:
		d := math.Log2(float64(pc.Timeout)) - math.Log2(37)
		base = 0.50 + 0.02*d*d
	case core.GradualSleep:
		d := math.Log2(float64(pc.Slices)) - math.Log2(16)
		base = 0.60 + 0.02*d*d
	case core.MaxSleep:
		base = 0.90
	default: // AlwaysActive
		base = 1.00
	}
	return base * float64(fus) / 4
}

func synthCycles(fus int) float64 {
	if fus == 2 {
		return 1800
	}
	return 1000
}

// batchOf lifts a per-cell scorer into a BatchEvaluator that scores a
// round's cells one at a time in input order, stopping at the first error.
func batchOf(eval func(context.Context, experiments.Cell) (experiments.CellResult, error)) BatchEvaluator {
	return func(ctx context.Context, cells []experiments.Cell) ([]experiments.CellResult, error) {
		results := make([]experiments.CellResult, len(cells))
		for i, c := range cells {
			res, err := eval(ctx, c)
			if err != nil {
				return nil, err
			}
			results[i] = res
		}
		return results, nil
	}
}

// synthEvaluator scores cells from the closed-form landscape, recording
// every key so tests can assert dedupe and budget behavior.
func synthEvaluator(t *testing.T) (BatchEvaluator, *sync.Map) {
	var seen sync.Map
	return batchOf(func(ctx context.Context, c experiments.Cell) (experiments.CellResult, error) {
		if err := ctx.Err(); err != nil {
			return experiments.CellResult{}, err
		}
		if _, dup := seen.LoadOrStore(c.Key(), true); dup {
			t.Errorf("cell %s evaluated twice", c.Key())
		}
		return experiments.CellResult{
			Cell:            c,
			RelEnergy:       synthEnergy(c.Policy, c.FUs),
			LeakageFraction: 0.4,
			MeanCycles:      synthCycles(c.FUs),
		}, nil
	}), &seen
}

func synthSpace() Space {
	return Space{
		Policies:     []core.Policy{core.AlwaysActive, core.MaxSleep, core.GradualSleep, core.SleepTimeout},
		TimeoutRange: [2]int{1, 256},
		SlicesRange:  [2]int{1, 128},
		FUCounts:     []int{2, 4},
		Benchmarks:   []string{"gcc"},
	}
}

// exhaustiveBestED scans the full integer grid of the synthetic landscape.
func exhaustiveBestED(sp Space) float64 {
	best := math.Inf(1)
	ref := math.Min(synthCycles(2), synthCycles(4))
	for _, fus := range sp.FUCounts {
		delay := synthCycles(fus) / ref
		check := func(pc core.PolicyConfig) {
			if ed := synthEnergy(pc, fus) * delay; ed < best {
				best = ed
			}
		}
		check(core.PolicyConfig{Policy: core.AlwaysActive})
		check(core.PolicyConfig{Policy: core.MaxSleep})
		for T := sp.TimeoutRange[0]; T <= sp.TimeoutRange[1]; T++ {
			check(core.PolicyConfig{Policy: core.SleepTimeout, Timeout: T})
		}
		for k := sp.SlicesRange[0]; k <= sp.SlicesRange[1]; k++ {
			check(core.PolicyConfig{Policy: core.GradualSleep, Slices: k})
		}
	}
	return best
}

func TestRunConvergesWithinBudget(t *testing.T) {
	eval, _ := synthEvaluator(t)
	sp := synthSpace()
	var probes []Probe
	res, err := Run(context.Background(), Config{Space: sp, BatchEval: eval, MaxEvals: 48},
		func(p Probe) error { probes = append(probes, p); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if res.Evals > 48 {
		t.Errorf("evals = %d exceeds budget 48", res.Evals)
	}
	if res.Probes != len(probes) || res.Probes != res.Evals {
		t.Errorf("probes = %d, observed %d, evals %d", res.Probes, len(probes), res.Evals)
	}
	gridBest := exhaustiveBestED(sp)
	if res.Best.Score > gridBest*1.02 {
		t.Errorf("best score %.6f not within 2%% of exhaustive optimum %.6f", res.Best.Score, gridBest)
	}
	// The synthetic optimum is SleepTimeout near T=37 at 2 FUs.
	if res.Best.Cell.Policy.Policy != core.SleepTimeout || res.Best.Cell.FUs != 2 {
		t.Errorf("best = %s", res.Best.Label())
	}
	// Two distinct delays -> a two-point frontier.
	if len(res.Frontier) != 2 {
		t.Errorf("frontier size = %d, want 2: %+v", len(res.Frontier), res.Frontier)
	}
	if res.RefCycles != 1000 {
		t.Errorf("refCycles = %g, want 1000", res.RefCycles)
	}
	if res.Summary.ScoreP50 <= 0 || res.Summary.FrontierEnergyP50 <= 0 {
		t.Errorf("summary not populated: %+v", res.Summary)
	}
}

func TestRunDeterministic(t *testing.T) {
	run := func() (Result, []Probe) {
		eval, _ := synthEvaluator(t)
		var probes []Probe
		res, err := Run(context.Background(), Config{Space: synthSpace(), BatchEval: eval, MaxEvals: 40},
			func(p Probe) error { probes = append(probes, p); return nil })
		if err != nil {
			t.Fatal(err)
		}
		return res, probes
	}
	a, pa := run()
	b, pb := run()
	if a.Best.Cell.Key() != b.Best.Cell.Key() || a.Best.Score != b.Best.Score {
		t.Errorf("best differs across runs: %s/%.9f vs %s/%.9f",
			a.Best.Label(), a.Best.Score, b.Best.Label(), b.Best.Score)
	}
	if len(pa) != len(pb) {
		t.Fatalf("probe counts differ: %d vs %d", len(pa), len(pb))
	}
	for i := range pa {
		if pa[i].Point.Cell.Key() != pb[i].Point.Cell.Key() || pa[i].Round != pb[i].Round {
			t.Fatalf("probe %d differs: %+v vs %+v", i, pa[i], pb[i])
		}
	}
}

func TestRunSlowdownCap(t *testing.T) {
	eval, _ := synthEvaluator(t)
	res, err := Run(context.Background(), Config{
		Space:     synthSpace(),
		Objective: Objective{Kind: KindLeakage, SlowdownCap: 1.0},
		BatchEval: eval, MaxEvals: 48,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 2 FUs means delay 1.8: infeasible under the cap, so the best point
	// must be a 4-FU configuration.
	if !res.Best.Feasible || res.Best.Cell.FUs != 4 {
		t.Errorf("best = %s feasible=%v, want a feasible 4-FU point", res.Best.Label(), res.Best.Feasible)
	}
}

func TestRunPropagatesEvalError(t *testing.T) {
	boom := errors.New("boom")
	n := 0
	eval := func(ctx context.Context, c experiments.Cell) (experiments.CellResult, error) {
		n++
		if n > 3 {
			return experiments.CellResult{}, boom
		}
		return experiments.CellResult{Cell: c, RelEnergy: 1, MeanCycles: 1000}, nil
	}
	if _, err := Run(context.Background(), Config{Space: synthSpace(), BatchEval: batchOf(eval)}, nil); !errors.Is(err, boom) {
		t.Errorf("err = %v, want boom", err)
	}
}

func TestRunObserverAborts(t *testing.T) {
	eval, _ := synthEvaluator(t)
	stop := errors.New("stop")
	_, err := Run(context.Background(), Config{Space: synthSpace(), BatchEval: eval},
		func(p Probe) error { return stop })
	if !errors.Is(err, stop) {
		t.Errorf("err = %v, want stop", err)
	}
}

func TestRunHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eval := func(ctx context.Context, c experiments.Cell) (experiments.CellResult, error) {
		return experiments.CellResult{}, ctx.Err()
	}
	if _, err := Run(ctx, Config{Space: synthSpace(), BatchEval: batchOf(eval)}, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestRunRequiresEvaluator(t *testing.T) {
	if _, err := Run(context.Background(), Config{Space: synthSpace()}, nil); err == nil {
		t.Error("nil evaluator accepted")
	}
}

func TestSpaceValidate(t *testing.T) {
	bad := []Space{
		{TimeoutRange: [2]int{0, 10}},
		{TimeoutRange: [2]int{10, 2}},
		{SlicesRange: [2]int{-1, 4}},
		{Benchmarks: []string{"nosuch"}},
		{Alpha: 2},
		{Techs: []core.Tech{{P: -1}}},
	}
	for i, s := range bad {
		if err := s.WithDefaults(core.DefaultTech(), 1000).Validate(); err == nil {
			t.Errorf("bad space %d validated", i)
		}
	}
	if err := (Space{}).WithDefaults(core.DefaultTech(), 1000).Validate(); err != nil {
		t.Errorf("default space invalid: %v", err)
	}
}

func TestResultArtifacts(t *testing.T) {
	eval, _ := synthEvaluator(t)
	res, err := Run(context.Background(), Config{Space: synthSpace(), BatchEval: eval, MaxEvals: 32}, nil)
	if err != nil {
		t.Fatal(err)
	}
	arts := res.Artifacts()
	if len(arts) != 3 {
		t.Fatalf("artifacts = %d, want 3", len(arts))
	}
	ids := fmt.Sprintf("%s %s %s", arts[0].ID, arts[1].ID, arts[2].ID)
	if ids != "tune-best tune-frontier tune-frontier-curve" {
		t.Errorf("artifact ids = %s", ids)
	}
	if got := len(arts[1].Table.Rows); got != len(res.Frontier) {
		t.Errorf("frontier table rows = %d, want %d", got, len(res.Frontier))
	}
}
