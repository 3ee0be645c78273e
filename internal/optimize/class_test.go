package optimize

import (
	"context"
	"math"
	"testing"

	"github.com/archsim/fusleep/internal/core"
	"github.com/archsim/fusleep/internal/experiments"
	"github.com/archsim/fusleep/internal/fu"
)

// classSynthEnergy is a closed-form per-class landscape with different
// optima per class: the IntALU class wants GradualSleep near K=16, the
// FPALU class wants SleepTimeout near T=32, and leaving either class at the
// AlwaysActive baseline costs 1.0. A composed assignment is therefore
// strictly better than any single-class deviation, which is exactly what
// the composition round must find.
func classSynthEnergy(cl fu.Class, pc core.PolicyConfig) float64 {
	gradual := func(k int, opt float64, floor float64) float64 {
		d := math.Log2(float64(k)) - math.Log2(opt)
		return floor + 0.02*d*d
	}
	switch cl {
	case fu.IntALU:
		switch pc.Policy {
		case core.GradualSleep:
			return gradual(max(pc.Slices, 1), 16, 0.30)
		case core.SleepTimeout:
			return gradual(max(pc.Timeout, 1), 16, 0.45)
		case core.MaxSleep:
			return 0.80
		default:
			return 1.0
		}
	default: // FPALU in these tests
		switch pc.Policy {
		case core.SleepTimeout:
			return gradual(max(pc.Timeout, 1), 32, 0.40)
		case core.GradualSleep:
			return gradual(max(pc.Slices, 1), 32, 0.55)
		case core.MaxSleep:
			return 0.75
		default:
			return 1.0
		}
	}
}

func classSynthEvaluator() BatchEvaluator {
	return batchOf(func(ctx context.Context, c experiments.Cell) (experiments.CellResult, error) {
		if err := ctx.Err(); err != nil {
			return experiments.CellResult{}, err
		}
		var rel float64
		classes := c.StudiedClasses()
		for _, cl := range classes {
			rel += classSynthEnergy(cl, c.PolicyFor(cl))
		}
		rel /= float64(len(classes))
		return experiments.CellResult{Cell: c, RelEnergy: rel, LeakageFraction: 0.4, MeanCycles: 1000}, nil
	})
}

func classSpace() Space {
	return Space{
		Policies:     []core.Policy{core.AlwaysActive, core.MaxSleep, core.GradualSleep, core.SleepTimeout},
		TimeoutRange: [2]int{1, 256},
		SlicesRange:  [2]int{1, 128},
		FUCounts:     []int{4},
		Classes:      []fu.Class{fu.IntALU, fu.FPALU},
		Benchmarks:   []string{"gcc"},
	}
}

// TestClassSearchComposesPerClassBest drives the widened driver end to
// end: per-class candidates probe each class's axis, and the composition
// round assembles the heterogeneous assignment that beats every
// single-class deviation.
func TestClassSearchComposesPerClassBest(t *testing.T) {
	var probes []Probe
	res, err := Run(context.Background(), Config{
		Space: classSpace(), BatchEval: classSynthEvaluator(), MaxEvals: 96,
	}, func(p Probe) error { probes = append(probes, p); return nil })
	if err != nil {
		t.Fatal(err)
	}
	best := res.Best
	if len(best.Cell.Assignment) != 2 {
		t.Fatalf("best is not a composed assignment: %s", best.Label())
	}
	intPC, _ := best.Cell.Assignment.For(fu.IntALU)
	fpPC, _ := best.Cell.Assignment.For(fu.FPALU)
	if intPC.Policy != core.GradualSleep {
		t.Errorf("IntALU best policy = %v, want GradualSleep", intPC)
	}
	if fpPC.Policy != core.SleepTimeout {
		t.Errorf("FPALU best policy = %v, want SleepTimeout", fpPC)
	}
	// The composed score beats the best single-class deviation: one class
	// at its floor, the other at the 1.0 baseline, averaged.
	singleBest := (0.30 + 1.0) / 2
	if !(best.Score < singleBest) {
		t.Errorf("composed score %.4f did not beat the single-deviation bound %.4f", best.Score, singleBest)
	}
	// The floor of the composed landscape is (0.30 + 0.40) / 2 = 0.35;
	// refinement should land within a few percent of it.
	if best.Score > 0.35*1.05 {
		t.Errorf("composed score %.4f misses the landscape floor 0.35 by more than 5%%", best.Score)
	}
	// The composition probe is observed in the final round.
	last := probes[len(probes)-1]
	if len(last.Point.Cell.Assignment) != 2 || last.Round != res.Rounds-1 {
		t.Errorf("composition probe not streamed last: %+v", last)
	}
}

// TestClassSearchDeterministic re-runs the class-wide search and asserts
// the probe sequence and result are identical.
func TestClassSearchDeterministic(t *testing.T) {
	runOnce := func() Result {
		res, err := Run(context.Background(), Config{
			Space: classSpace(), BatchEval: classSynthEvaluator(), MaxEvals: 64,
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := runOnce(), runOnce()
	if a.Best.Cell.Key() != b.Best.Cell.Key() || a.Best.Score != b.Best.Score {
		t.Errorf("best diverged: %s (%.6f) vs %s (%.6f)", a.Best.Label(), a.Best.Score, b.Best.Label(), b.Best.Score)
	}
	if a.Evals != b.Evals || a.Probes != b.Probes || a.Rounds != b.Rounds {
		t.Errorf("accounting diverged: %+v vs %+v", a, b)
	}
}

// TestClassSpaceValidate covers the widened validation surface.
func TestClassSpaceValidate(t *testing.T) {
	sp := classSpace().WithDefaults(core.DefaultTech(), 1000)
	if err := sp.Validate(); err != nil {
		t.Fatalf("valid class space rejected: %v", err)
	}
	bad := sp
	bad.Classes = []fu.Class{fu.AGU}
	if err := bad.Validate(); err == nil {
		t.Error("AGU class without a dedicated pool accepted")
	}
	bad.AGUs = 2
	if err := bad.Validate(); err != nil {
		t.Errorf("AGU class with a dedicated pool rejected: %v", err)
	}
	bad = sp
	bad.Classes = []fu.Class{fu.IntALU, fu.IntALU}
	if err := bad.Validate(); err == nil {
		t.Error("duplicate class accepted")
	}
	bad = sp
	bad.Mults = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative unit count accepted")
	}
}
