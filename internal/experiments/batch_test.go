package experiments

import (
	"context"
	"reflect"
	"testing"

	"github.com/archsim/fusleep/internal/core"
	"github.com/archsim/fusleep/internal/fu"
)

// batchVariants builds N policy variants of one machine: same workload,
// FU mix, L2 latency, and window — only the power-management policy (and
// its parameters) differ, so every cell shares one simulation identity.
func batchVariants(t *testing.T) []Cell {
	t.Helper()
	base := Grid{Benchmarks: []string{"gcc"}, FUCounts: []int{2}}.Cells(core.DefaultTech())[0]
	base.Window = 20_000
	policies := []core.PolicyConfig{
		{Policy: core.AlwaysActive},
		{Policy: core.MaxSleep},
		{Policy: core.SleepTimeout, Timeout: 4},
		{Policy: core.SleepTimeout, Timeout: 64},
		{Policy: core.GradualSleep, Slices: 2},
		{Policy: core.GradualSleep, Slices: 8},
	}
	cells := make([]Cell, len(policies))
	for i, pc := range policies {
		c := base
		c.Policy = pc
		if err := c.Validate(); err != nil {
			t.Fatalf("variant %d invalid: %v", i, err)
		}
		cells[i] = c
	}
	return cells
}

// TestEvalCellsSharedPass is the batching acceptance proof: N policy
// variants over one (workload, FU-mix) must run exactly one simulation —
// visible in the runner's stats — while producing per-cell results
// identical to evaluating each cell as a batch of one.
func TestEvalCellsSharedPass(t *testing.T) {
	cells := batchVariants(t)
	for i := 1; i < len(cells); i++ {
		if cells[i].SimKey() != cells[0].SimKey() {
			t.Fatalf("variant %d has sim key %s, want %s", i, cells[i].SimKey(), cells[0].SimKey())
		}
		if cells[i].Key() == cells[0].Key() {
			t.Fatalf("variant %d shares full cell key with variant 0", i)
		}
	}

	ctx := context.Background()
	batched := NewRunner(Options{Window: 20_000})
	got, err := EvalCells(ctx, batched, cells)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(cells) {
		t.Fatalf("EvalCells returned %d results for %d cells", len(got), len(cells))
	}

	stats := batched.Stats()
	// One benchmark × one FU mix: exactly one pipeline simulation for all
	// six variants, no cache traffic.
	if stats.Simulations != 1 {
		t.Errorf("batched run simulated %d times for %d variants, want exactly 1", stats.Simulations, len(cells))
	}
	if stats.CacheHits != 0 || stats.InflightJoins != 0 {
		t.Errorf("batched run should not touch the result cache: %+v", stats)
	}

	// Ground truth: each variant evaluated unbatched on a fresh runner.
	for i, c := range cells {
		ref := NewRunner(Options{Window: 20_000})
		want, err := evalOne(ctx, ref, c)
		if err != nil {
			t.Fatalf("unbatched variant %d: %v", i, err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("variant %d (%v): batched result diverges from unbatched\n got %+v\nwant %+v",
				i, c.Policy, got[i], want)
		}
	}
}

// TestEvalCellsGroupsByMix drives two FU mixes through one EvalCells call:
// the runner must simulate once per mix, not once per cell, and keep
// results in input order.
func TestEvalCellsGroupsByMix(t *testing.T) {
	narrow := batchVariants(t)
	wide := batchVariants(t)
	for i := range wide {
		wide[i].FUs = 4
	}
	// Interleave the two mixes so grouping can't rely on input adjacency.
	var cells []Cell
	for i := range narrow {
		cells = append(cells, narrow[i], wide[i])
	}

	r := NewRunner(Options{Window: 20_000})
	got, err := EvalCells(context.Background(), r, cells)
	if err != nil {
		t.Fatal(err)
	}
	if stats := r.Stats(); stats.Simulations != 2 {
		t.Errorf("simulated %d times for 2 distinct FU mixes, want 2", stats.Simulations)
	}
	for i, res := range got {
		if res.Cell.Key() != cells[i].Key() {
			t.Errorf("result %d is for cell %s, want %s (input order lost)", i, res.Cell.Key(), cells[i].Key())
		}
	}
}

// evalOne evaluates a single cell as a batch of one.
func evalOne(ctx context.Context, r *Runner, c Cell) (CellResult, error) {
	out, err := EvalCells(ctx, r, []Cell{c})
	if err != nil {
		return CellResult{}, err
	}
	return out[0], nil
}

// TestSameMachineMatchesSimKey holds EvalCells' adjacent-cell shortcut to
// SimKey: two cells are the same machine exactly when their SimKeys are
// equal, for a change to each SimKey field and to each field SimKey
// leaves out.
func TestSameMachineMatchesSimKey(t *testing.T) {
	base := batchVariants(t)[0]
	base.Benchmarks = []string{"gcc", "mcf"}
	variants := map[string]func(c *Cell){
		"fus":           func(c *Cell) { c.FUs++ },
		"agus":          func(c *Cell) { c.AGUs = 2 },
		"mults":         func(c *Cell) { c.Mults = 2 },
		"fpalus":        func(c *Cell) { c.FPALUs = 2 },
		"fpmults":       func(c *Cell) { c.FPMults = 2 },
		"l2":            func(c *Cell) { c.L2Latency++ },
		"window":        func(c *Cell) { c.Window++ },
		"benchmarks":    func(c *Cell) { c.Benchmarks = []string{"gcc", "vpr"} },
		"bench order":   func(c *Cell) { c.Benchmarks = []string{"mcf", "gcc"} },
		"bench subset":  func(c *Cell) { c.Benchmarks = []string{"gcc"} },
		"policy":        func(c *Cell) { c.Policy = core.PolicyConfig{Policy: core.MaxSleep} },
		"tech":          func(c *Cell) { c.Tech.P = 0.3 },
		"alpha":         func(c *Cell) { c.Alpha = 0.75 },
		"classes":       func(c *Cell) { c.Classes = []fu.Class{fu.IntALU, fu.FPALU} },
		"assignment":    func(c *Cell) { c.Assignment = core.Assignment{fu.FPALU: {Policy: core.MaxSleep}} },
		"class techs":   func(c *Cell) { c.ClassTechs = map[fu.Class]core.Tech{fu.FPALU: core.DefaultTech()} },
		"same machine":  func(c *Cell) {},
		"copied slices": func(c *Cell) { c.Benchmarks = append([]string(nil), c.Benchmarks...) },
	}
	for name, change := range variants {
		o := base
		change(&o)
		if got, want := base.SameMachine(o), base.SimKey() == o.SimKey(); got != want {
			t.Errorf("%s: SameMachine = %v, SimKeys equal = %v", name, got, want)
		}
	}
}
