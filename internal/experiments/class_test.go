package experiments

import (
	"context"
	"testing"

	"github.com/archsim/fusleep/internal/core"
	"github.com/archsim/fusleep/internal/fu"
)

// classCell builds a small one-benchmark cell for class tests.
func classCell() Cell {
	return Cell{
		Policy:     core.PolicyConfig{Policy: core.GradualSleep, Slices: 4},
		Tech:       core.DefaultTech(),
		Benchmarks: []string{"gcc"},
		Alpha:      0.5,
		L2Latency:  12,
		Window:     20_000,
	}
}

// TestUniformAssignmentReproducesSinglePool is the energy-level parity
// check of the refactor: a cell that spells its policy as an explicit
// uniform per-class assignment must reproduce the legacy single-pool cell's
// numbers exactly, and in a multi-class cell the IntALU share must equal
// the legacy result bit for bit.
func TestUniformAssignmentReproducesSinglePool(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated")
	}
	r := NewRunner(Options{Window: 20_000})
	ctx := context.Background()

	legacy, err := evalOne(ctx, r, classCell())
	if err != nil {
		t.Fatal(err)
	}

	uniform := classCell()
	uniform.Assignment = core.UniformAssignment(uniform.Policy)
	got, err := evalOne(ctx, r, uniform)
	if err != nil {
		t.Fatal(err)
	}
	if got.RelEnergy != legacy.RelEnergy || got.LeakageFraction != legacy.LeakageFraction || got.MeanCycles != legacy.MeanCycles {
		t.Errorf("uniform assignment diverged from single pool:\nuniform: %+v\n legacy: %+v", got, legacy)
	}

	multi := uniform
	multi.Classes = []fu.Class{fu.IntALU, fu.Mult, fu.FPALU, fu.FPMult}
	mres, err := evalOne(ctx, r, multi)
	if err != nil {
		t.Fatal(err)
	}
	if len(mres.PerClass) != 4 {
		t.Fatalf("multi-class cell has %d class rows, want 4", len(mres.PerClass))
	}
	if mres.PerClass[0].Class != fu.IntALU {
		t.Fatalf("first class row is %s, want intalu", mres.PerClass[0].Class)
	}
	if mres.PerClass[0].RelEnergy != legacy.RelEnergy {
		t.Errorf("IntALU share %.17g != legacy single-pool energy %.17g",
			mres.PerClass[0].RelEnergy, legacy.RelEnergy)
	}
	if mres.MeanCycles != legacy.MeanCycles {
		t.Errorf("studying more classes changed the timing: %g vs %g", mres.MeanCycles, legacy.MeanCycles)
	}
	// Aggregate = energy-weighted combination over all studied classes; it
	// must differ from the IntALU-only number (the other classes idle more)
	// and every class row must carry the uniform policy.
	for _, ce := range mres.PerClass {
		if ce.Policy != multi.Policy {
			t.Errorf("class %s ran %+v, want the uniform %+v", ce.Class, ce.Policy, multi.Policy)
		}
		if ce.Units < 1 {
			t.Errorf("class %s reports %d units", ce.Class, ce.Units)
		}
	}
}

// TestPerClassAssignmentDiffers pins that a heterogeneous assignment
// actually changes the accounted energy: sleeping the mostly-idle FP units
// while keeping the busy IntALUs awake beats the all-AlwaysActive uniform
// on total energy at a leaky technology point.
func TestPerClassAssignmentDiffers(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated")
	}
	r := NewRunner(Options{Window: 20_000})
	ctx := context.Background()
	tech := core.HighLeakTech()

	base := classCell()
	base.Tech = tech
	base.Classes = []fu.Class{fu.IntALU, fu.FPALU, fu.FPMult}
	base.Policy = core.PolicyConfig{Policy: core.AlwaysActive}

	uni, err := evalOne(ctx, r, base)
	if err != nil {
		t.Fatal(err)
	}

	het := base
	het.Assignment = core.Assignment{
		fu.FPALU:  {Policy: core.MaxSleep},
		fu.FPMult: {Policy: core.MaxSleep},
	}
	hres, err := evalOne(ctx, r, het)
	if err != nil {
		t.Fatal(err)
	}
	if !(hres.RelEnergy < uni.RelEnergy) {
		t.Errorf("sleeping idle FP units did not save energy: het %.6f vs uniform %.6f",
			hres.RelEnergy, uni.RelEnergy)
	}
	// The IntALU class share is identical — only the FP classes changed.
	if hres.PerClass[0].RelEnergy != uni.PerClass[0].RelEnergy {
		t.Errorf("IntALU share moved under an FP-only assignment: %.17g vs %.17g",
			hres.PerClass[0].RelEnergy, uni.PerClass[0].RelEnergy)
	}
	if hres.MeanCycles != uni.MeanCycles {
		t.Errorf("policy assignment changed the timing: %g vs %g", hres.MeanCycles, uni.MeanCycles)
	}
}

// TestClassAwareGridExpansion covers the widened grid: assignment rows
// expand after the uniform policy rows, per-class count axes multiply the
// cardinality, and every cell key stays unique.
func TestClassAwareGridExpansion(t *testing.T) {
	g := Grid{
		Policies:    []core.PolicyConfig{{Policy: core.AlwaysActive}},
		Assignments: []core.Assignment{{fu.FPALU: {Policy: core.MaxSleep}}},
		FUCounts:    []int{2, 4},
		MultCounts:  []int{0, 2},
		Classes:     []fu.Class{fu.IntALU, fu.Mult},
	}
	tech := core.DefaultTech()
	cells := g.Cells(tech)
	if len(cells) != g.Cardinality(tech) {
		t.Fatalf("cells = %d, Cardinality = %d", len(cells), g.Cardinality(tech))
	}
	if want := 2 * 2 * 2; len(cells) != want {
		t.Fatalf("cardinality = %d, want %d", len(cells), want)
	}
	if !g.ClassAware() {
		t.Error("grid with classes and assignments not class-aware")
	}
	if (Grid{}).ClassAware() {
		t.Error("default grid claims to be class-aware")
	}
	seen := map[string]int{}
	for i, c := range cells {
		if prev, dup := seen[c.Key()]; dup {
			t.Errorf("cells %d and %d share key %s", prev, i, c.Key())
		}
		seen[c.Key()] = i
		if len(c.Classes) != 2 {
			t.Errorf("cell %d lost the class list: %+v", i, c.Classes)
		}
	}
	// Uniform policy row precedes the assignment row at each coordinate.
	if len(cells[0].Assignment) != 0 || len(cells[1].Assignment) == 0 {
		t.Errorf("policy/assignment order wrong: %+v then %+v", cells[0], cells[1])
	}
}

// TestAssignmentGridWidensStudiedClasses pins the no-silent-drop rule: an
// assignment-bearing grid with no explicit class list studies the union of
// the assigned classes, so a policy the user assigned is always accounted.
func TestAssignmentGridWidensStudiedClasses(t *testing.T) {
	g := Grid{
		Assignments: []core.Assignment{
			{fu.FPALU: {Policy: core.MaxSleep}},
			{fu.Mult: {Policy: core.MaxSleep}, fu.FPMult: {Policy: core.MaxSleep}},
		},
	}
	cells := g.Cells(core.DefaultTech())
	if len(cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(cells))
	}
	want := []fu.Class{fu.Mult, fu.FPALU, fu.FPMult}
	for i, c := range cells {
		if len(c.Classes) != len(want) {
			t.Fatalf("cell %d studies %v, want %v", i, c.Classes, want)
		}
		for j, cl := range want {
			if c.Classes[j] != cl {
				t.Errorf("cell %d class %d = %s, want %s", i, j, c.Classes[j], cl)
			}
		}
	}
	// An explicit class list is never overridden.
	g.Classes = []fu.Class{fu.IntALU}
	if cells := g.Cells(core.DefaultTech()); len(cells[0].Classes) != 1 || cells[0].Classes[0] != fu.IntALU {
		t.Errorf("explicit class list overridden: %v", cells[0].Classes)
	}

	// A uniform assignment covers every class including AGU; on the
	// default shared-port machine the widening must leave AGU out so the
	// cells stay valid, and must include it once a dedicated pool exists.
	uni := Grid{Assignments: []core.Assignment{core.UniformAssignment(core.PolicyConfig{Policy: core.MaxSleep})}}
	cells = uni.Cells(core.DefaultTech())
	if len(cells) != 1 {
		t.Fatalf("uniform-assignment grid expands to %d cells", len(cells))
	}
	for _, cl := range cells[0].Classes {
		if cl == fu.AGU {
			t.Fatalf("shared-port machine studies agu: %v", cells[0].Classes)
		}
	}
	if err := cells[0].Validate(); err != nil {
		t.Errorf("uniform-assignment cell invalid on the default machine: %v", err)
	}
	uni.AGUCounts = []int{2}
	cells = uni.Cells(core.DefaultTech())
	found := false
	for _, cl := range cells[0].Classes {
		found = found || cl == fu.AGU
	}
	if !found {
		t.Errorf("dedicated-AGU machine does not study agu: %v", cells[0].Classes)
	}
	if err := cells[0].Validate(); err != nil {
		t.Errorf("uniform-assignment cell invalid with dedicated AGUs: %v", err)
	}
}

// TestCellKeyCanonicalizesClassOrder pins that two spellings of the same
// studied set are one identity for the queue shards and caches.
func TestCellKeyCanonicalizesClassOrder(t *testing.T) {
	a := classCell()
	a.Classes = []fu.Class{fu.IntALU, fu.FPALU}
	b := classCell()
	b.Classes = []fu.Class{fu.FPALU, fu.IntALU}
	if a.Key() != b.Key() {
		t.Errorf("permuted class lists hash differently: %s vs %s", a.Key(), b.Key())
	}
	sc := b.StudiedClasses()
	if len(sc) != 2 || sc[0] != fu.IntALU || sc[1] != fu.FPALU {
		t.Errorf("StudiedClasses not canonical: %v", sc)
	}
}

// TestSimMixDefaultCountsShareCache pins the runner-level normalization:
// counts spelled as the Table 2 defaults collapse to the same cache entry
// as counts left at zero.
func TestSimMixDefaultCountsShareCache(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated")
	}
	r := NewRunner(Options{Window: 10_000})
	ctx := context.Background()
	if _, err := r.SimMix(ctx, "gcc", FUMix{IntALUs: 2}, 12, 10_000); err != nil {
		t.Fatal(err)
	}
	if _, err := r.SimMix(ctx, "gcc", FUMix{IntALUs: 2, Mults: 1, FPALUs: 1, FPMults: 1}, 12, 10_000); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Simulations != 1 || st.CacheHits != 1 {
		t.Errorf("default-count mix re-simulated: %+v", st)
	}
}

// TestCellValidateNegativeCounts asserts the sweep path rejects negative
// per-class unit counts like the tune path does, instead of silently
// clamping them into a default machine with a distinct cache key.
func TestCellValidateNegativeCounts(t *testing.T) {
	for _, mutate := range []func(*Cell){
		func(c *Cell) { c.AGUs = -1 },
		func(c *Cell) { c.Mults = -2 },
		func(c *Cell) { c.FPALUs = -1 },
		func(c *Cell) { c.FPMults = -3 },
	} {
		c := classCell()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("negative count accepted: %+v", c)
		}
	}
}

// TestCellKeyCoversClassFields asserts the identity hash distinguishes the
// new per-class dimensions.
func TestCellKeyCoversClassFields(t *testing.T) {
	base := classCell()
	variants := []func(*Cell){
		func(c *Cell) { c.Mults = 2 },
		func(c *Cell) { c.FPALUs = 2 },
		func(c *Cell) { c.FPMults = 3 },
		func(c *Cell) { c.AGUs = 1 },
		func(c *Cell) { c.Classes = []fu.Class{fu.IntALU, fu.Mult} },
		func(c *Cell) { c.Assignment = core.Assignment{fu.Mult: {Policy: core.MaxSleep}} },
		func(c *Cell) { c.ClassTechs = map[fu.Class]core.Tech{fu.Mult: core.HighLeakTech()} },
	}
	keys := map[string]int{base.Key(): -1}
	for i, mutate := range variants {
		c := base
		mutate(&c)
		if prev, dup := keys[c.Key()]; dup {
			t.Errorf("variant %d collides with %d", i, prev)
		}
		keys[c.Key()] = i
	}
}

// TestCellValidateClassDomain covers the new validation surface.
func TestCellValidateClassDomain(t *testing.T) {
	c := classCell()
	c.Classes = []fu.Class{fu.AGU}
	if err := c.Validate(); err == nil {
		t.Error("AGU class without a dedicated pool accepted")
	}
	c.AGUs = 1
	if err := c.Validate(); err != nil {
		t.Errorf("AGU class with a dedicated pool rejected: %v", err)
	}
	c = classCell()
	c.Classes = []fu.Class{fu.Mult, fu.Mult}
	if err := c.Validate(); err == nil {
		t.Error("duplicate class accepted")
	}
	c = classCell()
	c.Assignment = core.Assignment{fu.IntALU: {Policy: core.Policy(99)}}
	if err := c.Validate(); err == nil {
		t.Error("unknown assigned policy accepted")
	}
	c = classCell()
	c.ClassTechs = map[fu.Class]core.Tech{fu.FPALU: {P: 7}}
	if err := c.Validate(); err == nil {
		t.Error("out-of-range class tech accepted")
	}
}

// TestEvalCellDedicatedAGU runs the split machine end to end: the AGU class
// becomes studyable and carries its own units.
func TestEvalCellDedicatedAGU(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated")
	}
	r := NewRunner(Options{Window: 20_000})
	c := classCell()
	c.AGUs = 2
	c.Classes = []fu.Class{fu.IntALU, fu.AGU}
	res, err := evalOne(context.Background(), r, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerClass) != 2 || res.PerClass[1].Class != fu.AGU || res.PerClass[1].Units != 2 {
		t.Errorf("per-class rows = %+v", res.PerClass)
	}
	if res.PerClass[1].RelEnergy <= 0 {
		t.Errorf("AGU class energy = %g", res.PerClass[1].RelEnergy)
	}
}
