package core

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestIdleProfileBasics(t *testing.T) {
	p := NewIdleProfile()
	p.ActiveCycles = 100
	p.AddIdle(5, 2)
	p.AddIdle(10, 1)
	p.AddIdle(0, 7)  // ignored
	p.AddIdle(3, 0)  // ignored
	p.AddIdle(-4, 1) // ignored

	if got := p.IdleCycles(); got != 20 {
		t.Errorf("IdleCycles = %d, want 20", got)
	}
	if got := p.IntervalCount(); got != 3 {
		t.Errorf("IntervalCount = %d, want 3", got)
	}
	if got := p.TotalCycles(); got != 120 {
		t.Errorf("TotalCycles = %d, want 120", got)
	}
	if got := p.Usage(); !almostEqual(got, 100.0/120.0, 1e-12) {
		t.Errorf("Usage = %g", got)
	}
	if got := p.MeanIdle(); !almostEqual(got, 20.0/3.0, 1e-12) {
		t.Errorf("MeanIdle = %g", got)
	}
	if ls := p.SortedLengths(); len(ls) != 2 || ls[0] != 5 || ls[1] != 10 {
		t.Errorf("SortedLengths = %v", ls)
	}
}

func TestIdleProfileEmpty(t *testing.T) {
	var p IdleProfile
	if p.Usage() != 0 || p.MeanIdle() != 0 || p.IdleCycles() != 0 {
		t.Errorf("empty profile should be all zeros")
	}
	// AddIdle on a zero-value profile must allocate the map.
	p.AddIdle(4, 1)
	if p.IdleCycles() != 4 {
		t.Errorf("AddIdle on zero value failed")
	}
}

func TestIdleProfileMerge(t *testing.T) {
	a := NewIdleProfile()
	a.ActiveCycles = 10
	a.AddIdle(3, 2)
	b := NewIdleProfile()
	b.ActiveCycles = 5
	b.AddIdle(3, 1)
	b.AddIdle(7, 4)
	a.Merge(b)
	if a.ActiveCycles != 15 {
		t.Errorf("merged active = %d", a.ActiveCycles)
	}
	if a.Intervals[3] != 3 || a.Intervals[7] != 4 {
		t.Errorf("merged intervals = %v", a.Intervals)
	}
}

func TestProfileCountsMatchScenarioForUniformIntervals(t *testing.T) {
	// A measured profile whose intervals all share one length must agree
	// with the closed-form Scenario of the same usage and mean idle.
	tech := DefaultTech().WithP(0.3)
	alpha := 0.5
	const nIntervals, l = 100, 25
	prof := NewIdleProfile()
	prof.ActiveCycles = 5000
	prof.AddIdle(l, nIntervals)

	s := Scenario{
		TotalCycles: float64(prof.TotalCycles()),
		Usage:       prof.Usage(),
		MeanIdle:    l,
		Alpha:       alpha,
	}
	for _, pc := range []PolicyConfig{
		{Policy: AlwaysActive},
		{Policy: MaxSleep},
		{Policy: NoOverhead},
		{Policy: GradualSleep, Slices: 10},
		{Policy: OracleMinimal},
	} {
		fromProf := tech.EvalProfile(pc, alpha, prof).Total()
		fromScen := tech.PolicyEnergy(pc, s).Total()
		if !almostEqual(fromProf, fromScen, 1e-9) {
			t.Errorf("%v: profile %g vs scenario %g", pc.Policy, fromProf, fromScen)
		}
	}
}

func TestProfileCountsValidation(t *testing.T) {
	tech := DefaultTech()
	prof := NewIdleProfile()
	prof.ActiveCycles = 10
	if _, err := tech.ProfileCounts(PolicyConfig{Policy: MaxSleep}, 2.0, prof); err == nil {
		t.Error("alpha out of range accepted")
	}
	if _, err := (Tech{}).ProfileCounts(PolicyConfig{Policy: MaxSleep}, 0.5, prof); err == nil {
		t.Error("invalid tech accepted")
	}
	if _, err := tech.ProfileCounts(PolicyConfig{Policy: Policy(42)}, 0.5, prof); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestOraclePerIntervalDominates(t *testing.T) {
	// On arbitrary measured profiles, OracleMinimal is at most the cost of
	// both MaxSleep and AlwaysActive (it picks per interval).
	tech := DefaultTech()
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		p := 0.02 + rng.Float64()*0.9
		tc := tech.WithP(p)
		prof := NewIdleProfile()
		prof.ActiveCycles = uint64(1 + rng.Intn(100000))
		for i := 0; i < 30; i++ {
			prof.AddIdle(1+rng.Intn(500), uint64(1+rng.Intn(50)))
		}
		orc := tc.EvalProfile(PolicyConfig{Policy: OracleMinimal}, 0.5, prof).Total()
		ms := tc.EvalProfile(PolicyConfig{Policy: MaxSleep}, 0.5, prof).Total()
		aa := tc.EvalProfile(PolicyConfig{Policy: AlwaysActive}, 0.5, prof).Total()
		no := tc.EvalProfile(PolicyConfig{Policy: NoOverhead}, 0.5, prof).Total()
		if orc > ms+1e-9 || orc > aa+1e-9 {
			t.Fatalf("p=%.3f: oracle %g exceeds ms %g or aa %g", p, orc, ms, aa)
		}
		if no > orc+1e-9 {
			t.Fatalf("p=%.3f: NoOverhead %g exceeds oracle %g", p, no, orc)
		}
	}
}

func TestIntervalEnergyFigure5cShape(t *testing.T) {
	// Figure 5c (p=0.05, alpha=0.5): GradualSleep tracks AlwaysActive for
	// short intervals, tracks MaxSleep for long ones, and is the worst of
	// the three only near the breakeven point.
	tech := DefaultTech() // p = 0.05
	alpha := 0.5
	k := tech.BreakevenSlices(alpha)
	gs := PolicyConfig{Policy: GradualSleep, Slices: k}
	ms := PolicyConfig{Policy: MaxSleep}
	aa := PolicyConfig{Policy: AlwaysActive}

	// Short interval: GS within a whisker of AA, both well below MS.
	shortGS := tech.IntervalEnergy(gs, alpha, 2)
	shortAA := tech.IntervalEnergy(aa, alpha, 2)
	shortMS := tech.IntervalEnergy(ms, alpha, 2)
	if shortGS > 2*shortAA || shortGS > shortMS/2 {
		t.Errorf("short idle: GS=%.4f AA=%.4f MS=%.4f", shortGS, shortAA, shortMS)
	}

	// Long interval: GS near MS, both well below AA.
	longGS := tech.IntervalEnergy(gs, alpha, 100)
	longAA := tech.IntervalEnergy(aa, alpha, 100)
	longMS := tech.IntervalEnergy(ms, alpha, 100)
	if longGS > 1.5*longMS || longGS > longAA {
		t.Errorf("long idle: GS=%.4f AA=%.4f MS=%.4f", longGS, longAA, longMS)
	}

	// Monotone in interval length for all three.
	for _, pc := range []PolicyConfig{gs, ms, aa} {
		prev := 0.0
		for l := 1; l <= 120; l++ {
			e := tech.IntervalEnergy(pc, alpha, l)
			if e < prev-1e-12 {
				t.Fatalf("%v: interval energy not monotone at l=%d", pc.Policy, l)
			}
			prev = e
		}
	}
}

func TestEvalProfileLinearity(t *testing.T) {
	// Doubling every count doubles every energy component.
	tech := DefaultTech().WithP(0.4)
	f := func(active uint16, l1, l2 uint8, n1, n2 uint8) bool {
		p1 := NewIdleProfile()
		p1.ActiveCycles = uint64(active)
		p1.AddIdle(int(l1)+1, uint64(n1)+1)
		p1.AddIdle(int(l2)+1, uint64(n2)+1)

		p2 := NewIdleProfile()
		p2.ActiveCycles = 2 * p1.ActiveCycles
		for l, c := range p1.Intervals {
			p2.AddIdle(l, 2*c)
		}
		for _, pol := range Policies {
			e1 := tech.EvalProfile(PolicyConfig{Policy: pol}, 0.5, p1)
			e2 := tech.EvalProfile(PolicyConfig{Policy: pol}, 0.5, p2)
			if !almostEqual(e1.Total()*2, e2.Total(), 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLeakageFractionRisesWithP(t *testing.T) {
	// Figure 9b: leakage fraction grows monotonically with p for every
	// policy on a fixed profile.
	prof := NewIdleProfile()
	prof.ActiveCycles = 10000
	prof.AddIdle(8, 500)
	prof.AddIdle(40, 100)
	prof.AddIdle(300, 10)
	for _, pol := range Policies {
		prev := -1.0
		for p := 0.05; p <= 1.0; p += 0.05 {
			frac := DefaultTech().WithP(p).EvalProfile(PolicyConfig{Policy: pol}, 0.5, prof).LeakageFraction()
			if frac < prev-1e-12 {
				t.Fatalf("%v: leakage fraction fell from %g to %g at p=%g", pol, prev, frac, p)
			}
			if frac < 0 || frac > 1 {
				t.Fatalf("%v: leakage fraction %g out of [0,1]", pol, frac)
			}
			prev = frac
		}
	}
}

// allPolicies lists every policy ProfileCounts evaluates, each with its
// default parameters.
var allPolicies = []PolicyConfig{
	{Policy: AlwaysActive}, {Policy: MaxSleep}, {Policy: NoOverhead},
	{Policy: GradualSleep}, {Policy: OracleMinimal}, {Policy: SleepTimeout},
}

// profileCounts evaluates every policy over prof.
func profileCounts(t testing.TB, prof *IdleProfile) []CycleCounts {
	out := make([]CycleCounts, len(allPolicies))
	for i, pc := range allPolicies {
		cc, err := DefaultTech().ProfileCounts(pc, 0.5, prof)
		if err != nil {
			t.Error(err)
		}
		out[i] = cc
	}
	return out
}

// sameCounts reports whether two policy sweeps are bit-identical.
func sameCounts(a, b []CycleCounts) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		for _, f := range [][2]float64{
			{a[i].Active, b[i].Active}, {a[i].UncontrolledIdle, b[i].UncontrolledIdle},
			{a[i].Sleep, b[i].Sleep}, {a[i].Transitions, b[i].Transitions},
		} {
			if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
				return false
			}
		}
	}
	return true
}

// TestIdleProfileConcurrentReads scores, from eight goroutines at once, a
// struct-literal profile (map only, no sorted index) and one built by
// out-of-order AddIdle. Reads must not write to the profile — run under
// -race — and every goroutine must see the counts of the same multiset
// built in ascending order.
func TestIdleProfileConcurrentReads(t *testing.T) {
	intervals := map[int]uint64{40: 2, 3: 7, 900: 1, 12: 4, 1: 9, 150: 3}
	literal := &IdleProfile{ActiveCycles: 500, Intervals: intervals}
	shuffled := NewIdleProfile()
	shuffled.ActiveCycles = 500
	for _, l := range []int{900, 3, 40, 1, 150, 12} {
		shuffled.AddIdle(l, intervals[l])
	}
	ascending := NewIdleProfile()
	ascending.ActiveCycles = 500
	for _, l := range []int{1, 3, 12, 40, 150, 900} {
		ascending.AddIdle(l, intervals[l])
	}
	want := profileCounts(t, ascending)

	got := make([][2][]CycleCounts, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = [2][]CycleCounts{profileCounts(t, literal), profileCounts(t, shuffled)}
		}(g)
	}
	wg.Wait()
	for g, pair := range got {
		for i, name := range []string{"literal", "shuffled"} {
			if !sameCounts(pair[i], want) {
				t.Errorf("goroutine %d: %s profile counts %+v, want %+v", g, name, pair[i], want)
			}
		}
	}
}
