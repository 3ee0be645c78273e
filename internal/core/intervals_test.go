package core

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
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

// exactTech has a breakeven of exactly exactBreakeven cycles at alpha 0.5
// (c = 0 and no sleep overhead: 0.5 / (0.125 * 0.5)), so a profile that
// records that length puts OracleMinimal's >= and SleepTimeout's default
// threshold on a recorded length.
var exactTech = Tech{P: 0.125, Duty: 0.5}

const exactBreakeven = 8

// scoredConfig is one (technology, activity, policy) point to score.
type scoredConfig struct {
	tech  Tech
	alpha float64
	pc    PolicyConfig
}

// scoredConfigs lists the points every profile is scored at: each policy
// at its defaults under the paper's technology and under exactTech,
// several GradualSleep slice counts, and explicit SleepTimeout thresholds,
// one of them equal to a recorded length of prof.
func scoredConfigs(prof *IdleProfile) []scoredConfig {
	var out []scoredConfig
	for _, tech := range []Tech{DefaultTech(), exactTech} {
		for _, pc := range allPolicies {
			out = append(out, scoredConfig{tech, 0.5, pc})
		}
	}
	for _, k := range []int{1, 3, 16, 200} {
		out = append(out, scoredConfig{DefaultTech(), 0.5, PolicyConfig{Policy: GradualSleep, Slices: k}})
	}
	timeouts := []int{1, exactBreakeven, 100, 70000}
	if keys := sortedKeys(prof); len(keys) > 0 {
		timeouts = append(timeouts, keys[len(keys)/2])
	}
	for _, T := range timeouts {
		out = append(out, scoredConfig{DefaultTech(), 0.5, PolicyConfig{Policy: SleepTimeout, Timeout: T}})
	}
	return out
}

// sortedKeys returns the interval lengths of prof's map in ascending
// order, read from the map alone.
func sortedKeys(prof *IdleProfile) []int {
	keys := make([]int, 0, len(prof.Intervals))
	for l := range prof.Intervals {
		keys = append(keys, l)
	}
	sort.Ints(keys)
	return keys
}

// mapWalkCounts is the reference ProfileCounts: the whole-profile
// policies sum the Intervals map, and the per-length ones walk its sorted
// keys with one map lookup per length, accumulating float64 sums in
// ascending order. ProfileCounts must equal it bit for bit.
func mapWalkCounts(t Tech, pc PolicyConfig, alpha float64, prof *IdleProfile) CycleCounts {
	var idle, num uint64
	for l, c := range prof.Intervals {
		idle += uint64(l) * c
		num += c
	}
	cc := CycleCounts{Active: float64(prof.ActiveCycles)}
	switch pc.Policy {
	case AlwaysActive:
		cc.UncontrolledIdle = float64(idle)
	case MaxSleep:
		cc.Sleep = float64(idle)
		cc.Transitions = float64(num)
	case NoOverhead:
		cc.Sleep = float64(idle)
	case GradualSleep:
		k := pc.slices(t, alpha)
		for _, l := range sortedKeys(prof) {
			ui, slp, trans := gradualSplit(float64(l), k)
			nf := float64(prof.Intervals[l])
			cc.UncontrolledIdle += nf * ui
			cc.Sleep += nf * slp
			cc.Transitions += nf * trans
		}
	case OracleMinimal:
		be := t.Breakeven(alpha)
		for _, l := range sortedKeys(prof) {
			nf := float64(prof.Intervals[l])
			if float64(l) >= be {
				cc.Sleep += nf * float64(l)
				cc.Transitions += nf
			} else {
				cc.UncontrolledIdle += nf * float64(l)
			}
		}
	case SleepTimeout:
		T := pc.timeout(t, alpha)
		for _, l := range sortedKeys(prof) {
			ui, slp, trans := timeoutSplit(float64(l), T)
			nf := float64(prof.Intervals[l])
			cc.UncontrolledIdle += nf * ui
			cc.Sleep += nf * slp
			cc.Transitions += nf * trans
		}
	default:
		panic(fmt.Sprintf("mapWalkCounts: unknown policy %v", pc.Policy))
	}
	return cc
}

// profileCounts scores prof at every scoredConfigs point and reports each
// one whose counts differ, in any bit, from the map-walk reference.
func profileCounts(t testing.TB, prof *IdleProfile) []CycleCounts {
	configs := scoredConfigs(prof)
	out := make([]CycleCounts, len(configs))
	for i, sc := range configs {
		cc, err := sc.tech.ProfileCounts(sc.pc, sc.alpha, prof)
		if err != nil {
			t.Error(err)
		}
		if want := mapWalkCounts(sc.tech, sc.pc, sc.alpha, prof); !sameCounts([]CycleCounts{cc}, []CycleCounts{want}) {
			t.Errorf("%+v at %+v: ProfileCounts %+v, map walk %+v", sc.pc, sc.tech, cc, want)
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

// checkColumns asserts that p has columns and that they match its map:
// the sorted keys, and the inclusive prefix sums of count and of
// count×length.
func checkColumns(t *testing.T, name string, p *IdleProfile) {
	t.Helper()
	if !p.hasColumns() {
		t.Fatalf("%s: columns dropped (%d lengths, %d keys)", name, len(p.lengths), len(p.Intervals))
	}
	keys := sortedKeys(p)
	if !slices.Equal(p.lengths, keys) || len(p.cumN) != len(keys) || len(p.cumL) != len(keys) {
		t.Fatalf("%s: columns %v / %d / %d, keys %v", name, p.lengths, len(p.cumN), len(p.cumL), keys)
	}
	var sumN, sumL uint64
	for i, l := range keys {
		sumN += p.Intervals[l]
		sumL += p.Intervals[l] * uint64(l)
		if p.cumN[i] != sumN || p.cumL[i] != sumL {
			t.Fatalf("%s: prefix sums at %d (length %d) = %d, %d; want %d, %d", name, i, l, p.cumN[i], p.cumL[i], sumN, sumL)
		}
	}
}

// TestIdleProfileColumnsTrackWrites keeps the columns equal to the map
// under every write: ascending appends, out-of-order inserts, repeats of
// a seen length (first, middle and last), and merges from profiles with
// and without columns, including a profile merged into itself.
func TestIdleProfileColumnsTrackWrites(t *testing.T) {
	p := NewIdleProfileSized(4)
	for _, l := range []int{2, 5, 9, 30} {
		p.AddIdle(l, uint64(l))
	}
	checkColumns(t, "ascending", p)
	if cap(p.lengths) != 4 || cap(p.cumN) != 4 || cap(p.cumL) != 4 {
		t.Errorf("presized columns grew: caps %d, %d, %d", cap(p.lengths), cap(p.cumN), cap(p.cumL))
	}
	for _, w := range [][2]int{{1, 3}, {7, 1}, {40, 2}, {9, 4}, {1, 1}, {40, 5}, {5, 2}} {
		p.AddIdle(w[0], uint64(w[1]))
		checkColumns(t, fmt.Sprintf("after AddIdle(%d, %d)", w[0], w[1]), p)
	}

	other := NewIdleProfile()
	other.AddIdle(3, 2)
	other.AddIdle(9, 1)
	other.AddIdle(500, 7)
	literal := &IdleProfile{Intervals: map[int]uint64{1: 2, 4: 1, 40: 3, 1000: 1}}
	p.Merge(other)
	checkColumns(t, "merged with columns", p)
	p.Merge(literal)
	checkColumns(t, "merged with literal", p)
	p.Merge(p)
	checkColumns(t, "merged with itself", p)
	if cap(p.lengths) != len(p.lengths) {
		t.Errorf("merged columns sized %d for %d lengths", cap(p.lengths), len(p.lengths))
	}
	profileCounts(t, p)

	var zero IdleProfile
	zero.Merge(literal)
	checkColumns(t, "zero value merged with literal", &zero)

	// Like AddIdle, Merge skips a literal's zero length and zero count.
	zero.Merge(&IdleProfile{Intervals: map[int]uint64{0: 4, 5: 1, 9: 0}})
	checkColumns(t, "merged with a zero length and a zero count", &zero)
	if _, ok := zero.Intervals[0]; ok || zero.Intervals[5] != 1 || len(zero.Intervals) != 5 {
		t.Errorf("merged intervals = %v, want the literal's plus 5:1", zero.Intervals)
	}
}

// TestProfileCountsMatchMapWalk scores profiles built every way a caller
// can build one against the map-walk reference, bit for bit.
func TestProfileCountsMatchMapWalk(t *testing.T) {
	breakeven := NewIdleProfile()
	breakeven.ActiveCycles = 1000
	for _, l := range []int{1, exactBreakeven - 1, exactBreakeven, exactBreakeven + 1, 64} {
		breakeven.AddIdle(l, 3)
	}
	if be := exactTech.Breakeven(0.5); be != exactBreakeven {
		t.Fatalf("exactTech breakeven = %v, want exactly %d", be, exactBreakeven)
	}

	repeated := NewIdleProfile()
	repeated.ActiveCycles = 77
	for _, w := range [][2]int{{12, 1}, {3, 5}, {12, 2}, {300, 1}, {3, 1}, {300, 4}, {1, 9}, {12, 1}} {
		repeated.AddIdle(w[0], uint64(w[1]))
	}

	merged := NewIdleProfile()
	merged.Merge(breakeven)
	merged.Merge(repeated)
	merged.Merge(&IdleProfile{ActiveCycles: 4, Intervals: map[int]uint64{5: 1, 12: 6, 4096: 2}})

	literal := &IdleProfile{ActiveCycles: 9, Intervals: map[int]uint64{exactBreakeven: 2, 2: 11, 70001: 1, 100: 3}}
	data, err := json.Marshal(merged)
	if err != nil {
		t.Fatal(err)
	}
	var decoded IdleProfile
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}

	// A literal can hold lengths AddIdle ignores.
	nonPositive := &IdleProfile{ActiveCycles: 3, Intervals: map[int]uint64{0: 4, -3: 2, 5: 1, 9: 0}}

	for name, p := range map[string]*IdleProfile{
		"empty": NewIdleProfile(), "zero": {}, "breakeven": breakeven, "repeated": repeated,
		"merged": merged, "literal": literal, "decoded": &decoded, "non-positive": nonPositive,
	} {
		t.Run(name, func(t *testing.T) { profileCounts(t, p) })
	}
}

// TestIdleProfileAt2To53 takes an AddIdle-built profile's idle total to
// exactly 2^53. The columns hold until the write that reaches it and are
// dropped there; from then on the profile is scored through per-call
// views, which must match the map walk bit for bit even where float64
// sums round, and which the prefix-difference closed forms would not.
func TestIdleProfileAt2To53(t *testing.T) {
	p := NewIdleProfile()
	p.ActiveCycles = 12345
	p.AddIdle(1, 1)
	p.AddIdle(1<<20, 1<<33-1)
	p.AddIdle(7, 1<<17)
	checkColumns(t, "below 2^53", p)
	profileCounts(t, p)
	if rest := uint64(exactLimit) - p.IdleCycles(); rest != 131071 {
		t.Fatalf("idle total %d short of 2^53, want 131071", rest)
	}

	p.AddIdle(131071, 1)
	if p.hasColumns() || p.IdleCycles() != exactLimit {
		t.Fatalf("at 2^53: columns kept %v, idle %d", p.hasColumns(), p.IdleCycles())
	}
	for _, w := range [][2]uint64{{3, 1<<52 + 1}, {9, 5}, {1 << 21, 3}, {5, 1<<50 + 7}, {131071, 1}} {
		p.AddIdle(int(w[0]), w[1])
	}
	want := profileCounts(t, p)
	if !slices.Equal(p.SortedLengths(), sortedKeys(p)) {
		t.Errorf("SortedLengths = %v, want %v", p.SortedLengths(), sortedKeys(p))
	}

	// Merged into a profile with columns, the total drops them too.
	m := NewIdleProfile()
	m.AddIdle(2, 1)
	m.Merge(p)
	if m.hasColumns() {
		t.Error("merge past 2^53 kept the columns")
	}
	profileCounts(t, m)

	// Two profiles whose columns each hold merge past 2^53.
	a, b := NewIdleProfile(), NewIdleProfile()
	a.AddIdle(1<<20, 1<<32)
	b.AddIdle(3, 1)
	b.AddIdle(1<<20, 1<<32)
	checkColumns(t, "half of 2^53", b)
	a.Merge(b)
	if a.hasColumns() || a.IdleCycles() != exactLimit+3 {
		t.Errorf("merge to 2^53+3: columns kept %v, idle %d", a.hasColumns(), a.IdleCycles())
	}
	profileCounts(t, a)

	// The closed forms would round differently here: forcing the view
	// exact must change some policy's counts, or this profile does not
	// exercise the ascending walk it falls back to.
	v := p.columns()
	if v.exact {
		t.Fatal("view of a 2^53 profile reports exact")
	}
	v.exact = true
	differs := false
	for i, sc := range scoredConfigs(p) {
		if !sameCounts([]CycleCounts{sc.tech.scoreColumns(sc.pc, sc.alpha, p.ActiveCycles, v)}, want[i:i+1]) {
			differs = true
		}
	}
	if !differs {
		t.Error("prefix differences matched the walk on every policy; the profile does not round")
	}
}

// TestProfileCountsAllocs pins scoring an AddIdle-built profile at zero
// allocations for every policy, explicit parameters included.
func TestProfileCountsAllocs(t *testing.T) {
	p := NewIdleProfile()
	p.ActiveCycles = 900
	for _, w := range [][2]int{{4, 2}, {1, 7}, {exactBreakeven, 3}, {250, 1}, {4, 1}, {33, 5}} {
		p.AddIdle(w[0], uint64(w[1]))
	}
	for _, sc := range scoredConfigs(p) {
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := sc.tech.ProfileCounts(sc.pc, sc.alpha, p); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%+v: %.1f allocs per ProfileCounts, want 0", sc.pc, allocs)
		}
	}
}
