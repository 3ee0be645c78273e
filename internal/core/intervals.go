package core

import (
	"fmt"
	"maps"
	"math/bits"
	"slices"
	"sort"
)

// IdleProfile summarizes the measured activity of one functional unit: the
// total number of active (evaluation) cycles and the multiset of idle
// interval lengths observed between them. This is exactly the data the
// paper's simulation methodology records ("precise statistics on the idle
// times for each functional unit") and from which it computes total energy.
// The simulator emits one per unit and the energy model scores it as is;
// there is no other per-unit idle record.
//
// Beside the Intervals map, a profile written through AddIdle and Merge
// keeps sorted columns: the distinct lengths in ascending order and, per
// length, the inclusive prefix sums of interval count (cumN) and of idle
// cycles, count×length (cumL). A length's count is cumN[i]-cumN[i-1]. The
// columns are valid while they cover the map (one entry per key) and the
// idle total stays below 2^53, so every sum of counts and cycles is an
// exact float64 integer; ProfileCounts then scores AlwaysActive, MaxSleep
// and NoOverhead in O(1) and OracleMinimal and SleepTimeout with one
// binary search. A profile whose columns do not cover its map (a struct
// literal or a decoded JSON profile) is scored through a column view built
// per call. A write that would take the idle total to 2^53 drops the
// columns, so such a profile is scored the same way; its view is marked
// inexact and scored by the ascending walk, whose float64 rounding
// prefix differences cannot reproduce.
//
// An IdleProfile is safe for concurrent reads: no read method writes to
// it. The per-call view is discarded after the call rather than cached in
// the profile, because caching it would be a write that concurrent readers
// race on. Writes (AddIdle, Merge) need exclusive access. A copy made by
// assignment shares the map and columns with its original, so write to at
// most one of them; Clone makes an independent copy.
type IdleProfile struct {
	ActiveCycles uint64
	// Intervals maps idle interval length (cycles) to occurrence count.
	// Populate it through AddIdle or Merge, which keep the columns below
	// in step; a directly-assigned map (a decoded wire profile or a
	// struct literal) is still read correctly, at the cost of building
	// the columns on each read that needs them. Decode into a fresh
	// profile: writing the map of a profile that has columns leaves them
	// stale.
	Intervals map[int]uint64
	// lengths holds the keys of Intervals in ascending order; cumN and
	// cumL are the prefix sums described above, one entry per length.
	lengths    []int
	cumN, cumL []uint64
}

// exactLimit bounds the idle total of a profile whose columns are scored
// by prefix differences: below 2^53 every count, cycle sum and difference
// of them is an exact float64 integer, so the closed forms equal the
// ascending per-length sums bit for bit.
const exactLimit = 1 << 53

// NewIdleProfile returns an empty profile ready for recording.
func NewIdleProfile() *IdleProfile {
	return &IdleProfile{Intervals: make(map[int]uint64)}
}

// NewIdleProfileSized returns an empty profile preallocated for n distinct
// interval lengths, for bulk builds that know their size up front.
func NewIdleProfileSized(n int) *IdleProfile {
	return &IdleProfile{
		Intervals: make(map[int]uint64, n),
		lengths:   make([]int, 0, n),
		cumN:      make([]uint64, 0, n),
		cumL:      make([]uint64, 0, n),
	}
}

// Clone returns an independent copy of p: the map and the columns are
// copied, so writes to either profile never show in the other.
func (p *IdleProfile) Clone() *IdleProfile {
	return &IdleProfile{
		ActiveCycles: p.ActiveCycles,
		Intervals:    maps.Clone(p.Intervals),
		lengths:      slices.Clone(p.lengths),
		cumN:         slices.Clone(p.cumN),
		cumL:         slices.Clone(p.cumL),
	}
}

// hasColumns reports whether the columns cover the map. Every write keeps
// lengths, cumN and cumL the same length, and only writes that keep them
// valid leave them covering it.
func (p *IdleProfile) hasColumns() bool { return len(p.lengths) == len(p.Intervals) }

// dropColumns discards the columns once they cannot stay valid; the
// profile is then read through per-call views of its map.
func (p *IdleProfile) dropColumns() { p.lengths, p.cumN, p.cumL = nil, nil, nil }

// AddIdle records count idle intervals of the given length. Lengths fed in
// ascending order append to the columns in O(1); a new length out of order
// is inserted in place and a repeated one updates the prefix sums from its
// position onward, O(n) at most.
func (p *IdleProfile) AddIdle(length int, count uint64) {
	if length <= 0 || count == 0 {
		return
	}
	if p.Intervals == nil {
		p.Intervals = make(map[int]uint64)
	}
	if p.hasColumns() {
		p.addColumns(length, count)
	}
	p.Intervals[length] += count
}

// addColumns records count intervals of length in the columns, or drops
// them when the idle total would reach exactLimit.
func (p *IdleProfile) addColumns(length int, count uint64) {
	n := len(p.lengths)
	var total uint64
	if n > 0 {
		total = p.cumL[n-1]
	}
	hi, cycles := bits.Mul64(count, uint64(length))
	if hi != 0 || cycles >= exactLimit-total {
		p.dropColumns()
		return
	}
	i := n
	if n > 0 && p.lengths[n-1] >= length {
		i = sort.SearchInts(p.lengths, length)
	}
	if i == n || p.lengths[i] != length {
		var n0, l0 uint64
		if i > 0 {
			n0, l0 = p.cumN[i-1], p.cumL[i-1]
		}
		p.lengths = slices.Insert(p.lengths, i, length)
		p.cumN = slices.Insert(p.cumN, i, n0)
		p.cumL = slices.Insert(p.cumL, i, l0)
	}
	for j := i; j < len(p.lengths); j++ {
		p.cumN[j] += count
		p.cumL[j] += cycles
	}
}

// IdleCycles returns the total idle cycles across all intervals.
func (p *IdleProfile) IdleCycles() uint64 {
	if n := len(p.lengths); n > 0 && p.hasColumns() {
		return p.cumL[n-1]
	}
	var n uint64
	for l, c := range p.Intervals {
		n += uint64(l) * c
	}
	return n
}

// IntervalCount returns the total number of idle intervals.
func (p *IdleProfile) IntervalCount() uint64 {
	if n := len(p.lengths); n > 0 && p.hasColumns() {
		return p.cumN[n-1]
	}
	var n uint64
	for _, c := range p.Intervals {
		n += c
	}
	return n
}

// TotalCycles returns active plus idle cycles.
func (p *IdleProfile) TotalCycles() uint64 { return p.ActiveCycles + p.IdleCycles() }

// Usage returns the usage factor f_A = active / total, or 0 for an empty
// profile.
func (p *IdleProfile) Usage() float64 {
	tot := p.TotalCycles()
	if tot == 0 {
		return 0
	}
	return float64(p.ActiveCycles) / float64(tot)
}

// MeanIdle returns the average idle interval length, or 0 if none.
func (p *IdleProfile) MeanIdle() float64 {
	n := p.IntervalCount()
	if n == 0 {
		return 0
	}
	return float64(p.IdleCycles()) / float64(n)
}

// Merge accumulates o into p (used to aggregate multiple functional units).
// When p has columns, the two sorted column sets are merged in linear time
// and the prefix sums rebuilt once. Like AddIdle, it skips lengths below 1
// and zero counts, which only a struct-literal o can hold.
func (p *IdleProfile) Merge(o *IdleProfile) {
	p.ActiveCycles += o.ActiveCycles
	ov := o.columns()
	if len(ov.lengths) == 0 {
		return
	}
	if p.hasColumns() {
		p.mergeColumns(ov)
	}
	for i, l := range ov.lengths {
		if c := ov.count(i); l > 0 && c != 0 {
			if p.Intervals == nil {
				p.Intervals = make(map[int]uint64, len(ov.lengths))
			}
			p.Intervals[l] += c
		}
	}
}

// mergeColumns replaces p's columns with the merge of p's and ov's, or
// drops them when the merged idle total would reach exactLimit. The new
// columns are freshly allocated at the exact merged size, so ov may be a
// view of p itself.
func (p *IdleProfile) mergeColumns(ov idleColumns) {
	pv := p.columns()
	if !ov.exact || ov.idle() >= exactLimit-pv.idle() {
		p.dropColumns()
		return
	}
	n := 0
	eachMerged(pv, ov, func(int, uint64) { n++ })
	lengths := make([]int, 0, n)
	cumN := make([]uint64, 0, n)
	cumL := make([]uint64, 0, n)
	var sumN, sumL uint64
	eachMerged(pv, ov, func(l int, c uint64) {
		sumN += c
		sumL += c * uint64(l)
		lengths = append(lengths, l)
		cumN = append(cumN, sumN)
		cumL = append(cumL, sumL)
	})
	p.lengths, p.cumN, p.cumL = lengths, cumN, cumL
}

// eachMerged calls f with each length of the union of pv's and ov's, in
// ascending order, and its summed count. A length of ov alone that AddIdle
// would ignore (below 1, or a zero count) is skipped.
func eachMerged(pv, ov idleColumns, f func(l int, c uint64)) {
	a, b := pv.lengths, ov.lengths
	for i, j := 0, 0; i < len(a) || j < len(b); {
		switch {
		case j == len(b) || (i < len(a) && a[i] < b[j]):
			f(a[i], pv.count(i))
			i++
		case i == len(a) || b[j] < a[i]:
			if c := ov.count(j); b[j] > 0 && c != 0 {
				f(b[j], c)
			}
			j++
		default:
			f(a[i], pv.count(i)+ov.count(j))
			i++
			j++
		}
	}
}

// SortedLengths returns the distinct interval lengths in ascending order.
// For a profile with columns it returns the profile's own length column,
// which callers must not modify. Otherwise (a struct-literal or
// JSON-decoded profile) it returns a freshly sorted copy of the keys and
// leaves the profile untouched, so concurrent readers never race.
func (p *IdleProfile) SortedLengths() []int {
	if p.hasColumns() {
		return p.lengths
	}
	ls := make([]int, 0, len(p.Intervals))
	for l := range p.Intervals {
		ls = append(ls, l)
	}
	sort.Ints(ls)
	return ls
}

// idleColumns is a read-only view of a profile's sorted columns: ascending
// lengths with the inclusive prefix sums of count and of idle cycles.
// exact reports that the idle total is below exactLimit (no prefix sum
// wrapped or lost precision), which the closed forms of scoreColumns need.
type idleColumns struct {
	lengths    []int
	cumN, cumL []uint64
	exact      bool
}

// columns returns p's own columns when they cover its map, and otherwise a
// view built from the map for this call alone; p is never written.
func (p *IdleProfile) columns() idleColumns {
	if p.hasColumns() {
		return idleColumns{lengths: p.lengths, cumN: p.cumN, cumL: p.cumL, exact: true}
	}
	v := idleColumns{
		lengths: p.SortedLengths(),
		cumN:    make([]uint64, len(p.Intervals)),
		cumL:    make([]uint64, len(p.Intervals)),
		exact:   true,
	}
	var sumN, sumL uint64
	for i, l := range v.lengths {
		c := p.Intervals[l]
		hi, cycles := bits.Mul64(c, uint64(l))
		if hi != 0 || cycles >= exactLimit-sumL {
			v.exact = false
		}
		sumN += c
		sumL += cycles
		v.cumN[i], v.cumL[i] = sumN, sumL
	}
	return v
}

// count returns the number of intervals of the i-th length.
func (v idleColumns) count(i int) uint64 {
	if i == 0 {
		return v.cumN[0]
	}
	return v.cumN[i] - v.cumN[i-1]
}

// idle returns the total idle cycles (wrapping like IdleCycles).
func (v idleColumns) idle() uint64 {
	if len(v.cumL) == 0 {
		return 0
	}
	return v.cumL[len(v.cumL)-1]
}

// EvalProfile computes the equation-(3) energy of running policy pc over the
// measured activity in prof: every idle interval is handled per the policy
// (AlwaysActive leaves it uncontrolled; MaxSleep converts all of it to sleep
// cycles plus one transition; NoOverhead omits the transition; GradualSleep
// splits it per the staggered slice schedule; OracleMinimal sleeps exactly
// when the interval is at least the breakeven length).
func (t Tech) EvalProfile(pc PolicyConfig, alpha float64, prof *IdleProfile) Breakdown {
	cc, err := t.ProfileCounts(pc, alpha, prof)
	if err != nil {
		panic(err) // validated inputs only; exported wrapper below returns errors
	}
	return t.Energy(alpha, cc)
}

// ProfileCounts returns the cycle-count aggregate that policy pc produces
// over the measured activity in prof.
func (t Tech) ProfileCounts(pc PolicyConfig, alpha float64, prof *IdleProfile) (CycleCounts, error) {
	if !ValidAlpha(alpha) {
		return CycleCounts{}, ErrAlpha
	}
	if err := t.Validate(); err != nil {
		return CycleCounts{}, err
	}
	switch pc.Policy {
	case AlwaysActive, MaxSleep, NoOverhead, GradualSleep, OracleMinimal, SleepTimeout:
	default:
		return CycleCounts{}, fmt.Errorf("core: unknown policy %v", pc.Policy)
	}
	return t.scoreColumns(pc, alpha, prof.ActiveCycles, prof.columns()), nil
}

// scoreColumns is the one scoring path of ProfileCounts, over a profile's
// sorted columns. The whole-profile policies read the column totals in
// O(1). OracleMinimal (l >= breakeven) and SleepTimeout (l > T, T a whole
// number of cycles) split the lengths with one binary search and take
// prefix differences; with an idle total below 2^53 every term is an exact
// integer, so this equals the ascending per-length sum bit for bit.
// GradualSleep's terms are fractional, so it walks the columns in
// ascending order, as do OracleMinimal and SleepTimeout on an inexact
// profile: float64 addition does not associate, and the fixed order keeps
// the low bits of the energy model (and everything hashed from it) stable.
//
//fusleepvet:hotpath
func (t Tech) scoreColumns(pc PolicyConfig, alpha float64, active uint64, v idleColumns) CycleCounts {
	cc := CycleCounts{Active: float64(active)}
	n := len(v.lengths)
	if n == 0 {
		return cc
	}
	idle, num := v.cumL[n-1], v.cumN[n-1]
	switch pc.Policy {
	case AlwaysActive:
		cc.UncontrolledIdle = float64(idle)
	case MaxSleep:
		cc.Sleep = float64(idle)
		cc.Transitions = float64(num)
	case NoOverhead:
		cc.Sleep = float64(idle)
	case GradualSleep:
		v.walk(&cc, GradualSleep, pc.slices(t, alpha), 0)
	case OracleMinimal:
		be := t.Breakeven(alpha)
		if !v.exact {
			v.walk(&cc, OracleMinimal, 0, be)
			break
		}
		// Lengths [0, k) stay awake: !(l >= be), so a NaN threshold
		// sleeps nothing, as the per-length test does.
		k := sort.Search(n, func(i int) bool { return float64(v.lengths[i]) >= be })
		var awakeN, awakeL uint64
		if k > 0 {
			awakeN, awakeL = v.cumN[k-1], v.cumL[k-1]
		}
		cc.UncontrolledIdle = float64(awakeL)
		cc.Sleep = float64(idle - awakeL)
		cc.Transitions = float64(num - awakeN)
	case SleepTimeout:
		T := pc.timeout(t, alpha)
		if !v.exact {
			v.walk(&cc, SleepTimeout, 0, T)
			break
		}
		// Lengths [0, k) never sleep (l <= T); each longer one idles T
		// cycles, then sleeps l-T. T is a whole number below every long
		// length, so T times their count stays below the idle total.
		k := sort.Search(n, func(i int) bool { return !(float64(v.lengths[i]) <= T) })
		var shortN, shortL uint64
		if k > 0 {
			shortN, shortL = v.cumN[k-1], v.cumL[k-1]
		}
		longN := float64(num - shortN)
		cc.UncontrolledIdle = float64(shortL) + T*longN
		cc.Sleep = float64(idle-shortL) - T*longN
		cc.Transitions = longN
	}
	return cc
}

// walk adds each length's split under policy (GradualSleep with k slices,
// OracleMinimal at breakeven x, SleepTimeout at threshold x) to cc,
// weighted by its count, in ascending length order.
//
// A GradualSleep interval of at least k cycles puts every slice to sleep,
// so its split is the same uncontrolled share for every such length, one
// transition, and the rest asleep: computed once, the same values
// gradualSplit returns, without its divisions.
//
//fusleepvet:hotpath
func (v idleColumns) walk(cc *CycleCounts, policy Policy, k int, x float64) {
	kf := float64(k)
	fullUI, _, _ := gradualSplit(kf, k)
	var prev uint64
	for i, l := range v.lengths {
		nf := float64(v.cumN[i] - prev)
		prev = v.cumN[i]
		lf := float64(l)
		var ui, slp, trans float64
		switch {
		case policy == GradualSleep && lf >= kf:
			ui, slp, trans = fullUI, lf-fullUI, 1
		case policy == GradualSleep:
			ui, slp, trans = gradualSplit(lf, k)
		case policy == SleepTimeout:
			ui, slp, trans = timeoutSplit(lf, x)
		default:
			ui, slp, trans = oracleSplit(lf, x)
		}
		cc.UncontrolledIdle += nf * ui
		cc.Sleep += nf * slp
		cc.Transitions += nf * trans
	}
}

// oracleSplit returns the uncontrolled/sleep/transition split of one idle
// interval of length l under OracleMinimal: it sleeps, with one transition,
// exactly when l is at least the breakeven length be.
func oracleSplit(l, be float64) (ui, sleep, trans float64) {
	if l >= be {
		return 0, l, 1
	}
	return l, 0, 0
}

// IntervalEnergy returns the energy expended handling a single idle interval
// of length l under policy pc, excluding the preceding active cycles. This
// is the quantity plotted in Figure 5c ("energy to transition to the sleep
// mode" versus idle interval).
func (t Tech) IntervalEnergy(pc PolicyConfig, alpha float64, l int) float64 {
	prof := NewIdleProfile()
	prof.AddIdle(l, 1)
	return t.EvalProfile(pc, alpha, prof).Total()
}
