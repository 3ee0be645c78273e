package core

import (
	"fmt"
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
// An IdleProfile is safe for concurrent reads: no read method writes to
// it. Writes (AddIdle, Merge) need exclusive access.
type IdleProfile struct {
	ActiveCycles uint64
	// Intervals maps idle interval length (cycles) to occurrence count.
	// Populate it through AddIdle, which keeps the sorted key index below
	// in step; a directly-assigned map (a decoded wire profile or a
	// struct literal) is still read correctly, at the cost of a sort per
	// SortedLengths call.
	Intervals map[int]uint64
	// lengths holds the keys of Intervals in ascending order. The
	// evaluation paths that iterate intervals (ProfileCounts accumulates
	// float64 sums, which do not associate) walk it, so an
	// AddIdle-built profile is never sorted on the evaluation path.
	lengths []int
}

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
	}
}

// AddIdle records count idle intervals of the given length. A new length
// is inserted into the sorted key index in place; lengths fed in
// ascending order only append.
func (p *IdleProfile) AddIdle(length int, count uint64) {
	if length <= 0 || count == 0 {
		return
	}
	if p.Intervals == nil {
		p.Intervals = make(map[int]uint64)
	}
	if _, seen := p.Intervals[length]; !seen {
		if n := len(p.lengths); n == 0 || p.lengths[n-1] < length {
			p.lengths = append(p.lengths, length)
		} else {
			i := sort.SearchInts(p.lengths, length)
			p.lengths = append(p.lengths, 0)
			copy(p.lengths[i+1:], p.lengths[i:])
			p.lengths[i] = length
		}
	}
	p.Intervals[length] += count
}

// IdleCycles returns the total idle cycles across all intervals.
func (p *IdleProfile) IdleCycles() uint64 {
	var n uint64
	for l, c := range p.Intervals {
		n += uint64(l) * c
	}
	return n
}

// IntervalCount returns the total number of idle intervals.
func (p *IdleProfile) IntervalCount() uint64 {
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
func (p *IdleProfile) Merge(o *IdleProfile) {
	p.ActiveCycles += o.ActiveCycles
	for _, l := range o.SortedLengths() {
		p.AddIdle(l, o.Intervals[l])
	}
}

// SortedLengths returns the distinct interval lengths in ascending order.
// For a profile built through AddIdle it returns the profile's own index,
// which callers must not modify. When the index does not cover the map (a
// struct-literal or JSON-decoded profile) it returns a freshly sorted copy
// of the keys and leaves the profile untouched, so concurrent readers never
// race.
func (p *IdleProfile) SortedLengths() []int {
	if len(p.lengths) == len(p.Intervals) {
		return p.lengths
	}
	ls := make([]int, 0, len(p.Intervals))
	for l := range p.Intervals {
		ls = append(ls, l)
	}
	sort.Ints(ls)
	return ls
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
	cc := CycleCounts{Active: float64(prof.ActiveCycles)}
	switch pc.Policy {
	case AlwaysActive:
		cc.UncontrolledIdle = float64(prof.IdleCycles())
	case MaxSleep:
		cc.Sleep = float64(prof.IdleCycles())
		cc.Transitions = float64(prof.IntervalCount())
	case NoOverhead:
		cc.Sleep = float64(prof.IdleCycles())
	// The per-interval cases below accumulate float64 sums. FP addition does
	// not associate, so they walk SortedLengths() — ascending order — rather
	// than the Intervals map directly: map iteration order would make the
	// low bits of the energy model (and everything hashed from it) vary run
	// to run.
	case GradualSleep:
		k := pc.slices(t, alpha)
		for _, l := range prof.SortedLengths() {
			ui, slp, trans := gradualSplit(float64(l), k)
			nf := float64(prof.Intervals[l])
			cc.UncontrolledIdle += nf * ui
			cc.Sleep += nf * slp
			cc.Transitions += nf * trans
		}
	case OracleMinimal:
		be := t.Breakeven(alpha)
		for _, l := range prof.SortedLengths() {
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
		for _, l := range prof.SortedLengths() {
			ui, slp, trans := timeoutSplit(float64(l), T)
			nf := float64(prof.Intervals[l])
			cc.UncontrolledIdle += nf * ui
			cc.Sleep += nf * slp
			cc.Transitions += nf * trans
		}
	default:
		return CycleCounts{}, fmt.Errorf("core: unknown policy %v", pc.Policy)
	}
	return cc, nil
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
