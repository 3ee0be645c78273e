package pipeline

import (
	"sort"

	"github.com/archsim/fusleep/internal/core"
)

// classPool models one functional-unit class of the machine. Operations are
// allocated round-robin across the class's units, as in the paper's
// methodology ("we allocate operations to the set of functional units in
// round robin fashion"), and each unit's busy/idle activity is recorded at
// the alloc/expiry transitions so every class — not just the integer ALUs —
// yields the idle-interval profiles the per-class energy study needs.
//
// Round-robin start position only affects which of the currently-free units
// is taken, never whether an allocation succeeds now or later (free units
// are interchangeable for future availability), so the multiplier and FP
// pools — previously first-free scans without recording — keep identical
// timing under this pool.
//
// Recording is transition-driven: a unit's busy span is fully known at
// allocation time (busyUntil = now + lat), so tryAllocate closes the idle
// run that the allocation ends and charges the active cycles up front,
// and flush settles the trailing run against the simulated horizon. The
// per-cycle scan this replaces (every unit of every pool, every cycle) was
// the simulator's dominant self-inflicted cost once all five classes
// recorded; the per-cycle oracle survives in fupool_oracle_test.go and the
// property test pins the two recorders to identical profiles.
// shortRunCap bounds the direct-indexed part of the idle-run histogram:
// runs shorter than this increment a flat counter array, longer runs fall
// back to the map. Short runs dominate on busy units (the common recording
// case), so the hot path avoids the map entirely.
const shortRunCap = 128

type classPool struct {
	busyUntil []uint64
	// idleFrom[i] is the cycle unit i's current idle run started: the end
	// of its last real (lat > 0) busy span. Zero-latency allocations leave
	// it untouched — the per-cycle view never sees such a unit busy.
	idleFrom []uint64
	rr       int

	active []uint64
	// short[i*shortRunCap+run] counts unit i's idle runs of length
	// run < shortRunCap; intervals[i] holds the long tail. profiles()
	// merges the two views.
	short     []uint64
	intervals []map[int]uint64
}

func newClassPool(n int) *classPool {
	p := &classPool{
		busyUntil: make([]uint64, n),
		idleFrom:  make([]uint64, n),
		active:    make([]uint64, n),
		short:     make([]uint64, n*shortRunCap),
		intervals: make([]map[int]uint64, n),
	}
	for i := range p.intervals {
		p.intervals[i] = make(map[int]uint64)
	}
	return p
}

// record counts one idle run of length run on unit idx.
//
//fusleepvet:hotpath
func (p *classPool) record(idx int, run uint64) {
	if run < shortRunCap {
		p.short[idx*shortRunCap+int(run)]++
		return
	}
	p.intervals[idx][int(run)]++
}

// tryAllocate finds a unit free at cycle now, scanning round-robin from the
// unit after the last allocation. It returns the unit index, marks it busy
// for lat cycles, and records the busy/idle transition: the idle run ending
// at now (if any) is closed into the interval histogram and the lat active
// cycles are charged immediately. flush trims the charge back to the
// simulated horizon for spans still in flight at the end of the run.
//
//fusleepvet:hotpath
func (p *classPool) tryAllocate(now uint64, lat int) (int, bool) {
	n := len(p.busyUntil)
	idx := p.rr
	for i := 0; i < n; i++ {
		if idx >= n {
			idx -= n
		}
		if p.busyUntil[idx] <= now {
			if lat > 0 {
				if run := now - p.idleFrom[idx]; run > 0 {
					p.record(idx, run)
				}
				p.active[idx] += uint64(lat)
				p.idleFrom[idx] = now + uint64(lat)
			}
			p.busyUntil[idx] = now + uint64(lat)
			// rr may momentarily equal n; the wrap check at the top of the
			// next scan normalizes it, replacing two mods per probe.
			p.rr = idx + 1
			return idx, true
		}
		idx++
	}
	return 0, false
}

// flush settles each unit's open run against the simulated horizon: cycles
// [0, end) were simulated, so a unit still busy at end hands back the
// active cycles charged past the horizon, and a free unit's trailing idle
// run is closed into the histogram. Call exactly once, at end of
// simulation — on every exit path, including cancellation, so partial-run
// profiles never drop the open run.
//
//fusleepvet:hotpath
func (p *classPool) flush(end uint64) {
	for i, bu := range p.busyUntil {
		if bu >= end {
			// Still busy at the horizon (or the window is empty): trim the
			// overcharged tail. Allocations only happen on simulated cycles,
			// so bu > end implies a real busy span crossing the horizon.
			p.active[i] -= bu - end
			continue
		}
		if run := end - p.idleFrom[i]; run > 0 {
			p.record(i, run)
		}
	}
}

// profiles snapshots the pool's per-unit activity into self-contained
// energy-model profiles (interval maps copied). Each profile is sized for
// its distinct lengths — the nonzero short buckets plus the long-tail keys
// — and fed to AddIdle in ascending order (the short array, then the
// sorted long-tail keys), so the profiles are born sorted, every AddIdle
// appends, and nothing grows after the first allocation.
func (p *classPool) profiles() []core.IdleProfile {
	out := make([]core.IdleProfile, len(p.busyUntil))
	for i := range out {
		short := p.short[i*shortRunCap : (i+1)*shortRunCap]
		n := len(p.intervals[i])
		for _, c := range short {
			if c != 0 {
				n++
			}
		}
		prof := core.NewIdleProfileSized(n)
		prof.ActiveCycles = p.active[i]
		for l, c := range short {
			prof.AddIdle(l, c)
		}
		long := make([]int, 0, len(p.intervals[i]))
		for l := range p.intervals[i] {
			long = append(long, l)
		}
		sort.Ints(long)
		for _, l := range long {
			prof.AddIdle(l, p.intervals[i][l])
		}
		out[i] = *prof
	}
	return out
}
