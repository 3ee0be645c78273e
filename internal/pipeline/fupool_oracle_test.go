package pipeline

import "github.com/archsim/fusleep/internal/core"

// oraclePool is the per-cycle busy/idle recorder that transition-driven
// recording replaced: tick scans every unit every cycle and accumulates
// active cycles and idle-run lengths incrementally. It is kept verbatim as
// the test oracle — the property and fuzz tests drive a classPool and an
// oraclePool with the same allocation sequence and require identical
// profiles, pinning the transition recorder to the per-cycle semantics the
// golden captures were made under.
type oraclePool struct {
	busyUntil []uint64
	rr        int

	active    []uint64
	idleRun   []int
	intervals []map[int]uint64
}

func newOraclePool(n int) *oraclePool {
	p := &oraclePool{
		busyUntil: make([]uint64, n),
		active:    make([]uint64, n),
		idleRun:   make([]int, n),
		intervals: make([]map[int]uint64, n),
	}
	for i := range p.intervals {
		p.intervals[i] = make(map[int]uint64)
	}
	return p
}

// tryAllocate mirrors classPool.tryAllocate minus the recording: same
// round-robin scan, same busyUntil update, so both pools pick the same
// unit for every allocation in a lock-step drive.
func (p *oraclePool) tryAllocate(now uint64, lat int) (int, bool) {
	n := len(p.busyUntil)
	for i := 0; i < n; i++ {
		idx := (p.rr + i) % n
		if p.busyUntil[idx] <= now {
			p.busyUntil[idx] = now + uint64(lat)
			p.rr = (idx + 1) % n
			return idx, true
		}
	}
	return 0, false
}

// tick records each unit's activity for cycle now; call exactly once per
// simulated cycle after issue.
func (p *oraclePool) tick(now uint64) {
	for i, bu := range p.busyUntil {
		if bu > now {
			p.active[i]++
			if run := p.idleRun[i]; run > 0 {
				p.intervals[i][run]++
				p.idleRun[i] = 0
			}
		} else {
			p.idleRun[i]++
		}
	}
}

// flush closes trailing idle intervals at end of simulation.
func (p *oraclePool) flush() {
	for i, run := range p.idleRun {
		if run > 0 {
			p.intervals[i][run]++
			p.idleRun[i] = 0
		}
	}
}

// profiles matches classPool.profiles for comparison. The oracle keeps
// every run in the map, so the delegate's short histogram is all zeros.
func (p *oraclePool) profiles() []core.IdleProfile {
	cp := &classPool{
		busyUntil: p.busyUntil,
		active:    p.active,
		short:     make([]uint64, len(p.busyUntil)*shortRunCap),
		intervals: p.intervals,
	}
	return cp.profiles()
}
