package pipeline

import (
	"github.com/archsim/fusleep/internal/bpred"
	"github.com/archsim/fusleep/internal/cache"
	"github.com/archsim/fusleep/internal/core"
	"github.com/archsim/fusleep/internal/fu"
	"github.com/archsim/fusleep/internal/tlb"
)

// ClassProfile is the measured activity of one functional-unit class: one
// profile per unit of the class's pool.
type ClassProfile struct {
	Class fu.Class           `json:"class"`
	Units []core.IdleProfile `json:"units"`
}

// Result summarizes one simulation run.
type Result struct {
	Cycles    uint64
	Committed uint64
	Fetched   uint64

	// FUs holds one profile per integer functional unit — the legacy view
	// of the IntALU class, kept so single-pool consumers and the
	// pre-refactor golden captures read unchanged.
	FUs []core.IdleProfile

	Bpred bpred.Stats
	L1I   cache.Stats
	L1D   cache.Stats
	L2    cache.Stats
	ITLB  tlb.Stats
	DTLB  tlb.Stats

	// LoadForwards counts loads satisfied by store-queue forwarding.
	LoadForwards uint64
	// FetchMispredictStalls counts cycles fetch was blocked awaiting a
	// mispredicted branch's resolution plus redirect.
	FetchMispredictStalls uint64
	// ClassCounts tallies committed instructions by class index.
	ClassCounts [16]uint64
	// QuietCycles counts the quiescent cycles the run loop jumped over
	// instead of stepping: cycles in which no pipeline stage could change
	// any state. It describes how the simulator ran, not the simulated
	// machine, so it stays out of the JSON form and the golden captures;
	// it is deterministic all the same.
	QuietCycles uint64 `json:"-"`

	// Classes holds the per-class activity profiles in fu.Class order. The
	// AGU class appears only when the machine has a dedicated AGU pool;
	// with the default shared configuration its activity lands in the
	// IntALU profiles, exactly as the single-pool model measured it.
	Classes []ClassProfile
}

// UnitsFor returns the class's per-unit profiles, or nil when the class has
// no pool of its own (AGU on a shared-port machine).
func (r Result) UnitsFor(c fu.Class) []core.IdleProfile {
	for _, cp := range r.Classes {
		if cp.Class == c {
			return cp.Units
		}
	}
	return nil
}

// IPC returns committed instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Committed) / float64(r.Cycles)
}

// TotalFUActive sums active cycles across the integer units.
func (r Result) TotalFUActive() uint64 {
	var n uint64
	for _, f := range r.FUs {
		n += f.ActiveCycles
	}
	return n
}

// MeanFUUtilization averages per-unit utilization.
func (r Result) MeanFUUtilization() float64 {
	if len(r.FUs) == 0 {
		return 0
	}
	var s float64
	for i := range r.FUs {
		s += r.FUs[i].Usage()
	}
	return s / float64(len(r.FUs))
}
