package core

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
)

// Policy identifies a sleep-mode management strategy.
type Policy int

const (
	// AlwaysActive never asserts the Sleep signal; idle cycles are
	// clock-gated only ("uncontrolled idle"). It is the do-nothing baseline.
	AlwaysActive Policy = iota

	// MaxSleep asserts the Sleep signal on every idle cycle, paying the
	// transition cost at the start of every idle interval.
	MaxSleep

	// NoOverhead is MaxSleep with free transitions: an unachievable lower
	// bound on energy (equivalently, an upper bound on possible savings).
	NoOverhead

	// GradualSleep staggers the Sleep signal across K circuit slices via a
	// shift register, putting one K-th of the unit to sleep on each
	// successive idle cycle (Section 3.2 of the paper).
	GradualSleep

	// OracleMinimal chooses, for each idle interval independently and with
	// perfect knowledge of its length, the cheaper of sleeping immediately
	// or staying in uncontrolled idle. It is the min(E_MS, E_AA) hybrid the
	// paper describes as "the best combination of the two policies".
	OracleMinimal
)

// Policies lists the four policies evaluated in the paper's result figures,
// in the bar order of Figure 8.
var Policies = []Policy{MaxSleep, GradualSleep, AlwaysActive, NoOverhead}

// String returns the paper's name for the policy, or "Policy(N)" for a
// value that names none.
func (p Policy) String() string {
	if name, ok := p.name(); ok {
		return name
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// Valid reports whether p names a defined policy.
func (p Policy) Valid() bool {
	_, ok := p.name()
	return ok
}

// name returns the paper's name for a defined policy.
func (p Policy) name() (string, bool) {
	switch p {
	case AlwaysActive:
		return "AlwaysActive", true
	case MaxSleep:
		return "MaxSleep", true
	case NoOverhead:
		return "NoOverhead", true
	case GradualSleep:
		return "GradualSleep", true
	case OracleMinimal:
		return "OracleMinimal", true
	case SleepTimeout:
		return "SleepTimeout", true
	}
	return "", false
}

// ParsePolicy maps a policy's paper name (as produced by String) back to its
// value. Matching is case-insensitive.
func ParsePolicy(name string) (Policy, error) {
	for _, p := range []Policy{AlwaysActive, MaxSleep, NoOverhead, GradualSleep, OracleMinimal, SleepTimeout} {
		if strings.EqualFold(name, p.String()) {
			return p, nil
		}
	}
	return 0, fmt.Errorf("core: unknown policy %q (have AlwaysActive, MaxSleep, NoOverhead, GradualSleep, OracleMinimal, SleepTimeout)", name)
}

// MarshalJSON encodes the policy by name, so wire formats stay readable and
// stable if the enum values ever shift. A value that names no policy is an
// error, as an invalid fu.Class is: its "Policy(N)" form would not decode.
func (p Policy) MarshalJSON() ([]byte, error) {
	name, ok := p.name()
	if !ok {
		return nil, fmt.Errorf("core: cannot marshal invalid policy %d", int(p))
	}
	return json.Marshal(name)
}

// UnmarshalJSON accepts a policy name.
func (p *Policy) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err != nil {
		return err
	}
	got, err := ParsePolicy(name)
	if err != nil {
		return err
	}
	*p = got
	return nil
}

// PolicyConfig pairs a policy with its tuning knobs.
type PolicyConfig struct {
	Policy Policy `json:"policy"`
	// Slices is the GradualSleep slice count K. Zero selects the paper's
	// recommendation of one slice per breakeven-interval cycle.
	Slices int `json:"slices,omitempty"`
	// Timeout is the SleepTimeout threshold in idle cycles before the
	// Sleep signal asserts. Zero selects the breakeven interval, which
	// makes the policy 2-competitive.
	Timeout int `json:"timeout,omitempty"`
}

// slices resolves the effective slice count for GradualSleep.
func (pc PolicyConfig) slices(t Tech, alpha float64) int {
	if pc.Slices > 0 {
		return pc.Slices
	}
	return t.BreakevenSlices(alpha)
}

// Scenario is the abstract workload of Section 3.1: totalCycles T split by a
// usage factor f_A into active and idle time, with idle time arriving in
// intervals of a fixed mean length. It exists to reproduce the model-space
// explorations of Figure 4 before any simulation is run.
type Scenario struct {
	TotalCycles float64 // T
	Usage       float64 // f_A in [0,1]: fraction of cycles that are active
	MeanIdle    float64 // L_idle: average idle interval duration, cycles
	Alpha       float64 // activity factor
}

// Validate reports whether the scenario parameters are in-domain.
func (s Scenario) Validate() error {
	switch {
	case s.TotalCycles <= 0:
		return fmt.Errorf("core: scenario needs positive TotalCycles, got %g", s.TotalCycles)
	case s.Usage < 0 || s.Usage > 1:
		return fmt.Errorf("core: usage factor %g out of range [0,1]", s.Usage)
	case s.MeanIdle <= 0 && s.Usage < 1:
		return fmt.Errorf("core: scenario needs positive MeanIdle, got %g", s.MeanIdle)
	case !ValidAlpha(s.Alpha):
		return ErrAlpha
	default:
		return nil
	}
}

// Counts returns the cycle-count aggregate (equations (6)-(8)) for policy pc
// under scenario s: N_A = f_A*T; AlwaysActive spends all idle cycles
// uncontrolled; MaxSleep and NoOverhead spend them asleep with
// N_tr = min(N_A, idle/L) transitions (each transition must follow at least
// one active cycle); GradualSleep splits each mean-length interval between
// uncontrolled and sleep cycles according to the staggered slice schedule.
func (s Scenario) Counts(t Tech, pc PolicyConfig) CycleCounts {
	active := s.Usage * s.TotalCycles
	idle := (1 - s.Usage) * s.TotalCycles
	if idle == 0 {
		return CycleCounts{Active: active}
	}
	nIntervals := idle / s.MeanIdle
	if nIntervals > active && active > 0 {
		nIntervals = active
	}
	switch pc.Policy {
	case AlwaysActive:
		return CycleCounts{Active: active, UncontrolledIdle: idle}
	case MaxSleep:
		return CycleCounts{Active: active, Sleep: idle, Transitions: nIntervals}
	case NoOverhead:
		return CycleCounts{Active: active, Sleep: idle}
	case GradualSleep:
		k := pc.slices(t, s.Alpha)
		ui, slp, trans := gradualSplit(s.MeanIdle, k)
		return CycleCounts{
			Active:           active,
			UncontrolledIdle: nIntervals * ui,
			Sleep:            nIntervals * slp,
			Transitions:      nIntervals * trans,
		}
	case OracleMinimal:
		if s.MeanIdle >= t.Breakeven(s.Alpha) {
			return CycleCounts{Active: active, Sleep: idle, Transitions: nIntervals}
		}
		return CycleCounts{Active: active, UncontrolledIdle: idle}
	case SleepTimeout:
		ui, slp, trans := timeoutSplit(s.MeanIdle, pc.timeout(t, s.Alpha))
		return CycleCounts{
			Active:           active,
			UncontrolledIdle: nIntervals * ui,
			Sleep:            nIntervals * slp,
			Transitions:      nIntervals * trans,
		}
	default:
		panic(fmt.Sprintf("core: unknown policy %v", pc.Policy))
	}
}

// PolicyEnergy evaluates equation (3) for policy pc under scenario s.
func (t Tech) PolicyEnergy(pc PolicyConfig, s Scenario) Breakdown {
	return t.Energy(s.Alpha, s.Counts(t, pc))
}

// RelativeToBase returns E_policy / E_base, the normalization used in
// Figures 4b-4d and 8: the policy's energy relative to a unit that computes
// on 100% of the cycles.
func (t Tech) RelativeToBase(pc PolicyConfig, s Scenario) float64 {
	return t.PolicyEnergy(pc, s).Total() / t.BaseEnergy(s.Alpha, s.TotalCycles)
}

// gradualSplit returns, for one idle interval of (possibly fractional)
// length l under a K-slice GradualSleep unit, the expected uncontrolled-idle
// cycles, sleep cycles, and transition-equivalents (fraction of a full-unit
// transition paid). Slice i (1-based) enters sleep mode at the i-th idle
// cycle, so over the interval it spends min(i-1, l) cycles uncontrolled and
// max(l-(i-1), 0) cycles asleep, and pays 1/K of the transition cost if it
// slept at all.
func gradualSplit(l float64, k int) (ui, sleep, trans float64) {
	if l <= 0 {
		return 0, 0, 0
	}
	kf := float64(k)
	m := math.Min(math.Ceil(l), kf) // number of slices that enter sleep
	// Slices 1..m wait (i-1) cycles uncontrolled before sleeping; the
	// remaining k-m slices stay uncontrolled for the whole interval.
	ui = (m*(m-1)/2 + (kf-m)*l) / kf
	sleep = l - ui
	trans = m / kf
	return ui, sleep, trans
}
