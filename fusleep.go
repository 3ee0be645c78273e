package fusleep

import (
	"github.com/archsim/fusleep/internal/circuit"
	"github.com/archsim/fusleep/internal/core"
	"github.com/archsim/fusleep/internal/experiments"
	"github.com/archsim/fusleep/internal/fu"
	"github.com/archsim/fusleep/internal/workload"
)

// Core energy-model types, re-exported from the implementation package.
type (
	// Tech holds the four technology parameters of the energy model:
	// leakage factor p, low/high leakage ratio c, sleep-assert overhead,
	// and clock duty cycle.
	Tech = core.Tech
	// Policy identifies a sleep-management strategy.
	Policy = core.Policy
	// PolicyConfig pairs a policy with its tuning knobs (GradualSleep
	// slice count).
	PolicyConfig = core.PolicyConfig
	// Breakdown splits normalized energy by physical source.
	Breakdown = core.Breakdown
	// CycleCounts aggregates active / uncontrolled-idle / sleep cycles and
	// sleep transitions.
	CycleCounts = core.CycleCounts
	// Scenario is the closed-form workload of the paper's Section 3.1.
	Scenario = core.Scenario
	// IdleProfile is a functional unit's measured activity: active cycles
	// plus the multiset of idle interval lengths.
	IdleProfile = core.IdleProfile
	// Controller is the cycle-by-cycle executable form of a policy.
	Controller = core.Controller
)

// The sleep-management policies of the paper, plus the SleepTimeout
// extension (a breakeven-threshold ski-rental controller).
const (
	AlwaysActive  = core.AlwaysActive
	MaxSleep      = core.MaxSleep
	NoOverhead    = core.NoOverhead
	GradualSleep  = core.GradualSleep
	OracleMinimal = core.OracleMinimal
	SleepTimeout  = core.SleepTimeout
)

// Policies lists the four policies of the result figures in bar order.
var Policies = core.Policies

// ParsePolicy maps a policy's paper name (case-insensitively) back to its
// value — the inverse of Policy.String, for wire formats and flags.
func ParsePolicy(name string) (Policy, error) { return core.ParsePolicy(name) }

// ParsePolicyConfig parses the Policy[:slices=K][:timeout=T] term syntax —
// the inverse of PolicyConfig.String, for flags and assignment terms.
func ParsePolicyConfig(s string) (PolicyConfig, error) { return core.ParsePolicyConfig(s) }

// Per-class sleep management: functional-unit classes and policy
// assignments, re-exported from the implementation packages. The paper's
// classes differ in idle-interval structure and breakeven point, so a
// machine carries one policy (and optionally one technology point) per
// class instead of one policy for every unit.
type (
	// FUClass identifies one functional-unit class of the Table 2 machine.
	FUClass = fu.Class
	// Assignment maps classes to their sleep-policy configuration; it
	// JSON-encodes as an object keyed by class name.
	Assignment = core.Assignment
)

// The functional-unit classes of the simulated machine. FUAGU shares the
// integer ALU ports unless the machine provisions dedicated AGUs.
const (
	FUIntALU = fu.IntALU
	FUAGU    = fu.AGU
	FUMult   = fu.Mult
	FUFPALU  = fu.FPALU
	FUFPMult = fu.FPMult
)

// FUClasses lists every functional-unit class in canonical order.
func FUClasses() []FUClass { return fu.Classes() }

// ParseFUClass maps a class name ("intalu", "agu", "mult", "fpalu",
// "fpmult", case-insensitively) to its value.
func ParseFUClass(name string) (FUClass, error) { return fu.ParseClass(name) }

// ParseFUClasses parses a comma-separated class list, rejecting
// duplicates.
func ParseFUClasses(s string) ([]FUClass, error) { return fu.ParseClasses(s) }

// UniformAssignment assigns one policy configuration to every class — the
// assignment that reproduces the single-pool results.
func UniformAssignment(pc PolicyConfig) Assignment { return core.UniformAssignment(pc) }

// ParseAssignment parses comma-separated class=Policy[:slices=K][:timeout=T]
// terms ("intalu=GradualSleep:slices=4,fpalu=MaxSleep") — the inverse of
// Assignment.String, for flags and wire formats.
func ParseAssignment(s string) (Assignment, error) { return core.ParseAssignment(s) }

// ClassBreakeven resolves one class's breakeven idle interval under its
// effective technology point (the per-class override when present, else
// the default) — the quantity that drives each class's GradualSleep slice
// count and SleepTimeout threshold defaults.
func ClassBreakeven(def Tech, overrides map[FUClass]Tech, c FUClass, alpha float64) float64 {
	return core.ClassBreakeven(def, overrides, c, alpha)
}

// DefaultTech returns the paper's Table 4 analysis parameters at the
// near-term technology point p = 0.05.
func DefaultTech() Tech { return core.DefaultTech() }

// HighLeakTech returns the contrasting p = 0.50 technology point.
func HighLeakTech() Tech { return core.HighLeakTech() }

// NewIdleProfile returns an empty profile ready for recording.
func NewIdleProfile() *IdleProfile { return core.NewIdleProfile() }

// NewController builds the causal cycle-level controller for a policy.
func NewController(pc PolicyConfig, t Tech, alpha float64) (Controller, error) {
	return core.NewController(pc, t, alpha)
}

// PolicyEnergy evaluates the equation-(3) energy of running a policy over
// measured per-unit idle profiles, summed across units.
func PolicyEnergy(t Tech, pc PolicyConfig, alpha float64, profiles []*IdleProfile) Breakdown {
	var total Breakdown
	for _, p := range profiles {
		total = total.Add(t.EvalProfile(pc, alpha, p))
	}
	return total
}

// Circuit-level model (Section 2 of the paper).
type (
	// CircuitFU is the cycle-level 500-gate functional-unit circuit.
	CircuitFU = circuit.FU
	// FUConfig describes the functional-unit circuit geometry.
	FUConfig = circuit.FUConfig
	// GateParams characterizes one domino gate design point (Table 1).
	GateParams = circuit.GateParams
)

// DefaultFUCircuit returns the paper's generic 500-gate dual-Vt unit.
func DefaultFUCircuit() FUConfig { return circuit.DefaultFU() }

// NewCircuitFU builds a simulated functional-unit circuit.
func NewCircuitFU(cfg FUConfig) (*CircuitFU, error) { return circuit.NewFU(cfg) }

// BenchmarkReport is the outcome of one simulated benchmark run.
type BenchmarkReport struct {
	Name      string
	FUs       int
	Cycles    uint64
	Committed uint64
	IPC       float64
	// FUProfiles holds one measured idle profile per integer unit, ready
	// for PolicyEnergy. A report owns its profiles (ClassProfiles too):
	// changing them leaves the engine's cached results untouched.
	FUProfiles []*IdleProfile
	// ClassProfiles holds the measured idle profiles of every functional-
	// unit class, keyed by class. The FUAGU entry appears only when the
	// machine was provisioned with dedicated AGUs (SimAGUs); by default
	// address generation lands in the FUIntALU profiles.
	ClassProfiles map[FUClass][]*IdleProfile
	// MeanFUUtilization is the mean fraction of cycles the integer units
	// spent computing.
	MeanFUUtilization float64
	// BranchAccuracy is the conditional-branch direction hit rate;
	// Mispredicts counts resolved mispredictions.
	BranchAccuracy float64
	Mispredicts    uint64
	// L1IMissRate, L1DMissRate, and L2MissRate summarize cache behavior;
	// DTLBMissRate the data-side translation behavior.
	L1IMissRate  float64
	L1DMissRate  float64
	L2MissRate   float64
	DTLBMissRate float64
	// LoadForwards counts loads satisfied by store-queue forwarding;
	// FetchMispredictStalls counts cycles fetch sat stalled on redirects.
	LoadForwards          uint64
	FetchMispredictStalls uint64
}

// BenchmarkNames lists the nine-benchmark suite in the paper's order.
func BenchmarkNames() []string { return workload.Names() }

// BenchmarkInfo describes one suite benchmark together with the paper's
// published Table 3 calibration numbers.
type BenchmarkInfo struct {
	Name  string
	Suite string
	// PaperFUs is the paper's functional-unit selection; PaperIPC and
	// PaperMaxIPC its published IPC at that count and at four units.
	PaperFUs    int
	PaperIPC    float64
	PaperMaxIPC float64
}

// Benchmarks describes the suite with the paper's reference numbers, for
// calibration comparisons against simulated results.
func Benchmarks() []BenchmarkInfo {
	out := make([]BenchmarkInfo, 0, len(workload.Benchmarks))
	for _, s := range workload.Benchmarks {
		out = append(out, BenchmarkInfo{
			Name: s.Name, Suite: s.Suite,
			PaperFUs: s.PaperFUs, PaperIPC: s.PaperIPC, PaperMaxIPC: s.PaperMaxIPC,
		})
	}
	return out
}

// ExperimentInfo describes one reproducible paper artifact.
type ExperimentInfo struct {
	ID        string
	Paper     string
	Desc      string
	Simulated bool
}

// Experiments lists every table/figure reproduction and extension.
func Experiments() []ExperimentInfo {
	out := make([]ExperimentInfo, 0, len(experiments.All))
	for _, e := range experiments.All {
		out = append(out, ExperimentInfo{ID: e.ID, Paper: e.Paper, Desc: e.Desc, Simulated: e.Simulated})
	}
	return out
}
