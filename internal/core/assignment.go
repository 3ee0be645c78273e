package core

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"github.com/archsim/fusleep/internal/fu"
)

// Assignment maps functional-unit classes to their sleep-policy
// configuration. The paper's classes differ in idle-interval structure and
// breakeven point, so a machine carries one policy per class instead of one
// policy for every unit. A missing class falls back to whatever default the
// evaluation context supplies (the zero PolicyConfig is AlwaysActive).
//
// Assignment JSON-encodes as an object keyed by class name, e.g.
//
//	{"intalu": {"policy": "GradualSleep", "slices": 4},
//	 "fpalu":  {"policy": "MaxSleep"}}
type Assignment map[fu.Class]PolicyConfig

// UniformAssignment assigns the same policy configuration to every class —
// the configuration that must reproduce the single-pool results.
func UniformAssignment(pc PolicyConfig) Assignment {
	a := make(Assignment, fu.NumClasses)
	for _, c := range fu.Classes() {
		a[c] = pc
	}
	return a
}

// For returns the class's policy configuration and whether it was assigned.
func (a Assignment) For(c fu.Class) (PolicyConfig, bool) {
	pc, ok := a[c]
	return pc, ok
}

// Classes returns the assigned classes in canonical (enum) order, so every
// consumer — hashes, tables, wire encodings — walks the map
// deterministically.
func (a Assignment) Classes() []fu.Class {
	out := make([]fu.Class, 0, len(a))
	for c := range a {
		out = append(out, c)
	}
	slices.Sort(out)
	return out
}

// Validate rejects assignments naming unknown classes or policies, or
// carrying negative tuning knobs.
func (a Assignment) Validate() error {
	// Walk classes in canonical order so an assignment with several bad
	// entries always reports the same one first.
	for _, c := range a.Classes() {
		if !c.Valid() {
			return fmt.Errorf("core: assignment names invalid class %d", uint8(c))
		}
		if err := a[c].Validate(); err != nil {
			return fmt.Errorf("core: assignment for %s: %w", c, err)
		}
	}
	return nil
}

// String renders the assignment canonically: class=Policy[:knob=v] pairs in
// class order, e.g. "intalu=GradualSleep:slices=4,fpalu=MaxSleep". The
// output parses back via ParseAssignment and doubles as the assignment's
// stable hash text.
func (a Assignment) String() string {
	if len(a) == 0 {
		return ""
	}
	parts := make([]string, 0, len(a))
	for _, c := range a.Classes() {
		parts = append(parts, c.String()+"="+a[c].String())
	}
	return strings.Join(parts, ",")
}

// ParseAssignment parses the String form: comma-separated
// class=Policy[:slices=K][:timeout=T] terms. An empty string yields nil.
func ParseAssignment(s string) (Assignment, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	a := make(Assignment)
	for _, term := range strings.Split(s, ",") {
		name, spec, ok := strings.Cut(strings.TrimSpace(term), "=")
		if !ok {
			return nil, fmt.Errorf("core: assignment term %q wants class=Policy", term)
		}
		c, err := fu.ParseClass(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		if _, dup := a[c]; dup {
			return nil, fmt.Errorf("core: class %s assigned twice", c)
		}
		pc, err := ParsePolicyConfig(spec)
		if err != nil {
			return nil, fmt.Errorf("core: assignment for %s: %w", c, err)
		}
		a[c] = pc
	}
	return a, nil
}

// Validate rejects unknown policies and negative tuning knobs.
func (pc PolicyConfig) Validate() error {
	if _, err := ParsePolicy(pc.Policy.String()); err != nil {
		return err
	}
	if pc.Slices < 0 {
		return fmt.Errorf("core: negative slice count %d", pc.Slices)
	}
	if pc.Timeout < 0 {
		return fmt.Errorf("core: negative timeout %d", pc.Timeout)
	}
	return nil
}

// String renders the configuration as Policy[:slices=K][:timeout=T] — the
// term syntax of ParsePolicyConfig and Assignment.String.
func (pc PolicyConfig) String() string {
	s := pc.Policy.String()
	if pc.Slices > 0 {
		s += ":slices=" + strconv.Itoa(pc.Slices)
	}
	if pc.Timeout > 0 {
		s += ":timeout=" + strconv.Itoa(pc.Timeout)
	}
	return s
}

// ParsePolicyConfig parses Policy[:slices=K][:timeout=T], the inverse of
// PolicyConfig.String.
func ParsePolicyConfig(s string) (PolicyConfig, error) {
	fields := strings.Split(strings.TrimSpace(s), ":")
	pol, err := ParsePolicy(strings.TrimSpace(fields[0]))
	if err != nil {
		return PolicyConfig{}, err
	}
	pc := PolicyConfig{Policy: pol}
	for _, f := range fields[1:] {
		knob, val, ok := strings.Cut(strings.TrimSpace(f), "=")
		if !ok {
			return PolicyConfig{}, fmt.Errorf("core: policy knob %q wants name=value", f)
		}
		n, err := strconv.Atoi(strings.TrimSpace(val))
		if err != nil || n <= 0 {
			return PolicyConfig{}, fmt.Errorf("core: policy knob %q wants a positive integer", f)
		}
		switch strings.ToLower(strings.TrimSpace(knob)) {
		case "slices":
			pc.Slices = n
		case "timeout":
			pc.Timeout = n
		default:
			return PolicyConfig{}, fmt.Errorf("core: unknown policy knob %q (have slices, timeout)", knob)
		}
	}
	return pc, nil
}

// TechFor resolves the effective technology point for one class: the
// per-class override when present, else the machine default. Classes built
// in different circuit styles (an FP multiplier's leakage factor differs
// from an integer ALU's) carry their own Tech, which shifts their breakeven
// interval and therefore their policy parameter defaults.
func TechFor(def Tech, overrides map[fu.Class]Tech, c fu.Class) Tech {
	if t, ok := overrides[c]; ok {
		return t
	}
	return def
}

// ClassBreakeven returns the breakeven idle interval of one class under its
// effective technology point — the per-class form of Tech.Breakeven that
// drives each class's GradualSleep slice count and SleepTimeout threshold
// defaults.
func ClassBreakeven(def Tech, overrides map[fu.Class]Tech, c fu.Class, alpha float64) float64 {
	return TechFor(def, overrides, c).Breakeven(alpha)
}
