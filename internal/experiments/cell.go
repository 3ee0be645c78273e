package experiments

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"github.com/archsim/fusleep/internal/core"
	"github.com/archsim/fusleep/internal/fu"
	"github.com/archsim/fusleep/internal/pipeline"
	"github.com/archsim/fusleep/internal/workload"
)

// Cell is one fully-resolved grid point: a policy (or a per-class policy
// assignment) evaluated at one technology point and functional-unit mix
// over a fixed benchmark set. Cells are the unit of incremental sweep
// delivery — a Grid expands into an ordered cell list, each cell is
// evaluated independently (sharing the runner's simulation cache), and
// results stream back one cell at a time.
type Cell struct {
	Policy     core.PolicyConfig `json:"policy"`
	Tech       core.Tech         `json:"tech"`
	FUs        int               `json:"fus"`
	Benchmarks []string          `json:"benchmarks"`
	Alpha      float64           `json:"alpha"`
	L2Latency  int               `json:"l2Latency"`
	Window     uint64            `json:"window"`

	// AGUs, Mults, FPALUs, FPMults are the per-class unit counts of the
	// simulated machine; 0 selects the Table 2 defaults (shared AGUs, one
	// unit per dedicated class). FUs remains the integer-ALU axis.
	AGUs    int `json:"agus,omitempty"`
	Mults   int `json:"mults,omitempty"`
	FPALUs  int `json:"fpalus,omitempty"`
	FPMults int `json:"fpmults,omitempty"`

	// Classes are the functional-unit classes whose energy the cell
	// accounts; empty selects the paper's single-pool view, the IntALU
	// class alone.
	Classes []fu.Class `json:"classes,omitempty"`
	// Assignment maps classes to their sleep policies; a studied class
	// missing from the assignment falls back to Policy. An empty
	// assignment is the uniform case: every studied class runs Policy.
	// Entries for classes outside the studied set are legal (a uniform
	// assignment covers every class) but are not accounted; PolicyLabel
	// renders only the studied classes' effective policies. Grid expansion
	// widens the studied set to cover its Assignments automatically.
	Assignment core.Assignment `json:"assignment,omitempty"`
	// ClassTechs overrides the technology point per class (a class built
	// in a different circuit style leaks differently); missing classes use
	// Tech. Each class's breakeven — and therefore its GradualSleep slice
	// and SleepTimeout threshold defaults — resolves through its own
	// effective tech.
	ClassTechs map[fu.Class]core.Tech `json:"classTechs,omitempty"`
}

// mix returns the cell's machine provisioning.
func (c Cell) mix() FUMix {
	return FUMix{IntALUs: c.FUs, AGUs: c.AGUs, Mults: c.Mults, FPALUs: c.FPALUs, FPMults: c.FPMults}
}

// StudiedClasses returns the classes the cell accounts energy for, in
// canonical (enum) order regardless of how Classes was spelled: the
// explicit Classes list sorted, or the paper's single-pool default of
// IntALU alone. Key, EvalCells, and PerClass all walk this order, so two
// cells listing the same classes in different orders are one identity.
func (c Cell) StudiedClasses() []fu.Class {
	if len(c.Classes) == 0 {
		return []fu.Class{fu.IntALU}
	}
	out := append([]fu.Class(nil), c.Classes...)
	slices.Sort(out)
	return out
}

// PolicyFor resolves the effective policy for one class: its assignment
// entry, or the cell-wide Policy.
func (c Cell) PolicyFor(cl fu.Class) core.PolicyConfig {
	if pc, ok := c.Assignment.For(cl); ok {
		return pc
	}
	return c.Policy
}

// TechFor resolves the effective technology point for one class.
func (c Cell) TechFor(cl fu.Class) core.Tech {
	return core.TechFor(c.Tech, c.ClassTechs, cl)
}

// PolicyLabel renders the cell's policy axis for tables. With an
// assignment set it lists each STUDIED class's effective policy — not the
// raw assignment, whose entries for unstudied classes are not accounted
// and must not be claimed by the row — else the uniform policy's name.
func (c Cell) PolicyLabel() string {
	if len(c.Assignment) > 0 {
		parts := make([]string, 0, len(c.Classes)+1)
		for _, cl := range c.StudiedClasses() {
			parts = append(parts, cl.String()+"="+c.PolicyFor(cl).String())
		}
		return strings.Join(parts, ",")
	}
	return c.Policy.Policy.String()
}

// Key returns a stable identity hash of the cell: two cells with the same
// simulation configuration and energy-model point hash identically, so
// result stores and caches can key on it. The hash covers every field that
// affects the result — including the per-class mix, class list, policy
// assignment, and technology overrides, each serialized in canonical class
// order.
//
// The hashed text is "policy|slices|timeout|P|C|overhead|duty|fus|alpha|
// l2|window|bench,...|agus|mults|fpalus|fpmults" followed by "|c:class"
// per studied class, "|a:assignment", and "|t:class:P:C:overhead:duty" per
// class technology, with every float in %.17g form. Keys are persisted in
// result journals and job WALs, so that text must never change; it is
// built with strconv appends into a stack buffer because the daemon keys
// every cell it serves.
func (c Cell) Key() string {
	var stack [256]byte
	b := append(stack[:0], c.Policy.Policy.String()...)
	b = appendKeyInt(b, c.Policy.Slices)
	b = appendKeyInt(b, c.Policy.Timeout)
	b = appendKeyTech(b, '|', c.Tech)
	b = appendKeyInt(b, c.FUs)
	b = appendKeyFloat(b, '|', c.Alpha)
	b = appendKeyInt(b, c.L2Latency)
	b = strconv.AppendUint(append(b, '|'), c.Window, 10)
	b = appendKeyBenchmarks(b, c.Benchmarks)
	b = appendKeyInt(b, c.AGUs)
	b = appendKeyInt(b, c.Mults)
	b = appendKeyInt(b, c.FPALUs)
	b = appendKeyInt(b, c.FPMults)
	if len(c.Classes) > 0 {
		for _, cl := range c.StudiedClasses() {
			b = append(append(b, "|c:"...), cl.String()...)
		}
	}
	if len(c.Assignment) > 0 {
		b = append(append(b, "|a:"...), c.Assignment.String()...)
	}
	for _, cl := range sortedClassKeys(c.ClassTechs) {
		b = append(append(b, "|t:"...), cl.String()...)
		b = appendKeyTech(b, ':', c.ClassTechs[cl])
	}
	return hexKey(fnv64a(b))
}

// appendKeyInt appends "|n" to a key text.
func appendKeyInt(b []byte, n int) []byte {
	return strconv.AppendInt(append(b, '|'), int64(n), 10)
}

// appendKeyBenchmarks appends "|" and the comma-joined program names to a
// key text.
func appendKeyBenchmarks(b []byte, names []string) []byte {
	b = append(b, '|')
	for i, name := range names {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, name...)
	}
	return b
}

// appendKeyFloat appends sep and v in %.17g form to a key text.
func appendKeyFloat(b []byte, sep byte, v float64) []byte {
	return strconv.AppendFloat(append(b, sep), v, 'g', 17, 64)
}

// appendKeyTech appends a technology point's four parameters to a key
// text, each preceded by sep.
func appendKeyTech(b []byte, sep byte, t core.Tech) []byte {
	b = appendKeyFloat(b, sep, t.P)
	b = appendKeyFloat(b, sep, t.C)
	b = appendKeyFloat(b, sep, t.SleepOverhead)
	return appendKeyFloat(b, sep, t.Duty)
}

// fnv64a is the 64-bit FNV-1a hash of b, inlined so hashing a stack
// buffer does not move it to the heap.
func fnv64a(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, x := range b {
		h ^= uint64(x)
		h *= prime64
	}
	return h
}

// hexKey renders a hash as 16 zero-padded lowercase hex digits.
func hexKey(h uint64) string {
	const digits = "0123456789abcdef"
	var out [16]byte
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = digits[h&0xf]
		h >>= 4
	}
	return string(out[:])
}

// SimKey returns a stable identity hash of the simulation-only part of the
// cell: the benchmark set, per-class FU mix, L2 latency, and window. Cells
// with equal SimKeys need exactly the same simulations and differ only in
// the closed-form energy evaluation (policy, technology point, alpha,
// studied classes, assignment), so EvalCells groups on it and the sweep
// service routes variants of one machine to one worker. It covers a strict
// subset of Key's fields; Key itself — the full result identity — is
// unchanged.
func (c Cell) SimKey() string {
	var stack [128]byte
	b := strconv.AppendInt(stack[:0], int64(c.FUs), 10)
	b = appendKeyInt(b, c.AGUs)
	b = appendKeyInt(b, c.Mults)
	b = appendKeyInt(b, c.FPALUs)
	b = appendKeyInt(b, c.FPMults)
	b = appendKeyInt(b, c.L2Latency)
	b = strconv.AppendUint(append(b, '|'), c.Window, 10)
	b = appendKeyBenchmarks(b, c.Benchmarks)
	return hexKey(fnv64a(b))
}

// SameMachine reports whether c and o agree on every field SimKey hashes,
// so that they have the same SimKey. It lets a caller walking cells in
// grid order hash SimKey once per run of same-machine cells.
func (c Cell) SameMachine(o Cell) bool {
	return c.FUs == o.FUs && c.AGUs == o.AGUs && c.Mults == o.Mults &&
		c.FPALUs == o.FPALUs && c.FPMults == o.FPMults &&
		c.L2Latency == o.L2Latency && c.Window == o.Window &&
		slices.Equal(c.Benchmarks, o.Benchmarks)
}

// sortedClassKeys returns the map's classes in canonical order.
func sortedClassKeys(m map[fu.Class]core.Tech) []fu.Class {
	if len(m) == 0 {
		return nil
	}
	out := make([]fu.Class, 0, len(m))
	for _, cl := range fu.Classes() {
		if _, ok := m[cl]; ok {
			out = append(out, cl)
		}
	}
	return out
}

// ClassEnergy is one studied class's share of a cell result: the policy it
// ran and its relative energy and leakage fraction, averaged over the
// cell's benchmarks.
type ClassEnergy struct {
	Class           fu.Class          `json:"class"`
	Policy          core.PolicyConfig `json:"policy"`
	RelEnergy       float64           `json:"relEnergy"`
	LeakageFraction float64           `json:"leakageFraction"`
	// Units is the simulated unit count backing the class, or 0 when the
	// count varies across the cell's benchmarks (the paper's per-benchmark
	// IntALU counts).
	Units int `json:"units,omitempty"`
}

// CellResult is one completed grid point: the cell's identity plus its
// suite-averaged relative energy and leakage fraction.
type CellResult struct {
	// Index is the cell's position in the grid's canonical enumeration
	// (Grid.Cells order), so streamed results can be reassembled in grid
	// order regardless of completion order.
	Index int  `json:"index"`
	Cell  Cell `json:"cell"`
	// RelEnergy is E_policy / E_base averaged over the cell's benchmarks,
	// summed across the cell's studied classes.
	RelEnergy float64 `json:"relEnergy"`
	// LeakageFraction is the leakage share of total energy, averaged over
	// the cell's benchmarks.
	LeakageFraction float64 `json:"leakageFraction"`
	// MeanCycles is the simulated cycle count averaged over the cell's
	// benchmarks — the delay axis of energy-delay analyses. It depends on
	// the cell's FU mix, benchmarks, L2 latency, and window, but not on
	// its policies or technology points.
	MeanCycles float64 `json:"meanCycles"`
	// PerClass breaks the result down by studied class, in canonical
	// order.
	PerClass []ClassEnergy `json:"perClass,omitempty"`
}

// Cells expands the grid into its ordered cell list after resolving zero
// values against the given default technology. The order matches RunSweep's
// row order: technology-major, then FU mix, then policy (uniform policies
// first, then per-class assignments).
func (g Grid) Cells(tech core.Tech) []Cell {
	g = g.withDefaults(tech)
	cells := make([]Cell, 0, g.Cardinality(tech))
	for _, tc := range g.Techs {
		for _, fus := range g.FUCounts {
			for _, agus := range g.AGUCounts {
				for _, mults := range g.MultCounts {
					for _, fpalus := range g.FPALUCounts {
						for _, fpmults := range g.FPMultCounts {
							base := Cell{
								Tech:       tc,
								FUs:        fus,
								AGUs:       agus,
								Mults:      mults,
								FPALUs:     fpalus,
								FPMults:    fpmults,
								Benchmarks: g.Benchmarks,
								Alpha:      g.Alpha,
								L2Latency:  g.L2Latency,
								Window:     g.Window,
								Classes:    g.Classes,
								ClassTechs: g.ClassTechs,
							}
							for _, pc := range g.Policies {
								c := base
								c.Policy = pc
								cells = append(cells, c)
							}
							for _, a := range g.Assignments {
								c := base
								c.Assignment = a
								cells = append(cells, c)
							}
						}
					}
				}
			}
		}
	}
	return cells
}

// Validate rejects cells whose technology points, benchmark set, class
// list, or policy assignment are outside the model's domain, before any
// simulation is paid for.
func (c Cell) Validate() error {
	if err := c.Tech.Validate(); err != nil {
		return fmt.Errorf("cell: tech p=%g: %w", c.Tech.P, err)
	}
	if !core.ValidAlpha(c.Alpha) {
		return fmt.Errorf("cell: alpha %g: %w", c.Alpha, core.ErrAlpha)
	}
	if len(c.Benchmarks) == 0 {
		return fmt.Errorf("cell: no benchmarks")
	}
	for _, name := range c.Benchmarks {
		if _, err := workload.ByName(name); err != nil {
			return fmt.Errorf("cell: %w", err)
		}
	}
	for _, n := range []struct {
		name  string
		count int
	}{
		{"agus", c.AGUs}, {"mults", c.Mults}, {"fpalus", c.FPALUs}, {"fpmults", c.FPMults},
	} {
		if n.count < 0 {
			return fmt.Errorf("cell: negative %s %d", n.name, n.count)
		}
	}
	seen := map[fu.Class]bool{}
	for _, cl := range c.Classes {
		if !cl.Valid() {
			return fmt.Errorf("cell: invalid class %d", uint8(cl))
		}
		if seen[cl] {
			return fmt.Errorf("cell: class %s listed twice", cl)
		}
		seen[cl] = true
		if cl == fu.AGU && c.AGUs <= 0 {
			return fmt.Errorf("cell: class agu needs a dedicated pool (set agus > 0); the default machine issues address generation down the integer ALU ports")
		}
	}
	if err := c.Assignment.Validate(); err != nil {
		return fmt.Errorf("cell: %w", err)
	}
	// Canonical class order keeps the first-reported error stable when
	// several entries are bad.
	for _, cl := range sortedClassKeys(c.ClassTechs) {
		if !cl.Valid() {
			return fmt.Errorf("cell: classTechs names invalid class %d", uint8(cl))
		}
		if err := c.ClassTechs[cl].Validate(); err != nil {
			return fmt.Errorf("cell: classTechs[%s]: %w", cl, err)
		}
	}
	return nil
}

// evalFromSuite applies the closed-form energy model for one cell over its
// already-simulated benchmark suite, suite[i] being the run of
// c.Benchmarks[i]: each studied class under its effective policy and
// technology point, over the recorded idle profiles. Policy/tech variants
// evaluated off one simulation all read its profiles in place.
func evalFromSuite(c Cell, suite []pipeline.Result) (CellResult, error) {
	classes := c.StudiedClasses()
	type acc struct {
		rel, leak float64
		units     int
		mixed     bool
	}
	// Validate admits each class at most once, so the studied classes fit.
	var per [fu.NumClasses]acc
	var rel, leak, cyc float64
	for j := range c.Benchmarks {
		res := &suite[j]
		var total core.Breakdown
		var base float64
		for i, cl := range classes {
			units := res.UnitsFor(cl)
			if len(units) == 0 {
				return CellResult{}, fmt.Errorf("cell: machine has no %s units to study", cl)
			}
			tech := c.TechFor(cl)
			e := unitsEnergy(tech, c.PolicyFor(cl), c.Alpha, units)
			b := profileBase(tech, c.Alpha, len(units), res.Cycles)
			per[i].rel += e.Total() / b
			per[i].leak += e.LeakageFraction()
			if per[i].units != 0 && per[i].units != len(units) {
				per[i].mixed = true
			}
			per[i].units = len(units)
			total = total.Add(e)
			base += b
		}
		rel += total.Total() / base
		leak += total.LeakageFraction()
		cyc += float64(res.Cycles)
	}
	n := float64(len(c.Benchmarks))
	out := CellResult{Cell: c, RelEnergy: rel / n, LeakageFraction: leak / n, MeanCycles: cyc / n,
		PerClass: make([]ClassEnergy, 0, len(classes))}
	for i, cl := range classes {
		units := per[i].units
		if per[i].mixed {
			units = 0
		}
		out.PerClass = append(out.PerClass, ClassEnergy{
			Class:           cl,
			Policy:          c.PolicyFor(cl),
			RelEnergy:       per[i].rel / n,
			LeakageFraction: per[i].leak / n,
			Units:           units,
		})
	}
	return out, nil
}

// EvalCells evaluates a batch of grid cells — a single cell is a batch of
// one. Each cell's benchmark suite is simulated (or re-used from cache) at
// its functional-unit mix, then the closed-form energy model is applied per
// studied class, each class under its effective policy and technology
// point, over the measured per-class idle profiles. Cells that share a
// simulation identity (SimKey — benchmark set, FU mix, L2 latency, window)
// are grouped, and every group's suite is requested from the runner as one
// batch before any cell is scored; batching changes the work schedule,
// never the numbers. Results return in input order with Index zero
// (callers enumerating a grid set it); every cell is validated before any
// simulation is paid for. On failure it returns the error a group-by-group
// walk would: the first group, in first-appearance order, whose runs
// failed for a reason other than the batch canceling them.
func EvalCells(ctx context.Context, r *Runner, cells []Cell) ([]CellResult, error) {
	for i := range cells {
		if err := cells[i].Validate(); err != nil {
			return nil, err
		}
	}
	// Group by simulation identity, preserving first-appearance order, and
	// request each group's suite when the group first appears: group[i] is
	// cell i's group, and groups[g] holds group g's first cell and the
	// offset of its suite in the batch. A cell with the same machine as
	// the one before it shares its SimKey without hashing it again: a
	// leased group is one machine throughout. The stack buffers keep a
	// leased group's bookkeeping off the heap.
	type span struct{ lead, start int }
	var groupBuf [16]int
	var spanBuf [4]span
	var reqBuf [16]SimRequest
	group, groups, reqs := groupBuf[:0], spanBuf[:0], reqBuf[:0]
	index := make(map[string]int)
	for i := range cells {
		if i > 0 && cells[i].SameMachine(cells[i-1]) {
			group = append(group, group[i-1])
			continue
		}
		k := cells[i].SimKey()
		g, ok := index[k]
		if !ok {
			g = len(groups)
			index[k] = g
			groups = append(groups, span{lead: i, start: len(reqs)})
			c := cells[i]
			for _, name := range c.Benchmarks {
				reqs = append(reqs, SimRequest{Bench: name, Mix: c.mix(), L2: c.L2Latency, Window: c.Window})
			}
		}
		group = append(group, g)
	}
	results := make([]pipeline.Result, len(reqs))
	if errs, err := r.simBatch(ctx, reqs, results); err != nil {
		for _, sp := range groups {
			lead := cells[sp.lead]
			if gerr := groupErr(ctx, errs[sp.start:sp.start+len(lead.Benchmarks)]); gerr != nil {
				return nil, fmt.Errorf("cell fus=%d: %w", lead.FUs, gerr)
			}
		}
		return nil, err
	}
	out := make([]CellResult, len(cells))
	for i := range cells {
		start := groups[group[i]].start
		res, err := evalFromSuite(cells[i], results[start:start+len(cells[i].Benchmarks)])
		if err != nil {
			return nil, err
		}
		out[i] = res
	}
	return out, nil
}

// groupErr is the error one group's requests gave a batch, as the runner
// reports a batch of that group alone: its first failure and every later
// one that is not a context error, joined. A context error counts only
// when ctx itself has ended; otherwise the batch canceled the request
// because another group failed.
func groupErr(ctx context.Context, errs []error) error {
	var failed []error
	for _, err := range errs {
		if err == nil || isCtxErr(err) && (ctx.Err() == nil || len(failed) > 0) {
			continue
		}
		failed = append(failed, err)
	}
	if len(failed) == 0 {
		return nil
	}
	return errors.Join(failed...)
}

// RunSweepStream evaluates the grid cell by cell, invoking fn with each
// completed cell result in grid order. Every technology point is validated
// before any simulation runs. Evaluation stops at the first cell error or
// the first non-nil error returned by fn; either is returned to the caller.
// Cells that share a functional-unit mix share their (cached) suite
// simulation, so streaming costs no more simulation work than the batch
// RunSweep.
func RunSweepStream(ctx context.Context, r *Runner, g Grid, tech core.Tech, fn func(CellResult) error) error {
	g = g.withDefaults(tech)
	for _, tc := range g.Techs {
		if err := tc.Validate(); err != nil {
			return fmt.Errorf("sweep: tech p=%g: %w", tc.P, err)
		}
	}
	for i, c := range g.Cells(tech) {
		out, err := EvalCells(ctx, r, []Cell{c})
		if err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
		res := out[0]
		res.Index = i
		if err := fn(res); err != nil {
			return err
		}
	}
	return nil
}
