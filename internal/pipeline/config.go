// Package pipeline implements the timing model of the simulated processor:
// a 4-wide out-of-order core modeled after the Alpha 21264 with the Table 2
// resources of Dropsho et al. (MICRO 2002). The model consumes a dynamic
// instruction trace (isa.Stream) and produces cycle counts, IPC, and the
// per-functional-unit busy/idle profiles that drive the energy study.
//
// Wrong-path execution is approximated in the standard trace-driven way: on
// a mispredicted control instruction, fetch stops until the instruction
// resolves and then pays the redirect penalty. Section 5 of DESIGN.md
// discusses why this preserves the idle-interval structure the paper needs.
//
// # Performance model
//
// The per-cycle hot path is engineered for throughput and zero steady-state
// allocation, while staying cycle-exact with the straightforward model it
// replaced (the golden determinism test in golden_test.go pins every Result
// field to a pre-refactor capture):
//
//   - Completion is an event wheel (calendar queue): pending completions for
//     cycle t live in wheel[t & mask], where the wheel size is the smallest
//     power of two exceeding the maximum schedulable latency — the
//     worst-case load (AGU + DTLB miss + a miss through L1D, L2, and
//     memory) or the longest fixed execution latency, whichever is larger.
//     Every in-flight event therefore lands within one wheel revolution of
//     the current cycle and no two pending cycles share a slot. Slot slices
//     are drained in place and keep their capacity, so scheduling and
//     completing cost no map operations and no allocations.
//
//   - Issue scans a ready list, not the ROB. Dispatched instructions with
//     unavailable operands sleep on per-physical-register dependent lists
//     and are woken by completion (classic wakeup/select); instructions
//     with all operands ready sit in readyQ ordered by sequence number.
//     Issue walks readyQ oldest-first with the same per-resource skip
//     semantics as a full in-order ROB scan — a blocked instruction yields
//     its slot without consuming issue bandwidth — so selection order, and
//     therefore timing, is identical, but cost scales with ready
//     instructions (bounded by the issue queues) instead of ROB size.
//     Wakeup inserts preserve seq order; dispatch appends are already in
//     program order.
//
//   - The store queue is a ring ordered by sequence number (stores enter at
//     dispatch and leave at commit, both in program order), and a word-
//     address index maps 8-byte word -> ascending seqs of address-known
//     stores, making store-to-load forwarding one map probe instead of a
//     queue scan. Because each per-word list is ascending, the head element
//     alone decides whether an older forwarding store exists.
//
//   - Busy/idle recording is transition-driven. A unit's busy span is
//     fully known at allocation (busyUntil = now + latency), so each class
//     pool closes the idle run an allocation ends and charges the active
//     cycles right there, and a single end-of-run flush settles open runs
//     against the simulated horizon — on every exit path, including
//     cancellation. The per-cycle scan this replaced (every unit of every
//     pool, every cycle) survives as the test oracle in
//     fupool_oracle_test.go; property and fuzz tests pin the two recorders
//     to identical profiles.
//
//   - Quiescent cycles are skipped, not stepped. A cycle is quiescent when
//     no stage can change any state: the ROB head has not completed, no
//     completion is due, the ready list is empty, the fetch-queue head (if
//     any) is held by a full ROB, load/store/issue queue or register file,
//     and fetch is stalled on a mispredict, an I-cache miss, a full fetch
//     queue or the end of the stream. Only a completion or the end of the
//     I-cache stall can end such a stretch, so RunContext jumps the clock
//     to the earliest of the next occupied wheel slot and that stall's
//     end, never past a context poll or the deadlock watchdog, and charges
//     the stall counter for the span in one add. dispatch and the skip
//     test share one structural check (dispatchBlocked). The stepping loop
//     survives as the test oracle in skip_oracle_test.go; property, cancel
//     and fuzz tests require identical Results, and Result.QuietCycles
//     (pinned for the paper machine) counts the cycles skipped.
//
//   - ROB, fetch queue, and store queue are fixed rings (the ROB mask is a
//     power of two); cache and TLB indexing precompute shift/mask geometry;
//     the one-instruction fetch lookahead is a value plus a flag rather
//     than a heap-escaping pointer; and workload trace batches are recycled
//     through a sync.Pool. After warmup, a simulation performs no per-
//     instruction or per-cycle heap allocation.
//
// BenchmarkPipelineSimulation (package root) tracks inst/s, cycles/s, and
// allocs/op; BENCH_pipeline.json records the trajectory across PRs.
package pipeline

import (
	"fmt"

	"github.com/archsim/fusleep/internal/bpred"
	"github.com/archsim/fusleep/internal/cache"
	"github.com/archsim/fusleep/internal/tlb"
)

// Execution latencies in cycles (SimpleScalar/Alpha-like).
const (
	LatIntALU  = 1
	LatBranch  = 1
	LatIntMult = 3
	LatIntDiv  = 20
	LatAGU     = 1
	LatForward = 2 // store-to-load forwarding after address generation
	LatFPALU   = 2
	LatFPMult  = 4
	LatFPDiv   = 12
)

// Config holds the architectural parameters of Table 2.
type Config struct {
	FetchQueueSize int // 8
	FetchWidth     int // 4
	DecodeWidth    int // 4
	IssueWidth     int // 4
	CommitWidth    int // 4

	ROBSize    int // reorder buffer, 128
	IntIQSize  int // integer issue queue, 32
	FPIQSize   int // floating point issue queue, 32
	LoadQSize  int // 32
	StoreQSize int // 32

	IntPhysRegs int // 96
	FPPhysRegs  int // 96

	IntALUs  int // integer functional units under study, 1..4
	IntMults int // dedicated multiplier units, 1
	FPALUs   int // 1
	FPMults  int // 1
	MemPorts int // data cache ports, 2

	// AGUs is the dedicated address-generation unit count. 0 (the default)
	// issues address generation down the integer ALU ports, 21264-style, so
	// loads and stores contend with integer ops for the IntALU pool exactly
	// as the paper's machine does; a positive count gives address generation
	// its own class pool with its own idle-interval profile.
	AGUs int

	MispredictPenalty int // fetch redirect latency after resolution, 10

	Bpred bpred.Config
	Mem   cache.HierarchyConfig
	ITLB  tlb.Config
	DTLB  tlb.Config

	// MaxInsts stops the simulation after committing this many
	// instructions; 0 runs the trace to exhaustion.
	MaxInsts uint64
}

// DefaultConfig returns the Table 2 machine with four integer units.
func DefaultConfig() Config {
	return Config{
		FetchQueueSize: 8,
		FetchWidth:     4,
		DecodeWidth:    4,
		IssueWidth:     4,
		CommitWidth:    4,

		ROBSize:    128,
		IntIQSize:  32,
		FPIQSize:   32,
		LoadQSize:  32,
		StoreQSize: 32,

		IntPhysRegs: 96,
		FPPhysRegs:  96,

		IntALUs:  4,
		IntMults: 1,
		FPALUs:   1,
		FPMults:  1,
		MemPorts: 2,

		MispredictPenalty: 10,

		Bpred: bpred.DefaultConfig(),
		Mem:   cache.DefaultHierarchyConfig(),
		ITLB:  tlb.DefaultITLB(),
		DTLB:  tlb.DefaultDTLB(),
	}
}

// WithIntALUs returns a copy of the configuration with n integer units, the
// knob the paper turns per benchmark.
func (c Config) WithIntALUs(n int) Config {
	c.IntALUs = n
	return c
}

// WithL2Latency returns a copy with a different L2 hit latency (Figure 7
// contrasts 12 against 32 cycles).
func (c Config) WithL2Latency(cycles int) Config {
	c.Mem.L2.Latency = cycles
	return c
}

// WithUnits returns a copy with the given per-class unit counts. Zero
// leaves a class at its current count; agus = 0 keeps address generation on
// the integer ALU ports (pass a positive count for a dedicated AGU pool).
func (c Config) WithUnits(mults, fpalus, fpmults, agus int) Config {
	if mults > 0 {
		c.IntMults = mults
	}
	if fpalus > 0 {
		c.FPALUs = fpalus
	}
	if fpmults > 0 {
		c.FPMults = fpmults
	}
	if agus > 0 {
		c.AGUs = agus
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	pos := func(name string, v int) error {
		if v <= 0 {
			return fmt.Errorf("pipeline: %s = %d must be positive", name, v)
		}
		return nil
	}
	checks := []struct {
		name string
		v    int
	}{
		{"FetchQueueSize", c.FetchQueueSize},
		{"FetchWidth", c.FetchWidth},
		{"DecodeWidth", c.DecodeWidth},
		{"IssueWidth", c.IssueWidth},
		{"CommitWidth", c.CommitWidth},
		{"ROBSize", c.ROBSize},
		{"IntIQSize", c.IntIQSize},
		{"FPIQSize", c.FPIQSize},
		{"LoadQSize", c.LoadQSize},
		{"StoreQSize", c.StoreQSize},
		{"IntALUs", c.IntALUs},
		{"IntMults", c.IntMults},
		{"FPALUs", c.FPALUs},
		{"FPMults", c.FPMults},
		{"MemPorts", c.MemPorts},
	}
	for _, ch := range checks {
		if err := pos(ch.name, ch.v); err != nil {
			return err
		}
	}
	if c.MispredictPenalty < 0 {
		return fmt.Errorf("pipeline: negative mispredict penalty")
	}
	if c.AGUs < 0 {
		return fmt.Errorf("pipeline: AGUs = %d must be >= 0 (0 shares the integer ALU ports)", c.AGUs)
	}
	if c.IntPhysRegs < 33 || c.FPPhysRegs < 33 {
		return fmt.Errorf("pipeline: physical register files must exceed the 32 architectural registers")
	}
	if err := c.Bpred.Validate(); err != nil {
		return err
	}
	for _, cc := range []cache.Config{c.Mem.L1I, c.Mem.L1D, c.Mem.L2} {
		if err := cc.Validate(); err != nil {
			return err
		}
	}
	if c.Mem.MemLatency < 0 {
		return fmt.Errorf("pipeline: negative memory latency")
	}
	if err := c.ITLB.Validate(); err != nil {
		return err
	}
	if err := c.DTLB.Validate(); err != nil {
		return err
	}
	return nil
}
