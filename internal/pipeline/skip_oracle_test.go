package pipeline

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"github.com/archsim/fusleep/internal/isa"
	"github.com/archsim/fusleep/internal/workload"
)

// runStepping is the run loop as it was before quiescent cycles were
// skipped: every stage runs on every cycle. It is kept verbatim as the
// test oracle — the property, cancel and fuzz tests below require
// RunContext to return the identical Result and error, which pins the
// skip to the cycle-by-cycle semantics the golden captures were made
// under.
func (c *CPU) runStepping(ctx context.Context) (Result, error) {
	defer c.stream.Close()
	for !c.finished() {
		c.commit()
		if c.stopRequested {
			break
		}
		c.complete()
		c.issue()
		c.dispatch()
		c.fetch()
		c.cycle++
		if c.cycle&ctxCheckMask == 0 {
			if err := ctx.Err(); err != nil {
				c.flushPools()
				return c.result(), fmt.Errorf("pipeline: run aborted at cycle %d (committed %d): %w",
					c.cycle, c.committed, err)
			}
		}
		if c.cycle-c.lastProgress > deadlockWindow {
			c.flushPools()
			return c.result(), fmt.Errorf("%w at cycle %d (committed %d)", ErrDeadlock, c.cycle, c.committed)
		}
	}
	c.flushPools()
	return c.result(), nil
}

// skipCase is one machine and program the skip is checked on.
type skipCase struct {
	bench string
	cfg   Config
	// trace bounds the instruction stream; cfg.MaxInsts may stop the run
	// earlier.
	trace uint64
}

func (sc skipCase) String() string {
	c := sc.cfg
	return fmt.Sprintf("%s/alu%d-agu%d-mul%d-fpa%d-fpm%d/l2=%d/trace=%d/max=%d",
		sc.bench, c.IntALUs, c.AGUs, c.IntMults, c.FPALUs, c.FPMults,
		c.Mem.L2.Latency, sc.trace, c.MaxInsts)
}

// newSkipCPU builds the case's CPU over a fresh trace.
func newSkipCPU(t testing.TB, sc skipCase) *CPU {
	t.Helper()
	spec, err := workload.ByName(sc.bench)
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := New(sc.cfg, spec.NewTrace(sc.trace))
	if err != nil {
		t.Fatal(err)
	}
	return cpu
}

// errText renders an error for comparison; nil reads as "".
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// checkSkipMatchesStepping runs the case through RunContext and through
// the stepping oracle, each on a fresh CPU and a context from newCtx, and
// requires identical Results (QuietCycles aside: the oracle skips
// nothing) and identical errors. It returns the skipping run's Result.
func checkSkipMatchesStepping(t testing.TB, sc skipCase, newCtx func() context.Context) Result {
	t.Helper()
	got, gotErr := newSkipCPU(t, sc).RunContext(newCtx())
	want, wantErr := newSkipCPU(t, sc).runStepping(newCtx())
	if errText(gotErr) != errText(wantErr) {
		t.Fatalf("%v: skipping run error %q, stepping run error %q", sc, errText(gotErr), errText(wantErr))
	}
	if want.QuietCycles != 0 {
		t.Fatalf("%v: stepping oracle reports %d quiet cycles, want 0", sc, want.QuietCycles)
	}
	if got.QuietCycles > got.Cycles {
		t.Fatalf("%v: %d quiet cycles exceed the run's %d cycles", sc, got.QuietCycles, got.Cycles)
	}
	quiet := got.QuietCycles
	got.QuietCycles = 0
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%v: skipping Result diverges from stepping:\n got %+v\nwant %+v", sc, got, want)
	}
	got.QuietCycles = quiet
	return got
}

// skipMixes are the functional-unit provisionings the property test
// covers: the IntALU range, dedicated AGUs, and extra multiplier and FP
// units.
var skipMixes = []struct{ alus, agus, mults, fpalus, fpmults int }{
	{1, 0, 1, 1, 1},
	{2, 0, 1, 1, 1},
	{3, 2, 1, 1, 1},
	{4, 0, 2, 2, 2},
	{5, 1, 1, 1, 1},
	{6, 3, 2, 1, 2},
}

// TestSkipMatchesSteppingPrograms is the property test pinning the skip to
// the stepping loop: every one of the nine programs, on every FU mix and
// L2 latency, run to trace exhaustion or stopped by MaxInsts with work
// still in flight, must yield identical Results.
func TestSkipMatchesSteppingPrograms(t *testing.T) {
	window := uint64(20_000)
	if testing.Short() {
		window = 2_000
	}
	var skipped, total uint64
	for bi, spec := range workload.Benchmarks {
		for _, m := range skipMixes {
			for _, l2 := range []int{12, 32, 64} {
				cfg := DefaultConfig().WithIntALUs(m.alus).WithUnits(m.mults, m.fpalus, m.fpmults, m.agus).WithL2Latency(l2)
				for _, maxInsts := range []uint64{0, window/2 + uint64(bi*37)} {
					cfg.MaxInsts = maxInsts
					res := checkSkipMatchesStepping(t, skipCase{bench: spec.Name, cfg: cfg, trace: window}, context.Background)
					skipped += res.QuietCycles
					total += res.Cycles
				}
			}
		}
	}
	if skipped == 0 {
		t.Fatalf("no quiet cycle skipped over %d simulated cycles: the skip never engaged", total)
	}
	t.Logf("skipped %d of %d cycles (%.1f%%)", skipped, total, 100*float64(skipped)/float64(total))
}

// TestSkipMatchesSteppingStructuralLimits shrinks each structure dispatch
// can stall on — ROB, load, store and issue queues, physical registers,
// the fetch queue — so quiescent cycles with a blocked fetch-queue head
// are common, and checks them against the stepping loop.
func TestSkipMatchesSteppingStructuralLimits(t *testing.T) {
	shrink := map[string]func(*Config){
		"rob":      func(c *Config) { c.ROBSize = 6 },
		"loadq":    func(c *Config) { c.LoadQSize = 1 },
		"storeq":   func(c *Config) { c.StoreQSize = 1 },
		"intiq":    func(c *Config) { c.IntIQSize = 2 },
		"fpiq":     func(c *Config) { c.FPIQSize = 1 },
		"physregs": func(c *Config) { c.IntPhysRegs, c.FPPhysRegs = 34, 33 },
		"fetchq":   func(c *Config) { c.FetchQueueSize = 1 },
		"narrow":   func(c *Config) { c.FetchWidth, c.DecodeWidth, c.IssueWidth, c.CommitWidth = 1, 1, 1, 1 },
	}
	trace := uint64(6_000)
	if testing.Short() {
		trace = 2_000
	}
	for name, f := range shrink {
		t.Run(name, func(t *testing.T) {
			for _, bench := range []string{"health", "mcf", "gcc", "vortex"} {
				cfg := DefaultConfig().WithL2Latency(32)
				f(&cfg)
				checkSkipMatchesStepping(t, skipCase{bench: bench, cfg: cfg, trace: trace}, context.Background)
			}
		})
	}
}

// pollCancelCtx is a context whose Err turns to context.Canceled on its
// n-th call. The run loop consults Err exactly once per ctxCheckMask+1
// cycles whether it steps or skips, so the abort lands on the same poll
// boundary in both loops: a deterministic mid-run cancel.
type pollCancelCtx struct {
	context.Context
	polls, n int
}

func (c *pollCancelCtx) Err() error {
	c.polls++
	if c.polls >= c.n {
		return context.Canceled
	}
	return nil
}

// TestSkipMatchesSteppingMidRunCancel cancels runs part-way through and
// requires the partial Result and the abort cycle named in the error to
// equal the stepping loop's, on memory-bound machines where skips reach
// the poll boundaries.
func TestSkipMatchesSteppingMidRunCancel(t *testing.T) {
	for _, tc := range []struct {
		bench string
		l2    int
		polls int
	}{
		{"health", 64, 3},
		{"mcf", 32, 5},
		{"gcc", 12, 2},
	} {
		cfg := DefaultConfig().WithIntALUs(2).WithL2Latency(tc.l2)
		sc := skipCase{bench: tc.bench, cfg: cfg, trace: 200_000}
		res := checkSkipMatchesStepping(t, sc, func() context.Context {
			return &pollCancelCtx{Context: context.Background(), n: tc.polls}
		})
		if want := uint64(tc.polls) * (ctxCheckMask + 1); res.Cycles != want {
			t.Fatalf("%v: aborted at cycle %d, want poll boundary %d", sc, res.Cycles, want)
		}
		if res.QuietCycles == 0 {
			t.Errorf("%v: no cycle skipped before the abort", sc)
		}
		for _, cp := range res.Classes {
			for i, u := range cp.Units {
				if got := u.ActiveCycles + u.IdleCycles(); got != res.Cycles {
					t.Errorf("%v: %s unit %d covers %d cycles, want horizon %d", sc, cp.Class, i, got, res.Cycles)
				}
			}
		}
	}
}

// TestSkipMatchesSteppingDeadlock wedges the front end — a mispredict that
// nothing in flight will ever resolve — so every cycle is quiescent and
// the skip runs straight into the progress watchdog. It must declare the
// deadlock at the stepping loop's cycle, with the same stall count, after
// hopping across every context poll on the way.
func TestSkipMatchesSteppingDeadlock(t *testing.T) {
	wedged := func() *CPU {
		cpu, err := New(DefaultConfig(), isa.NewSliceStream(independentALUs(16)))
		if err != nil {
			t.Fatal(err)
		}
		cpu.redirectPending = true
		return cpu
	}
	got, gotErr := wedged().RunContext(context.Background())
	want, wantErr := wedged().runStepping(context.Background())
	if !errors.Is(gotErr, ErrDeadlock) || errText(gotErr) != errText(wantErr) {
		t.Fatalf("skipping run error %q, stepping run error %q, want the same ErrDeadlock", errText(gotErr), errText(wantErr))
	}
	if got.Cycles != deadlockWindow+1 || got.QuietCycles != got.Cycles {
		t.Fatalf("deadlock at cycle %d with %d quiet cycles, want both %d", got.Cycles, got.QuietCycles, deadlockWindow+1)
	}
	got.QuietCycles = 0
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("deadlocked Result diverges:\n got %+v\nwant %+v", got, want)
	}
}

// FuzzSkipMatchesStepping lets the fuzzer search program, FU mix, L2
// latency, structure sizes and stop point for a run where skipping
// quiescent cycles changes any Result field. Each byte of shape picks one
// dimension, so short inputs still reach every structural limit.
func FuzzSkipMatchesStepping(f *testing.F) {
	f.Add(uint8(2), uint8(1), uint8(0), []byte{})                             // health, 2 ALUs, default machine
	f.Add(uint8(3), uint8(0), uint8(2), []byte{0, 0, 0, 0, 0, 0})             // mcf, 1 ALU, L2 64, smallest structures
	f.Add(uint8(0), uint8(5), uint8(1), []byte{0x40, 0x10, 0x08, 0x81, 0x22}) // gcc, 6 ALUs, mixed sizes
	f.Add(uint8(7), uint8(3), uint8(1), []byte{9, 9, 9, 9, 9, 9, 9, 9, 9})    // vortex, dedicated AGUs
	f.Fuzz(func(t *testing.T, bench, alus, l2 uint8, shape []byte) {
		at := func(i int) int {
			if i < len(shape) {
				return int(shape[i])
			}
			return 0xff
		}
		cfg := DefaultConfig().
			WithIntALUs(1+int(alus)%6).
			WithUnits(1+at(0)%2, 1+at(1)%2, 1+at(2)%2, at(3)%3).
			WithL2Latency([]int{12, 32, 64}[int(l2)%3])
		cfg.ROBSize = 4 + at(4)%125
		cfg.IntIQSize = 1 + at(5)%32
		cfg.LoadQSize = 1 + at(6)%32
		cfg.StoreQSize = 1 + at(7)%32
		cfg.IntPhysRegs = 33 + at(8)%64
		cfg.FetchQueueSize = 1 + at(9)%8
		trace := uint64(500 + 37*at(10))
		if m := at(11); m < 0xff {
			cfg.MaxInsts = 1 + uint64(m)*trace/0xff
		}
		sc := skipCase{bench: workload.Benchmarks[int(bench)%len(workload.Benchmarks)].Name, cfg: cfg, trace: trace}
		checkSkipMatchesStepping(t, sc, context.Background)
	})
}

// paperMachineQuietCycles are the quiescent cycles the run loop skips for
// each program on the paper's machine (its Table 3 IntALU count, L2 = 12)
// over 100,000 instructions — the runs whose total cycles perfbench pins
// in paperMachineCycles. They are exact: a change to what the loop can
// skip must re-record them here, and say why, in the same change.
var paperMachineQuietCycles = map[string]uint64{
	"gcc":    34853,
	"gzip":   33304,
	"health": 421787,
	"mcf":    145777,
	"mst":    78450,
	"parser": 41046,
	"twolf":  43141,
	"vortex": 31360,
	"vpr":    55931,
}

// TestQuietCyclesPaperMachine pins QuietCycles for the nine paper-machine
// runs, so skip coverage is a deterministic counter rather than a timing.
func TestQuietCyclesPaperMachine(t *testing.T) {
	const window = 100_000
	var quiet, cycles uint64
	for _, spec := range workload.Benchmarks {
		cfg := DefaultConfig().WithIntALUs(spec.PaperFUs)
		cfg.MaxInsts = window
		cpu, err := New(cfg, spec.NewTrace(window))
		if err != nil {
			t.Fatal(err)
		}
		res, err := cpu.Run()
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %d of %d cycles quiet", spec.Name, res.QuietCycles, res.Cycles)
		if want, ok := paperMachineQuietCycles[spec.Name]; !ok || res.QuietCycles != want {
			t.Errorf("%s skipped %d quiet cycles on the paper machine, recorded %d", spec.Name, res.QuietCycles, want)
		}
		quiet += res.QuietCycles
		cycles += res.Cycles
	}
	t.Logf("paper machine: %d of %d cycles quiet (%.1f%%)", quiet, cycles, 100*float64(quiet)/float64(cycles))
}

// replayStream serves a materialized trace as one batch, so a benchmark
// times the simulator alone: no generator goroutine, no channel.
type replayStream struct {
	insts []isa.Inst
	done  bool
}

func (s *replayStream) Next() (isa.Inst, bool) { panic("replayStream is read through NextBatch") }

func (s *replayStream) NextBatch([]isa.Inst) ([]isa.Inst, bool) {
	if s.done {
		return nil, false
	}
	s.done = true
	return s.insts, true
}

func (s *replayStream) Close() {}

// BenchmarkPaperMachineSuite simulates the nine programs on the paper's
// machine over 100,000 instructions each, from traces materialized up
// front, with the skipping run loop and with the stepping oracle. One op
// is the whole suite; run it with -cpuprofile for the stage shares.
func BenchmarkPaperMachineSuite(b *testing.B) {
	const window = 100_000
	traces := make([][]isa.Inst, len(workload.Benchmarks))
	for i, spec := range workload.Benchmarks {
		s := spec.NewTrace(window)
		for in, ok := s.Next(); ok; in, ok = s.Next() {
			traces[i] = append(traces[i], in)
		}
		s.Close()
	}
	for _, l2 := range []int{12, 32} {
		for _, loop := range []string{"skip", "stepping"} {
			b.Run(fmt.Sprintf("l2=%d/%s", l2, loop), func(b *testing.B) {
				var insts uint64
				for n := 0; n < b.N; n++ {
					for i, spec := range workload.Benchmarks {
						cfg := DefaultConfig().WithIntALUs(spec.PaperFUs).WithL2Latency(l2)
						cpu, err := New(cfg, &replayStream{insts: traces[i]})
						if err != nil {
							b.Fatal(err)
						}
						run := cpu.RunContext
						if loop == "stepping" {
							run = cpu.runStepping
						}
						res, err := run(context.Background())
						if err != nil {
							b.Fatal(err)
						}
						insts += res.Committed
					}
				}
				b.ReportMetric(float64(insts)/b.Elapsed().Seconds()/1e6, "Minst/s")
			})
		}
	}
}
