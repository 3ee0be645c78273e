package pipeline

import (
	"context"
	"errors"
	"testing"

	"github.com/archsim/fusleep/internal/core"
	"github.com/archsim/fusleep/internal/isa"
)

// cancelWorkload mixes a serializing ALU chain with periodic multiplies so
// that at any abort cycle some units sit idle (open idle runs to close)
// and a multi-cycle op is usually in flight (an open busy run to settle).
func cancelWorkload(n int) []isa.Inst {
	insts := make([]isa.Inst, n)
	for i := range insts {
		pc := codeBase + uint64(i%256)*4
		if i%7 == 3 {
			insts[i] = isa.Inst{PC: pc, Class: isa.IntMult, Dest: isa.IntReg(2), Src1: isa.IntReg(1), Src2: isa.RegNone}
		} else {
			insts[i] = alu(pc, isa.IntReg(1), isa.IntReg(1), isa.RegNone)
		}
	}
	return insts
}

// TestCancelMidRunFlushesIntervalMass is the regression test for the
// transition-driven recorder's cancellation path: a run aborted mid-flight
// must still return profiles whose interval mass covers the simulated
// horizon exactly — active plus idle cycles equal to the abort cycle for
// every unit of every class, with no open run dropped.
func TestCancelMidRunFlushesIntervalMass(t *testing.T) {
	insts := cancelWorkload(200_000)

	// Reference: the full run, to prove the abort was genuinely mid-run.
	full := run(t, DefaultConfig(), insts)

	cpu, err := New(DefaultConfig(), isa.NewSliceStream(insts))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the run loop polls every ctxCheckMask+1 cycles and aborts
	res, err := cpu.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext error = %v, want context.Canceled", err)
	}
	if res.Cycles == 0 || res.Cycles >= full.Cycles {
		t.Fatalf("abort cycle %d not strictly inside the full run's %d cycles", res.Cycles, full.Cycles)
	}
	if res.Committed == 0 || res.Committed >= full.Committed {
		t.Fatalf("aborted run committed %d of %d: not mid-run", res.Committed, full.Committed)
	}

	checkMass := func(name string, units []core.IdleProfile) {
		t.Helper()
		for i, u := range units {
			if got := u.ActiveCycles + u.IdleCycles(); got != res.Cycles {
				t.Errorf("%s unit %d: active %d + idle %d = %d cycles, want horizon %d",
					name, i, u.ActiveCycles, u.IdleCycles(), got, res.Cycles)
			}
		}
	}
	if len(res.Classes) == 0 {
		t.Fatal("aborted result has no class profiles")
	}
	for _, cp := range res.Classes {
		checkMass(cp.Class.String(), cp.Units)
	}
	// The legacy integer-unit view must balance too.
	checkMass("legacy", res.FUs)

	// The partial profiles must show real activity — a flush that zeroed or
	// dropped runs would pass the mass check trivially.
	var active uint64
	for _, u := range res.FUs {
		active += u.ActiveCycles
	}
	if active == 0 {
		t.Error("aborted run recorded no active cycles on the integer units")
	}
}
