package experiments

import (
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"github.com/archsim/fusleep/internal/core"
	"github.com/archsim/fusleep/internal/fu"
)

// keyOracle is the original fmt-based Cell.Key. Keys are persisted in
// result journals and job WALs, so Key must produce exactly these bytes
// for every cell; FuzzCellKey holds it to that.
func keyOracle(c Cell) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%d|%.17g|%.17g|%.17g|%.17g|%d|%.17g|%d|%d|%s",
		c.Policy.Policy.String(), c.Policy.Slices, c.Policy.Timeout,
		c.Tech.P, c.Tech.C, c.Tech.SleepOverhead, c.Tech.Duty,
		c.FUs, c.Alpha, c.L2Latency, c.Window,
		strings.Join(c.Benchmarks, ","))
	fmt.Fprintf(h, "|%d|%d|%d|%d", c.AGUs, c.Mults, c.FPALUs, c.FPMults)
	if len(c.Classes) > 0 {
		for _, cl := range c.StudiedClasses() {
			fmt.Fprintf(h, "|c:%s", cl)
		}
	}
	if len(c.Assignment) > 0 {
		fmt.Fprintf(h, "|a:%s", c.Assignment)
	}
	for _, cl := range sortedClassKeys(c.ClassTechs) {
		t := c.ClassTechs[cl]
		fmt.Fprintf(h, "|t:%s:%.17g:%.17g:%.17g:%.17g", cl, t.P, t.C, t.SleepOverhead, t.Duty)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// fuzzKeyCell builds a cell from fuzzer scalars. classBits selects the
// studied classes (bit i = class i; bit 7 adds an out-of-range class),
// assignBits the classes with an assignment entry, techBits the classes
// with a technology override (built from the second float tuple).
func fuzzKeyCell(pol uint8, slices, timeout int, p, c, over, duty, alpha float64,
	fus, l2 int, window uint64, benches string, agus, mults int,
	classBits, assignBits, techBits uint8, p2, c2, over2, duty2 float64) Cell {
	cell := Cell{
		Policy:     core.PolicyConfig{Policy: core.Policy(pol % 8), Slices: slices, Timeout: timeout},
		Tech:       core.Tech{P: p, C: c, SleepOverhead: over, Duty: duty},
		FUs:        fus,
		Alpha:      alpha,
		L2Latency:  l2,
		Window:     window,
		Benchmarks: strings.Split(benches, ","),
		AGUs:       agus,
		Mults:      mults,
		FPALUs:     -agus,
		FPMults:    mults / 3,
	}
	for i := 0; i < fu.NumClasses; i++ {
		cl := fu.Class(i)
		if classBits&(1<<i) != 0 {
			cell.Classes = append(cell.Classes, cl)
		}
		if assignBits&(1<<i) != 0 {
			if cell.Assignment == nil {
				cell.Assignment = core.Assignment{}
			}
			cell.Assignment[cl] = core.PolicyConfig{Policy: core.Policy((int(pol) + i) % 6), Slices: i, Timeout: timeout + i}
		}
		if techBits&(1<<i) != 0 {
			if cell.ClassTechs == nil {
				cell.ClassTechs = map[fu.Class]core.Tech{}
			}
			cell.ClassTechs[cl] = core.Tech{P: p2 * float64(i+1), C: c2, SleepOverhead: over2, Duty: duty2}
		}
	}
	if classBits&0x80 != 0 {
		// Reversed order and an invalid class: Key must sort and name it
		// exactly as fmt's %s did.
		cell.Classes = append([]fu.Class{fu.Class(9)}, cell.Classes...)
	}
	return cell
}

// FuzzCellKey asserts the strconv-built Key equals the fmt oracle on any
// cell: non-finite and signed-zero floats, subnormals, negative counts,
// invalid classes, assignments, and per-class technology overrides.
func FuzzCellKey(f *testing.F) {
	inf, nan := math.Inf(1), math.NaN()
	negZero := math.Copysign(0, -1)
	const subnormal = 5e-324
	f.Add(uint8(1), 0, 0, 0.063, 0.001, 0.01, 0.5, 0.5, 4, 12, uint64(100000), "gcc", 0, 0, uint8(0), uint8(0), uint8(0), 0.0, 0.0, 0.0, 0.0)
	f.Add(uint8(3), 4, 0, inf, -inf, nan, negZero, subnormal, 2, 0, uint64(0), "gcc,mcf", 2, 1, uint8(0x1f), uint8(0), uint8(0), 0.0, 0.0, 0.0, 0.0)
	f.Add(uint8(5), 0, 17, 1e-310, 2.2250738585072014e-308, -1e300, 1e21, -0.25, -3, -1, uint64(math.MaxUint64), "", -1, 7, uint8(0x09), uint8(0x09), uint8(0), 0.0, 0.0, 0.0, 0.0)
	f.Add(uint8(2), 1, 2, 0.5, 0.001, 0.01, 0.5, 0.5, 4, 12, uint64(20000), "vpr,twolf", 0, 2, uint8(0x05), uint8(0x04), uint8(0x05), 0.3, 5e-4, nan, inf)
	f.Add(uint8(7), 0, 0, 0.1, 0.2, 0.3, 0.4, 1.0/3, 1, 1, uint64(1), "mst", 0, 0, uint8(0x80|0x02), uint8(0x1f), uint8(0x1f), negZero, subnormal, -inf, 123456789.123456789)
	f.Fuzz(func(t *testing.T, pol uint8, slices, timeout int, p, c, over, duty, alpha float64,
		fus, l2 int, window uint64, benches string, agus, mults int,
		classBits, assignBits, techBits uint8, p2, c2, over2, duty2 float64) {
		cell := fuzzKeyCell(pol, slices, timeout, p, c, over, duty, alpha, fus, l2, window, benches,
			agus, mults, classBits, assignBits, techBits, p2, c2, over2, duty2)
		if got, want := cell.Key(), keyOracle(cell); got != want {
			t.Fatalf("Key() = %s, fmt oracle = %s for %+v", got, want, cell)
		}
	})
}

// TestCellKeyAllocs pins Key to a single allocation (the returned
// string) for a cell without assignments or class lists.
func TestCellKeyAllocs(t *testing.T) {
	c := Grid{}.Cells(core.DefaultTech())[0]
	if allocs := testing.AllocsPerRun(100, func() { _ = c.Key() }); allocs > 1 {
		t.Fatalf("Key allocates %.0f times per call, want 1", allocs)
	}
}

func BenchmarkCellKey(b *testing.B) {
	c := Grid{}.Cells(core.DefaultTech())[0]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = c.Key()
	}
}

// simKeyOracle is the original fmt-based Cell.SimKey; SimKey must produce
// exactly these bytes, which FuzzCellSimKey holds it to.
func simKeyOracle(c Cell) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d|%d|%d|%d|%d|%d|%s",
		c.FUs, c.AGUs, c.Mults, c.FPALUs, c.FPMults, c.L2Latency, c.Window,
		strings.Join(c.Benchmarks, ","))
	return fmt.Sprintf("%016x", h.Sum64())
}

// FuzzCellSimKey asserts the strconv-built SimKey equals the fmt oracle
// on any cell, negative and extreme counts and windows included.
func FuzzCellSimKey(f *testing.F) {
	f.Add(4, 0, 0, 0, 0, 12, uint64(100000), "gcc")
	f.Add(-3, 2, 1, -7, 5, -1, uint64(0), "")
	f.Add(math.MaxInt, math.MinInt, 7, 1, 2, 0, uint64(math.MaxUint64), "gcc,mcf,vpr,twolf,parser,gzip,bzip2,vortex,crafty")
	f.Fuzz(func(t *testing.T, fus, agus, mults, fpalus, fpmults, l2 int, window uint64, benches string) {
		c := Cell{FUs: fus, AGUs: agus, Mults: mults, FPALUs: fpalus, FPMults: fpmults,
			L2Latency: l2, Window: window, Benchmarks: strings.Split(benches, ",")}
		if got, want := c.SimKey(), simKeyOracle(c); got != want {
			t.Fatalf("SimKey() = %s, fmt oracle = %s for %+v", got, want, c)
		}
	})
}

// TestCellSimKeyAllocs pins SimKey to a single allocation (the returned
// string).
func TestCellSimKeyAllocs(t *testing.T) {
	c := Grid{Benchmarks: []string{"gcc", "mcf", "vpr"}}.Cells(core.DefaultTech())[0]
	if allocs := testing.AllocsPerRun(100, func() { _ = c.SimKey() }); allocs > 1 {
		t.Fatalf("SimKey allocates %.0f times per call, want 1", allocs)
	}
}
