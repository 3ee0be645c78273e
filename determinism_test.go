package fusleep_test

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"github.com/archsim/fusleep"
)

// sweepJSON runs a small full-suite Sweep grid on a fresh engine built with
// the given options and returns the rendered JSON artifacts, which include
// every table row and so pin the complete result surface.
func sweepJSON(t *testing.T, opts ...fusleep.Option) []byte {
	t.Helper()
	base := []fusleep.Option{fusleep.WithWindow(40_000), fusleep.WithSweep(40_000)}
	eng := fusleep.NewEngine(append(base, opts...)...)
	arts, err := eng.Sweep(context.Background(), fusleep.Grid{Window: 40_000})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fusleep.RenderJSON(&buf, arts); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSweepIndependentOfCache asserts Engine.Sweep results do not depend on
// whether the cross-call simulation cache is enabled: caching may only
// change how often simulations run, never what they measure.
func TestSweepIndependentOfCache(t *testing.T) {
	cached := sweepJSON(t)
	uncached := sweepJSON(t, fusleep.WithCache(false))
	if !bytes.Equal(cached, uncached) {
		t.Errorf("sweep results differ with cache off:\n cached: %s\nuncached: %s", cached, uncached)
	}
}

// TestSweepIndependentOfParallelism asserts Engine.Sweep results do not
// depend on the parallelism bound: simulations are isolated per benchmark,
// so scheduling them serially or concurrently must measure the same
// machine.
func TestSweepIndependentOfParallelism(t *testing.T) {
	serial := sweepJSON(t, fusleep.WithParallelism(1))
	wide := sweepJSON(t, fusleep.WithParallelism(16))
	if !bytes.Equal(serial, wide) {
		t.Errorf("sweep results differ across parallelism:\nserial: %s\n  wide: %s", serial, wide)
	}
}

// scheduledJSON runs the batch paths of the simulation scheduler on a
// fresh engine built with the given options: the table3, fig7 and mcf-fu
// artifacts, then one RunCells call over cells of four machines, in an
// order that revisits a machine after another. It returns both
// renderings.
func scheduledJSON(t *testing.T, opts ...fusleep.Option) (arts, cells []byte) {
	t.Helper()
	base := []fusleep.Option{fusleep.WithWindow(20_000), fusleep.WithSweep(20_000)}
	eng := fusleep.NewEngine(append(base, opts...)...)
	ctx := context.Background()
	a, err := eng.RunExperiments(ctx, "table3", "fig7", "mcf-fu")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fusleep.RenderJSON(&buf, a); err != nil {
		t.Fatal(err)
	}
	var batch []fusleep.Cell
	for _, fus := range []int{1, 3, 1, 2} {
		for _, pol := range []fusleep.Policy{fusleep.MaxSleep, fusleep.GradualSleep} {
			batch = append(batch, fusleep.Cell{
				Policy:     fusleep.PolicyConfig{Policy: pol},
				Tech:       fusleep.DefaultTech(),
				FUs:        fus,
				Benchmarks: []string{"gcc", "mcf", "vortex"},
				Alpha:      0.5,
				L2Latency:  12 + 20*(fus%2),
			})
		}
	}
	res, err := eng.RunCells(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	cells, err = json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), cells
}

// TestSchedulerIndependentOfParallelism holds the batch paths' bytes equal
// at one simulation in flight, at the default bound (GOMAXPROCS) and at
// more than the batch needs: the scheduler may only change when each run
// happens, never what it measures or where its result lands.
func TestSchedulerIndependentOfParallelism(t *testing.T) {
	serialArts, serialCells := scheduledJSON(t, fusleep.WithParallelism(1))
	for _, opts := range [][]fusleep.Option{nil, {fusleep.WithParallelism(16)}} {
		arts, cells := scheduledJSON(t, opts...)
		if !bytes.Equal(arts, serialArts) {
			t.Errorf("artifacts differ from the serial run at %d options:\n got: %s\nwant: %s", len(opts), arts, serialArts)
		}
		if !bytes.Equal(cells, serialCells) {
			t.Errorf("RunCells results differ from the serial run at %d options:\n got: %s\nwant: %s", len(opts), cells, serialCells)
		}
	}
}
