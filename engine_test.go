package fusleep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
	"time"

	"github.com/archsim/fusleep/internal/report"
)

func TestEngineOptionDefaults(t *testing.T) {
	e := NewEngine()
	if e.Window() != 1_000_000 {
		t.Errorf("default window %d", e.Window())
	}
	if e.SweepWindow() != 750_000 {
		t.Errorf("default sweep window %d", e.SweepWindow())
	}
	if e.Parallelism() != 0 {
		t.Errorf("default parallelism %d, want 0 (= GOMAXPROCS)", e.Parallelism())
	}
	if !e.CacheEnabled() {
		t.Error("cache should default to enabled")
	}
	if e.Tech() != DefaultTech() {
		t.Errorf("default tech %+v", e.Tech())
	}
}

func TestEngineOptionOverrides(t *testing.T) {
	e := NewEngine(
		WithWindow(123),
		WithSweep(456),
		WithParallelism(3),
		WithTech(HighLeakTech()),
		WithCache(false),
	)
	if e.Window() != 123 || e.SweepWindow() != 456 || e.Parallelism() != 3 {
		t.Errorf("overrides not applied: %d %d %d", e.Window(), e.SweepWindow(), e.Parallelism())
	}
	if e.CacheEnabled() {
		t.Error("WithCache(false) ignored")
	}
	if e.Tech() != HighLeakTech() {
		t.Errorf("WithTech ignored: %+v", e.Tech())
	}
	// Zero values leave the defaults in place.
	z := NewEngine(WithWindow(0), WithSweep(0), WithParallelism(0))
	if z.Window() != 1_000_000 || z.SweepWindow() != 750_000 || z.Parallelism() != 0 {
		t.Errorf("zero options changed defaults: %d %d %d", z.Window(), z.SweepWindow(), z.Parallelism())
	}
}

func TestEngineSimulate(t *testing.T) {
	e := NewEngine(WithWindow(60_000))
	rep, err := e.Simulate(context.Background(), "gcc")
	if err != nil {
		t.Fatal(err)
	}
	if rep.FUs != 2 {
		t.Errorf("gcc should default to the paper's 2 FUs, got %d", rep.FUs)
	}
	if rep.Committed != 60_000 {
		t.Errorf("committed %d", rep.Committed)
	}
	if rep.IPC <= 0 || len(rep.FUProfiles) != 2 || rep.MeanFUUtilization <= 0 {
		t.Errorf("report incomplete: %+v", rep)
	}
	// Unknown benchmarks are rejected.
	if _, err := e.Simulate(context.Background(), "bogus"); err == nil {
		t.Error("unknown benchmark accepted")
	}
	// A per-call option overrides the engine default.
	small, err := e.Simulate(context.Background(), "gcc", SimWindow(30_000), SimFUs(4))
	if err != nil {
		t.Fatal(err)
	}
	if small.Committed != 30_000 || small.FUs != 4 {
		t.Errorf("per-call options ignored: committed %d, FUs %d", small.Committed, small.FUs)
	}
}

func TestEngineSimulateCancellation(t *testing.T) {
	// A window far larger than any test run should be aborted almost
	// immediately once the context is canceled.
	e := NewEngine(WithWindow(200_000_000))
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(50*time.Millisecond, cancel)
	start := time.Now()
	_, err := e.Simulate(ctx, "mcf")
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Simulate returned %v, want context.Canceled", err)
	}
	if elapsed > 10*time.Second {
		t.Errorf("cancellation took %v, not prompt", elapsed)
	}
}

func TestEngineRunExperimentsArtifacts(t *testing.T) {
	e := NewEngine()
	arts, err := e.RunExperiments(context.Background(), "table1", "table4")
	if err != nil {
		t.Fatal(err)
	}
	if len(arts) != 2 {
		t.Fatalf("got %d artifacts", len(arts))
	}
	for _, a := range arts {
		if a.Kind != KindTable || a.Table == nil || a.ID == "" || a.Title == "" {
			t.Errorf("artifact malformed: %+v", a)
		}
	}
	if _, err := e.RunExperiments(context.Background(), "bogus"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRenderJSONRoundTrip(t *testing.T) {
	e := NewEngine()
	// One table and one series artifact cover both payload kinds.
	arts, err := e.RunExperiments(context.Background(), "table4", "fig4a")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RenderJSON(&buf, arts); err != nil {
		t.Fatal(err)
	}
	var back []Artifact
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("RenderJSON output does not unmarshal: %v", err)
	}
	if !reflect.DeepEqual(arts, back) {
		t.Errorf("JSON round trip lost data:\nhave %+v\nwant %+v", back, arts)
	}
	if back[1].Kind != KindSeries || len(back[1].Series.X) == 0 {
		t.Errorf("series payload not preserved: %+v", back[1])
	}
}

func TestEngineSweepGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated")
	}
	e := NewEngine(WithWindow(25_000))
	g := Grid{
		Techs:      []Tech{DefaultTech(), HighLeakTech()},
		FUCounts:   []int{2},
		Benchmarks: []string{"gcc", "mcf"},
		Policies: []PolicyConfig{
			{Policy: MaxSleep}, {Policy: AlwaysActive}, {Policy: NoOverhead},
		},
	}
	arts, err := e.Sweep(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if len(arts) != 1 || arts[0].Kind != KindTable {
		t.Fatalf("sweep artifacts: %+v", arts)
	}
	if got, want := len(arts[0].Table.Rows), 2*1*3; got != want {
		t.Errorf("grid rows = %d, want |techs|*|fus|*|policies| = %d", got, want)
	}
	// The engine's cache means a repeat sweep is nearly free and identical.
	again, err := e.Sweep(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(arts[0].Table.Rows, again[0].Table.Rows) {
		t.Error("repeat sweep differs despite cache")
	}
}

func TestRendererFor(t *testing.T) {
	for _, f := range Formats() {
		if _, err := RendererFor(f); err != nil {
			t.Errorf("RendererFor(%q): %v", f, err)
		}
	}
	if _, err := RendererFor("xml"); err == nil {
		t.Error("unknown format accepted")
	}
	tbl := NewTable("t", "a", "b")
	tbl.AddRow("1", "2")
	arts := []Artifact{TableArtifact("adhoc", tbl)}
	var text, csvOut bytes.Buffer
	if err := RenderText(&text, arts); err != nil {
		t.Fatal(err)
	}
	if err := RenderCSV(&csvOut, arts); err != nil {
		t.Fatal(err)
	}
	if text.Len() == 0 || csvOut.Len() == 0 {
		t.Error("empty render output")
	}
}

// Engine internals reach into internal/report types; keep the alias honest.
var _ = report.Artifact(Artifact{})

func TestEngineSweepStreamAndStats(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated")
	}
	e := NewEngine(WithWindow(20_000))
	g := Grid{
		Techs:      []Tech{DefaultTech(), HighLeakTech()},
		Benchmarks: []string{"gcc"},
	}
	cells := e.Cells(g)
	if len(cells) != 8 { // 2 techs x 4 default policies
		t.Fatalf("cells = %d, want 8", len(cells))
	}
	// The engine's default window is stamped onto resolved cells so their
	// keys are canonical.
	if cells[0].Window != e.Window() {
		t.Errorf("cell window = %d, want engine default %d", cells[0].Window, e.Window())
	}

	tbl := e.NewSweepTable(g)
	var got []CellResult
	if err := e.SweepStream(context.Background(), g, func(res CellResult) error {
		got = append(got, res)
		AddSweepRow(tbl, res)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(cells) {
		t.Fatalf("streamed %d cells, want %d", len(got), len(cells))
	}
	for i, res := range got {
		if res.Index != i {
			t.Errorf("cell %d delivered with index %d", i, res.Index)
		}
		if res.Cell.Key() != cells[i].Key() {
			t.Errorf("cell %d identity mismatch", i)
		}
	}

	// The batch Sweep over the same grid produces the same rows and, via
	// the shared cache, runs no further simulations.
	before := e.Stats()
	if before.Simulations == 0 {
		t.Fatal("stream ran no simulations")
	}
	arts, err := e.Sweep(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(arts[0].Table.Rows, tbl.Rows) {
		t.Errorf("stream-assembled table differs from Sweep:\n%v\nvs\n%v", tbl.Rows, arts[0].Table.Rows)
	}
	after := e.Stats()
	if after.Simulations != before.Simulations {
		t.Errorf("repeat sweep re-simulated: %d -> %d", before.Simulations, after.Simulations)
	}
	if after.CacheHits <= before.CacheHits {
		t.Errorf("repeat sweep missed the cache: hits %d -> %d", before.CacheHits, after.CacheHits)
	}
	if rate := after.HitRate(); rate <= 0 || rate >= 1 {
		t.Errorf("hit rate = %g, want in (0,1)", rate)
	}

	// RunCell on one cell is a pure cache hit now.
	res, err := e.RunCell(context.Background(), cells[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.RelEnergy != got[0].RelEnergy {
		t.Errorf("RunCell rel = %g, stream said %g", res.RelEnergy, got[0].RelEnergy)
	}
	if e.Stats().Simulations != after.Simulations {
		t.Error("RunCell re-simulated a cached cell")
	}
}

// TestSimulateReportDoesNotAliasCache mutates every profile of a Simulate
// report and checks that nothing later served off the same cached
// simulation moved: neither a second Simulate nor a cell scored from it.
func TestSimulateReportDoesNotAliasCache(t *testing.T) {
	ctx := context.Background()
	cell := Cell{
		Policy:     PolicyConfig{Policy: GradualSleep},
		Tech:       DefaultTech(),
		Benchmarks: []string{"gcc"},
		Alpha:      0.5,
		L2Latency:  12,
		Classes:    []FUClass{FUIntALU, FUMult},
	}
	want, err := NewEngine(WithWindow(30_000)).RunCells(ctx, []Cell{cell})
	if err != nil {
		t.Fatal(err)
	}

	e := NewEngine(WithWindow(30_000))
	first, err := e.Simulate(ctx, "gcc")
	if err != nil {
		t.Fatal(err)
	}
	before, err := json.Marshal(first)
	if err != nil {
		t.Fatal(err)
	}
	profs := append([]*IdleProfile(nil), first.FUProfiles...)
	for _, ps := range first.ClassProfiles {
		profs = append(profs, ps...)
	}
	for _, p := range profs {
		p.ActiveCycles += 5
		p.AddIdle(7, 1000)
		p.AddIdle(1<<20, 1)
	}

	second, err := e.Simulate(ctx, "gcc")
	if err != nil {
		t.Fatal(err)
	}
	after, err := json.Marshal(second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, before) {
		t.Errorf("second Simulate report changed after the first was mutated:\n got %.300s\nwant %.300s", after, before)
	}
	got, err := e.RunCells(ctx, []Cell{cell})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("cell scored after the mutation = %+v, want %+v", got, want)
	}
	if n := e.Stats().Simulations; n != 1 {
		t.Errorf("simulations = %d, want 1: every read must come off the one cached run", n)
	}
}

// TestRunCellWarmAllocs bounds a warm three-program RunCell at its
// measured 5 allocations under every policy: the result slice, the cell's
// SimKey, the batch's result slice, the studied-class list and the
// per-class results, with none from grouping (stack buffers), the cached
// runs or scoring the idle profiles. It measured 13 while EvalCells kept
// its groups in a map of slices, returned each suite as a map and
// allocated the per-class accumulators. A change that adds allocations to
// the warm path must re-measure this bound and say why.
func TestRunCellWarmAllocs(t *testing.T) {
	ctx := context.Background()
	e := NewEngine(WithWindow(5_000))
	cell := Cell{
		Tech:       DefaultTech(),
		Benchmarks: []string{"gcc", "mcf", "vortex"},
		Alpha:      0.5,
		L2Latency:  12,
	}
	if _, err := e.RunCell(ctx, cell); err != nil {
		t.Fatal(err)
	}
	for _, pol := range []Policy{AlwaysActive, MaxSleep, NoOverhead, GradualSleep, OracleMinimal, SleepTimeout} {
		cell.Policy = PolicyConfig{Policy: pol}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := e.RunCell(ctx, cell); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 5 {
			t.Errorf("%v: warm RunCell made %.1f allocs, want <= 5", pol, allocs)
		}
	}
}
