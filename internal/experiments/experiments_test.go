package experiments

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/archsim/fusleep/internal/core"
	"github.com/archsim/fusleep/internal/report"
	"github.com/archsim/fusleep/internal/workload"
)

func render(t *testing.T, arts []report.Renderable) string {
	t.Helper()
	var b strings.Builder
	for _, a := range arts {
		if err := a.Render(&b); err != nil {
			t.Fatal(err)
		}
	}
	return b.String()
}

func TestRegistryComplete(t *testing.T) {
	// Every paper table and figure has an experiment.
	wantPaper := []string{"Table 1", "Table 2", "Table 3", "Table 4",
		"Figure 3", "Figure 4a", "Figure 4b", "Figure 4c", "Figure 4d",
		"Figure 5c", "Figure 7", "Figure 8a", "Figure 8b", "Figure 9a", "Figure 9b"}
	have := map[string]bool{}
	for _, e := range All {
		have[e.Paper] = true
	}
	for _, w := range wantPaper {
		if !have[w] {
			t.Errorf("no experiment for %s", w)
		}
	}
	if _, err := ByID("fig8a"); err != nil {
		t.Error(err)
	}
	if _, err := ByID("bogus"); err == nil {
		t.Error("unknown id accepted")
	}
	if len(IDs()) != len(All) {
		t.Error("IDs() incomplete")
	}
	seen := map[string]bool{}
	for _, id := range IDs() {
		if seen[id] {
			t.Errorf("duplicate id %s", id)
		}
		seen[id] = true
	}
}

func TestAnalyticExperimentsRun(t *testing.T) {
	r := NewRunner(Options{Window: 50_000, Sweep: 50_000})
	for _, e := range All {
		if e.Simulated {
			continue
		}
		arts, err := e.Run(context.Background(), r)
		if err != nil {
			t.Errorf("%s: %v", e.ID, err)
			continue
		}
		if len(arts) == 0 {
			t.Errorf("%s: no artifacts", e.ID)
			continue
		}
		out := render(t, arts)
		if len(out) < 50 {
			t.Errorf("%s: output suspiciously short:\n%s", e.ID, out)
		}
	}
}

func TestFig3BreakevenNote(t *testing.T) {
	arts, err := Fig3(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	out := render(t, arts)
	if !strings.Contains(out, "breakeven at alpha=0.5: 17 cycles") &&
		!strings.Contains(out, "breakeven at alpha=0.5: 16 cycles") &&
		!strings.Contains(out, "breakeven at alpha=0.5: 18 cycles") {
		t.Errorf("Figure 3 breakeven should be ~17 cycles:\n%s", out)
	}
}

func TestSimulatedExperimentsSmallWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated experiments")
	}
	// A small window exercises the full simulated path cheaply; numeric
	// fidelity is checked at full scale in EXPERIMENTS.md runs.
	r := NewRunner(Options{Window: 60_000, Sweep: 30_000})
	for _, id := range []string{"fig7", "fig8a", "fig8b", "fig9a", "fig9b", "mcf-fu", "idle-by-bench", "table3"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		arts, err := e.Run(context.Background(), r)
		if err != nil {
			t.Errorf("%s: %v", id, err)
			continue
		}
		if out := render(t, arts); len(out) < 80 {
			t.Errorf("%s: output too short", id)
		}
	}
}

func TestSuiteCaching(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated")
	}
	r := NewRunner(Options{Window: 40_000})
	a, err := r.suite(context.Background(), 12)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.suite(context.Background(), 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 9 {
		t.Fatalf("suite has %d results", len(a))
	}
	// Cached: identical map instance.
	for k := range a {
		if a[k].Cycles != b[k].Cycles {
			t.Errorf("suite re-simulated for %s", k)
		}
	}
}

// TestCachedSuiteServedInline pins the warm path of SimSuiteMix: once
// every program of a suite is cached, a call starts no goroutine and
// allocates only the result map, and each request counts as a cache hit.
func TestCachedSuiteServedInline(t *testing.T) {
	r := NewRunner(Options{Window: 5_000})
	ctx := context.Background()
	names := []string{"gcc", "mcf", "vortex"}
	mix := FUMix{IntALUs: 2}
	want, err := r.SimSuiteMix(ctx, names, mix, 12, 0)
	if err != nil {
		t.Fatal(err)
	}
	before := r.Stats()
	allocs := testing.AllocsPerRun(200, func() {
		got, err := r.SimSuiteMix(ctx, names, mix, 12, 0)
		if err != nil || len(got) != len(names) {
			t.Fatalf("warm suite: %d results, err %v", len(got), err)
		}
	})
	// The map and its entries; Results are too large to sit in the map's
	// slots, so each entry is one allocation.
	if max := float64(2 + len(names)); allocs > max {
		t.Errorf("warm %d-program suite: %.1f allocs per call, want <= %.0f", len(names), allocs, max)
	}
	after := r.Stats()
	if after.Simulations != before.Simulations {
		t.Errorf("warm suite simulated: %d -> %d runs", before.Simulations, after.Simulations)
	}
	if hits := after.CacheHits - before.CacheHits; hits != 201*uint64(len(names)) {
		t.Errorf("warm suite counted %d cache hits, want %d", hits, 201*len(names))
	}
	got, err := r.SimSuiteMix(ctx, names, mix, 12, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if got[n].Cycles != want[n].Cycles || got[n].Committed != want[n].Committed {
			t.Errorf("%s: cached result %d/%d cycles/insts, first run %d/%d",
				n, got[n].Cycles, got[n].Committed, want[n].Cycles, want[n].Committed)
		}
	}
}

func TestSuiteCanceledBeforeStart(t *testing.T) {
	r := NewRunner(Options{Window: 5_000_000})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.suite(ctx, 12); !errors.Is(err, context.Canceled) {
		t.Errorf("suite on canceled ctx returned %v", err)
	}
}

func TestSuiteCancellationDrainsAndAggregates(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated")
	}
	// A large window with a quickly-canceled context must abort promptly,
	// return the cancellation error, and leave nothing cached.
	r := NewRunner(Options{Window: 50_000_000, Parallel: 2})
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(50*time.Millisecond, cancel)
	start := time.Now()
	_, err := r.suite(ctx, 12)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("suite returned %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("cancellation took %v, not prompt", d)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.runs) != 0 {
		t.Errorf("canceled run left cache entries: %d runs", len(r.runs))
	}
}

func TestSimUsesCache(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated")
	}
	r := NewRunner(Options{Window: 30_000})
	ctx := context.Background()
	a, err := r.SimMix(ctx, "gcc", FUMix{}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.SimMix(ctx, "gcc", FUMix{}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.Committed != b.Committed {
		t.Errorf("cached SimMix differs: %d/%d vs %d/%d", a.Cycles, a.Committed, b.Cycles, b.Committed)
	}
}

func TestSimDeduplicatesInFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated")
	}
	// Concurrent identical requests must share one pipeline run.
	r := NewRunner(Options{Window: 150_000})
	ctx := context.Background()
	const callers = 8
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func() {
			_, err := r.SimMix(ctx, "gcc", FUMix{}, 0, 0)
			errs <- err
		}()
	}
	for i := 0; i < callers; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.simCount != 1 {
		t.Errorf("%d callers ran %d simulations, want 1", callers, r.simCount)
	}
}

func TestSweepGridCardinality(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated")
	}
	r := NewRunner(Options{Window: 25_000})
	g := Grid{
		Policies:   []core.PolicyConfig{{Policy: core.MaxSleep}, {Policy: core.AlwaysActive}},
		Techs:      []core.Tech{core.DefaultTech(), core.HighLeakTech()},
		FUCounts:   []int{2, 4},
		Benchmarks: []string{"gcc"},
	}
	want := 2 * 2 * 2
	if got := g.Cardinality(core.DefaultTech()); got != want {
		t.Fatalf("Cardinality = %d, want %d", got, want)
	}
	arts, err := RunSweep(context.Background(), r, g, core.DefaultTech())
	if err != nil {
		t.Fatal(err)
	}
	if len(arts) != 1 || arts[0].Kind != report.KindTable {
		t.Fatalf("sweep artifacts: %+v", arts)
	}
	if got := len(arts[0].Table.Rows); got != want {
		t.Errorf("sweep rows = %d, want %d", got, want)
	}
}

func TestSweepDefaultsCoverSuite(t *testing.T) {
	g := Grid{}.withDefaults(core.DefaultTech())
	if len(g.Policies) != len(core.Policies) {
		t.Errorf("default policies: %d", len(g.Policies))
	}
	if len(g.Benchmarks) != len(workload.Names()) {
		t.Errorf("default benchmarks: %d", len(g.Benchmarks))
	}
	if g.Alpha != 0.5 || g.L2Latency != 12 || len(g.FUCounts) != 1 || g.FUCounts[0] != 0 {
		t.Errorf("defaults wrong: %+v", g)
	}
}

func TestFig8HeadlineDirections(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated")
	}
	// Even at reduced windows, the qualitative Figure 8 result must hold:
	// MaxSleep loses to AlwaysActive at p=0.05 and wins at p=0.50, with
	// GradualSleep near the winner both times.
	r := NewRunner(Options{Window: 250_000})
	suite, err := r.suite(context.Background(), 12)
	if err != nil {
		t.Fatal(err)
	}
	avg := func(p float64) map[string]float64 {
		tech := core.DefaultTech().WithP(p)
		sums := map[string]float64{}
		for _, res := range suite {
			for _, pol := range core.Policies {
				sums[pol.String()] += relativeEnergy(tech, core.PolicyConfig{Policy: pol}, 0.5, res)
			}
		}
		for k := range sums {
			sums[k] /= float64(len(suite))
		}
		return sums
	}
	low := avg(0.05)
	if low["MaxSleep"] <= low["AlwaysActive"] {
		t.Errorf("p=0.05: MaxSleep %.3f should exceed AlwaysActive %.3f", low["MaxSleep"], low["AlwaysActive"])
	}
	if low["GradualSleep"] > low["AlwaysActive"]*1.05 {
		t.Errorf("p=0.05: GradualSleep %.3f should be within ~5%% of AlwaysActive %.3f",
			low["GradualSleep"], low["AlwaysActive"])
	}
	high := avg(0.50)
	if high["MaxSleep"] >= high["AlwaysActive"] {
		t.Errorf("p=0.50: MaxSleep %.3f should undercut AlwaysActive %.3f", high["MaxSleep"], high["AlwaysActive"])
	}
	if high["GradualSleep"] > high["MaxSleep"]*1.05 {
		t.Errorf("p=0.50: GradualSleep %.3f should track MaxSleep %.3f", high["GradualSleep"], high["MaxSleep"])
	}
	// NoOverhead is the floor everywhere.
	for _, m := range []map[string]float64{low, high} {
		for k, v := range m {
			if k != "NoOverhead" && v < m["NoOverhead"]-1e-9 {
				t.Errorf("%s (%.3f) beat the NoOverhead bound (%.3f)", k, v, m["NoOverhead"])
			}
		}
	}
}
