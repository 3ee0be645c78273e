package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"github.com/archsim/fusleep"
	"github.com/archsim/fusleep/internal/fleet"
	"github.com/archsim/fusleep/internal/server"
)

// gridJob is a drawn grid with everything a repetition checks its
// streams against.
type gridJob struct {
	draw  gridDraw
	cells []fusleep.Cell
	body  []byte
	// distinct is the number of simulations the grid needs: distinct
	// SimKeys times programs per cell.
	distinct int
}

func newGridJob(d gridDraw) gridJob {
	g := gridJob{draw: d, cells: d.cells(), body: body(d.request())}
	g.distinct = distinctSimKeys(g.cells) * len(d.benchmarks)
	return g
}

// sweep submits the grid to the daemon at base, streams it to the end, and
// checks the stream: every cell of the grid exactly once, state done, no
// failed or skipped cells. It counts one operation per cell and per HTTP
// request.
func (g gridJob) sweep(ctx context.Context, tr *tracer, parent uint64, base string, s *sample) (sweepStream, error) {
	s.ops += 2 + len(g.cells)
	sp := tr.start("server.submit", parent, "", "")
	sub, err := submit(ctx, base, "/v1/sweeps", g.body)
	sp.setJob(sub.ID)
	sp.end()
	if err != nil {
		s.failed += 2 + len(g.cells)
		return sweepStream{}, err
	}
	if sub.Cells != len(g.cells) {
		s.failed++
		return sweepStream{}, checkf("sweep %s: accepted %d cells, the grid has %d", sub.ID, sub.Cells, len(g.cells))
	}
	tr.bindKeys(sub.ID, g.cellKeys())
	sp = tr.start("server.stream", parent, sub.ID, "")
	st, err := streamSweep(ctx, base, sub.ID)
	sp.end()
	if err != nil {
		s.failed += 1 + len(g.cells)
		return st, err
	}
	bad := len(g.cells) - st.completed
	s.failed += bad
	switch {
	case st.state != server.StateDone || bad != 0 || st.failed != 0 || st.skipped != 0:
		return st, checkf("sweep %s: state %s, %d/%d completed, %d failed, %d skipped",
			sub.ID, st.state, st.completed, len(g.cells), st.failed, st.skipped)
	case st.cellLines != len(g.cells) || len(st.results) != len(g.cells):
		s.failed += len(g.cells) - len(st.results)
		return st, checkf("sweep %s: %d cell lines, %d distinct indices, want %d", sub.ID, st.cellLines, len(st.results), len(g.cells))
	}
	for i, k := range st.keys {
		if i < 0 || i >= len(g.cells) || g.cells[i].Key() != k {
			s.failed++
			return st, checkf("sweep %s: streamed cell %d has key %s, not the grid's", sub.ID, i, k)
		}
	}
	return st, nil
}

// cellKeys lists the grid's cell keys in grid order.
func (g gridJob) cellKeys() []string {
	out := make([]string, len(g.cells))
	for i, c := range g.cells {
		out[i] = c.Key()
	}
	return out
}

// sameResults checks two streams of one grid hold byte-identical results
// at every index.
func sameResults(what string, a, b map[int]string, s *sample) error {
	for i, r := range a {
		if b[i] != r {
			s.failed++
			return checkf("%s: cell %d differs:\n  %s\n  %s", what, i, r, b[i])
		}
	}
	return nil
}

// counterValue reads one unlabeled counter from an exposition.
func counterValue(text, name string) float64 {
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, _ := strconv.ParseFloat(strings.TrimSpace(v), 64)
			return f
		}
	}
	return 0
}

// policyGrid is a warm daemon user scoring policies: set-up simulates the
// grid's machines; the job scores the grid fresh, again from the store,
// and runs one tuner search over the same machines.
type policyGrid struct {
	gridJob
	work     string
	tuneBody []byte
	// warm is one cell per machine at an activity factor the grid does not
	// use: it simulates every machine without storing any grid cell.
	warm []fusleep.Cell
	n    int

	first     map[int]string
	firstTune string
}

func newPolicyGrid(e env) *policyGrid {
	d := drawGrid(e.seed, policyGridShape)
	p := &policyGrid{gridJob: newGridJob(d), work: e.work, tuneBody: body(d.tuneRequest())}
	seen := map[string]bool{}
	for _, c := range p.cells {
		if !seen[c.SimKey()] {
			seen[c.SimKey()] = true
			c.Alpha = 0.25
			p.warm = append(p.warm, c)
		}
	}
	return p
}

func (p *policyGrid) rep(ctx context.Context, tr *tracer) (s sample, err error) {
	root := tr.start("repetition", 0, "", "")
	defer root.end()
	s = sample{phase: map[string]float64{}, simPhase: "warm"}
	p.n++
	dir := filepath.Join(p.work, fmt.Sprintf("pg-%d", p.n))
	defer os.RemoveAll(dir)

	var d *daemon
	start, err := timed(func() error {
		sp := tr.start("daemon.start", root.id(), "", "")
		defer sp.end()
		var err error
		d, err = startDaemon(dir, benchWindow, nil)
		return err
	})
	if err != nil {
		return s, err
	}
	defer func() {
		if serr := d.stop(); err == nil && serr != nil {
			err = fmt.Errorf("stop daemon: %w", serr)
		}
	}()
	cpu0 := cpuSeconds()
	warm, err := timed(func() error {
		sp := tr.start("experiments.RunCells", root.id(), "", "")
		defer sp.end()
		_, err := d.eng.RunCells(ctx, p.warm)
		return err
	})
	s.simCPU = cpuSeconds() - cpu0
	if err != nil {
		return s, err
	}
	s.setup = start + warm
	s.phase["warm"] = warm
	s.simInsts = d.eng.Stats().Simulations * benchWindow

	var fresh, again sweepStream
	s.phase["fresh"], err = timed(func() error {
		var err error
		fresh, err = p.sweep(ctx, tr, root.id(), d.base, &s)
		return err
	})
	if err != nil {
		return s, err
	}
	before, err := scrape(ctx, d.base)
	if err != nil {
		return s, err
	}
	s.phase["resubmit"], err = timed(func() error {
		var err error
		again, err = p.sweep(ctx, tr, root.id(), d.base, &s)
		return err
	})
	if err != nil {
		return s, err
	}
	after, err := scrape(ctx, d.base)
	if err != nil {
		return s, err
	}
	var tune tuneStream
	s.phase["tune"], err = timed(func() error {
		s.ops += 2
		sp := tr.start("server.submit", root.id(), "", "")
		sub, err := submit(ctx, d.base, "/v1/optimize", p.tuneBody)
		sp.setJob(sub.ID)
		sp.end()
		if err != nil {
			s.failed += 2
			return err
		}
		sp = tr.start("optimize.stream", root.id(), sub.ID, "")
		defer sp.end()
		tune, err = streamTune(ctx, d.base, sub.ID)
		if err != nil {
			s.failed++
		}
		return err
	})
	if err != nil {
		return s, err
	}
	s.phase["job"] = s.phase["fresh"] + s.phase["resubmit"] + s.phase["tune"]
	s.ops += tune.evals
	s.units = 2*len(p.cells) + tune.evals
	s.stats = d.eng.Stats()
	s.distinct = p.distinct

	if served := counterValue(after, "fusleepd_store_served_total") - counterValue(before, "fusleepd_store_served_total"); int(served) != len(p.cells) {
		s.failed++
		return s, checkf("policy-grid: resubmit served %v of %d cells from the store", served, len(p.cells))
	}
	if err := sameResults("policy-grid resubmit", fresh.results, again.results, &s); err != nil {
		return s, err
	}
	if tune.state != server.StateDone || tune.evals == 0 || tune.probes != tune.evals {
		s.failed++
		return s, checkf("policy-grid: tune ended %s with %d evals, %d probes", tune.state, tune.evals, tune.probes)
	}
	if int(s.stats.Simulations) != p.distinct {
		s.failed++
		return s, checkf("policy-grid: %d simulations, want %d distinct", s.stats.Simulations, p.distinct)
	}
	if p.first == nil {
		p.first, p.firstTune = fresh.results, tune.result
		return s, nil
	}
	if tune.result != p.firstTune {
		s.failed++
		return s, checkf("policy-grid: tune result differs between repetitions")
	}
	return s, sameResults("policy-grid repetitions", p.first, fresh.results, &s)
}

func (p *policyGrid) named(reps []sample) map[string]metric {
	evals := float64(reps[0].units - 2*len(p.cells))
	return map[string]metric{
		"policy-grid/cells_per_s":          perSecond(float64(len(p.cells)), reps, "fresh"),
		"policy-grid/resubmit_cells_per_s": perSecond(float64(len(p.cells)), reps, "resubmit"),
		"policy-grid/tune_evals_per_s":     perSecond(evals, reps, "tune"),
		"policy-grid/cells":                {Value: float64(len(p.cells)), Unit: "count"},
	}
}

func (p *policyGrid) inputs() ladderInput { return ladderInput{gridJob: p.gridJob} }

// coldSweep runs one cold grid through a standalone daemon and through a
// coordinator with two in-process workers; the results must match byte
// for byte.
type coldSweep struct {
	gridJob
	work  string
	n     int
	first map[int]string
}

func newColdSweep(e env) *coldSweep {
	return &coldSweep{gridJob: newGridJob(drawGrid(e.seed, coldSweepShape)), work: e.work}
}

// passes is one standalone-plus-fleet run of a grid.
type passes struct {
	standalone, fleet sweepStream
	// standaloneStats are the standalone engine's counters, fleetStats the
	// workers' summed.
	standaloneStats fusleep.EngineStats
	fleetStats      fusleep.EngineStats
	requeues        uint64
	// fetchCalls, reportCalls, and wireBytes are what the workers'
	// transport carried during the fleet pass.
	fetchCalls, reportCalls int
	wireBytes               int64
	// The rest is filled with probe set: the two daemons' expositions after
	// their passes, the store-served count of a standalone resubmit, the
	// standalone journal's size, and the mean time to read one cell back
	// from the standalone store.
	standaloneMetrics, fleetMetrics string
	storeServed                     float64
	journalBytes                    int64
	getSeconds                      float64
}

// runPasses starts a standalone daemon and a 1-coordinator/2-worker fleet
// (set-up), sweeps the grid through each (the job), and checks that both
// streams carry byte-identical results. With probe set it also scrapes
// both daemons and times reading every cell back from the store, after
// the timed passes.
func (g gridJob) runPasses(ctx context.Context, tr *tracer, parent uint64, dir string, s *sample, probe bool) (out passes, err error) {
	var alone, coordD *daemon
	var pool *fleetPool
	coord := fleet.NewCoordinator(fleet.Config{})
	setup, err := timed(func() error {
		sp := tr.start("daemon.start", parent, "", "")
		defer sp.end()
		var err error
		if alone, err = startDaemon(filepath.Join(dir, "standalone"), benchWindow, nil); err != nil {
			return err
		}
		if coordD, err = startDaemon(filepath.Join(dir, "coordinator"), benchWindow, coord); err != nil {
			return err
		}
		pool, err = startFleet(coordD.base, 2, benchWindow, coord, tr)
		return err
	})
	// Workers stop first, so no long-poll fetch holds the coordinator's
	// listener open while it shuts down.
	defer func() {
		if pool != nil {
			pool.stop()
		}
		for _, d := range []*daemon{coordD, alone} {
			if d == nil {
				continue
			}
			if serr := d.stop(); err == nil && serr != nil {
				err = fmt.Errorf("stop daemon: %w", serr)
			}
		}
	}()
	s.setup = setup
	if err != nil {
		return out, err
	}

	cpu0 := cpuSeconds()
	s.phase["standalone"], err = timed(func() error {
		var err error
		out.standalone, err = g.sweep(ctx, tr, parent, alone.base, s)
		return err
	})
	s.simCPU = cpuSeconds() - cpu0
	if err != nil {
		return out, err
	}
	fetch0, bytes0 := pool.tx.snapshot("/v1/fleet/fetch")
	report0, _ := pool.tx.snapshot("/v1/fleet/report")
	s.phase["fleet"], err = timed(func() error {
		var err error
		out.fleet, err = g.sweep(ctx, tr, parent, coordD.base, s)
		return err
	})
	if err != nil {
		return out, err
	}
	fetch1, bytes1 := pool.tx.snapshot("/v1/fleet/fetch")
	report1, _ := pool.tx.snapshot("/v1/fleet/report")
	out.fetchCalls, out.reportCalls, out.wireBytes = fetch1-fetch0, report1-report0, bytes1-bytes0
	s.phase["job"] = s.phase["standalone"] + s.phase["fleet"]
	out.standaloneStats = alone.eng.Stats()
	out.fleetStats = pool.stats()
	out.requeues = coord.Stats().Requeues
	s.stats = out.standaloneStats
	s.distinct = g.distinct
	s.units = 2 * len(g.cells)
	s.simInsts = out.standaloneStats.Simulations * benchWindow

	if err := sameResults("fleet vs standalone", out.standalone.results, out.fleet.results, s); err != nil {
		return out, err
	}
	if int(out.standaloneStats.Simulations) != g.distinct {
		s.failed++
		return out, checkf("standalone ran %d simulations, want %d distinct", out.standaloneStats.Simulations, g.distinct)
	}
	if out.requeues != 0 {
		s.failed++
		return out, checkf("fleet requeued %d cells", out.requeues)
	}
	if !probe {
		return out, nil
	}
	before, err := scrape(ctx, alone.base)
	if err != nil {
		return out, err
	}
	again, err := g.sweep(ctx, tr, parent, alone.base, s)
	if err != nil {
		return out, err
	}
	if err := sameResults("standalone resubmit", out.standalone.results, again.results, s); err != nil {
		return out, err
	}
	if out.standaloneMetrics, err = scrape(ctx, alone.base); err != nil {
		return out, err
	}
	out.storeServed = counterValue(out.standaloneMetrics, "fusleepd_store_served_total") -
		counterValue(before, "fusleepd_store_served_total")
	if out.fleetMetrics, err = scrape(ctx, coordD.base); err != nil {
		return out, err
	}
	out.journalBytes = alone.st.Results.Stats().Bytes
	keys := g.cellKeys()
	out.getSeconds, err = timed(func() error {
		sp := tr.start("store.GetCell", parent, "", "")
		defer sp.end()
		for _, k := range keys {
			if _, ok, err := alone.st.Results.GetCell(k); err != nil || !ok {
				return fmt.Errorf("store: cell %s missing (%v)", k, err)
			}
		}
		return nil
	})
	out.getSeconds /= float64(len(keys))
	return out, err
}

func (c *coldSweep) rep(ctx context.Context, tr *tracer) (sample, error) {
	root := tr.start("repetition", 0, "", "")
	defer root.end()
	s := sample{phase: map[string]float64{}, simPhase: "standalone"}
	c.n++
	dir := filepath.Join(c.work, fmt.Sprintf("cs-%d", c.n))
	defer os.RemoveAll(dir)
	out, err := c.runPasses(ctx, tr, root.id(), dir, &s, false)
	if err != nil {
		return s, err
	}
	s.fleet = out.fleetStats
	if c.first == nil {
		c.first = out.standalone.results
		return s, nil
	}
	return s, sameResults("cold-sweep repetitions", c.first, out.standalone.results, &s)
}

func (c *coldSweep) named(reps []sample) map[string]metric {
	n := float64(len(c.cells))
	return map[string]metric{
		"cold-sweep/standalone_cells_per_s": perSecond(n, reps, "standalone"),
		"cold-sweep/fleet_cells_per_s":      perSecond(n, reps, "fleet"),
		"cold-sweep/cells":                  {Value: n, Unit: "count"},
	}
}

func (c *coldSweep) inputs() ladderInput { return ladderInput{gridJob: c.gridJob} }
