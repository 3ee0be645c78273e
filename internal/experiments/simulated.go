package experiments

import (
	"context"
	"fmt"
	"sort"

	"github.com/archsim/fusleep/internal/core"
	"github.com/archsim/fusleep/internal/pipeline"
	"github.com/archsim/fusleep/internal/report"
	"github.com/archsim/fusleep/internal/stats"
	"github.com/archsim/fusleep/internal/workload"
)

// Table2 reproduces the architectural parameter table from the simulator's
// actual defaults.
func Table2(context.Context, *Runner) ([]report.Renderable, error) {
	cfg := pipeline.DefaultConfig()
	t := report.NewTable("Table 2: architectural parameters", "parameter", "value")
	t.AddRow("fetch queue", fmt.Sprintf("%d entries", cfg.FetchQueueSize))
	t.AddRow("branch predictor", fmt.Sprintf("bimodal %d + 2-level %d/%d (hist %d), chooser %d",
		cfg.Bpred.BimodalEntries, cfg.Bpred.HistTableEntries, cfg.Bpred.PatternEntries,
		cfg.Bpred.HistBits, cfg.Bpred.ChooserEntries))
	t.AddRow("RAS / BTB", fmt.Sprintf("%d entries / %d sets %d-way",
		cfg.Bpred.RASEntries, cfg.Bpred.BTBSets, cfg.Bpred.BTBAssoc))
	t.AddRow("branch mispredict latency", fmt.Sprintf("%d cycles", cfg.MispredictPenalty))
	t.AddRow("fetch/decode/issue width", fmt.Sprintf("%d instructions", cfg.FetchWidth))
	t.AddRow("reorder buffer", fmt.Sprintf("%d entries", cfg.ROBSize))
	t.AddRow("integer/FP issue queues", fmt.Sprintf("%d / %d entries", cfg.IntIQSize, cfg.FPIQSize))
	t.AddRow("physical int/FP registers", fmt.Sprintf("%d / %d", cfg.IntPhysRegs, cfg.FPPhysRegs))
	t.AddRow("load/store queues", fmt.Sprintf("%d / %d entries", cfg.LoadQSize, cfg.StoreQSize))
	t.AddRow("integer FUs", fmt.Sprintf("up to %d (per-benchmark Table 3 counts)", cfg.IntALUs))
	t.AddRow("ITLB", fmt.Sprintf("%d entry %d-way, 8K pages, %d cycle miss",
		cfg.ITLB.Entries, cfg.ITLB.Assoc, cfg.ITLB.MissPenalty))
	t.AddRow("DTLB", fmt.Sprintf("%d entry %d-way, 8K pages, %d cycle miss",
		cfg.DTLB.Entries, cfg.DTLB.Assoc, cfg.DTLB.MissPenalty))
	t.AddRow("L1 I-cache", fmt.Sprintf("%d KB %d-way, %dB line, %d cycle",
		cfg.Mem.L1I.SizeKB, cfg.Mem.L1I.Assoc, cfg.Mem.L1I.LineSize, cfg.Mem.L1I.Latency))
	t.AddRow("L1 D-cache", fmt.Sprintf("%d KB %d-way, %dB line, %d cycle",
		cfg.Mem.L1D.SizeKB, cfg.Mem.L1D.Assoc, cfg.Mem.L1D.LineSize, cfg.Mem.L1D.Latency))
	t.AddRow("L2 unified", fmt.Sprintf("%d MB %d-way, %dB line, %d cycle",
		cfg.Mem.L2.SizeKB/1024, cfg.Mem.L2.Assoc, cfg.Mem.L2.LineSize, cfg.Mem.L2.Latency))
	t.AddRow("memory latency", fmt.Sprintf("%d cycles", cfg.Mem.MemLatency))
	return []report.Renderable{t}, nil
}

// Table3 reproduces the benchmark table: per benchmark, the four-unit IPC,
// the IPC at the selected unit count, and the selection by the paper's
// >= 95%-of-peak rule, alongside the paper's own numbers.
func Table3(ctx context.Context, r *Runner) ([]report.Renderable, error) {
	// All four unit counts' runs go to the runner as one batch, so no
	// count waits for the slowest run of the one before it.
	var reqs []SimRequest
	for fus := 1; fus <= 4; fus++ {
		for _, spec := range workload.Benchmarks {
			reqs = append(reqs, SimRequest{Bench: spec.Name, Mix: FUMix{IntALUs: fus}, L2: 12, Window: r.opt.Sweep})
		}
	}
	runs, err := r.SimBatch(ctx, reqs)
	if err != nil {
		return nil, err
	}
	// ipc[i][fus] is benchmark i's IPC at fus units.
	ipc := make([][5]float64, len(workload.Benchmarks))
	for j := range runs {
		ipc[j%len(ipc)][1+j/len(ipc)] = runs[j].IPC()
	}

	t := report.NewTable("Table 3: benchmarks (FU selection: min units with >= 95% of 4-unit IPC)",
		"app", "suite", "max IPC (4 FU)", "IPC @ selected", "FUs (ours)", "FUs (paper)", "paper max IPC", "paper IPC")
	matches := 0
	for i, spec := range workload.Benchmarks {
		ipc4 := ipc[i][4]
		sel := 4
		for n := 1; n <= 4; n++ {
			if ipc[i][n] >= 0.95*ipc4 {
				sel = n
				break
			}
		}
		if sel == spec.PaperFUs {
			matches++
		}
		t.AddRow(spec.Name, spec.Suite,
			report.F(ipc4, 3), report.F(ipc[i][sel], 3),
			fmt.Sprintf("%d", sel), fmt.Sprintf("%d", spec.PaperFUs),
			report.F(spec.PaperMaxIPC, 3), report.F(spec.PaperIPC, 3))
	}
	t.AddNote("selection matches the paper on %d of %d benchmarks; energy figures use the paper's counts", matches, len(workload.Benchmarks))
	return []report.Renderable{t}, nil
}

// Fig7 reproduces Figure 7: the distribution of functional-unit idle
// intervals across the suite at 12- and 32-cycle L2 latencies, weighted so
// every unit contributes equally.
func Fig7(ctx context.Context, r *Runner) ([]report.Renderable, error) {
	const cap = 8192
	s := report.NewSeries("Figure 7: distribution of idle intervals",
		"interval bucket low (cycles)", "fraction of total time ALUs are idle",
		"12-cycle L2", "32-cycle L2")

	// suite is the run of every program at one L2 latency, in workload
	// order.
	fractions := func(l2 int, suite []pipeline.Result) ([]float64, float64, float64) {
		nBuckets := stats.MustNewLog2Histogram(cap)
		sums := make([]float64, len(nBuckets.Buckets()))
		var units int
		var idleFracSum, withinL2Sum float64
		for _, res := range suite {
			for _, fu := range res.FUs {
				h := stats.MustNewLog2Histogram(cap)
				h.AddIntervals(fu.Intervals)
				total := float64(res.Cycles)
				for b, bucket := range h.Buckets() {
					sums[b] += float64(bucket.Weight) / total
				}
				idleFracSum += float64(fu.IdleCycles()) / total
				withinL2Sum += stats.CumulativeWeightFraction(fu.Intervals, l2)
				units++
			}
		}
		for b := range sums {
			sums[b] /= float64(units)
		}
		return sums, idleFracSum / float64(units), withinL2Sum / float64(units)
	}

	// Both latencies' suites go to the runner as one batch.
	var reqs []SimRequest
	for _, l2 := range []int{12, 32} {
		for _, name := range workload.Names() {
			reqs = append(reqs, SimRequest{Bench: name, L2: l2, Window: r.opt.Window})
		}
	}
	runs, err := r.SimBatch(ctx, reqs)
	if err != nil {
		return nil, err
	}
	n := len(workload.Benchmarks)
	f12, idle12, within12 := fractions(12, runs[:n])
	f32, idle32, _ := fractions(32, runs[n:])
	for b := range f12 {
		s.AddPoint(float64(int(1)<<b), f12[b], f32[b])
	}
	s.AddNote("ALUs idle %.1f%% of time at 12-cycle L2 (paper: 46.8%%), %.1f%% at 32-cycle", idle12*100, idle32*100)
	s.AddNote("%.0f%% of idle time falls in intervals <= the 12-cycle L2 latency (paper: ~75%%)", within12*100)
	s.AddNote("intervals >= %d cycles accumulate in the final bucket, as in the paper", cap)
	return []report.Renderable{s}, nil
}

// fig8 builds one Figure 8 panel: per-benchmark policy energies normalized
// to 100%-computation energy, with the alpha=0.25/0.75 range.
func fig8(ctx context.Context, r *Runner, p float64) (*report.Table, error) {
	suite, err := r.suite(ctx, 12)
	if err != nil {
		return nil, err
	}
	tech := core.DefaultTech().WithP(p)
	t := report.NewTable(
		fmt.Sprintf("Figure 8 (p=%.2f): normalized energy by policy [alpha=0.50 (0.25 / 0.75)]", p),
		"app (FUs)", "MaxSleep", "GradualSleep", "AlwaysActive", "NoOverhead")
	avg := map[core.Policy]float64{}
	for _, spec := range workload.Benchmarks {
		res := suite[spec.Name]
		cells := []string{fmt.Sprintf("%s (%d)", spec.Name, spec.PaperFUs)}
		for _, pol := range core.Policies {
			pc := core.PolicyConfig{Policy: pol}
			mid := relativeEnergy(tech, pc, 0.50, res)
			lo := relativeEnergy(tech, pc, 0.25, res)
			hi := relativeEnergy(tech, pc, 0.75, res)
			avg[pol] += mid
			cells = append(cells, fmt.Sprintf("%.3f (%.3f / %.3f)", mid, lo, hi))
		}
		t.AddRow(cells...)
	}
	cells := []string{"average"}
	for _, pol := range core.Policies {
		cells = append(cells, fmt.Sprintf("%.3f", avg[pol]/float64(len(workload.Benchmarks))))
	}
	t.AddRow(cells...)
	ms := avg[core.MaxSleep] / float64(len(workload.Benchmarks))
	aa := avg[core.AlwaysActive] / float64(len(workload.Benchmarks))
	no := avg[core.NoOverhead] / float64(len(workload.Benchmarks))
	gs := avg[core.GradualSleep] / float64(len(workload.Benchmarks))
	t.AddNote("MaxSleep vs AlwaysActive: %+.1f%% (paper: %+.1f%% at p=%.2f)",
		(ms/aa-1)*100, map[float64]float64{0.05: +8.3, 0.50: -19.2}[p], p)
	t.AddNote("GradualSleep vs AlwaysActive: %+.1f%%; NoOverhead bound: %.3f", (gs/aa-1)*100, no)
	return t, nil
}

// Fig8a reproduces Figure 8a (p = 0.05).
func Fig8a(ctx context.Context, r *Runner) ([]report.Renderable, error) {
	t, err := fig8(ctx, r, 0.05)
	if err != nil {
		return nil, err
	}
	return []report.Renderable{t}, nil
}

// Fig8b reproduces Figure 8b (p = 0.50).
func Fig8b(ctx context.Context, r *Runner) ([]report.Renderable, error) {
	t, err := fig8(ctx, r, 0.50)
	if err != nil {
		return nil, err
	}
	return []report.Renderable{t}, nil
}

// Fig9a reproduces Figure 9a: suite-average energy of each policy relative
// to the NoOverhead bound across the technology space.
func Fig9a(ctx context.Context, r *Runner) ([]report.Renderable, error) {
	suite, err := r.suite(ctx, 12)
	if err != nil {
		return nil, err
	}
	s := report.NewSeries("Figure 9a: average energy relative to NoOverhead",
		"p", "E / E_NoOverhead", "GradualSleep", "MaxSleep", "AlwaysActive")
	for i := 1; i <= 20; i++ {
		p := float64(i) * 0.05
		tech := core.DefaultTech().WithP(p)
		sums := map[core.Policy]float64{}
		for _, name := range workload.Names() {
			res := suite[name]
			no := unitEnergy(tech, core.PolicyConfig{Policy: core.NoOverhead}, 0.5, res).Total()
			for _, pol := range []core.Policy{core.GradualSleep, core.MaxSleep, core.AlwaysActive} {
				sums[pol] += unitEnergy(tech, core.PolicyConfig{Policy: pol}, 0.5, res).Total() / no
			}
		}
		n := float64(len(workload.Benchmarks))
		s.AddPoint(p, sums[core.GradualSleep]/n, sums[core.MaxSleep]/n, sums[core.AlwaysActive]/n)
	}
	s.AddNote("AlwaysActive wins at small p, MaxSleep at large p; GradualSleep avoids both extremes")
	return []report.Renderable{s}, nil
}

// Fig9b reproduces Figure 9b: the leakage fraction of total energy across
// the technology space for each policy.
func Fig9b(ctx context.Context, r *Runner) ([]report.Renderable, error) {
	suite, err := r.suite(ctx, 12)
	if err != nil {
		return nil, err
	}
	s := report.NewSeries("Figure 9b: ratio of leakage to total energy",
		"p", "leakage / total", "GradualSleep", "MaxSleep", "AlwaysActive", "NoOverhead")
	pols := []core.Policy{core.GradualSleep, core.MaxSleep, core.AlwaysActive, core.NoOverhead}
	for i := 1; i <= 20; i++ {
		p := float64(i) * 0.05
		tech := core.DefaultTech().WithP(p)
		ys := make([]float64, len(pols))
		for i, pol := range pols {
			var sum float64
			for _, name := range workload.Names() {
				sum += unitEnergy(tech, core.PolicyConfig{Policy: pol}, 0.5, suite[name]).LeakageFraction()
			}
			ys[i] = sum / float64(len(workload.Benchmarks))
		}
		s.AddPoint(p, ys...)
	}
	tech05 := core.DefaultTech()
	tech50 := core.HighLeakTech()
	var aa05, aa50 float64
	for _, name := range workload.Names() {
		aa05 += unitEnergy(tech05, core.PolicyConfig{Policy: core.AlwaysActive}, 0.5, suite[name]).LeakageFraction()
		aa50 += unitEnergy(tech50, core.PolicyConfig{Policy: core.AlwaysActive}, 0.5, suite[name]).LeakageFraction()
	}
	n := float64(len(workload.Benchmarks))
	s.AddNote("AlwaysActive leakage fraction: %.0f%% at p=0.05 (paper: 13%%), %.0f%% at p=0.50 (paper: 60%%)",
		aa05/n*100, aa50/n*100)
	return []report.Renderable{s}, nil
}

// McfFUStudy reproduces the Section 5 side experiment: mcf's leakage
// fraction grows when idle functional units are added (2 -> 4 units).
func McfFUStudy(ctx context.Context, r *Runner) ([]report.Renderable, error) {
	spec, err := workload.ByName("mcf")
	if err != nil {
		return nil, err
	}
	tech := core.DefaultTech() // p = 0.05
	t := report.NewTable("mcf leakage fraction vs functional-unit count (p=0.05, AlwaysActive)",
		"FUs", "IPC", "mean FU utilization", "leakage/total")
	fuCounts := []int{2, 4}
	reqs := make([]SimRequest, len(fuCounts))
	for i, fus := range fuCounts {
		reqs[i] = SimRequest{Bench: spec.Name, Mix: FUMix{IntALUs: fus}, L2: 12, Window: r.opt.Window}
	}
	runs, err := r.SimBatch(ctx, reqs)
	if err != nil {
		return nil, err
	}
	for i, fus := range fuCounts {
		res := runs[i]
		frac := unitEnergy(tech, core.PolicyConfig{Policy: core.AlwaysActive}, 0.5, res).LeakageFraction()
		t.AddRow(fmt.Sprintf("%d", fus), report.F(res.IPC(), 3),
			fmt.Sprintf("%.1f%%", res.MeanFUUtilization()*100),
			fmt.Sprintf("%.1f%%", frac*100))
	}
	t.AddNote("paper: 31%% utilization and 15%% leakage fraction at 2 FUs, rising to 25%% at 4 FUs")
	return []report.Renderable{t}, nil
}

// IdleByBenchmark is a supplementary breakdown of Figure 7: per-benchmark
// idle fraction and mean idle interval at the selected FU counts.
func IdleByBenchmark(ctx context.Context, r *Runner) ([]report.Renderable, error) {
	suite, err := r.suite(ctx, 12)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Idle structure by benchmark (12-cycle L2, Table 3 FU counts)",
		"app (FUs)", "IPC", "idle %", "mean interval", "intervals/1k cycles", "median-ish bucket")
	for _, spec := range workload.Benchmarks {
		res := suite[spec.Name]
		merged := core.NewIdleProfile()
		for i := range res.FUs {
			merged.Merge(&res.FUs[i])
		}
		totalFUCycles := float64(res.Cycles) * float64(len(res.FUs))
		idleFrac := float64(merged.IdleCycles()) / totalFUCycles
		perK := float64(merged.IntervalCount()) / totalFUCycles * 1000
		// Bucket holding the median of idle time.
		h := stats.MustNewLog2Histogram(8192)
		h.AddIntervals(merged.Intervals)
		var acc uint64
		med := 0
		half := h.TotalWeight() / 2
		for _, b := range h.Buckets() {
			acc += b.Weight
			if acc >= half {
				med = b.Low
				break
			}
		}
		t.AddRow(fmt.Sprintf("%s (%d)", spec.Name, spec.PaperFUs),
			report.F(res.IPC(), 3),
			fmt.Sprintf("%.1f%%", idleFrac*100),
			report.F(merged.MeanIdle(), 1),
			report.F(perK, 1),
			fmt.Sprintf("[%d,..)", med))
	}
	return []report.Renderable{t}, nil
}

// TimeoutStudy evaluates the "more complex control strategy" the paper's
// conclusion speculates about: a breakeven-threshold timeout controller
// (2-competitive ski rental), compared with the paper's policies over the
// measured suite profiles. The paper conjectures it is not worth the
// machinery; this experiment quantifies exactly how little it buys over
// GradualSleep.
func TimeoutStudy(ctx context.Context, r *Runner) ([]report.Renderable, error) {
	suite, err := r.suite(ctx, 12)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Timeout (predictive) policy vs the paper's policies [suite-average E/E_base, alpha=0.5]",
		"p", "SleepTimeout", "GradualSleep", "MaxSleep", "AlwaysActive", "OracleMinimal", "NoOverhead", "timeout vs gradual")
	pols := []core.PolicyConfig{
		{Policy: core.SleepTimeout},
		{Policy: core.GradualSleep},
		{Policy: core.MaxSleep},
		{Policy: core.AlwaysActive},
		{Policy: core.OracleMinimal},
		{Policy: core.NoOverhead},
	}
	for _, p := range []float64{0.05, 0.10, 0.20, 0.50, 1.0} {
		tech := core.DefaultTech().WithP(p)
		avgs := make([]float64, len(pols))
		for _, name := range workload.Names() {
			res := suite[name]
			for i, pc := range pols {
				avgs[i] += relativeEnergy(tech, pc, 0.5, res)
			}
		}
		cells := []string{report.F(p, 2)}
		for i := range pols {
			avgs[i] /= float64(len(workload.Benchmarks))
			cells = append(cells, fmt.Sprintf("%.4f", avgs[i]))
		}
		cells = append(cells, fmt.Sprintf("%+.1f%%", (avgs[0]/avgs[1]-1)*100))
		t.AddRow(cells...)
	}
	t.AddNote("SleepTimeout needs an idle counter + threshold register per unit; GradualSleep is a shift register")
	t.AddNote("supports the paper's conclusion: the complex controller buys at most a few percent")
	return []report.Renderable{t}, nil
}

// sortedPolicies returns the Figure 8 policy order (stable helper for
// tests).
func sortedPolicies() []core.Policy {
	out := append([]core.Policy(nil), core.Policies...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
