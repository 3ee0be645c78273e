package main

import (
	"bytes"
	"context"

	"github.com/archsim/fusleep"
)

// workloads maps each workload name to its constructor.
var workloads = map[string]func(env) workload{
	"repro":       func(env) workload { return &repro{} },
	"policy-grid": func(e env) workload { return newPolicyGrid(e) },
	"cold-sweep":  func(e env) workload { return newColdSweep(e) },
}

// repro is the paper-reproduction path: every registered experiment on a
// cold engine, rendered as JSON. The seed does not enter it.
type repro struct {
	// first is the first repetition's rendered output and sims its
	// simulation count; later repetitions must match both.
	first []byte
	sims  uint64
	// arts are the last repetition's artifacts, for the render rung.
	arts []fusleep.Artifact
}

func (r *repro) rep(ctx context.Context, tr *tracer) (sample, error) {
	root := tr.start("repetition", 0, "", "")
	defer root.end()
	var eng *fusleep.Engine
	setup, _ := timed(func() error {
		sp := tr.start("setup", root.id(), "", "")
		eng = fusleep.NewEngine(fusleep.WithWindow(benchWindow), fusleep.WithSweep(benchWindow))
		sp.end()
		return nil
	})
	nexp := len(eng.Experiments())
	s := sample{setup: setup, simPhase: "experiments", ops: nexp + 1, phase: map[string]float64{}}

	var arts []fusleep.Artifact
	cpu0 := cpuSeconds()
	run, err := timed(func() error {
		sp := tr.start("experiments.RunExperiments", root.id(), "", "")
		defer sp.end()
		var err error
		arts, err = eng.RunExperiments(ctx)
		return err
	})
	s.simCPU = cpuSeconds() - cpu0
	if err != nil {
		s.failed = nexp
		return s, err
	}
	var out bytes.Buffer
	render, err := timed(func() error {
		sp := tr.start("report.RenderJSON", root.id(), "", "")
		defer sp.end()
		return fusleep.RenderJSON(&out, arts)
	})
	if err != nil {
		s.failed = 1
		return s, err
	}
	s.phase["experiments"], s.phase["render"], s.phase["job"] = run, render, run+render
	s.stats = eng.Stats()
	s.distinct = int(s.stats.Simulations)
	s.units = int(s.stats.Simulations)
	s.simInsts = s.stats.Simulations * benchWindow
	r.arts = arts

	if r.first == nil {
		r.first, r.sims = out.Bytes(), s.stats.Simulations
		return s, nil
	}
	if !bytes.Equal(out.Bytes(), r.first) {
		s.failed++
		return s, checkf("repro: rendered artifacts differ between repetitions")
	}
	if s.stats.Simulations != r.sims {
		s.failed++
		return s, checkf("repro: %d simulations, first repetition ran %d", s.stats.Simulations, r.sims)
	}
	return s, nil
}

func (r *repro) named(reps []sample) map[string]metric {
	return map[string]metric{
		"repro/experiments_s": {Value: nominal(reps, func(s sample) float64 { return s.phase["experiments"] }), Unit: "s", n: len(reps)},
		"repro/render_s":      {Value: nominal(reps, func(s sample) float64 { return s.phase["render"] }), Unit: "s", n: len(reps)},
		"repro/simulations":   {Value: float64(reps[0].stats.Simulations), Unit: "count"},
	}
}

func (r *repro) inputs() ladderInput {
	d := gridDraw{benchmarks: fusleep.BenchmarkNames(), ps: []float64{0.05, 0.1, 0.2, 0.5}, window: benchWindow}
	for _, p := range fusleep.Policies {
		d.policies = append(d.policies, fusleep.PolicyConfig{Policy: p})
	}
	return ladderInput{gridJob: newGridJob(d), artifacts: r.arts}
}
