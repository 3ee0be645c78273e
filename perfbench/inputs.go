package main

import (
	"encoding/json"
	"math/rand"
	"sort"

	"github.com/archsim/fusleep"
	"github.com/archsim/fusleep/internal/server"
)

// benchWindow is every workload's per-program instruction window: long
// enough that simulation dominates a cold cell, short enough that one
// repetition takes about a second or less.
const benchWindow = 100_000

// gridDraw is a seed-drawn sweep grid. Its shape and its machines are
// fixed, so the cell count, the distinct-SimKey count, and the simulation
// work are the same for every seed; the seed draws the policy and
// technology axes.
type gridDraw struct {
	fus, mults, fpalus []int
	policies           []fusleep.PolicyConfig
	ps                 []float64
	benchmarks         []string
	window             uint64
}

// gridShape fixes a drawn grid's machines (the product of its unit-count
// axes), its programs, and how many values the seed draws per axis.
//
// The machines are not drawn: the daemon places a machine's cells on a
// shard by SimKey hash, so a seed-drawn machine set changes how evenly the
// two shards share the simulations, and with it the cost of the same work
// (with drawn mixes, 8 machines split anywhere from 4/4 to 2/6 and the
// standalone pass slowed by up to a fifth).
type gridShape struct {
	fus, mults, fpalus []int
	gradual, timeout   int // GradualSleep and SleepTimeout variants
	fixed              []fusleep.Policy
	ps                 int
	benchmarks         []string
}

// policyGridShape: 4 machines x 20 policies x 25 technology points = 2000
// cells over 3 programs, so the warm scoring pass is long enough to time.
var policyGridShape = gridShape{
	fus: []int{2, 4}, mults: []int{1, 2},
	gradual: 8, timeout: 8,
	fixed: []fusleep.Policy{fusleep.MaxSleep, fusleep.NoOverhead, fusleep.AlwaysActive, fusleep.OracleMinimal},
	ps:    25, benchmarks: []string{"gcc", "mcf", "vpr"},
}

// coldSweepShape: 8 machines x 6 policies x 10 technology points = 480
// cells over 4 programs: 32 simulations dominate the standalone pass.
var coldSweepShape = gridShape{
	fus: []int{2, 4}, mults: []int{1, 2}, fpalus: []int{1, 2},
	gradual: 2, timeout: 2,
	fixed: []fusleep.Policy{fusleep.MaxSleep, fusleep.AlwaysActive},
	ps:    10, benchmarks: []string{"gcc", "gzip", "mcf", "parser"},
}

// drawGrid draws the policy and technology axes of a grid of the given
// shape from seed: GradualSleep slice counts, SleepTimeout thresholds, and
// leakage factors p.
func drawGrid(seed int64, sh gridShape) gridDraw {
	rng := rand.New(rand.NewSource(seed))
	d := gridDraw{fus: sh.fus, mults: sh.mults, fpalus: sh.fpalus, benchmarks: sh.benchmarks, window: benchWindow}
	for _, p := range sh.fixed {
		d.policies = append(d.policies, fusleep.PolicyConfig{Policy: p})
	}
	for _, k := range pick(rng, sh.gradual, 1, 64) {
		d.policies = append(d.policies, fusleep.PolicyConfig{Policy: fusleep.GradualSleep, Slices: k})
	}
	for _, t := range pick(rng, sh.timeout, 1, 256) {
		d.policies = append(d.policies, fusleep.PolicyConfig{Policy: fusleep.SleepTimeout, Timeout: t})
	}
	for _, c := range pick(rng, sh.ps, 1, 100) {
		d.ps = append(d.ps, float64(c)/100)
	}
	return d
}

// pick draws n distinct integers from [lo, hi], ascending.
func pick(rng *rand.Rand, n, lo, hi int) []int {
	perm := rng.Perm(hi - lo + 1)[:n]
	out := make([]int, n)
	for i, v := range perm {
		out[i] = lo + v
	}
	sort.Ints(out)
	return out
}

// request is the grid's POST /v1/sweeps body.
func (d gridDraw) request() server.SweepRequest {
	return server.SweepRequest{
		Policies:    d.policies,
		Ps:          d.ps,
		FUCounts:    d.fus,
		MultCounts:  d.mults,
		FPALUCounts: d.fpalus,
		Benchmarks:  d.benchmarks,
		Window:      d.window,
	}
}

// grid is the same grid for the Go API.
func (d gridDraw) grid() fusleep.Grid {
	g := fusleep.Grid{
		Policies:    d.policies,
		FUCounts:    d.fus,
		MultCounts:  d.mults,
		FPALUCounts: d.fpalus,
		Benchmarks:  d.benchmarks,
		Window:      d.window,
	}
	for _, p := range d.ps {
		g.Techs = append(g.Techs, fusleep.DefaultTech().WithP(p))
	}
	return g
}

// cells expands the grid in the daemon's order.
func (d gridDraw) cells() []fusleep.Cell {
	return fusleep.NewEngine(fusleep.WithWindow(d.window)).Cells(d.grid())
}

// tuneRequest is a POST /v1/optimize body searching the grid's IntALU axis
// at its first multiplier count and first four technology points: every
// candidate machine is one the grid already simulated.
func (d gridDraw) tuneRequest() server.TuneRequest {
	return server.TuneRequest{
		FUCounts:   d.fus,
		Mults:      firstOr0(d.mults),
		FPALUs:     firstOr0(d.fpalus),
		Ps:         d.ps[:min(4, len(d.ps))],
		Benchmarks: d.benchmarks,
		Window:     d.window,
		MaxEvals:   64,
	}
}

func firstOr0(xs []int) int {
	if len(xs) == 0 {
		return 0
	}
	return xs[0]
}

// body marshals a request; the request types hold only plain values, so
// this cannot fail.
func body(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// distinctSimKeys counts the cells' distinct simulation identities.
func distinctSimKeys(cells []fusleep.Cell) int {
	seen := map[string]bool{}
	for _, c := range cells {
		seen[c.SimKey()] = true
	}
	return len(seen)
}
