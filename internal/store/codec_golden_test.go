package store

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"github.com/archsim/fusleep/internal/core"
	"github.com/archsim/fusleep/internal/experiments"
	"github.com/archsim/fusleep/internal/fu"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden captures")

// codecCase is one hand-built result whose canonical bytes the golden
// pins. Every input is a literal, not a computed value, so no platform's
// float arithmetic can move the bytes.
type codecCase struct {
	name string
	res  experiments.CellResult
}

// negZero is -0, which a constant expression cannot spell.
var negZero = math.Float64frombits(1 << 63)

func codecCases() []codecCase {
	return []codecCase{
		{"policy-grid", experiments.CellResult{
			Index: 1234, // zeroed by EncodeCell
			Cell: experiments.Cell{
				Policy:     core.PolicyConfig{Policy: core.GradualSleep, Slices: 15},
				Tech:       core.Tech{P: 0.37, C: 0.001, SleepOverhead: 0.01, Duty: 0.5},
				FUs:        2,
				Benchmarks: []string{"gcc", "mcf", "vpr"},
				Alpha:      0.5,
				L2Latency:  12,
				Window:     100000,
				Mults:      2,
			},
			RelEnergy:       0.29375625000000005,
			LeakageFraction: 0.41327914036209385,
			MeanCycles:      131072.33333333334,
			PerClass: []experiments.ClassEnergy{{
				Class: fu.IntALU, Policy: core.PolicyConfig{Policy: core.GradualSleep, Slices: 15},
				RelEnergy: 0.29375625000000005, LeakageFraction: 0.41327914036209385, Units: 2,
			}},
		}},
		{"zero-nil-benchmarks", experiments.CellResult{}},
		{"empty-benchmarks", experiments.CellResult{
			Cell: experiments.Cell{Policy: core.PolicyConfig{Policy: core.MaxSleep}, Benchmarks: []string{}},
		}},
		{"every-field", experiments.CellResult{
			Cell: experiments.Cell{
				Policy:     core.PolicyConfig{Policy: core.SleepTimeout, Slices: 3, Timeout: 40},
				Tech:       core.Tech{P: 0.05, C: 0.001, SleepOverhead: 0.01, Duty: 0.5},
				FUs:        4,
				Benchmarks: []string{"gzip", "parser"},
				Alpha:      0.25,
				L2Latency:  32,
				Window:     18446744073709551615,
				AGUs:       2,
				Mults:      1,
				FPALUs:     3,
				FPMults:    -1,
				Classes:    []fu.Class{fu.FPMult, fu.IntALU, fu.AGU, fu.Mult, fu.FPALU},
				Assignment: core.Assignment{
					fu.IntALU: {Policy: core.GradualSleep, Slices: 4},
					fu.FPALU:  {Policy: core.MaxSleep},
					fu.AGU:    {Policy: core.SleepTimeout, Timeout: 9},
					fu.Mult:   {Policy: core.OracleMinimal},
					fu.FPMult: {Policy: core.NoOverhead},
				},
				ClassTechs: map[fu.Class]core.Tech{
					fu.Mult:   {P: 0.2, C: 0.0005, SleepOverhead: 0.02, Duty: 0.4},
					fu.IntALU: {P: 1, C: 0, SleepOverhead: 0, Duty: 1},
					fu.FPALU:  {P: 0.063, C: 0.001, SleepOverhead: 0.01, Duty: 0.5},
				},
			},
			RelEnergy:       2.5,
			LeakageFraction: 0.125,
			MeanCycles:      -7,
			PerClass: []experiments.ClassEnergy{
				{Class: fu.IntALU, Policy: core.PolicyConfig{Policy: core.GradualSleep, Slices: 4}, RelEnergy: 0.5, LeakageFraction: 0.25, Units: 4},
				{Class: fu.AGU, Policy: core.PolicyConfig{Policy: core.SleepTimeout, Timeout: 9}, RelEnergy: 0.75, LeakageFraction: 0.5},
				{Class: fu.FPMult, Policy: core.PolicyConfig{Policy: core.AlwaysActive}, RelEnergy: 1, LeakageFraction: 0.0625, Units: -3},
			},
		}},
		{"float-edges", experiments.CellResult{
			Cell: experiments.Cell{
				Policy:     core.PolicyConfig{Policy: core.NoOverhead},
				Tech:       core.Tech{P: 1e-7, C: 1e-6, SleepOverhead: 1e20, Duty: 1e21},
				FUs:        -9223372036854775808,
				Benchmarks: []string{"mcf"},
				Alpha:      negZero,
				L2Latency:  9223372036854775807,
			},
			RelEnergy:       5e-324,
			LeakageFraction: math.MaxFloat64,
			MeanCycles:      -math.MaxFloat64,
			PerClass: []experiments.ClassEnergy{
				{Class: fu.FPALU, Policy: core.PolicyConfig{Policy: core.MaxSleep}, RelEnergy: 9.999999999999997e-7, LeakageFraction: 1.2345678901234567e-300},
				{Class: fu.Mult, Policy: core.PolicyConfig{Policy: core.OracleMinimal}, RelEnergy: 9.999999999999999e20, LeakageFraction: 0.1},
				{Class: fu.AGU, Policy: core.PolicyConfig{Policy: core.AlwaysActive}, RelEnergy: -1e-7, LeakageFraction: 123456789.125},
			},
		}},
		{"escaped-benchmarks", experiments.CellResult{
			Cell: experiments.Cell{
				Policy: core.PolicyConfig{Policy: core.AlwaysActive},
				Tech:   core.Tech{P: 0.05, C: 0.001, SleepOverhead: 0.01, Duty: 0.5},
				FUs:    1,
				Benchmarks: []string{
					`quote"back\slash/`,
					"<script>&amp;</script>",
					"ctl\b\f\n\r\t\x00\x01\x1f\x7f",
					"sep\u2028line\u2029para",
					"héllo ☃ 𝄞",
					"bad\xff\xfeutf8\xe2\x82",
					"",
				},
				Alpha:  0.5,
				Window: 1,
			},
		}},
	}
}

// codecGolden renders the golden file from the cases' canonical bytes,
// one case a line.
func codecGolden(t *testing.T, encode func(experiments.CellResult) ([]byte, error)) []byte {
	t.Helper()
	out := []byte("[\n")
	for i, c := range codecCases() {
		canon, err := encode(c.res)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if i > 0 {
			out = append(out, ",\n"...)
		}
		out = strconv.AppendQuote(append(out, `{"name":`...), c.name)
		out = append(append(append(out, `,"canon":`...), canon...), '}')
	}
	return append(out, "\n]\n"...)
}

// jsonEncodeCell is the canonical encoding's definition: json.Marshal of
// the result with Index 0.
func jsonEncodeCell(res experiments.CellResult) ([]byte, error) {
	res.Index = 0
	return json.Marshal(res)
}

// TestCellCodecGolden pins the canonical bytes of hand-built results:
// EncodeCell and json.Marshal must both write exactly the recorded bytes,
// on every platform. The golden was recorded with json.Marshal; re-record
// it (only for a deliberate change to the encoding) with:
//
//	go test ./internal/store -run TestCellCodecGolden -update
func TestCellCodecGolden(t *testing.T) {
	path := filepath.Join("testdata", "cell_codec_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, codecGolden(t, jsonEncodeCell), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	for _, enc := range []struct {
		name   string
		encode func(experiments.CellResult) ([]byte, error)
	}{{"EncodeCell", EncodeCell}, {"json.Marshal", jsonEncodeCell}} {
		got := codecGolden(t, enc.encode)
		if bytes.Equal(got, want) {
			continue
		}
		gotLines, wantLines := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := range max(len(gotLines), len(wantLines)) {
			var g, w []byte
			if i < len(gotLines) {
				g = gotLines[i]
			}
			if i < len(wantLines) {
				w = wantLines[i]
			}
			if !bytes.Equal(g, w) {
				t.Errorf("%s diverged from the golden at line %d:\n got: %s\nwant: %s", enc.name, i+1, g, w)
			}
		}
	}
}
