package store

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"

	"github.com/archsim/fusleep/internal/core"
	"github.com/archsim/fusleep/internal/experiments"
	"github.com/archsim/fusleep/internal/fu"
)

// jsonCanonical is canonical's definition before the hand-written codec,
// kept as its oracle: the record decodes with json.Unmarshal and is
// exactly json.Marshal of the decoded result with Index 0.
func jsonCanonical(data []byte) bool {
	if !bytes.HasPrefix(data, []byte(canonicalPrefix)) {
		return false
	}
	var res experiments.CellResult
	if err := json.Unmarshal(data, &res); err != nil {
		return false
	}
	enc, err := jsonEncodeCell(res)
	return err == nil && bytes.Equal(enc, data)
}

// resultGen builds a CellResult from fuzz bytes, reading zeros once they
// run out. Every field and omitempty branch is reachable, and so are the
// values encoding/json refuses: NaN and infinite floats, and classes and
// policies that name none.
type resultGen struct{ b []byte }

func (g *resultGen) byte() byte {
	if len(g.b) == 0 {
		return 0
	}
	c := g.b[0]
	g.b = g.b[1:]
	return c
}

func (g *resultGen) u64() uint64 {
	var v uint64
	for range 8 {
		v = v<<8 | uint64(g.byte())
	}
	return v
}

var genFloats = [...]float64{
	0, 1e-7, 1e-6, 1e20, 1e21, 5e-324, math.MaxFloat64, -math.MaxFloat64,
	0.1, 1.0 / 3, 9.999999999999997e-7, 9.999999999999999e20, -2.5, 31557.5,
}

func (g *resultGen) float() float64 {
	switch c := int(g.byte()); {
	case c < 2*len(genFloats):
		return genFloats[c/2]
	case c < 200:
		return float64(int8(c)) / 64
	case c == 250:
		return math.Float64frombits(1 << 63) // -0
	case c == 251:
		return math.NaN()
	case c == 252:
		return math.Inf(1)
	case c == 253:
		return math.Inf(-1)
	default:
		return math.Float64frombits(g.u64())
	}
}

func (g *resultGen) int() int {
	if c := g.byte(); c < 250 {
		return int(int8(c))
	}
	return int(int64(g.u64()))
}

func (g *resultGen) class() fu.Class {
	c := g.byte()
	if c < 250 {
		return fu.Class(int(c) % fu.NumClasses)
	}
	return fu.Class(c) // names no class
}

func (g *resultGen) policy() core.PolicyConfig {
	pc := core.PolicyConfig{Policy: definedPolicies[int(g.byte())%len(definedPolicies)]}
	switch g.byte() % 16 {
	case 0:
		pc.Policy = core.Policy(int(g.byte()) - 128) // usually names no policy
	case 1:
		pc.Slices = g.int()
	case 2:
		pc.Timeout = g.int()
	case 3:
		pc.Slices, pc.Timeout = g.int(), g.int()
	}
	return pc
}

func (g *resultGen) tech() core.Tech {
	return core.Tech{P: g.float(), C: g.float(), SleepOverhead: g.float(), Duty: g.float()}
}

func (g *resultGen) str() string {
	n := int(g.byte() % 12)
	s := make([]byte, n)
	for i := range s {
		s[i] = g.byte()
	}
	return string(s)
}

func (g *resultGen) result() experiments.CellResult {
	flags := g.u64()
	bit := func(i uint) bool { return flags>>i&1 == 1 }
	var r experiments.CellResult
	r.Index = g.int()
	c := &r.Cell
	c.Policy, c.Tech, c.FUs = g.policy(), g.tech(), g.int()
	switch {
	case bit(0):
		c.Benchmarks = []string{}
		for range g.byte() % 5 {
			c.Benchmarks = append(c.Benchmarks, g.str())
		}
	case bit(1):
		c.Benchmarks = []string{"gcc", "mcf", "vpr"}
	}
	c.Alpha, c.L2Latency, c.Window = g.float(), g.int(), g.u64()>>(g.byte()%65)
	if bit(2) {
		c.AGUs, c.Mults, c.FPALUs, c.FPMults = g.int(), g.int(), g.int(), g.int()
	}
	if bit(3) {
		c.Classes = []fu.Class{}
		for range g.byte() % 7 {
			c.Classes = append(c.Classes, g.class())
		}
	}
	if bit(4) {
		c.Assignment = core.Assignment{}
		for range g.byte() % 7 {
			c.Assignment[g.class()] = g.policy()
		}
	}
	if bit(5) {
		c.ClassTechs = map[fu.Class]core.Tech{}
		for range g.byte() % 7 {
			c.ClassTechs[g.class()] = g.tech()
		}
	}
	r.RelEnergy, r.LeakageFraction, r.MeanCycles = g.float(), g.float(), g.float()
	if bit(6) {
		r.PerClass = []experiments.ClassEnergy{}
		for range g.byte() % 7 {
			r.PerClass = append(r.PerClass, experiments.ClassEnergy{
				Class: g.class(), Policy: g.policy(), RelEnergy: g.float(), LeakageFraction: g.float(), Units: g.int(),
			})
		}
	}
	return r
}

// roundTrips reports whether decoding r's encoding can give back r
// itself: every program name is valid UTF-8 (encoding replaces invalid
// bytes) and no omitempty list or map is empty but non-nil (encoding
// omits it, so it decodes as nil).
func roundTrips(r experiments.CellResult) bool {
	for _, name := range r.Cell.Benchmarks {
		if !utf8.ValidString(name) {
			return false
		}
	}
	c := r.Cell
	return (c.Classes == nil || len(c.Classes) > 0) &&
		(c.Assignment == nil || len(c.Assignment) > 0) &&
		(c.ClassTechs == nil || len(c.ClassTechs) > 0) &&
		(r.PerClass == nil || len(r.PerClass) > 0)
}

// checkEncode holds EncodeCell to json.Marshal on r, and DecodeCell to a
// round trip of its output. It returns the canonical bytes, or nil when
// r cannot be encoded.
func checkEncode(t *testing.T, r experiments.CellResult) []byte {
	t.Helper()
	want, wantErr := jsonEncodeCell(r)
	got, err := EncodeCell(r)
	if (err == nil) != (wantErr == nil) || !bytes.Equal(got, want) {
		t.Fatalf("EncodeCell = %s, %v\njson.Marshal = %s, %v", got, err, want, wantErr)
	}
	if err != nil {
		return nil
	}
	dec, err := DecodeCell(got)
	if err != nil {
		t.Fatalf("DecodeCell of its own encoding %s: %v", got, err)
	}
	if r.Index = 0; roundTrips(r) && !reflect.DeepEqual(dec, r) {
		t.Fatalf("DecodeCell(EncodeCell(v)) = %+v, want %+v", dec, r)
	}
	return got
}

// checkDecode holds DecodeCell to json.Unmarshal on data, and canonical
// to its json-based definition.
func checkDecode(t *testing.T, data []byte) {
	t.Helper()
	if dec, err := DecodeCell(data); err == nil {
		var want experiments.CellResult
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("DecodeCell accepted %q, which json.Unmarshal rejects: %v", data, err)
		}
		if !reflect.DeepEqual(dec, want) {
			t.Fatalf("DecodeCell(%q) = %+v\njson.Unmarshal gives %+v", data, dec, want)
		}
	}
	if got, want := canonical(data), jsonCanonical(data); got != want {
		t.Fatalf("canonical(%q) = %v, json-based definition says %v", data, got, want)
	}
}

// FuzzCellCodec holds the hand-written codec to encoding/json. A result
// built from gen must encode to json.Marshal's bytes, or fail exactly when
// json.Marshal does, and decode back to itself. Its encoding with one byte
// XORed by mask, and raw as given, must decode only as json.Unmarshal
// decodes them, and be canonical exactly when the json-based definition
// says so.
func FuzzCellCodec(f *testing.F) {
	for _, c := range codecCases() {
		canon, err := EncodeCell(c.res)
		if err != nil {
			f.Fatal(err)
		}
		f.Add([]byte{}, uint16(0), byte(0), canon)
		f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, uint16(len(canon)/2), byte(0x20), canon)
	}
	f.Add([]byte{}, uint16(0), byte(0), []byte(`{"index":0, "relEnergy":0.5}`))
	f.Add([]byte{}, uint16(0), byte(0), []byte(`{"index":0,"cell":{"policy":{"policy":"maxsleep"}}}`))
	rng := rand.New(rand.NewSource(1))
	for range 64 {
		gen := make([]byte, 256)
		rng.Read(gen)
		f.Add(gen, uint16(rng.Intn(1<<16)), byte(rng.Intn(256)), []byte(nil))
	}
	f.Fuzz(func(t *testing.T, gen []byte, pos uint16, mask byte, raw []byte) {
		g := resultGen{b: gen}
		if canon := checkEncode(t, g.result()); canon != nil {
			checkDecode(t, canon)
			mutated := bytes.Clone(canon)
			mutated[int(pos)%len(mutated)] ^= mask
			checkDecode(t, mutated)
		}
		checkDecode(t, raw)
	})
}

// TestCellCodecRandom runs FuzzCellCodec's encode checks over many more
// generated results than its seed corpus holds.
func TestCellCodecRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	gen := make([]byte, 512)
	n := 20000
	if testing.Short() {
		n = 2000
	}
	encoded := 0
	for range n {
		rng.Read(gen)
		g := resultGen{b: gen}
		if canon := checkEncode(t, g.result()); canon != nil {
			checkDecode(t, canon)
			encoded++
		}
	}
	t.Logf("%d of %d results encodable", encoded, n)
}

// TestEncodeCellRejectsWhatJSONDoes: each value encoding/json cannot
// encode makes EncodeCell fail too, wherever it sits in the result.
func TestEncodeCellRejectsWhatJSONDoes(t *testing.T) {
	bad := map[string]func(*experiments.CellResult){
		"NaN result": func(r *experiments.CellResult) { r.RelEnergy = math.NaN() },
		"+Inf alpha": func(r *experiments.CellResult) { r.Cell.Alpha = math.Inf(1) },
		"-Inf class tech": func(r *experiments.CellResult) {
			r.Cell.ClassTechs = map[fu.Class]core.Tech{fu.AGU: {Duty: math.Inf(-1)}}
		},
		"invalid policy": func(r *experiments.CellResult) { r.Cell.Policy.Policy = core.Policy(99) },
		"invalid assigned": func(r *experiments.CellResult) {
			r.Cell.Assignment = core.Assignment{fu.Mult: {Policy: core.Policy(99)}}
		},
		"invalid per-class":    func(r *experiments.CellResult) { r.PerClass[0].Policy.Policy = core.SleepTimeout + 1 },
		"invalid class":        func(r *experiments.CellResult) { r.Cell.Classes = []fu.Class{fu.IntALU, fu.Class(5)} },
		"invalid assign key":   func(r *experiments.CellResult) { r.Cell.Assignment = core.Assignment{fu.Class(9): {}} },
		"invalid tech key":     func(r *experiments.CellResult) { r.Cell.ClassTechs = map[fu.Class]core.Tech{fu.Class(200): {}} },
		"invalid result class": func(r *experiments.CellResult) { r.PerClass[0].Class = fu.Class(fu.NumClasses) },
	}
	for name, spoil := range bad {
		r := codecCases()[0].res
		spoil(&r)
		if _, err := json.Marshal(r); err == nil {
			t.Errorf("%s: json.Marshal accepted it", name)
		}
		if canon, err := EncodeCell(r); err == nil {
			t.Errorf("%s: EncodeCell = %s, want an error", name, canon)
		}
	}
}

// TestDecodeCellStrict: bytes encoding/json would take but that are not
// in the canonical layout are refused, not normalized.
func TestDecodeCellStrict(t *testing.T) {
	canon, err := EncodeCell(codecCases()[3].res) // every field
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeCell(canon); err != nil {
		t.Fatalf("canonical bytes refused: %v", err)
	}
	s := string(canon)
	for name, data := range map[string]string{
		"space":           strings.Replace(s, `"fus":4`, `"fus": 4`, 1),
		"trailing space":  s + " ",
		"trailing data":   s + "{}",
		"field order":     strings.Replace(s, `"fus":4,"benchmarks":["gzip","parser"]`, `"benchmarks":["gzip","parser"],"fus":4`, 1),
		"folded case":     strings.Replace(s, `"fus":`, `"FUs":`, 1),
		"policy case":     strings.Replace(s, `"MaxSleep"`, `"maxsleep"`, 1),
		"class case":      strings.Replace(s, `"classes":["fpmult"`, `"classes":["FPMult"`, 1),
		"key order":       strings.Replace(s, `"agu":{"policy":"SleepTimeout","timeout":9},"fpalu":{"policy":"MaxSleep"}`, `"fpalu":{"policy":"MaxSleep"},"agu":{"policy":"SleepTimeout","timeout":9}`, 1),
		"repeated key":    strings.Replace(s, `"fpalu":{"policy":"MaxSleep"}`, `"fpalu":{"policy":"MaxSleep"},"fpalu":{"policy":"MaxSleep"}`, 1),
		"unknown field":   strings.Replace(s, `"fus":4,`, `"fus":4,"extra":1,`, 1),
		"null classes":    strings.Replace(s, `"classes":["fpmult","intalu","agu","mult","fpalu"]`, `"classes":null`, 1),
		"fraction in int": strings.Replace(s, `"fus":4`, `"fus":4.0`, 1),
		"leading zero":    strings.Replace(s, `"fus":4`, `"fus":04`, 1),
		"bracket":         strings.Replace(s, `"parser"]`, `"parser"}`, 1),
		"surrogate":       strings.Replace(s, `"gzip"`, `"\ud834\udd1e"`, 1),
		"raw control":     strings.Replace(s, `"gzip"`, "\"g\tzip\"", 1),
		"invalid UTF-8":   strings.Replace(s, `"gzip"`, "\"g\xffzip\"", 1),
		"truncated":       s[:len(s)-1],
	} {
		if data == s {
			t.Fatalf("%s: the edit did not apply", name)
		}
		if res, err := DecodeCell([]byte(data)); err == nil {
			t.Errorf("%s: DecodeCell(%s) = %+v, want an error", name, data, res)
		}
	}
}

// TestCellCodecAllocs bounds the codec on a policy-grid-shaped result:
// an encode is its one exact-size output, and a decode allocates the
// program list, its three names and the per-class list.
func TestCellCodecAllocs(t *testing.T) {
	res := codecCases()[0].res
	canon, err := EncodeCell(res)
	if err != nil {
		t.Fatal(err)
	}
	enc := testing.AllocsPerRun(100, func() {
		if _, err := EncodeCell(res); err != nil {
			t.Fatal(err)
		}
	})
	dec := testing.AllocsPerRun(100, func() {
		if _, err := DecodeCell(canon); err != nil {
			t.Fatal(err)
		}
	})
	if enc > 1 || dec > 5 {
		t.Errorf("EncodeCell made %v allocs (want 1), DecodeCell %v (want <= 5)", enc, dec)
	}
}
