package core

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPolicyStrings(t *testing.T) {
	names := map[Policy]string{
		AlwaysActive:  "AlwaysActive",
		MaxSleep:      "MaxSleep",
		NoOverhead:    "NoOverhead",
		GradualSleep:  "GradualSleep",
		OracleMinimal: "OracleMinimal",
	}
	for p, want := range names {
		if got := p.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(p), got, want)
		}
	}
	if got := Policy(99).String(); got != "Policy(99)" {
		t.Errorf("unknown policy String() = %q", got)
	}
}

// TestPolicyMarshalRejectsInvalid: a policy that names none must not
// marshal, because its "Policy(N)" name would not decode.
func TestPolicyMarshalRejectsInvalid(t *testing.T) {
	for _, p := range []Policy{Policy(99), Policy(-1), SleepTimeout + 1} {
		if p.Valid() {
			t.Errorf("Policy(%d) reports valid", int(p))
		}
		if data, err := json.Marshal(p); err == nil {
			t.Errorf("json.Marshal(Policy(%d)) = %s, want an error", int(p), data)
		}
		if data, err := json.Marshal(PolicyConfig{Policy: p}); err == nil {
			t.Errorf("json.Marshal of a config with Policy(%d) = %s, want an error", int(p), data)
		}
	}
	for _, p := range []Policy{AlwaysActive, MaxSleep, NoOverhead, GradualSleep, OracleMinimal, SleepTimeout} {
		data, err := json.Marshal(p)
		if err != nil || string(data) != `"`+p.String()+`"` || !p.Valid() {
			t.Errorf("json.Marshal(%s) = %s, %v", p, data, err)
		}
	}
}

func TestScenarioValidate(t *testing.T) {
	good := Scenario{TotalCycles: 1000, Usage: 0.5, MeanIdle: 10, Alpha: 0.5}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
	bad := []Scenario{
		{TotalCycles: 0, Usage: 0.5, MeanIdle: 10, Alpha: 0.5},
		{TotalCycles: 1000, Usage: -0.1, MeanIdle: 10, Alpha: 0.5},
		{TotalCycles: 1000, Usage: 1.1, MeanIdle: 10, Alpha: 0.5},
		{TotalCycles: 1000, Usage: 0.5, MeanIdle: 0, Alpha: 0.5},
		{TotalCycles: 1000, Usage: 0.5, MeanIdle: 10, Alpha: 2},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: invalid scenario accepted: %+v", i, s)
		}
	}
	// Usage = 1 needs no MeanIdle.
	full := Scenario{TotalCycles: 10, Usage: 1, Alpha: 0.5}
	if err := full.Validate(); err != nil {
		t.Errorf("fully-active scenario rejected: %v", err)
	}
}

func TestScenarioCountsConservation(t *testing.T) {
	// Cycle categories must partition the total for every policy.
	tech := DefaultTech()
	f := func(usageRaw, idleRaw, alphaRaw float64, slices uint8) bool {
		s := Scenario{
			TotalCycles: 1e6,
			Usage:       math.Mod(math.Abs(usageRaw), 1),
			MeanIdle:    1 + math.Mod(math.Abs(idleRaw), 500),
			Alpha:       math.Mod(math.Abs(alphaRaw), 1),
		}
		for _, pc := range []PolicyConfig{
			{Policy: AlwaysActive},
			{Policy: MaxSleep},
			{Policy: NoOverhead},
			{Policy: GradualSleep, Slices: 1 + int(slices)},
			{Policy: GradualSleep},
			{Policy: OracleMinimal},
		} {
			cc := s.Counts(tech, pc)
			if !almostEqual(cc.Total(), s.TotalCycles, 1e-9) {
				return false
			}
			if cc.Active < 0 || cc.UncontrolledIdle < -1e-9 || cc.Sleep < -1e-9 || cc.Transitions < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestNoOverheadIsLowerBound(t *testing.T) {
	tech := DefaultTech()
	f := func(pRaw, usageRaw, idleRaw, alphaRaw float64) bool {
		tc := tech.WithP(0.01 + math.Mod(math.Abs(pRaw), 0.99))
		s := Scenario{
			TotalCycles: 1e6,
			Usage:       math.Mod(math.Abs(usageRaw), 1),
			MeanIdle:    1 + math.Mod(math.Abs(idleRaw), 500),
			Alpha:       math.Mod(math.Abs(alphaRaw), 1),
		}
		no := tc.PolicyEnergy(PolicyConfig{Policy: NoOverhead}, s).Total()
		for _, p := range []Policy{AlwaysActive, MaxSleep, GradualSleep, OracleMinimal} {
			if tc.PolicyEnergy(PolicyConfig{Policy: p}, s).Total() < no-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestOracleIsMinOfExtremes(t *testing.T) {
	// OracleMinimal picks, per scenario, the cheaper of MaxSleep and
	// AlwaysActive (uniform interval lengths).
	tech := DefaultTech()
	f := func(pRaw, usageRaw, idleRaw float64) bool {
		tc := tech.WithP(0.01 + math.Mod(math.Abs(pRaw), 0.99))
		s := Scenario{
			TotalCycles: 1e6,
			Usage:       math.Mod(math.Abs(usageRaw), 1),
			MeanIdle:    1 + math.Mod(math.Abs(idleRaw), 500),
			Alpha:       0.5,
		}
		orc := tc.PolicyEnergy(PolicyConfig{Policy: OracleMinimal}, s).Total()
		ms := tc.PolicyEnergy(PolicyConfig{Policy: MaxSleep}, s).Total()
		aa := tc.PolicyEnergy(PolicyConfig{Policy: AlwaysActive}, s).Total()
		return orc <= ms+1e-9 && orc <= aa+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestGradualSleepLimits(t *testing.T) {
	tech := DefaultTech()
	s := Scenario{TotalCycles: 1e6, Usage: 0.5, MeanIdle: 25, Alpha: 0.5}

	// K = 1 reduces exactly to MaxSleep.
	g1 := tech.PolicyEnergy(PolicyConfig{Policy: GradualSleep, Slices: 1}, s)
	ms := tech.PolicyEnergy(PolicyConfig{Policy: MaxSleep}, s)
	if !almostEqual(g1.Total(), ms.Total(), 1e-9) {
		t.Errorf("GradualSleep(K=1) = %g, MaxSleep = %g", g1.Total(), ms.Total())
	}

	// K -> infinity approaches AlwaysActive from above.
	gBig := tech.PolicyEnergy(PolicyConfig{Policy: GradualSleep, Slices: 1 << 20}, s)
	aa := tech.PolicyEnergy(PolicyConfig{Policy: AlwaysActive}, s)
	if rel := math.Abs(gBig.Total()-aa.Total()) / aa.Total(); rel > 1e-3 {
		t.Errorf("GradualSleep(K=2^20) = %g vs AlwaysActive %g (rel %g)", gBig.Total(), aa.Total(), rel)
	}
}

func TestGradualSplitSmallCases(t *testing.T) {
	// Hand-computed: l=2, k=4. Slice1 sleeps cycles 1-2, slice2 sleeps
	// cycle 2, slices 3-4 stay uncontrolled both cycles.
	ui, sleep, trans := gradualSplit(2, 4)
	if !almostEqual(ui, 5.0/4.0, 1e-12) || !almostEqual(sleep, 3.0/4.0, 1e-12) || !almostEqual(trans, 2.0/4.0, 1e-12) {
		t.Errorf("gradualSplit(2,4) = %g,%g,%g want 1.25,0.75,0.5", ui, sleep, trans)
	}
	// l >= k: all slices asleep eventually.
	ui, sleep, trans = gradualSplit(10, 2)
	// slice1: 0 ui, 10 sleep; slice2: 1 ui, 9 sleep.
	if !almostEqual(ui, 0.5, 1e-12) || !almostEqual(sleep, 9.5, 1e-12) || trans != 1 {
		t.Errorf("gradualSplit(10,2) = %g,%g,%g want 0.5,9.5,1", ui, sleep, trans)
	}
	// Zero-length intervals contribute nothing.
	if ui, sleep, trans = gradualSplit(0, 8); ui != 0 || sleep != 0 || trans != 0 {
		t.Errorf("gradualSplit(0,8) nonzero")
	}
}

func TestGradualSplitConservesCycles(t *testing.T) {
	f := func(lRaw float64, kRaw uint8) bool {
		l := math.Mod(math.Abs(lRaw), 1000)
		k := 1 + int(kRaw)
		ui, sleep, trans := gradualSplit(l, k)
		if !almostEqual(ui+sleep, l, 1e-9) {
			return false
		}
		return ui >= -1e-12 && sleep >= -1e-12 && trans >= 0 && trans <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestFigure4bShape(t *testing.T) {
	// Figure 4b (mean idle 10, alpha 0.5): at low p and low usage, MaxSleep
	// costs MORE than AlwaysActive (breakeven ~ 20 > 10); at high p the
	// ordering flips.
	tech := DefaultTech()
	s := Scenario{TotalCycles: 1e6, Usage: 0.1, MeanIdle: 10, Alpha: 0.5}

	low := tech.WithP(0.05)
	if ms, aa := low.RelativeToBase(PolicyConfig{Policy: MaxSleep}, s), low.RelativeToBase(PolicyConfig{Policy: AlwaysActive}, s); ms <= aa {
		t.Errorf("p=0.05: MaxSleep (%.4f) should exceed AlwaysActive (%.4f)", ms, aa)
	}
	high := tech.WithP(0.9)
	if ms, aa := high.RelativeToBase(PolicyConfig{Policy: MaxSleep}, s), high.RelativeToBase(PolicyConfig{Policy: AlwaysActive}, s); ms >= aa {
		t.Errorf("p=0.9: MaxSleep (%.4f) should undercut AlwaysActive (%.4f)", ms, aa)
	}
}

func TestFigure4cLongIdleFavorsSleep(t *testing.T) {
	// With 100-cycle intervals, MaxSleep is near NoOverhead at 10% usage
	// for essentially all p (the transition is amortized over 100 cycles).
	tech := DefaultTech()
	s := Scenario{TotalCycles: 1e6, Usage: 0.1, MeanIdle: 100, Alpha: 0.5}
	for _, p := range []float64{0.1, 0.3, 0.5, 0.9} {
		tc := tech.WithP(p)
		ms := tc.RelativeToBase(PolicyConfig{Policy: MaxSleep}, s)
		no := tc.RelativeToBase(PolicyConfig{Policy: NoOverhead}, s)
		if ms-no > 0.05 {
			t.Errorf("p=%g: MaxSleep %.4f too far above NoOverhead %.4f", p, ms, no)
		}
	}
}

func TestFigure4dWorstCase(t *testing.T) {
	// Mean idle of 1 cycle at 50% usage maximizes transition overhead:
	// MaxSleep must exceed AlwaysActive dramatically at moderate p.
	tech := DefaultTech().WithP(0.2)
	s := Scenario{TotalCycles: 1e6, Usage: 0.5, MeanIdle: 1, Alpha: 0.5}
	ms := tech.RelativeToBase(PolicyConfig{Policy: MaxSleep}, s)
	aa := tech.RelativeToBase(PolicyConfig{Policy: AlwaysActive}, s)
	if ms < aa {
		t.Errorf("worst case: MaxSleep %.4f should exceed AlwaysActive %.4f", ms, aa)
	}
}

func TestTransitionsNeverExceedActiveCycles(t *testing.T) {
	// The min() clamp of equation (7): every sleep entry needs a prior
	// active cycle.
	tech := DefaultTech()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		s := Scenario{
			TotalCycles: 1e5,
			Usage:       rng.Float64() * 0.05, // tiny usage: many long idles
			MeanIdle:    1 + rng.Float64()*3,
			Alpha:       0.5,
		}
		cc := s.Counts(tech, PolicyConfig{Policy: MaxSleep})
		if cc.Transitions > cc.Active+1e-9 {
			t.Fatalf("transitions %g exceed active cycles %g", cc.Transitions, cc.Active)
		}
	}
}

func TestRelativeToBaseBounds(t *testing.T) {
	// Any policy's energy relative to 100% computation stays below ~1.4 for
	// the Figure 4 axes parameters and is positive.
	tech := DefaultTech()
	for _, p := range []float64{0.05, 0.25, 0.5, 0.75, 1.0} {
		tc := tech.WithP(p)
		for _, usage := range []float64{0.1, 0.9} {
			s := Scenario{TotalCycles: 1e6, Usage: usage, MeanIdle: 10, Alpha: 0.5}
			for _, pol := range Policies {
				rel := tc.RelativeToBase(PolicyConfig{Policy: pol}, s)
				if rel <= 0 || rel > 1.5 {
					t.Errorf("p=%g usage=%g %v: relative energy %g out of plausible range", p, usage, pol, rel)
				}
			}
		}
	}
}

func TestParsePolicy(t *testing.T) {
	for _, p := range []Policy{AlwaysActive, MaxSleep, NoOverhead, GradualSleep, OracleMinimal, SleepTimeout} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if got, err := ParsePolicy("maxsleep"); err != nil || got != MaxSleep {
		t.Errorf("case-insensitive parse = %v, %v", got, err)
	}
	if _, err := ParsePolicy("TurboSleep"); err == nil {
		t.Error("unknown policy parsed")
	}
}

func TestPolicyConfigJSONRoundTrip(t *testing.T) {
	in := PolicyConfig{Policy: GradualSleep, Slices: 4}
	raw, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"policy":"GradualSleep","slices":4}`; string(raw) != want {
		t.Errorf("marshal = %s, want %s", raw, want)
	}
	var out PolicyConfig
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Errorf("round trip %+v -> %+v", in, out)
	}
	if err := json.Unmarshal([]byte(`{"policy":"NotAPolicy"}`), &out); err == nil {
		t.Error("unknown policy name unmarshaled")
	}
}

// TestSleepTimeoutJSONRoundTrip pins the wire form the daemon and tuner
// use to name the SleepTimeout policy and its threshold knob: the policy
// travels by name, the Timeout parameter survives the round trip, and the
// breakeven default (Timeout 0) stays omitted.
func TestSleepTimeoutJSONRoundTrip(t *testing.T) {
	cases := []struct {
		in   PolicyConfig
		wire string
	}{
		{PolicyConfig{Policy: SleepTimeout, Timeout: 40}, `{"policy":"SleepTimeout","timeout":40}`},
		{PolicyConfig{Policy: SleepTimeout}, `{"policy":"SleepTimeout"}`},
		{PolicyConfig{Policy: AlwaysActive}, `{"policy":"AlwaysActive"}`},
		{PolicyConfig{Policy: MaxSleep}, `{"policy":"MaxSleep"}`},
		{PolicyConfig{Policy: NoOverhead}, `{"policy":"NoOverhead"}`},
		{PolicyConfig{Policy: OracleMinimal}, `{"policy":"OracleMinimal"}`},
		{PolicyConfig{Policy: GradualSleep, Slices: 8}, `{"policy":"GradualSleep","slices":8}`},
	}
	for _, tc := range cases {
		raw, err := json.Marshal(tc.in)
		if err != nil {
			t.Fatal(err)
		}
		if string(raw) != tc.wire {
			t.Errorf("marshal(%+v) = %s, want %s", tc.in, raw, tc.wire)
		}
		var out PolicyConfig
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatal(err)
		}
		if out != tc.in {
			t.Errorf("round trip %+v -> %+v", tc.in, out)
		}
	}
	// Case-insensitive parse, so hand-written requests can say "sleeptimeout".
	var out PolicyConfig
	if err := json.Unmarshal([]byte(`{"policy":"sleeptimeout","timeout":7}`), &out); err != nil {
		t.Fatal(err)
	}
	if out.Policy != SleepTimeout || out.Timeout != 7 {
		t.Errorf("lower-case parse = %+v", out)
	}
}
