package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"slices"
	"testing"
)

// FuzzParsePolicy asserts the parser never panics and stays consistent
// with Policy.String: any accepted name round-trips to the same value, and
// every canonical name is accepted.
func FuzzParsePolicy(f *testing.F) {
	for _, p := range []Policy{AlwaysActive, MaxSleep, NoOverhead, GradualSleep, OracleMinimal, SleepTimeout} {
		f.Add(p.String())
	}
	f.Add("maxsleep")
	f.Add("MAXSLEEP")
	f.Add("Policy(3)")
	f.Add("")
	f.Add("gradual sleep")
	f.Fuzz(func(t *testing.T, name string) {
		p, err := ParsePolicy(name)
		if err != nil {
			return
		}
		again, err := ParsePolicy(p.String())
		if err != nil {
			t.Fatalf("accepted %q as %v but canonical name %q rejected: %v", name, p, p.String(), err)
		}
		if again != p {
			t.Fatalf("%q parsed to %v, canonical %q to %v", name, p, p.String(), again)
		}
	})
}

// FuzzPolicyConfigJSON asserts PolicyConfig's wire form never panics and
// that every accepted document re-marshals to a stable fixpoint: marshal
// and re-unmarshal yield the identical configuration, and the term syntax
// (ParsePolicyConfig/String) agrees with it.
func FuzzPolicyConfigJSON(f *testing.F) {
	for _, seed := range []string{
		`{"policy": "AlwaysActive"}`,
		`{"policy": "GradualSleep", "slices": 4}`,
		`{"policy": "SleepTimeout", "timeout": 128}`,
		`{"policy": "maxsleep"}`,
		`{"policy": "Unknown"}`,
		`{"policy": 3}`,
		`{}`,
		`null`,
		`{"policy": "NoOverhead", "slices": -1}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var pc PolicyConfig
		if err := json.Unmarshal(data, &pc); err != nil {
			return
		}
		out, err := json.Marshal(pc)
		if err != nil {
			t.Fatalf("unmarshaled %q but cannot re-marshal %+v: %v", data, pc, err)
		}
		var again PolicyConfig
		if err := json.Unmarshal(out, &again); err != nil {
			t.Fatalf("own output %s rejected: %v", out, err)
		}
		if again != pc {
			t.Fatalf("JSON round trip drifted: %+v -> %s -> %+v", pc, out, again)
		}
		if pc.Validate() == nil {
			term, err := ParsePolicyConfig(pc.String())
			if err != nil {
				t.Fatalf("valid config %+v renders unparseable term %q: %v", pc, pc.String(), err)
			}
			if term != pc {
				t.Fatalf("term round trip drifted: %+v -> %q -> %+v", pc, pc.String(), term)
			}
		}
	})
}

// FuzzIdleProfileOrder asserts that how a profile is built never shows in
// what it reports. The same (length, count) multiset built by ascending
// AddIdle, by AddIdle in arbitrary order with each count split over two
// calls (so every length repeats), by Merge of two halves (one with
// columns, one a struct literal), by decoding its JSON, and as a struct
// literal yields equal SortedLengths, identical JSON, and ProfileCounts
// equal bit for bit to the map-walk reference at every scoredConfigs point
// (breakeven and timeout thresholds on recorded lengths included). The
// multiset with every count shifted left 40 bits, whose idle total can
// pass 2^53, is scored against the reference too. The fuzz bytes decode
// as a 4-byte active-cycle count followed by 3-byte (length, count) pairs.
func FuzzIdleProfileOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{100, 0, 0, 0, 5, 0, 2, 1, 0, 1})
	f.Add([]byte{0, 1, 0, 0, 0, 1, 3, 10, 0, 1, 2, 0, 7, 10, 0, 4, 255, 255, 1})
	f.Add([]byte{9, 0, 0, 0, exactBreakeven - 1, 0, 3, 6, 0, 1, exactBreakeven - 1, 0, 2, 200, 0, 9, 0, 32, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		var active uint64
		if len(data) >= 4 {
			active = uint64(binary.LittleEndian.Uint32(data))
			data = data[4:]
		}
		literal := &IdleProfile{ActiveCycles: active, Intervals: map[int]uint64{}}
		shuffled := NewIdleProfile()
		shuffled.ActiveCycles = active
		half := NewIdleProfile()
		half.ActiveCycles = active / 2
		otherHalf := &IdleProfile{ActiveCycles: active - active/2, Intervals: map[int]uint64{}}
		wide := NewIdleProfile()
		wideLiteral := &IdleProfile{Intervals: map[int]uint64{}}
		for i := 0; len(data) >= 3; i, data = i+1, data[3:] {
			l := 1 + int(binary.LittleEndian.Uint16(data))
			c := 1 + uint64(data[2])
			literal.Intervals[l] += c
			shuffled.AddIdle(l, c/2)
			shuffled.AddIdle(l, c-c/2)
			if i%2 == 0 {
				half.AddIdle(l, c)
			} else {
				otherHalf.Intervals[l] += c
			}
			wide.AddIdle(l, c<<40)
			wideLiteral.Intervals[l] += c << 40
		}
		keys := sortedKeys(literal)
		ascending := NewIdleProfile()
		ascending.ActiveCycles = active
		for _, l := range keys {
			ascending.AddIdle(l, literal.Intervals[l])
		}
		merged := NewIdleProfile()
		merged.Merge(half)
		merged.Merge(otherHalf)

		want := profileCounts(t, ascending)
		wantJSON, err := json.Marshal(ascending)
		if err != nil {
			t.Fatal(err)
		}
		decoded := &IdleProfile{}
		if err := json.Unmarshal(wantJSON, decoded); err != nil {
			t.Fatal(err)
		}
		for name, p := range map[string]*IdleProfile{
			"shuffled": shuffled, "literal": literal, "merged": merged, "decoded": decoded,
		} {
			if got := p.SortedLengths(); !slices.Equal(got, keys) {
				t.Errorf("%s SortedLengths = %v, want %v", name, got, keys)
			}
			if got := profileCounts(t, p); !sameCounts(got, want) {
				t.Errorf("%s ProfileCounts = %+v, want %+v", name, got, want)
			}
			got, err := json.Marshal(p)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, wantJSON) {
				t.Errorf("%s JSON = %s, want %s", name, got, wantJSON)
			}
		}
		if !slices.Equal(ascending.SortedLengths(), keys) {
			t.Errorf("ascending SortedLengths = %v, want %v", ascending.SortedLengths(), keys)
		}
		if got := profileCounts(t, wide); !sameCounts(got, profileCounts(t, wideLiteral)) {
			t.Errorf("wide ProfileCounts = %+v, literal %+v", got, profileCounts(t, wideLiteral))
		}
	})
}
