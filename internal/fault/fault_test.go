package fault

import (
	"errors"
	"testing"
	"time"
)

func TestNilInjectorNeverFires(t *testing.T) {
	var i *Injector
	for n := 0; n < 10; n++ {
		if i.Fire(CellPanic) {
			t.Fatal("nil injector fired")
		}
	}
	if d := i.DelayFor(CellSlow); d != 0 {
		t.Fatalf("nil injector delay = %v", d)
	}
	if i.Hits(CellPanic) != 0 || i.Fired(CellPanic) != 0 {
		t.Fatal("nil injector counted hits")
	}
}

func TestUnarmedPointNeverFires(t *testing.T) {
	i := New(1)
	for n := 0; n < 10; n++ {
		if i.Fire(CellTransient) {
			t.Fatal("unarmed point fired")
		}
	}
	if i.Hits(CellTransient) != 0 {
		t.Fatal("unarmed point counted hits")
	}
}

func TestEveryAfterTimes(t *testing.T) {
	i := New(42)
	i.Set(CellTransient, Spec{Every: 3, After: 2, Times: 2})
	var fired []int
	for n := 1; n <= 14; n++ {
		if i.Fire(CellTransient) {
			fired = append(fired, n)
		}
	}
	// Eligible hits start after 2, fire every 3rd: 5, 8, ... capped at 2.
	want := []int{5, 8}
	if len(fired) != len(want) {
		t.Fatalf("fired on hits %v, want %v", fired, want)
	}
	for k := range want {
		if fired[k] != want[k] {
			t.Fatalf("fired on hits %v, want %v", fired, want)
		}
	}
	if got := i.Fired(CellTransient); got != 2 {
		t.Fatalf("Fired = %d, want 2", got)
	}
	if got := i.Hits(CellTransient); got != 14 {
		t.Fatalf("Hits = %d, want 14", got)
	}
}

func TestProbIsDeterministicPerSeed(t *testing.T) {
	sequence := func(seed int64) []bool {
		i := New(seed)
		i.Set(CellPanic, Spec{Prob: 0.5})
		out := make([]bool, 64)
		for n := range out {
			out[n] = i.Fire(CellPanic)
		}
		return out
	}
	a, b := sequence(7), sequence(7)
	fires := 0
	for n := range a {
		if a[n] != b[n] {
			t.Fatalf("hit %d: same seed diverged", n)
		}
		if a[n] {
			fires++
		}
	}
	if fires == 0 || fires == len(a) {
		t.Fatalf("prob 0.5 fired %d/%d times; expected a mix", fires, len(a))
	}
	c := sequence(8)
	same := true
	for n := range a {
		if a[n] != c[n] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical fire sequences")
	}
}

func TestDelayFor(t *testing.T) {
	i := New(1)
	i.Set(CellSlow, Spec{Every: 2, Delay: 50 * time.Millisecond})
	if d := i.DelayFor(CellSlow); d != 0 {
		t.Fatalf("hit 1 delay = %v, want 0", d)
	}
	if d := i.DelayFor(CellSlow); d != 50*time.Millisecond {
		t.Fatalf("hit 2 delay = %v, want 50ms", d)
	}
}

func TestRearmResetsCounters(t *testing.T) {
	i := New(1)
	i.Set(CellPanic, Spec{Times: 1})
	if !i.Fire(CellPanic) || i.Fire(CellPanic) {
		t.Fatal("Times=1 should fire exactly once")
	}
	i.Set(CellPanic, Spec{Times: 1})
	if !i.Fire(CellPanic) {
		t.Fatal("re-armed point should fire again")
	}
}

func TestErrTransientWrapsErrInjected(t *testing.T) {
	if !errors.Is(ErrTransient, ErrInjected) {
		t.Fatal("ErrTransient must wrap ErrInjected")
	}
}

// TestFireKeyCountsPerKey pins FireKey's per-key semantics: each key's
// hits are judged against the Spec on their own, so the outcome for one
// key is the same however hits on other keys interleave with it, while
// Hits and Fired still total every key.
func TestFireKeyCountsPerKey(t *testing.T) {
	keys := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	outcomes := func(order []int) map[string][]bool {
		i := New(11)
		i.Set(CellTransient, Spec{Times: 2, Prob: 0.5})
		out := map[string][]bool{}
		for _, k := range order {
			out[keys[k]] = append(out[keys[k]], i.FireKey(CellTransient, keys[k]))
		}
		return out
	}
	// Four hits per key, once key by key and once round-robin.
	var byKey, interleaved []int
	for k := range keys {
		byKey = append(byKey, k, k, k, k)
	}
	for n := 0; n < 4; n++ {
		for k := range keys {
			interleaved = append(interleaved, k)
		}
	}
	a, b := outcomes(byKey), outcomes(interleaved)
	fires := 0
	for _, k := range keys {
		for n := range a[k] {
			if a[k][n] != b[k][n] {
				t.Fatalf("key %s hit %d: outcome depends on interleaving", k, n+1)
			}
			if a[k][n] {
				fires++
			}
		}
		perKey := 0
		for _, f := range a[k] {
			if f {
				perKey++
			}
		}
		if perKey > 2 {
			t.Fatalf("key %s fired %d times, want at most Times=2", k, perKey)
		}
	}
	if fires == 0 {
		t.Fatal("no key fired at Prob 0.5 over 32 hits")
	}

	i := New(11)
	i.Set(CellTransient, Spec{Times: 1})
	for _, k := range byKey {
		i.FireKey(CellTransient, keys[k])
	}
	if got := i.Hits(CellTransient); got != uint64(len(byKey)) {
		t.Fatalf("Hits = %d, want %d", got, len(byKey))
	}
	if got := i.Fired(CellTransient); got != uint64(len(keys)) {
		t.Fatalf("Fired = %d, want one per key (%d)", got, len(keys))
	}
}
