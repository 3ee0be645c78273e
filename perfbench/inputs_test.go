package main

import (
	"bytes"
	"testing"
)

func TestSameSeedSameRequestBodies(t *testing.T) {
	for _, sh := range []gridShape{policyGridShape, coldSweepShape} {
		for _, seed := range []int64{1, 7, 123456789} {
			a, b := drawGrid(seed, sh), drawGrid(seed, sh)
			if !bytes.Equal(body(a.request()), body(b.request())) {
				t.Errorf("seed %d: sweep bodies differ", seed)
			}
			if !bytes.Equal(body(a.tuneRequest()), body(b.tuneRequest())) {
				t.Errorf("seed %d: tune bodies differ", seed)
			}
		}
	}
	if bytes.Equal(body(drawGrid(1, coldSweepShape).request()), body(drawGrid(2, coldSweepShape).request())) {
		t.Error("seeds 1 and 2 drew the same grid")
	}
}

func TestSeedsKeepCellAndSimKeyCounts(t *testing.T) {
	for _, tc := range []struct {
		name          string
		shape         gridShape
		cells, simKey int
	}{
		{"policy-grid", policyGridShape, 2000, 4},
		{"cold-sweep", coldSweepShape, 480, 8},
	} {
		for seed := int64(1); seed <= 10; seed++ {
			cells := drawGrid(seed, tc.shape).cells()
			keys := map[string]bool{}
			for _, c := range cells {
				keys[c.Key()] = true
			}
			if len(cells) != tc.cells || len(keys) != tc.cells {
				t.Errorf("%s seed %d: %d cells, %d distinct keys, want %d", tc.name, seed, len(cells), len(keys), tc.cells)
			}
			if got := distinctSimKeys(cells); got != tc.simKey {
				t.Errorf("%s seed %d: %d distinct SimKeys, want %d", tc.name, seed, got, tc.simKey)
			}
		}
	}
}
