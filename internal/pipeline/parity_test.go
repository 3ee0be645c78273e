package pipeline_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"github.com/archsim/fusleep/internal/bpred"
	"github.com/archsim/fusleep/internal/cache"
	"github.com/archsim/fusleep/internal/core"
	"github.com/archsim/fusleep/internal/tlb"
)

// legacyResult mirrors the pre-refactor pipeline.Result wire shape — the
// single-pool view without per-class profiles. The per-class refactor must
// leave every one of these fields bit-identical under the default (shared
// AGU) machine, which is what makes it verifiable against the capture taken
// before the fuPool split.
type legacyResult struct {
	Cycles    uint64
	Committed uint64
	Fetched   uint64

	FUs []core.IdleProfile

	Bpred bpred.Stats
	L1I   cache.Stats
	L1D   cache.Stats
	L2    cache.Stats
	ITLB  tlb.Stats
	DTLB  tlb.Stats

	LoadForwards          uint64
	FetchMispredictStalls uint64
	ClassCounts           [16]uint64
}

// legacyView projects a Result (or a raw capture entry) onto the
// pre-refactor shape and marshals it, so both sides of the comparison pass
// through the identical struct and field order.
func legacyView(t *testing.T, raw []byte) []byte {
	t.Helper()
	var lr legacyResult
	if err := json.Unmarshal(raw, &lr); err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(lr)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestGoldenPreRefactorParity re-runs every case of the capture taken
// before the per-class pool refactor and asserts the single-pool view of
// each Result — cycles, committed, per-IntALU interval histograms, cache /
// TLB / predictor stats — is byte-identical to that pre-refactor capture.
// The uniform default machine (AGU sharing the integer ports, one policy
// for every class) must reproduce the single-pool engine exactly; only the
// new Classes field may differ from the old serialization.
func TestGoldenPreRefactorParity(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "golden_prerefactor.json"))
	if err != nil {
		t.Fatalf("missing pre-refactor capture: %v", err)
	}
	var cap struct {
		Cases   []goldenCase      `json:"cases"`
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(raw, &cap); err != nil {
		t.Fatal(err)
	}
	if len(cap.Cases) == 0 || len(cap.Cases) != len(cap.Results) {
		t.Fatalf("malformed capture: %d cases, %d results", len(cap.Cases), len(cap.Results))
	}
	indices := make([]int, 0, len(cap.Cases))
	if testing.Short() {
		// Same trimmed subset as the short-mode golden test.
		indices = append(indices, 0, len(cap.Cases)-2, len(cap.Cases)-1)
	} else {
		for i := range cap.Cases {
			indices = append(indices, i)
		}
	}
	for _, i := range indices {
		gc := cap.Cases[i]
		got := legacyView(t, marshalResult(t, runGoldenCase(t, gc)))
		want := legacyView(t, cap.Results[i])
		if !bytes.Equal(got, want) {
			t.Errorf("case %+v diverged from the pre-refactor capture:\n got: %s\nwant: %s",
				gc, truncate(got, 400), truncate(want, 400))
		}
	}
}
