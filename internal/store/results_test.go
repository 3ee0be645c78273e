package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/archsim/fusleep/internal/core"
	"github.com/archsim/fusleep/internal/experiments"
)

// testResult builds a small but representative cell result.
func testResult(fus int) experiments.CellResult {
	return experiments.CellResult{
		Index: 7, // must NOT persist: Index is grid position, not identity
		Cell: experiments.Cell{
			Policy:     core.PolicyConfig{Policy: core.MaxSleep},
			Tech:       core.DefaultTech(),
			FUs:        fus,
			Benchmarks: []string{"gcc"},
			Alpha:      0.5,
			L2Latency:  12,
			Window:     20000,
		},
		RelEnergy:       0.123456789012345,
		LeakageFraction: 0.42,
		MeanCycles:      31557.5,
	}
}

func openTestResults(t *testing.T, path string, opt JournalOptions) *ResultStore {
	t.Helper()
	s, err := OpenResults(path, opt)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestResultStorePutGetReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), ResultsFile)
	s := openTestResults(t, path, JournalOptions{})
	res := testResult(2)
	key := res.Cell.Key()
	if _, ok, err := s.GetCell(key); ok || err != nil {
		t.Fatalf("empty store Get = %v, %v", ok, err)
	}
	if err := s.PutCell(key, res); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.GetCell(key)
	if err != nil || !ok {
		t.Fatalf("Get after Put: ok=%v err=%v", ok, err)
	}
	res.Index = 0 // Index is stripped on Put
	if !reflect.DeepEqual(got, res) {
		t.Fatalf("Get = %+v, want %+v", got, res)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openTestResults(t, path, JournalOptions{})
	defer s2.Close()
	got2, ok, err := s2.GetCell(key)
	if err != nil || !ok {
		t.Fatalf("Get after reopen: ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(got2, res) {
		t.Fatalf("reopened Get = %+v, want %+v", got2, res)
	}
	st := s2.Stats()
	if st.Results != 1 || st.Recovered != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestResultStoreServedBytesIdentical(t *testing.T) {
	// The crash-recovery contract: a stored result re-encodes to exactly
	// the bytes a fresh computation would produce.
	path := filepath.Join(t.TempDir(), ResultsFile)
	s := openTestResults(t, path, JournalOptions{})
	defer s.Close()
	res := testResult(3)
	res.Index = 0
	fresh, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	key := res.Cell.Key()
	if err := s.PutCell(key, res); err != nil {
		t.Fatal(err)
	}
	got, _, err := s.GetCell(key)
	if err != nil {
		t.Fatal(err)
	}
	served, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(served) != string(fresh) {
		t.Fatalf("served bytes differ:\n  fresh:  %s\n  served: %s", fresh, served)
	}
}

func TestResultStoreContentAddressedPutIdempotent(t *testing.T) {
	path := filepath.Join(t.TempDir(), ResultsFile)
	s := openTestResults(t, path, JournalOptions{})
	defer s.Close()
	res := testResult(1)
	key := res.Cell.Key()
	if err := s.PutCell(key, res); err != nil {
		t.Fatal(err)
	}
	size := s.Stats().Bytes
	for i := 0; i < 5; i++ {
		if err := s.PutCell(key, res); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Stats().Bytes; got != size {
		t.Fatalf("idempotent puts grew the journal %d -> %d bytes", size, got)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}

// TestResultStoreDuplicatePutIsLookup pins the cost of re-putting a
// journaled key, which a daemon whose engine also journals pays once per
// fresh cell: no bytes appended, no put counted, and no allocation — the
// key is checked before the result is encoded.
func TestResultStoreDuplicatePutIsLookup(t *testing.T) {
	s := openTestResults(t, filepath.Join(t.TempDir(), ResultsFile), JournalOptions{})
	defer s.Close()
	res := testResult(1)
	key := res.Cell.Key()
	if err := s.PutCell(key, res); err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	allocs := testing.AllocsPerRun(100, func() {
		if err := s.PutCell(key, res); err != nil {
			t.Fatal(err)
		}
	})
	after := s.Stats()
	if after.Bytes != before.Bytes || after.Puts != before.Puts {
		t.Fatalf("duplicate puts changed the store: %+v -> %+v", before, after)
	}
	if allocs != 0 {
		t.Fatalf("duplicate put allocates %.0f objects, want 0", allocs)
	}
}

func TestResultStoreTornTailRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), ResultsFile)
	s := openTestResults(t, path, JournalOptions{})
	var keys []string
	for fus := 1; fus <= 4; fus++ {
		res := testResult(fus)
		k := res.Cell.Key()
		keys = append(keys, k)
		if err := s.PutCell(k, res); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear into the last record.
	if err := os.Truncate(path, fi.Size()-9); err != nil {
		t.Fatal(err)
	}
	s2 := openTestResults(t, path, JournalOptions{})
	defer s2.Close()
	if s2.Len() != 3 {
		t.Fatalf("recovered %d results, want 3", s2.Len())
	}
	for _, k := range keys[:3] {
		if !s2.Has(k) {
			t.Fatalf("key %s lost in recovery", k)
		}
	}
	if s2.Has(keys[3]) {
		t.Fatal("torn record resurrected")
	}
}

func TestResultStoreCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), ResultsFile)
	s := openTestResults(t, path, JournalOptions{})
	var keys []string
	for fus := 1; fus <= 3; fus++ {
		res := testResult(fus)
		k := res.Cell.Key()
		keys = append(keys, k)
		if err := s.PutCell(k, res); err != nil {
			t.Fatal(err)
		}
	}
	// Duplicate frames on disk (as a pre-content-addressing journal, or a
	// re-journaled record, would leave): append raw duplicates.
	s.mu.Lock()
	for _, k := range keys {
		if err := s.j.Append(Record{Kind: kindResult, Key: k, Data: s.index[k]}); err != nil {
			s.mu.Unlock()
			t.Fatal(err)
		}
	}
	before := s.j.Bytes()
	s.mu.Unlock()

	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	after := s.Stats().Bytes
	if after >= before {
		t.Fatalf("compaction did not shrink the journal: %d -> %d", before, after)
	}
	for _, k := range keys {
		if !s.Has(k) {
			t.Fatalf("key %s lost in compaction", k)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openTestResults(t, path, JournalOptions{})
	defer s2.Close()
	if s2.Len() != 3 {
		t.Fatalf("reopened compacted store has %d results, want 3", s2.Len())
	}
	// First-journaled key order is preserved deterministically.
	got := s2.Keys()
	for i, k := range keys {
		if got[i] != k {
			t.Fatalf("compacted key order %v, want %v", got, keys)
		}
	}
}

func TestOpenStoreDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "store")
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := testResult(1)
	if err := st.Results.PutCell(res.Cell.Key(), res); err != nil {
		t.Fatal(err)
	}
	if err := st.Jobs.Submitted("s-000001", "sweep", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Results.Len() != 1 {
		t.Fatalf("results = %d, want 1", st2.Results.Len())
	}
	if p := st2.Jobs.Pending(); len(p) != 1 || p[0].ID != "s-000001" {
		t.Fatalf("pending = %+v", p)
	}
}

func TestResultStoreServeCellSplicesIndex(t *testing.T) {
	path := filepath.Join(t.TempDir(), ResultsFile)
	s := openTestResults(t, path, JournalOptions{})
	defer s.Close()
	res := testResult(2)
	key := res.Cell.Key()
	if err := s.PutCell(key, res); err != nil {
		t.Fatal(err)
	}
	canon, err := EncodeCell(res)
	if err != nil {
		t.Fatal(err)
	}
	served, ok := s.ServeCell(key)
	if !ok || string(served) != string(canon) {
		t.Fatalf("ServeCell = %q, %v; want the EncodeCell encoding", served, ok)
	}
	if st := s.Stats(); st.Hits != 1 {
		t.Fatalf("ServeCell counted %d hits, want 1", st.Hits)
	}
	for _, idx := range []int{0, 7, 123456} {
		res.Index = idx
		want, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendIndexed(nil, served, idx); string(got) != string(want) {
			t.Fatalf("index %d spliced:\n  got  %s\n  want %s", idx, got, want)
		}
	}
	if _, ok := s.ServeCell("missing"); ok {
		t.Fatal("ServeCell hit an unknown key")
	}
}

// TestResultStoreSkipsInvalidRecords journals CRC-valid result records
// that are not canonical CellResult encodings. Hits are served without a
// decode, so OpenResults must drop them (counting each in Stats.Invalid)
// and keep the valid records around them.
func TestResultStoreSkipsInvalidRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), ResultsFile)
	good := testResult(1)
	good.Index = 0
	canon, err := json.Marshal(good)
	if err != nil {
		t.Fatal(err)
	}
	unprefixed := `{"cell":` + string(canon[len(canonicalPrefix)+len(`"cell":`):len(canon)-1]) + `,"index":0}`
	bad := map[string]string{
		"not-json":      `{"index":0,not json`,
		"wrong-type":    `{"index":0,"cell":"gcc"}`,
		"no-prefix":     unprefixed,
		"other-index":   `{"index":3,` + string(canon[len(canonicalPrefix):]),
		"non-canonical": `{"index":0, "relEnergy":0.5}`,
		"unknown-field": `{"index":0,"extra":1,` + string(canon[len(canonicalPrefix):]),
	}
	j, _ := openTestJournal(t, path, JournalOptions{})
	if err := j.Append(Record{Kind: kindResult, Key: "good", Data: canon}); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"not-json", "wrong-type", "no-prefix", "other-index", "non-canonical", "unknown-field"} {
		if err := j.Append(Record{Kind: kindResult, Key: k, Data: []byte(bad[k])}); err != nil {
			t.Fatal(err)
		}
	}
	// A later invalid record for a valid key must not shadow it.
	if err := j.Append(Record{Kind: kindResult, Key: "good", Data: []byte(bad["not-json"])}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	s := openTestResults(t, path, JournalOptions{})
	defer s.Close()
	st := s.Stats()
	if st.Invalid != len(bad)+1 || st.Results != 1 || st.Recovered != len(bad)+2 {
		t.Fatalf("stats = %+v, want %d invalid, 1 result, %d recovered", st, len(bad)+1, len(bad)+2)
	}
	for k := range bad {
		if s.Has(k) {
			t.Fatalf("invalid record %q indexed", k)
		}
	}
	if got, ok := s.ServeCell("good"); !ok || string(got) != string(canon) {
		t.Fatalf("valid record = %q, %v", got, ok)
	}
	// The skipped cells are recomputed and journaled anew; compaction then
	// drops the invalid frames for good.
	if err := s.PutCell("no-prefix", good); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openTestResults(t, path, JournalOptions{})
	defer s2.Close()
	if st := s2.Stats(); st.Invalid != 0 || st.Results != 2 {
		t.Fatalf("after recompute and compaction: stats = %+v, want 0 invalid, 2 results", st)
	}
}
