package store

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"github.com/archsim/fusleep/internal/experiments"
	"github.com/archsim/fusleep/internal/fault"
)

// batchResults is a result sequence with what a daemon's group
// journaling meets: 10 distinct results, then a repeat of the 10th (in the
// same batch as it under batchSizes) and of the first (stored before the
// batches when runPuts pre-stores it).
func batchResults() []experiments.CellResult {
	var results []experiments.CellResult
	for i := range 10 {
		res := testResult(1 + i%5)
		res.Cell.Alpha = 0.1 + 0.05*float64(i)
		results = append(results, res)
	}
	return append(results, results[9], results[0])
}

// encodedPuts encodes results into the records PutCells journals.
func encodedPuts(t testing.TB, results []experiments.CellResult) []Put {
	t.Helper()
	puts := make([]Put, len(results))
	for i, res := range results {
		canon, err := EncodeCell(res)
		if err != nil {
			t.Fatal(err)
		}
		puts[i] = Put{Key: res.Cell.Key(), Canon: canon}
	}
	return puts
}

// batchSizes splits the puts into the batches PutCells is called with:
// uneven, so batches straddle every SyncEvery boundary tested.
var batchSizes = []int{3, 1, 3, 5}

// journalRun is one store's life over a put sequence: the per-put errors,
// the fsyncs so far after each append, the final accounting, and the
// journal bytes left on disk.
type journalRun struct {
	errs  []string
	syncs []uint64
	stats Stats
	file  []byte
	keys  []string // what a reopened store recovers, in order
}

// runPuts opens a fresh store under opt, stores the first pre results with
// PutCell, then journals the rest one PutCell at a time (batched false) or
// in PutCells batches of batchSizes, and closes and reopens it. opt.Inject,
// when set, must arm JournalFsync (it counts the syncs).
func runPuts(t *testing.T, opt JournalOptions, pre int, batched bool) journalRun {
	t.Helper()
	var run journalRun
	if opt.Inject == nil {
		opt.Inject = fault.New(1)
		opt.Inject.Set(fault.JournalFsync, fault.Spec{After: 1 << 30})
	}
	opt.Observe = func(float64) { run.syncs = append(run.syncs, opt.Inject.Hits(fault.JournalFsync)) }
	path := filepath.Join(t.TempDir(), ResultsFile)
	s := openTestResults(t, path, opt)
	all := batchResults()
	for _, res := range all[:pre] {
		run.errs = append(run.errs, fmt.Sprint(s.PutCell(res.Cell.Key(), res)))
	}
	rest := all[pre:]
	if batched {
		for _, n := range batchSizes {
			n = min(n, len(rest))
			batch := encodedPuts(t, rest[:n])
			first := s.PutCells(batch)
			var want error
			for _, p := range batch {
				run.errs = append(run.errs, fmt.Sprint(p.Err))
				if want == nil {
					want = p.Err
				}
			}
			if first != want {
				t.Fatalf("PutCells returned %v, want the first put's error %v", first, want)
			}
			rest = rest[n:]
		}
		if len(rest) != 0 {
			t.Fatalf("batch sizes leave %d puts over", len(rest))
		}
	} else {
		for _, res := range rest {
			run.errs = append(run.errs, fmt.Sprint(s.PutCell(res.Cell.Key(), res)))
		}
	}
	run.stats = s.Stats()
	_ = s.Close() // a wedged journal's Close reports the wedge
	var err error
	if run.file, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	r := openTestResults(t, path, JournalOptions{})
	run.keys = r.Keys()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	return run
}

// sameRun fails unless the batched run left exactly what the one-by-one
// run did.
func sameRun(t *testing.T, what string, one, batch journalRun) {
	t.Helper()
	if fmt.Sprint(batch.errs) != fmt.Sprint(one.errs) {
		t.Fatalf("%s: put errors\n  batched:    %v\n  one by one: %v", what, batch.errs, one.errs)
	}
	if fmt.Sprint(batch.syncs) != fmt.Sprint(one.syncs) {
		t.Fatalf("%s: fsyncs after each append\n  batched:    %v\n  one by one: %v", what, batch.syncs, one.syncs)
	}
	if batch.stats != one.stats {
		t.Fatalf("%s: stats\n  batched:    %+v\n  one by one: %+v", what, batch.stats, one.stats)
	}
	if string(batch.file) != string(one.file) {
		t.Fatalf("%s: journal files differ (%d vs %d bytes)", what, len(batch.file), len(one.file))
	}
	if fmt.Sprint(batch.keys) != fmt.Sprint(one.keys) {
		t.Fatalf("%s: recovered keys\n  batched:    %v\n  one by one: %v", what, batch.keys, one.keys)
	}
}

// TestPutCellsMatchesPutCell holds PutCells to PutCell one record at a
// time, at SyncEvery 1, 3 and 64: the same bytes on disk, the same
// per-put outcomes and accounting, and an fsync after exactly the same
// appends. With the fsync armed to fail — which drops everything appended
// since the last good sync and wedges the journal — at the first, second,
// middle and last sync, the same records survive and recovery reads back
// the same prefix.
func TestPutCellsMatchesPutCell(t *testing.T) {
	for _, every := range []int{1, 3, 64} {
		t.Run(fmt.Sprintf("SyncEvery=%d", every), func(t *testing.T) {
			t.Parallel() // fsync-bound: the runs overlap their waits
			clean := runPuts(t, JournalOptions{SyncEvery: every}, 2, false)
			sameRun(t, "clean", clean, runPuts(t, JournalOptions{SyncEvery: every}, 2, true))
			syncs := int(clean.syncs[len(clean.syncs)-1])
			if syncs == 0 && every < len(clean.syncs) {
				t.Fatal("the clean run never synced")
			}
			for _, after := range slices.Compact([]int{0, 1, syncs / 2, syncs}) {
				opt := func() JournalOptions {
					inj := fault.New(1)
					inj.Set(fault.JournalFsync, fault.Spec{After: after})
					return JournalOptions{SyncEvery: every, Inject: inj}
				}
				sameRun(t, fmt.Sprintf("fsync fails after %d", after),
					runPuts(t, opt(), 2, false), runPuts(t, opt(), 2, true))
			}
		})
	}
}

// TestPutCellsTornWriteJournalsPrefix tears the journal's append on the
// first record, inside a batch, on a batch's first record, and inside the
// middle and last batches: the records before the tear stay journaled, the torn put and every one after it carry an error and
// count as a put error, and recovery truncates the torn tail and reads
// back exactly the prefix, as with one PutCell per record.
func TestPutCellsTornWriteJournalsPrefix(t *testing.T) {
	for _, after := range []int{0, 2, 3, 5, 8} {
		t.Run(fmt.Sprintf("torn-after=%d", after), func(t *testing.T) {
			t.Parallel() // fsync-bound: the runs overlap their waits
			opt := func() JournalOptions {
				inj := fault.New(1)
				inj.Set(fault.JournalTorn, fault.Spec{After: after})
				inj.Set(fault.JournalFsync, fault.Spec{After: 1 << 30})
				return JournalOptions{SyncEvery: 3, Inject: inj}
			}
			one, batch := runPuts(t, opt(), 0, false), runPuts(t, opt(), 0, true)
			sameRun(t, "torn", one, batch)
			if len(batch.keys) != after {
				t.Fatalf("recovered %d records, want the %d before the tear", len(batch.keys), after)
			}
			if failed := int(batch.stats.PutErrors); failed == 0 || batch.stats.Puts != uint64(after) {
				t.Fatalf("%d puts, %d put errors", batch.stats.Puts, failed)
			}
		})
	}
}

// TestPutCellsSkipsStoredAndRepeatedKeys journals a batch holding a key
// already in the store and a key repeated within the batch: neither writes
// a byte or counts a put, and both succeed.
func TestPutCellsSkipsStoredAndRepeatedKeys(t *testing.T) {
	s := openTestResults(t, filepath.Join(t.TempDir(), ResultsFile), JournalOptions{})
	defer s.Close()
	stored, fresh := testResult(1), testResult(2)
	if err := s.PutCell(stored.Cell.Key(), stored); err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	batch := encodedPuts(t, []experiments.CellResult{stored, fresh, fresh})
	if err := s.PutCells(batch); err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	if after.Puts != before.Puts+1 || after.Results != 2 {
		t.Fatalf("stats %+v -> %+v, want exactly one new put", before, after)
	}
	one := openTestResults(t, filepath.Join(t.TempDir(), ResultsFile), JournalOptions{})
	defer one.Close()
	if err := one.PutCell(fresh.Cell.Key(), fresh); err != nil {
		t.Fatal(err)
	}
	if grew := after.Bytes - before.Bytes; grew != one.Stats().Bytes {
		t.Fatalf("the batch wrote %d bytes, one record is %d", grew, one.Stats().Bytes)
	}
	for i, p := range batch {
		if p.Err != nil {
			t.Fatalf("put %d: %v", i, p.Err)
		}
	}
	canon, ok := s.ServeCell(fresh.Cell.Key())
	if !ok || string(canon[:len(canonicalPrefix)]) != canonicalPrefix {
		t.Fatalf("stored bytes %q do not carry Index 0", canon)
	}
}

// batchJournal returns the bytes of a result journal written by PutCells
// in two batches at SyncEvery 3, torn on the given append (0 = never),
// for FuzzJournalRecovery's corpus.
func batchJournal(f *testing.F, tornAfter int) []byte {
	path := filepath.Join(f.TempDir(), ResultsFile)
	opt := JournalOptions{SyncEvery: 3}
	if tornAfter > 0 {
		opt.Inject = fault.New(1)
		opt.Inject.Set(fault.JournalTorn, fault.Spec{After: tornAfter})
	}
	s, err := OpenResults(path, opt)
	if err != nil {
		f.Fatal(err)
	}
	var results []experiments.CellResult
	for i := range 5 {
		results = append(results, testResult(1+i))
	}
	batch := encodedPuts(f, results)
	_ = s.PutCells(batch[:2])
	_ = s.PutCells(batch[2:])
	_ = s.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return raw
}
