package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"github.com/archsim/fusleep/internal/experiments"
)

// kindResult is the journal record kind of one cell result.
const kindResult byte = 1

// canonicalPrefix opens every stored result: EncodeCell zeroes Index,
// and Index is CellResult's first field. AppendIndexed swaps it for the
// serving job's index without decoding the rest.
const canonicalPrefix = `{"index":0,`

// AppendIndexed appends the canonical encoding canon (from EncodeCell or
// ServeCell) to dst with its Index set to index. The output is the
// canonical encoding of the decoded result with that Index, because canon
// is itself EncodeCell output (OpenResults drops any record that is not).
func AppendIndexed(dst, canon []byte, index int) []byte {
	dst = strconv.AppendInt(append(dst, `{"index":`...), int64(index), 10)
	return append(append(dst, ','), canon[len(canonicalPrefix):]...)
}

// canonical reports whether data is a servable result record: it must
// decode (DecodeCell) with Index 0 and be exactly the bytes EncodeCell
// writes for the decoded value, so that splicing it raw is
// indistinguishable from decoding and re-encoding it. Since EncodeCell
// writes encoding/json's bytes (the codec golden pins them), these are
// the records json.Unmarshal and json.Marshal would round-trip;
// FuzzCellCodec holds the two definitions equal.
func canonical(data []byte) bool {
	if !bytes.HasPrefix(data, []byte(canonicalPrefix)) {
		return false
	}
	res, err := DecodeCell(data)
	if err != nil {
		return false
	}
	var stack [encodeStack]byte
	enc, err := appendCell(stack[:0], &res)
	return err == nil && bytes.Equal(enc, data)
}

// ResultStore is the durable, content-addressed cell-result store: an
// append-only journal of encoded experiments.CellResult records keyed by
// the stable Cell.Key configuration hash, with an in-memory index for
// reads. Two cells with the same key are the same computation, so Put is
// idempotent and the store doubles as a cross-restart dedupe substrate.
// A daemon checks it once, at dispatch, and writes it from the
// coordinator's result hook. It is safe for concurrent use.
type ResultStore struct {
	mu    sync.Mutex
	j     *Journal
	index map[string][]byte // key -> encoded CellResult (last write wins)
	order []string          // first-seen key order, for deterministic compaction

	hits    uint64
	puts    uint64
	putErrs uint64
	invalid int // result records OpenResults skipped as not canonical
}

// OpenResults opens (or creates) the result journal at path and rebuilds
// the index from its intact records. Each result record is checked once
// here — it must be a canonical CellResult encoding, the bytes EncodeCell
// writes, which are encoding/json's (see canonical) — because hits are
// served as the stored bytes without a decode. A
// record that fails is counted in Stats.Invalid and skipped, so its cell
// is recomputed (and journaled anew) instead of served.
func OpenResults(path string, opt JournalOptions) (*ResultStore, error) {
	j, recs, err := OpenJournal(path, opt)
	if err != nil {
		return nil, err
	}
	s := &ResultStore{j: j, index: make(map[string][]byte, len(recs))}
	for _, rec := range recs {
		if rec.Kind != kindResult {
			continue
		}
		if !canonical(rec.Data) {
			s.invalid++
			continue
		}
		if _, seen := s.index[rec.Key]; !seen {
			s.order = append(s.order, rec.Key)
		}
		s.index[rec.Key] = rec.Data
	}
	return s, nil
}

// ServeCell returns the journaled result for a cell key as its canonical
// stored bytes (Index 0; see AppendIndexed) and counts a hit. The bytes
// are shared with the index and must not be modified.
func (s *ResultStore) ServeCell(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.index[key]
	if ok {
		s.hits++
	}
	return data, ok
}

// GetCell returns the journaled result for a cell key, decoded. The
// stored bytes decode into exactly the CellResult that was computed
// (Index zeroed, as EvalCells returns it), so a served result is
// byte-identical to a recomputed one when re-encoded. It counts a hit,
// as ServeCell does.
func (s *ResultStore) GetCell(key string) (experiments.CellResult, bool, error) {
	data, ok := s.ServeCell(key)
	if !ok {
		return experiments.CellResult{}, false, nil
	}
	res, err := DecodeCell(data)
	if err != nil {
		return experiments.CellResult{}, false, fmt.Errorf("store: decode result %s: %w", key, err)
	}
	return res, true, nil
}

// PutCell journals one completed cell under its key. Results are
// content-addressed — a key already present is the same computation, so
// the put is a no-op, checked before any encoding: re-putting a journaled
// key costs one locked map lookup. The result's Index is not persisted (it
// is a per-grid position, not part of the cell's identity).
func (s *ResultStore) PutCell(key string, res experiments.CellResult) error {
	if s.Has(key) {
		return nil
	}
	canon, err := EncodeCell(res)
	if err != nil {
		return fmt.Errorf("store: encode result %s: %w", key, err)
	}
	put := [1]Put{{Key: key, Canon: canon}}
	s.PutCells(put[:])
	return put[0].Err
}

// Put is one encoded cell result for PutCells to journal: the cell key and
// the result's EncodeCell bytes, which the store keeps (and serves) as
// given. PutCells sets Err to the put's outcome.
type Put struct {
	Key   string
	Canon []byte
	Err   error
}

// PutCells journals a batch of encoded cells in order, with exactly the
// outcome and on-disk bytes of one PutCell per element: a key already
// stored, or repeated earlier in the batch, writes nothing and succeeds,
// and the journal fsyncs at the same record counts. The records are
// appended under one acquisition of the store lock. If the journal wedges
// part-way, the records appended before the failure stay journaled, and
// the failing put and every later put of a key not yet stored carry an
// error and count as a put error. It returns the first error, or nil.
func (s *ResultStore) PutCells(puts []Put) error {
	var first error
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range puts {
		p := &puts[i]
		p.Err = s.appendLocked(p.Key, p.Canon)
		if first == nil {
			first = p.Err
		}
	}
	return first
}

// appendLocked journals one encoded result unless its key is already
// stored. Callers hold s.mu.
func (s *ResultStore) appendLocked(key string, data []byte) error {
	if _, ok := s.index[key]; ok {
		return nil
	}
	if err := s.j.Append(Record{Kind: kindResult, Key: key, Data: data}); err != nil {
		s.putErrs++
		return err
	}
	s.index[key] = data
	s.order = append(s.order, key)
	s.puts++
	return nil
}

// Has reports whether the store holds a result for key without decoding
// it or counting a hit.
func (s *ResultStore) Has(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.index[key]
	return ok
}

// Keys returns the stored cell keys in first-journaled order.
func (s *ResultStore) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, len(s.order))
	copy(out, s.order)
	return out
}

// Compact rewrites the journal with one record per key (first-journaled
// order), dropping superseded duplicates and reclaiming their bytes. The
// rewrite goes to a temporary file that replaces the journal atomically,
// so a crash mid-compaction leaves either the old or the new journal
// intact, never a mix.
func (s *ResultStore) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.j.Wedged() {
		return ErrWedged
	}
	tmpPath := s.j.path + ".compact"
	tmp, _, err := OpenJournal(tmpPath, JournalOptions{SyncEvery: len(s.order) + 1})
	if err != nil {
		return err
	}
	for _, key := range s.order {
		if err := tmp.Append(Record{Kind: kindResult, Key: key, Data: s.index[key]}); err != nil {
			tmp.Close()
			os.Remove(tmpPath)
			return err
		}
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpPath)
		return err
	}
	if err := s.j.Close(); err != nil {
		os.Remove(tmpPath)
		return err
	}
	if err := os.Rename(tmpPath, s.j.path); err != nil {
		return fmt.Errorf("store: swap compacted journal: %w", err)
	}
	if err := syncDir(filepath.Dir(s.j.path)); err != nil {
		return err
	}
	j, recs, err := OpenJournal(s.j.path, s.j.opt)
	if err != nil {
		return err
	}
	if len(recs) != len(s.order) {
		j.Close()
		return fmt.Errorf("store: compacted journal has %d records, want %d", len(recs), len(s.order))
	}
	s.j = j
	return nil
}

// Stats snapshots the store's accounting.
type Stats struct {
	// Results is the number of distinct cell keys stored.
	Results int `json:"results"`
	// Bytes is the journal's intact on-disk size.
	Bytes int64 `json:"bytes"`
	// Recovered is how many records the opening scan replayed.
	Recovered int `json:"recovered"`
	// TruncatedBytes is how many torn-tail bytes the opening scan dropped.
	TruncatedBytes int64 `json:"truncatedBytes"`
	// Invalid is how many intact (CRC-valid) result records the opening
	// scan skipped because they were not canonical CellResult encodings;
	// their cells are recomputed rather than served.
	Invalid int `json:"invalid"`
	// Hits, Puts, PutErrors count this process's store traffic.
	Hits      uint64 `json:"hits"`
	Puts      uint64 `json:"puts"`
	PutErrors uint64 `json:"putErrors"`
}

// Stats returns a snapshot of the store's accounting.
func (s *ResultStore) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Results:        len(s.index),
		Bytes:          s.j.Bytes(),
		Recovered:      s.j.Recovered(),
		TruncatedBytes: s.j.TruncatedBytes(),
		Invalid:        s.invalid,
		Hits:           s.hits,
		Puts:           s.puts,
		PutErrors:      s.putErrs,
	}
}

// Len returns the number of distinct stored results.
func (s *ResultStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Wedged reports whether the underlying journal stopped accepting writes.
func (s *ResultStore) Wedged() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.j.Wedged()
}

// Sync forces any batched frames to disk.
func (s *ResultStore) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.j.Sync()
}

// Close flushes and closes the journal.
func (s *ResultStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.j.Close()
}

// syncDir fsyncs a directory so a rename within it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: open dir for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: sync dir: %w", err)
	}
	return nil
}
