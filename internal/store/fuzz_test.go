package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// frameBytes encodes one record exactly as Journal.Append writes it. Keys
// must fit the frame format; callers keep them short.
func frameBytes(rec Record) []byte {
	payload := append([]byte{rec.Kind, 0, 0}, rec.Key...)
	binary.LittleEndian.PutUint16(payload[1:3], uint16(len(rec.Key)))
	payload = append(payload, rec.Data...)
	var header [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(header[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(header[4:8], crc32.ChecksumIEEE(payload))
	return append(header[:], payload...)
}

// sameRecord reports whether two records are equal.
func sameRecord(a, b Record) bool {
	return a.Kind == b.Kind && a.Key == b.Key && bytes.Equal(a.Data, b.Data)
}

// FuzzJournalRecovery drives frame recovery (scan, decodePayload) and the
// result-store index rebuild over arbitrary bytes, in two shapes:
//
//   - raw is opened as a journal file as-is. Recovery must not panic, must
//     truncate the file to exactly the frames it returned (re-encoding the
//     records reproduces the kept bytes), and a second open must return the
//     same records with nothing left to truncate. OpenResults over the same
//     bytes must not panic, and can index at most the result records.
//   - intact frames built from raw are written, then damaged: cut at an
//     offset and one byte XORed with mask. The recovered records must be a
//     prefix of the intact ones — damage may lose records, never invent or
//     alter one.
func FuzzJournalRecovery(f *testing.F) {
	good := frameBytes(Record{Kind: kindResult, Key: "k", Data: []byte(`{"index":0}`)})
	f.Add([]byte{}, uint16(0), uint16(0), byte(0))
	f.Add(good, uint16(3), uint16(9), byte(0x01))
	f.Add(append(append([]byte{}, good...), good[:5]...), uint16(0xffff), uint16(2), byte(0x80))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 1}, uint16(40), uint16(0), byte(0))
	f.Add([]byte{3, 0, 0, 0, 0, 0, 0, 0, 1, 0xff, 0xff}, uint16(7), uint16(4), byte(0xff))
	f.Add(bytes.Repeat([]byte("frame"), 40), uint16(100), uint16(50), byte(0x10))
	// Journals written a group at a time by PutCells: intact, and torn on
	// its fourth append.
	f.Add(batchJournal(f, 0), uint16(0xffff), uint16(0), byte(0))
	f.Add(batchJournal(f, 3), uint16(900), uint16(17), byte(0x04))
	f.Fuzz(func(t *testing.T, raw []byte, cut, pos uint16, mask byte) {
		dir := t.TempDir()

		// Shape 1: arbitrary bytes as a journal.
		path := filepath.Join(dir, "raw.jrn")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		j, recs, err := OpenJournal(path, JournalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var kept []byte
		for _, rec := range recs {
			kept = append(kept, frameBytes(rec)...)
		}
		if !bytes.Equal(kept, raw[:len(kept)]) || j.Bytes() != int64(len(kept)) ||
			j.TruncatedBytes() != int64(len(raw)-len(kept)) {
			t.Fatalf("recovered %d records covering %d bytes; journal reports %d kept, %d truncated of %d",
				len(recs), len(kept), j.Bytes(), j.TruncatedBytes(), len(raw))
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		j2, again, err := OpenJournal(path, JournalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(again) != len(recs) || j2.TruncatedBytes() != 0 {
			t.Fatalf("reopen recovered %d records (truncated %d), want %d and 0", len(again), j2.TruncatedBytes(), len(recs))
		}
		for i := range recs {
			if !sameRecord(again[i], recs[i]) {
				t.Fatalf("reopen record %d = %+v, want %+v", i, again[i], recs[i])
			}
		}
		if err := j2.Close(); err != nil {
			t.Fatal(err)
		}
		rs, err := OpenResults(path, JournalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		results := 0
		for _, rec := range recs {
			if rec.Kind == kindResult {
				results++
			}
		}
		if st := rs.Stats(); st.Results+st.Invalid > results {
			t.Fatalf("indexed %d and rejected %d of %d result records", st.Results, st.Invalid, results)
		}
		if err := rs.Close(); err != nil {
			t.Fatal(err)
		}

		// Shape 2: intact frames, then a cut and a flipped byte.
		var intact []Record
		var file []byte
		for i := 0; len(raw) > 0 && i < 8; i++ {
			n := int(raw[0]) % (len(raw) + 1)
			k := min(n/2, 255)
			rec := Record{Kind: byte(i % 3), Key: string(raw[:k]), Data: raw[k:n]}
			raw = raw[n:]
			intact = append(intact, rec)
			file = append(file, frameBytes(rec)...)
			if n == 0 {
				break
			}
		}
		file = file[:int(cut)%(len(file)+1)]
		if mask != 0 && len(file) > 0 {
			file[int(pos)%len(file)] ^= mask
		}
		path = filepath.Join(dir, "damaged.jrn")
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		j, recs, err = OpenJournal(path, JournalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		if len(recs) > len(intact) {
			t.Fatalf("recovered %d records from %d intact frames", len(recs), len(intact))
		}
		for i := range recs {
			if !sameRecord(recs[i], intact[i]) {
				t.Fatalf("recovered record %d = %+v, want the intact %+v", i, recs[i], intact[i])
			}
		}
	})
}
