package store

import (
	"fmt"
	"path/filepath"
	"testing"
)

// BenchmarkStoreJournal measures the hot store path: encoding one cell
// result and appending its CRC-framed record to the journal, with fsyncs
// batched every 64 appends (the realistic daemon configuration sits
// between 1 and this). BENCH_store.json gates CI on the appends/s metric.
func BenchmarkStoreJournal(b *testing.B) {
	s, err := OpenResults(filepath.Join(b.TempDir(), "results.journal"), JournalOptions{SyncEvery: 64})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	res := testResult(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.PutCell(fmt.Sprintf("bench-%08x", i), res); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)/sec, "appends/s")
	}
}

// BenchmarkStoreRecovery measures the startup scan: one op reopens a
// journal of 4096 records and rebuilds the full index, i.e. the work a
// crashed daemon does before serving again.
func BenchmarkStoreRecovery(b *testing.B) {
	const records = 4096
	path := filepath.Join(b.TempDir(), "results.journal")
	s, err := OpenResults(path, JournalOptions{SyncEvery: records})
	if err != nil {
		b.Fatal(err)
	}
	res := testResult(2)
	for i := 0; i < records; i++ {
		if err := s.PutCell(fmt.Sprintf("bench-%08x", i), res); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := OpenResults(path, JournalOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if r.Len() != records {
			b.Fatalf("recovered %d records, want %d", r.Len(), records)
		}
		if err := r.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(records)*float64(b.N)/sec, "records/s")
	}
}

// BenchmarkCellCodec times the canonical codec on a policy-grid-shaped
// result (three programs, one per-class entry): EncodeCell, as the result
// hook runs it on every fresh cell, and DecodeCell, as a tuner probe and
// GetCell run it.
func BenchmarkCellCodec(b *testing.B) {
	res := codecCases()[0].res
	canon, err := EncodeCell(res)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			if _, err := EncodeCell(res); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			if _, err := DecodeCell(canon); err != nil {
				b.Fatal(err)
			}
		}
	})
}
