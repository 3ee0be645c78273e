// Package store is fusleepd's durability layer: an append-only,
// CRC-framed journal underneath a content-addressed cell-result store and
// a job write-ahead log. Completed sweep cells are journaled under their
// stable Cell.Key configuration hash, so a daemon restarted after a crash
// serves already-evaluated cells from disk instead of re-simulating them,
// and submitted jobs replay from the WAL with only their unfinished cells
// re-enqueued.
//
// The on-disk format is a sequence of frames:
//
//	uint32  payload length (little-endian)
//	uint32  CRC-32 (IEEE) of the payload
//	payload = kind byte, uint16 key length, key bytes, data bytes
//
// Recovery scans frames from the start and stops at the first frame that
// is short, oversized, or fails its CRC — the torn tail a crash mid-write
// leaves behind — truncating the file back to the last intact frame.
// Everything before the tear is intact by construction (frames are only
// appended), so recovery never loses acknowledged synced records.
package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"time"

	"github.com/archsim/fusleep/internal/fault"
)

const (
	frameHeaderSize = 8       // uint32 length + uint32 crc
	maxPayload      = 8 << 20 // sanity bound; larger lengths read as corruption
	// writeBuffer holds a sync batch of cell results (about 1 KiB each)
	// until its fsync, so a batch reaches the file in a few writes.
	writeBuffer = 64 << 10
)

// ErrWedged is returned by appends after the journal hit an unrecoverable
// write or fsync failure. A wedged journal stops accepting records — the
// way a crashed process would — but everything already synced stays
// readable on the next open.
var ErrWedged = errors.New("store: journal wedged by a prior write failure")

// Record is one journal entry: a kind discriminator, the record's key,
// and its opaque payload.
type Record struct {
	Kind byte
	Key  string
	Data []byte
}

// JournalOptions parameterize a journal.
type JournalOptions struct {
	// SyncEvery fsyncs after every n-th appended record (default 1: every
	// append is durable before it is acknowledged). Larger values batch
	// fsyncs; a crash can lose up to n-1 acknowledged-but-unsynced records,
	// which recovery simply recomputes.
	SyncEvery int
	// Inject arms the journal's fault points (fsync error, torn write);
	// nil injects nothing.
	Inject *fault.Injector
	// Observe, when set, receives each Append's wall-clock duration in
	// seconds (the daemon feeds append-latency histograms through it).
	Observe func(seconds float64)
}

func (o JournalOptions) withDefaults() JournalOptions {
	if o.SyncEvery <= 0 {
		o.SyncEvery = 1
	}
	return o
}

// Journal is a CRC-framed append-only log with batched fsync and
// torn-tail recovery. It does no locking of its own: the owning store
// serializes access under its mutex.
type Journal struct {
	opt   JournalOptions
	path  string
	f     *os.File
	w     *bufio.Writer
	frame []byte // the frame Append is writing, reused across appends

	unsynced      int
	wedged        bool
	bytes         int64
	records       int
	syncedBytes   int64 // journal size as of the last successful fsync
	syncedRecords int
	recovered     int   // records read back at open
	truncated     int64 // torn-tail bytes dropped at open
}

// OpenJournal opens (or creates) the journal at path, scans it, truncates
// any torn tail, and returns the intact records in append order.
func OpenJournal(path string, opt JournalOptions) (*Journal, []Record, error) {
	opt = opt.withDefaults()
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("store: open journal: %w", err)
	}
	recs, good, torn, err := scan(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if torn > 0 {
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("store: truncate torn tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("store: sync after truncate: %w", err)
		}
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("store: seek journal end: %w", err)
	}
	j := &Journal{
		opt:           opt,
		path:          path,
		f:             f,
		w:             bufio.NewWriterSize(f, writeBuffer),
		bytes:         good,
		records:       len(recs),
		syncedBytes:   good,
		syncedRecords: len(recs),
		recovered:     len(recs),
		truncated:     torn,
	}
	return j, recs, nil
}

// scan reads frames until EOF or the first corrupt/torn frame, returning
// the intact records, the offset of the last intact frame's end, and how
// many trailing bytes were unreadable.
func scan(f *os.File) (recs []Record, good int64, torn int64, err error) {
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("store: size journal: %w", err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, 0, fmt.Errorf("store: rewind journal: %w", err)
	}
	r := bufio.NewReader(f)
	var header [frameHeaderSize]byte
	for good < size {
		if _, err := io.ReadFull(r, header[:]); err != nil {
			return recs, good, size - good, nil // short header: torn tail
		}
		n := binary.LittleEndian.Uint32(header[0:4])
		crc := binary.LittleEndian.Uint32(header[4:8])
		if n == 0 || n > maxPayload || int64(frameHeaderSize+n) > size-good {
			return recs, good, size - good, nil // impossible length: torn/corrupt
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return recs, good, size - good, nil
		}
		if crc32.ChecksumIEEE(payload) != crc {
			return recs, good, size - good, nil // bit rot or partial overwrite
		}
		rec, ok := decodePayload(payload)
		if !ok {
			return recs, good, size - good, nil
		}
		recs = append(recs, rec)
		good += int64(frameHeaderSize + n)
	}
	return recs, good, 0, nil
}

// decodePayload splits a verified payload into its record.
func decodePayload(p []byte) (Record, bool) {
	if len(p) < 3 {
		return Record{}, false
	}
	kind := p[0]
	klen := int(binary.LittleEndian.Uint16(p[1:3]))
	if 3+klen > len(p) {
		return Record{}, false
	}
	return Record{Kind: kind, Key: string(p[3 : 3+klen]), Data: p[3+klen:]}, true
}

// appendFrame appends one record's frame, header then payload, to dst.
func appendFrame(dst []byte, rec Record) ([]byte, error) {
	if len(rec.Key) > 1<<16-1 {
		return dst, fmt.Errorf("store: key of %d bytes exceeds the 64KiB frame limit", len(rec.Key))
	}
	n := 3 + len(rec.Key) + len(rec.Data)
	if n > maxPayload {
		return dst, fmt.Errorf("store: record of %d bytes exceeds the %d-byte frame limit", n, maxPayload)
	}
	start := len(dst)
	dst = append(dst, make([]byte, frameHeaderSize)...)
	dst = append(dst, rec.Kind, byte(len(rec.Key)), byte(len(rec.Key)>>8))
	dst = append(append(dst, rec.Key...), rec.Data...)
	header, payload := dst[start:start+frameHeaderSize], dst[start+frameHeaderSize:]
	binary.LittleEndian.PutUint32(header[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(header[4:8], crc32.ChecksumIEEE(payload))
	return dst, nil
}

// Append frames and writes one record, fsyncing per the batching policy.
// The record is durable once Append returns nil and the batch it belongs
// to has synced (SyncEvery 1 makes every return durable). Callers must
// hold no expectation about a wedged journal: once a write or sync fails,
// every later Append returns ErrWedged.
func (j *Journal) Append(rec Record) error {
	if j.opt.Observe != nil {
		start := time.Now() //fusleepvet:nondet-ok append latency observation; never feeds results
		defer func() { j.opt.Observe(time.Since(start).Seconds()) }()
	}
	frame, err := appendFrame(j.frame[:0], rec)
	if err != nil {
		return err
	}
	j.frame = frame

	if j.wedged {
		return ErrWedged
	}
	if j.opt.Inject.Fire(fault.JournalTorn) {
		// Crash mid-write: flush what came before, land a partial frame on
		// disk, and wedge. The next open must truncate this tail away.
		_ = j.w.Flush()
		_, _ = j.f.Write(frame[:len(frame)/2])
		_ = j.f.Sync()
		j.wedged = true
		return fmt.Errorf("store: torn write: %w", fault.ErrInjected)
	}
	if _, err := j.w.Write(frame); err != nil {
		j.wedged = true
		return fmt.Errorf("store: append: %w", err)
	}
	j.bytes += int64(len(frame))
	j.records++
	j.unsynced++
	if j.unsynced >= j.opt.SyncEvery {
		return j.flushSync()
	}
	return nil
}

// Sync flushes buffered frames and fsyncs the file.
func (j *Journal) Sync() error {
	if j.wedged {
		return ErrWedged
	}
	if j.unsynced == 0 {
		return nil
	}
	return j.flushSync()
}

// flushSync is the sync path shared by Append batching and Sync.
func (j *Journal) flushSync() error {
	if err := j.w.Flush(); err != nil {
		j.wedged = true
		return fmt.Errorf("store: flush: %w", err)
	}
	if j.opt.Inject.Fire(fault.JournalFsync) {
		// Crash before writeback: the flushed-but-unsynced batch never
		// reaches stable storage, so drop it from the file to model the
		// loss a power cut would cause.
		_ = j.f.Truncate(j.syncedBytes)
		j.bytes = j.syncedBytes
		j.records = j.syncedRecords
		j.wedged = true
		return fmt.Errorf("store: fsync: %w", fault.ErrInjected)
	}
	if err := j.f.Sync(); err != nil {
		j.wedged = true
		return fmt.Errorf("store: fsync: %w", err)
	}
	j.unsynced = 0
	j.syncedBytes = j.bytes
	j.syncedRecords = j.records
	return nil
}

// Close flushes, syncs, and closes the journal file. A wedged journal
// closes without flushing (its buffer is part of the simulated crash).
func (j *Journal) Close() error {
	if !j.wedged {
		if err := j.Sync(); err != nil {
			j.f.Close()
			return err
		}
	}
	return j.f.Close()
}

// Wedged reports whether the journal stopped accepting writes after a
// failure.
func (j *Journal) Wedged() bool { return j.wedged }

// Bytes returns the journal's intact size in bytes (excluding any
// unflushed buffer).
func (j *Journal) Bytes() int64 { return j.bytes }

// Records returns the number of records appended plus recovered.
func (j *Journal) Records() int { return j.records }

// Recovered returns how many intact records the opening scan read back.
func (j *Journal) Recovered() int { return j.recovered }

// TruncatedBytes returns how many torn-tail bytes the opening scan
// dropped.
func (j *Journal) TruncatedBytes() int64 { return j.truncated }
