// Package runstore is the durable run history: an append-only, CRC'd,
// crash-safe log of completed runs (anneals, sweeps, evals) shared by
// orpd, the batch CLIs and the orphist query tool.
//
// The on-disk format is deliberately boring: one file, runs.orplog, of
// concatenated ckpt envelopes (magic + version + kind + length + payload
// + CRC-32C), one record per envelope. There is no separate index file
// to drift out of sync — the index is rebuilt by scanning the log on
// open. Appends are a single write + fsync, so a crash can at worst
// leave one torn record at the tail, which the scan detects (the CRC
// fails or the file ends early) and skips with a counted warning; it
// never yields a partial record. Foreign or future record versions are
// skipped by envelope extent the same way, so files survive binary
// upgrades in both directions.
package runstore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/ckpt"
)

// LogName is the log's file name inside a store directory.
const LogName = "runs.orplog"

// envelope header geometry (mirrors ckpt.Seal): magic(4) + version(4) +
// kindlen(4) + kind + paylen(8) + payload + crc(4).
const (
	magicStr   = "ORPC"
	headerMin  = 4 + 4 + 4 + 8 + 4
	maxKindLen = 128
)

// Stats summarizes a store's health after the open scan.
type Stats struct {
	// Records is the number of live, valid records.
	Records int `json:"records"`
	// SkippedRecords counts regions the scan could not accept: torn
	// tails, CRC mismatches, foreign record kinds.
	SkippedRecords int `json:"skippedRecords,omitempty"`
	// SkippedBytes is the total size of those regions.
	SkippedBytes int64 `json:"skippedBytes,omitempty"`
	// Bytes is the log's on-disk size.
	Bytes int64 `json:"bytes"`
}

// Store is a run-history handle. All methods are safe for concurrent
// use. Every method is also nil-receiver-safe in its read forms so call
// sites can thread an optional store without branching; the one write
// entry point designed for hot paths, AppendRun, is nil-safe too and
// skips building the record entirely.
type Store struct {
	// wmu serializes the writers (Append, Compact, Close) and guards f;
	// mu guards the index and counters and is never held across file
	// I/O by Append, so lookups do not wait for an append's fsync.
	wmu  sync.Mutex
	mu   sync.Mutex
	dir  string
	path string
	f    *os.File // nil when opened read-only
	next uint64   // next record sequence number

	recs  []Record
	byID  map[string]int
	byKey map[string]int // latest record per cache key

	skippedRecords int
	skippedBytes   int64
	bytes          int64
}

// Open opens (creating if absent) the store in dir for reading and
// appending. The existing log, if any, is scanned to rebuild the index;
// corrupt or foreign regions are skipped and counted in Stats, never
// fatal — a store must stay usable after a crash mid-append.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runstore: %w", err)
	}
	s, err := load(dir)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(s.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("runstore: %w", err)
	}
	s.f = f
	return s, nil
}

// OpenRead opens the store in dir read-only. A missing directory or log
// yields an empty store, not an error: "no history yet" is a normal
// state for every query tool.
func OpenRead(dir string) (*Store, error) {
	return load(dir)
}

func load(dir string) (*Store, error) {
	s := &Store{
		dir:   dir,
		path:  filepath.Join(dir, LogName),
		next:  1,
		byID:  make(map[string]int),
		byKey: make(map[string]int),
	}
	data, err := os.ReadFile(s.path)
	if err != nil {
		if os.IsNotExist(err) {
			return s, nil
		}
		return nil, fmt.Errorf("runstore: %w", err)
	}
	s.bytes = int64(len(data))
	s.scan(data)
	return s, nil
}

// scan walks the log, accepting every valid record and resyncing past
// anything else. It must never panic and never accept a torn record,
// whatever the bytes — the package fuzz test pins that down.
func (s *Store) scan(data []byte) {
	off := 0
	for off < len(data) {
		ext, ok := envelopeExtent(data[off:])
		if !ok {
			// No parseable envelope here: resync at the next magic.
			skip := nextMagic(data[off+1:])
			if skip < 0 {
				s.skip(len(data) - off)
				return
			}
			s.skip(1 + skip)
			off += 1 + skip
			continue
		}
		kind, payload, err := ckpt.Open(data[off : off+ext])
		if err != nil || kind != RecordKind {
			s.skip(ext)
			off += ext
			continue
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			s.skip(ext)
			off += ext
			continue
		}
		s.index(rec)
		if seq, ok := parseID(rec.ID); ok && seq >= s.next {
			s.next = seq + 1
		}
		off += ext
	}
}

func (s *Store) skip(n int) {
	s.skippedRecords++
	s.skippedBytes += int64(n)
}

// envelopeExtent computes the total byte length of the envelope starting
// at data[0] from its header fields alone, without trusting them further
// than bounds checks — the CRC inside ckpt.Open is what validates the
// contents.
func envelopeExtent(data []byte) (int, bool) {
	if len(data) < headerMin || string(data[:4]) != magicStr {
		return 0, false
	}
	kl := int(uint32(data[8]) | uint32(data[9])<<8 | uint32(data[10])<<16 | uint32(data[11])<<24)
	if kl > maxKindLen || len(data) < 12+kl+8 {
		return 0, false
	}
	plOff := 12 + kl
	pl := uint64(data[plOff]) | uint64(data[plOff+1])<<8 | uint64(data[plOff+2])<<16 |
		uint64(data[plOff+3])<<24 | uint64(data[plOff+4])<<32 | uint64(data[plOff+5])<<40 |
		uint64(data[plOff+6])<<48 | uint64(data[plOff+7])<<56
	if pl > ckpt.MaxPayload {
		return 0, false
	}
	ext := plOff + 8 + int(pl) + 4
	if len(data) < ext {
		return 0, false
	}
	return ext, true
}

func nextMagic(data []byte) int {
	return bytes.Index(data, []byte(magicStr))
}

func parseID(id string) (uint64, bool) {
	if len(id) < 2 || id[0] != 'r' {
		return 0, false
	}
	var n uint64
	for i := 1; i < len(id); i++ {
		c := id[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + uint64(c-'0')
	}
	return n, true
}

func (s *Store) index(rec Record) {
	s.recs = append(s.recs, rec)
	i := len(s.recs) - 1
	s.byID[rec.ID] = i
	if rec.Key != "" {
		s.byKey[rec.Key] = i
	}
}

// Append assigns the record an ID, writes its envelope to the log and
// fsyncs before returning — once Append returns nil, the record survives
// a crash. The assigned ID is written back into rec.
func (s *Store) Append(rec *Record) error {
	if s == nil {
		return nil
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.f == nil {
		return fmt.Errorf("runstore: store is read-only")
	}
	s.mu.Lock()
	rec.ID = fmt.Sprintf("r%08d", s.next)
	s.mu.Unlock()
	env := ckpt.Seal(RecordKind, rec.encode())
	if _, err := s.f.Write(env); err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.next++
	s.bytes += int64(len(env))
	s.index(*rec)
	return nil
}

// AppendRun is the hot-path append: build constructs the record only
// when a store is actually configured. With a nil receiver it returns
// immediately without calling build — the disabled path costs nothing
// and allocates nothing.
func (s *Store) AppendRun(build func() Record) error {
	if s == nil {
		return nil
	}
	rec := build()
	return s.Append(&rec)
}

// Records returns a copy of the live records in log order.
func (s *Store) Records() []Record {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Record(nil), s.recs...)
}

// Recent returns the records sorted newest-first, at most limit of them
// (limit <= 0 means all).
func (s *Store) Recent(limit int) []Record {
	recs := s.Records()
	sortByUnix(recs)
	if limit > 0 && len(recs) > limit {
		recs = recs[:limit]
	}
	return recs
}

// Get returns the record with the given ID.
func (s *Store) Get(id string) (Record, bool) {
	if s == nil {
		return Record{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if i, ok := s.byID[id]; ok {
		return s.recs[i], true
	}
	return Record{}, false
}

// LookupResult returns the stored result bytes for a cache key — the
// latest record that carried that key — or nil. This is the restart-warm
// path of the orpd result cache: the bytes are exactly what the original
// run served, so replies stay byte-identical across process restarts.
func (s *Store) LookupResult(key string) []byte {
	if s == nil || key == "" {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if i, ok := s.byKey[key]; ok {
		return s.recs[i].Result
	}
	return nil
}

// Len returns the number of live records.
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.recs)
}

// Stats reports the store's scan and size counters.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Records:        len(s.recs),
		SkippedRecords: s.skippedRecords,
		SkippedBytes:   s.skippedBytes,
		Bytes:          s.bytes,
	}
}

// Dir returns the store directory ("" for a nil store).
func (s *Store) Dir() string {
	if s == nil {
		return ""
	}
	return s.dir
}

// Compact rewrites the log with only the live records — corrupt regions
// and skipped bytes are dropped — using the same atomic temp + fsync +
// rename discipline as ckpt.WriteFile. Record IDs are preserved. The
// store must be writable.
func (s *Store) Compact() error {
	if s == nil {
		return nil
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return fmt.Errorf("runstore: store is read-only")
	}
	tmp, err := os.CreateTemp(s.dir, LogName+".tmp*")
	if err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	defer os.Remove(tmp.Name())
	var total int64
	for i := range s.recs {
		env := ckpt.Seal(RecordKind, s.recs[i].encode())
		if _, err := tmp.Write(env); err != nil {
			tmp.Close()
			return fmt.Errorf("runstore: %w", err)
		}
		total += int64(len(env))
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("runstore: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.path); err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	if d, err := os.Open(s.dir); err == nil {
		d.Sync()
		d.Close()
	}
	// Reopen the append handle on the new file: the old descriptor still
	// points at the unlinked pre-compaction inode.
	s.f.Close()
	f, err := os.OpenFile(s.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		s.f = nil
		return fmt.Errorf("runstore: %w", err)
	}
	s.f = f
	s.bytes = total
	s.skippedRecords = 0
	s.skippedBytes = 0
	return nil
}

// Close releases the append handle. Read-only and nil stores are no-ops.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	if err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	return nil
}

// sortByUnix orders records newest-first, breaking timestamp ties by
// descending sequence so the order is total and stable.
func sortByUnix(recs []Record) {
	sort.SliceStable(recs, func(i, j int) bool {
		if recs[i].Unix != recs[j].Unix {
			return recs[i].Unix > recs[j].Unix
		}
		si, _ := parseID(recs[i].ID)
		sj, _ := parseID(recs[j].ID)
		return si > sj
	})
}
