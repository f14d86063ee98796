// Package runlog implements the crash-safe on-disk journal of a grid
// run: a run directory holding a manifest (the grid's identity, written
// atomically in dagtrace's tmp+rename style) and an append-only log of
// per-cell records, one self-checksummed JSON line each.
//
// The format is built for the failure modes of long runs. A crash, OOM
// or SIGKILL can truncate at most the line being written when the
// process died: every line carries an FNV-64a checksum of its payload,
// so Open recognizes the damaged tail, drops it, truncates the file back
// to the last valid record and keeps everything before it. Records are
// never rewritten — a cell's history is the sequence of its records
// (running → done, or running → failed → running → ...), and Reduce
// folds that history into one CellState per cell, with attempt counts
// and quarantine totals preserved across process restarts.
//
// A record's Key is the caller's inputs-fingerprint for the cell —
// everything that determines the cell's simulated results. Resume
// logic must only trust a done record whose Key matches the fingerprint
// it would compute today; a journal whose manifest or keys disagree
// belongs to a different run and is rejected, not silently reused.
package runlog

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"slices"
	"sync"
)

// Version is the journal format version written to manifests. Open
// rejects other versions — the format is append-only per version, never
// silently migrated. Version 2 changed the cell keys (a full-scale cell's
// recording is keyed like any other cell's), so a version 1 journal is
// refused rather than re-running every cell as if its keys were stale.
const Version = 2

const (
	manifestName = "manifest.json"
	logName      = "cells.log"
)

// Manifest is the identity of a grid run: the inputs that determine the
// cell lineup and every cell's simulated results. Resuming a journal
// whose manifest does not Match the grid being requested is an error.
type Manifest struct {
	Version int      `json:"version"`
	Profile string   `json:"profile"`
	Machine string   `json:"machine"`
	Seed    uint64   `json:"seed"`
	Kernels []string `json:"kernels"`
	Scheds  []string `json:"scheds"`
	Bands   []int    `json:"bands"`
	Cells   int      `json:"cells"`
}

// Match reports whether m (a journal's manifest) describes the same grid
// as want; the error names the first field that disagrees.
func (m *Manifest) Match(want *Manifest) error {
	switch {
	case m.Version != want.Version:
		return fmt.Errorf("runlog: journal format v%d, this binary writes v%d", m.Version, want.Version)
	case m.Profile != want.Profile:
		return fmt.Errorf("runlog: journal is for profile %q, not %q", m.Profile, want.Profile)
	case m.Machine != want.Machine:
		return fmt.Errorf("runlog: journal is for machine %q, not %q", m.Machine, want.Machine)
	case m.Seed != want.Seed:
		return fmt.Errorf("runlog: journal is for seed %d, not %d", m.Seed, want.Seed)
	case !slices.Equal(m.Kernels, want.Kernels):
		return fmt.Errorf("runlog: journal is for kernels %v, not %v", m.Kernels, want.Kernels)
	case !slices.Equal(m.Scheds, want.Scheds):
		return fmt.Errorf("runlog: journal is for schedulers %v, not %v", m.Scheds, want.Scheds)
	case !slices.Equal(m.Bands, want.Bands):
		return fmt.Errorf("runlog: journal is for bandwidths %v, not %v", m.Bands, want.Bands)
	case m.Cells != want.Cells:
		return fmt.Errorf("runlog: journal holds %d cells, grid has %d", m.Cells, want.Cells)
	}
	return nil
}

// CellID names one grid cell; it is the log's per-cell aggregation key.
type CellID struct {
	Kernel string `json:"kernel"`
	Sched  string `json:"sched"`
	Links  int    `json:"links"`
}

func (c CellID) String() string { return fmt.Sprintf("%s/%s/bw=%d", c.Kernel, c.Sched, c.Links) }

// Status is a cell record's lifecycle state.
type Status string

const (
	// StatusRunning marks a dispatched attempt. A journal whose last word
	// on a cell is "running" recorded a crash mid-cell; resume treats the
	// cell as pending.
	StatusRunning Status = "running"
	// StatusDone marks a completed cell; the record carries the result
	// payload and is terminal.
	StatusDone Status = "done"
	// StatusFailed marks a failed attempt; the cell may be retried.
	StatusFailed Status = "failed"
)

func validStatus(s Status) bool {
	return s == StatusRunning || s == StatusDone || s == StatusFailed
}

// Record is one journal line: an event in some cell's attempt history.
type Record struct {
	Seq     int    `json:"seq"` // assigned by Append, 1-based, monotonic
	Cell    CellID `json:"cell"`
	Key     string `json:"key"` // inputs-fingerprint of the cell
	Status  Status `json:"status"`
	Attempt int    `json:"attempt"` // 1-based attempt number
	// UnixMS is an optional host timestamp in milliseconds, for operators
	// reading the journal; nothing decision-making reads it.
	UnixMS int64 `json:"unix_ms,omitempty"`
	// Error is the attempt's failure, for failed records.
	Error string `json:"error,omitempty"`
	// Quarantined marks a failed attempt that also evicted the cell's
	// cached recording before the retry.
	Quarantined bool `json:"quarantined,omitempty"`
	// Degraded marks an attempt run in degraded mode (serialized, shrunken
	// window) because the shared decoder budget could not admit it.
	Degraded bool `json:"degraded,omitempty"`
	// Report is the cell's result payload, for done records. The journal
	// treats it as opaque bytes; the supervisor stores its cell report.
	Report json.RawMessage `json:"report,omitempty"`
}

// Journal is an open run journal. Append is safe for concurrent use.
type Journal struct {
	dir string

	mu  sync.Mutex
	f   *os.File
	seq int

	// Dropped counts invalid trailing bytes discarded by Open — the
	// damaged tail of a crashed write, truncated away before appending.
	Dropped int
}

// Exists reports whether dir already holds a journal (manifest or log).
func Exists(dir string) bool {
	for _, n := range []string{manifestName, logName} {
		if _, err := os.Stat(filepath.Join(dir, n)); err == nil {
			return true
		}
	}
	return false
}

// Create initializes a fresh journal in dir, writing the manifest
// atomically. It refuses a directory that already holds a journal —
// resuming must be an explicit Open, never an accidental overwrite.
func Create(dir string, m *Manifest) (*Journal, error) {
	if m == nil || m.Cells <= 0 {
		return nil, fmt.Errorf("runlog: manifest must describe at least one cell")
	}
	if Exists(dir) {
		return nil, fmt.Errorf("runlog: %s already holds a journal; open it for resume instead", dir)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runlog: %w", err)
	}
	mm := *m
	mm.Version = Version
	if err := writeManifest(filepath.Join(dir, manifestName), &mm); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, logName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("runlog: %w", err)
	}
	return &Journal{dir: dir, f: f}, nil
}

// Open loads the journal in dir: the manifest, and every valid record in
// log order. A checksum-invalid or truncated tail (the footprint of a
// crash mid-write) is counted in Journal.Dropped and truncated away, so
// subsequent Appends extend a clean prefix. The returned journal is
// positioned for appending with the sequence counter continued.
func Open(dir string) (*Journal, *Manifest, []Record, error) {
	man, err := readManifest(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, nil, nil, err
	}
	logPath := filepath.Join(dir, logName)
	data, err := os.ReadFile(logPath)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, nil, fmt.Errorf("runlog: %w", err)
	}
	recs, valid := scanRecords(data)
	if valid < int64(len(data)) {
		if err := os.Truncate(logPath, valid); err != nil {
			return nil, nil, nil, fmt.Errorf("runlog: truncating damaged tail: %w", err)
		}
	}
	f, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("runlog: %w", err)
	}
	j := &Journal{dir: dir, f: f, Dropped: len(data) - int(valid)}
	for _, r := range recs {
		if r.Seq > j.seq {
			j.seq = r.Seq
		}
	}
	return j, man, recs, nil
}

// Dir returns the journal's run directory.
func (j *Journal) Dir() string { return j.dir }

// Append assigns the record the next sequence number, writes it as one
// checksummed line and syncs the file — a record that Append returned
// nil for survives any subsequent crash.
func (j *Journal) Append(r *Record) error {
	if !validStatus(r.Status) {
		return fmt.Errorf("runlog: append with invalid status %q", r.Status)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("runlog: append on closed journal")
	}
	j.seq++
	r.Seq = j.seq
	line, err := encodeLine(r)
	if err != nil {
		j.seq--
		return err
	}
	if _, err := j.f.Write(line); err != nil {
		return fmt.Errorf("runlog: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("runlog: %w", err)
	}
	return nil
}

// Close releases the journal's log file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// CellState is a cell's attempt history folded to its current state.
type CellState struct {
	Cell        CellID
	Key         string
	Status      Status
	Attempts    int // highest attempt number seen
	Quarantines int
	LastError   string
	Report      json.RawMessage // result payload of the done record
}

// Reduce folds records (in log order) into one state per cell: done is
// terminal and carries its payload; otherwise the latest record wins.
func Reduce(recs []Record) map[CellID]*CellState {
	out := make(map[CellID]*CellState)
	for i := range recs {
		r := &recs[i]
		s := out[r.Cell]
		if s == nil {
			s = &CellState{Cell: r.Cell}
			out[r.Cell] = s
		}
		if r.Attempt > s.Attempts {
			s.Attempts = r.Attempt
		}
		if r.Quarantined {
			s.Quarantines++
		}
		if s.Status == StatusDone {
			continue
		}
		s.Key = r.Key
		s.Status = r.Status
		switch r.Status {
		case StatusDone:
			s.Report = r.Report
			s.LastError = ""
		case StatusFailed:
			s.LastError = r.Error
		}
	}
	return out
}

// --- wire format -------------------------------------------------------------

// encodeLine renders a record as "<fnv64a-hex> <payload-json>\n". The
// checksum covers exactly the payload bytes, so any torn or bit-rotted
// line is detectable in isolation while the file stays greppable.
func encodeLine(r *Record) ([]byte, error) {
	payload, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("runlog: %w", err)
	}
	var b bytes.Buffer
	b.Grow(len(payload) + 18)
	fmt.Fprintf(&b, "%016x ", sum64(payload))
	b.Write(payload)
	b.WriteByte('\n')
	return b.Bytes(), nil
}

// decodeLine parses one checksummed journal line (without the trailing
// newline) back into a record.
func decodeLine(line []byte) (*Record, error) {
	if len(line) < 18 || line[16] != ' ' {
		return nil, fmt.Errorf("runlog: short or unframed record line")
	}
	var want uint64
	if _, err := fmt.Sscanf(string(line[:16]), "%016x", &want); err != nil {
		return nil, fmt.Errorf("runlog: bad checksum field: %w", err)
	}
	payload := line[17:]
	if got := sum64(payload); got != want {
		return nil, fmt.Errorf("runlog: record checksum mismatch (want %016x, payload sums to %016x)", want, got)
	}
	var r Record
	if err := json.Unmarshal(payload, &r); err != nil {
		return nil, fmt.Errorf("runlog: %w", err)
	}
	if !validStatus(r.Status) {
		return nil, fmt.Errorf("runlog: record with invalid status %q", r.Status)
	}
	if r.Seq < 1 || r.Attempt < 0 {
		return nil, fmt.Errorf("runlog: record with invalid seq %d / attempt %d", r.Seq, r.Attempt)
	}
	return &r, nil
}

// scanRecords decodes the valid prefix of a log: every checksummed line
// up to the first damaged or truncated one, plus the byte offset where
// that valid prefix ends.
func scanRecords(data []byte) ([]Record, int64) {
	var (
		recs  []Record
		valid int64
	)
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64<<10), maxLineBytes)
	for sc.Scan() {
		line := sc.Bytes()
		end := valid + int64(len(line)) + 1 // +1: the newline Scan strips
		if end > int64(len(data)) {
			break // final line has no newline: a torn write
		}
		r, err := decodeLine(line)
		if err != nil {
			break
		}
		recs = append(recs, *r)
		valid = end
	}
	return recs, valid
}

// maxLineBytes bounds one journal line; a cell report is a few KB, so
// 4MB is beyond any legitimate record and within any scanner buffer.
const maxLineBytes = 4 << 20

func sum64(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// writeManifest writes the manifest atomically (tmp + rename), so a
// crash mid-write can never leave a half manifest: the directory either
// has the old file or the new one.
func writeManifest(path string, m *Manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("runlog: %w", err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("runlog: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("runlog: %w", err)
	}
	return nil
}

func readManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("runlog: %w", err)
	}
	m, err := decodeManifest(data)
	if err != nil {
		return nil, fmt.Errorf("runlog: %s: %w", path, err)
	}
	return m, nil
}

// decodeManifest parses and validates manifest bytes.
func decodeManifest(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, err
	}
	if m.Version != Version {
		return nil, fmt.Errorf("journal format v%d, this binary reads v%d", m.Version, Version)
	}
	if m.Cells <= 0 || len(m.Kernels) == 0 || len(m.Scheds) == 0 {
		return nil, fmt.Errorf("manifest describes no cells")
	}
	return &m, nil
}
