// Package spill provides the temp-file layer under memory-bounded
// operators: append-only frame logs that hybrid-hash joins overflow
// whole partitions into when pier.Config.JoinMemBudget trips, read
// back for the recursive re-join passes after the in-memory pass
// drains. Frames reuse the wire.TupleFrame codec (the same layout all
// tuple-carrying engine traffic ships), buffers are pooled, and the
// directory lifecycle is crash-safe: every node writes under a
// PID-stamped directory and sweeps siblings left by dead processes.
package spill

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"

	"repro/internal/obs"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// DefaultBase is the spill root used when the caller configures none:
// a shared directory under the OS temp dir, inside which each Manager
// owns one PID-stamped subdirectory.
func DefaultBase() string { return filepath.Join(os.TempDir(), "pier-spill") }

// Manager owns one node's spill directory: files are created under
// it, and Close removes the whole tree. Creating a Manager sweeps
// stale sibling directories whose embedded PID no longer runs, so a
// crashed node's spill files cannot accumulate forever.
type Manager struct {
	dir string

	mu       sync.Mutex
	seq      int
	files    map[*File]struct{}
	closed   bool
	onCreate func(label string)

	// Written counts total bytes appended across all files (metrics).
	Written atomic.Int64
	// Created counts spill files ever opened.
	Created obs.Counter
	// Passes counts re-join passes over spilled partitions (fed by the
	// hybrid-hash operator, aggregated node-wide here).
	Passes obs.Counter
}

// SetCreateHook installs a callback invoked whenever a spill file is
// created (the node's spill-started event feed).
func (m *Manager) SetCreateHook(fn func(label string)) {
	m.mu.Lock()
	m.onCreate = fn
	m.mu.Unlock()
}

// RegisterMetrics attaches the manager's counters to a registry under
// spill_* series names.
func (m *Manager) RegisterMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.RegisterCounter("spill_files_created_total", &m.Created)
	reg.RegisterCounter("spill_passes_total", &m.Passes)
	reg.RegisterFunc("spill_written_bytes_total", func() float64 { return float64(m.Written.Load()) })
	reg.RegisterFunc("spill_open_files", func() float64 { return float64(m.FileCount()) })
}

// NewManager creates the node's spill directory under base (DefaultBase
// when empty) and sweeps crash leftovers.
func NewManager(base string) (*Manager, error) {
	if base == "" {
		base = DefaultBase()
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, fmt.Errorf("spill: create base %s: %w", base, err)
	}
	sweepStale(base)
	dir, err := os.MkdirTemp(base, fmt.Sprintf("pid%d-", os.Getpid()))
	if err != nil {
		return nil, fmt.Errorf("spill: create dir: %w", err)
	}
	return &Manager{dir: dir, files: make(map[*File]struct{})}, nil
}

// Dir returns the manager's directory.
func (m *Manager) Dir() string { return m.dir }

// sweepStale removes sibling spill directories owned by dead
// processes. Directory names embed the owning PID ("pid1234-xxxx");
// a PID that no longer accepts signal 0 is dead (or was recycled into
// a process we cannot signal — either way its spill files are trash
// to someone).
func sweepStale(base string) {
	entries, err := os.ReadDir(base)
	if err != nil {
		return
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		pid, ok := dirPID(e.Name())
		if !ok || pid == os.Getpid() || processAlive(pid) {
			continue
		}
		_ = os.RemoveAll(filepath.Join(base, e.Name()))
	}
}

// dirPID parses the owning PID out of a spill directory name.
func dirPID(name string) (int, bool) {
	if !strings.HasPrefix(name, "pid") {
		return 0, false
	}
	rest := name[3:]
	i := strings.IndexByte(rest, '-')
	if i <= 0 {
		return 0, false
	}
	pid, err := strconv.Atoi(rest[:i])
	if err != nil || pid <= 0 {
		return 0, false
	}
	return pid, true
}

// processAlive reports whether pid can be signalled (signal 0 probes
// existence without delivering anything).
func processAlive(pid int) bool {
	p, err := os.FindProcess(pid)
	if err != nil {
		return false
	}
	return p.Signal(syscall.Signal(0)) == nil
}

// Create opens a fresh spill file. The label lands in the filename
// for debuggability only.
func (m *Manager) Create(label string) (*File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, fmt.Errorf("spill: manager closed")
	}
	m.seq++
	name := filepath.Join(m.dir, fmt.Sprintf("%06d-%s.spill", m.seq, sanitize(label)))
	f, err := os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o600)
	if err != nil {
		return nil, fmt.Errorf("spill: create %s: %w", name, err)
	}
	sf := &File{mgr: m, path: name, f: f, w: bufio.NewWriterSize(f, 64<<10)}
	m.files[sf] = struct{}{}
	m.Created.Add(1)
	if m.onCreate != nil {
		m.onCreate(label)
	}
	return sf, nil
}

// sanitize keeps labels filesystem-safe.
func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '.':
			return r
		default:
			return '_'
		}
	}, s)
}

// Close removes every live file and the directory. Idempotent.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	files := make([]*File, 0, len(m.files))
	for f := range m.files {
		files = append(files, f)
	}
	m.files = nil
	m.mu.Unlock()
	for _, f := range files {
		f.close(false)
	}
	_ = os.RemoveAll(m.dir)
}

// forget drops a closed file from the registry.
func (m *Manager) forget(f *File) {
	m.mu.Lock()
	if m.files != nil {
		delete(m.files, f)
	}
	m.mu.Unlock()
}

// FileCount reports how many spill files are currently live (tests).
func (m *Manager) FileCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.files)
}

// ---------------------------------------------------------------------------
// File

// File is an append-only log of tuple frames belonging to one spilled
// partition. Each frame reuses the wire.TupleFrame codec with the
// Side byte carrying the joined flag: joined frames hold tuples whose
// join output was already emitted before the partition spilled, so a
// re-join pass inserts them with emission suppressed. After a pass
// the caller advances the joined watermark instead of rewriting
// frames — every frame before the watermark counts as joined.
type File struct {
	mgr  *Manager
	path string

	mu            sync.Mutex
	f             *os.File
	w             *bufio.Writer
	size          int64 // logical end (bytes framed so far)
	joinedThrough int64 // frames starting before this offset are joined
	closed        bool
}

// frameBufPool recycles frame encode/decode scratch buffers.
var frameBufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 16<<10); return &b },
}

// Append writes one frame of rows for (window, side) with the given
// joined flag, returning the bytes written.
func (f *File) Append(window uint64, side uint8, joined bool, rows []tuple.Tuple) (int64, error) {
	if len(rows) == 0 {
		return 0, nil
	}
	fr := wire.TupleFrame{Window: window, Stage: side}
	if joined {
		fr.Side = 1
	}
	w := wire.GetWriter()
	fr.EncodeHead(w, len(rows))
	tuple.AppendRecords(w, rows)
	body := w.Bytes()

	var hdr [binary.MaxVarintLen64]byte
	hn := binary.PutUvarint(hdr[:], uint64(len(body)))

	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		wire.PutWriter(w)
		return 0, fmt.Errorf("spill: %s closed", f.path)
	}
	if _, err := f.w.Write(hdr[:hn]); err != nil {
		wire.PutWriter(w)
		return 0, err
	}
	if _, err := f.w.Write(body); err != nil {
		wire.PutWriter(w)
		return 0, err
	}
	n := int64(hn + len(body))
	f.size += n
	wire.PutWriter(w)
	f.mgr.Written.Add(n)
	return n, nil
}

// Size returns the logical size (bytes appended so far).
func (f *File) Size() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.size
}

// MarkJoined advances the joined watermark to the current end: every
// frame written so far becomes joined, so a later pass re-inserts its
// tuples without re-emitting their pairs.
func (f *File) MarkJoined() {
	f.mu.Lock()
	f.joinedThrough = f.size
	f.mu.Unlock()
}

// HasUnjoined reports whether any frame past the watermark exists —
// i.e. a re-join pass over this file could emit new output.
func (f *File) HasUnjoined() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.size > f.joinedThrough
}

// Close flushes, closes, and deletes the file. Idempotent.
func (f *File) Close() { f.close(true) }

func (f *File) close(forget bool) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	_ = f.w.Flush()
	_ = f.f.Close()
	_ = os.Remove(f.path)
	f.mu.Unlock()
	if forget {
		f.mgr.forget(f)
	}
}

// NewReader flushes pending writes and opens a sequential reader over
// the frames written so far. The caller must not run reads and
// appends concurrently for the same pass (the join operator is single
// threaded per stage, so it never does).
func (f *File) NewReader() (*Reader, error) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil, fmt.Errorf("spill: %s closed", f.path)
	}
	if err := f.w.Flush(); err != nil {
		f.mu.Unlock()
		return nil, err
	}
	end, joinedThrough := f.size, f.joinedThrough
	f.mu.Unlock()
	rf, err := os.Open(f.path)
	if err != nil {
		return nil, err
	}
	buf := frameBufPool.Get().(*[]byte)
	return &Reader{
		f:             rf,
		br:            bufio.NewReaderSize(rf, 64<<10),
		end:           end,
		joinedThrough: joinedThrough,
		buf:           buf,
	}, nil
}

// Frame is one decoded spill frame.
type Frame struct {
	Window uint64
	Side   uint8
	// Joined: the frame's tuples already had their join output emitted
	// (spilled resident state, or any frame behind the watermark).
	Joined bool
	Rows   []tuple.Tuple
}

// Reader iterates a file's frames in append order.
type Reader struct {
	f             *os.File
	br            *bufio.Reader
	off           int64
	end           int64
	joinedThrough int64
	buf           *[]byte
	closed        bool
}

// Next returns the next frame, or io.EOF past the end snapshot.
func (r *Reader) Next() (Frame, error) {
	if r.off >= r.end {
		return Frame{}, io.EOF
	}
	start := r.off
	n, err := binary.ReadUvarint(r.br)
	if err != nil {
		return Frame{}, fmt.Errorf("spill: frame header at %d: %w", r.off, err)
	}
	hn := uvarintLen(n)
	if int64(n) > r.end-r.off-int64(hn) {
		return Frame{}, fmt.Errorf("spill: frame of %d bytes overruns file", n)
	}
	body := *r.buf
	if cap(body) < int(n) {
		body = make([]byte, n)
		*r.buf = body
	}
	body = body[:n]
	if _, err := io.ReadFull(r.br, body); err != nil {
		return Frame{}, err
	}
	r.off += int64(hn) + int64(n)
	var fr wire.TupleFrame
	var rd wire.Reader
	rd.Reset(body)
	rows, err := fr.DecodeHead(&rd)
	if err != nil {
		return Frame{}, err
	}
	out := Frame{
		Window: fr.Window,
		Side:   fr.Stage,
		Joined: fr.Side == 1 || start < r.joinedThrough,
	}
	// The rows share one arena; their values are copied out of body,
	// which the next frame reuses.
	var d tuple.Decoder
	d.ReserveFrame(&rd, rows)
	if out.Rows, err = d.DecodeRecords(&rd, rows, -1, make([]tuple.Tuple, 0, rows)); err == nil {
		err = rd.Done()
	}
	if err != nil {
		return Frame{}, err
	}
	return out, nil
}

// uvarintLen returns the encoded length of v.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// Close releases the reader.
func (r *Reader) Close() {
	if r.closed {
		return
	}
	r.closed = true
	_ = r.f.Close()
	if r.buf != nil && cap(*r.buf) <= 1<<20 {
		frameBufPool.Put(r.buf)
	}
}
