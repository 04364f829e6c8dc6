// Package wire implements the compact binary encoding used for all
// messages and tuples exchanged between nodes. It is hand-rolled (no
// reflection) so encode/decode costs stay predictable on the hot
// message path, and every frame is explicitly versioned and
// length-checked so a corrupt or truncated datagram fails cleanly
// rather than panicking.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"time"
)

// ErrTruncated is returned when a buffer ends before the value the
// decoder was asked for.
var ErrTruncated = errors.New("wire: truncated buffer")

// ErrTooLong is returned when a length prefix exceeds MaxLen.
var ErrTooLong = errors.New("wire: length prefix exceeds limit")

// MaxLen bounds any single length-prefixed field. It protects decoders
// from allocating huge buffers on corrupt input.
const MaxLen = 16 << 20

// Writer appends primitive values to a byte slice. The zero value is
// ready to use.
type Writer struct {
	buf []byte
}

// NewWriter returns a Writer with capacity hint n.
func NewWriter(n int) *Writer {
	return &Writer{buf: make([]byte, 0, n)}
}

// Bytes returns the encoded buffer. The Writer must not be reused
// while the result is alive unless the caller copies it.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// Reset truncates the writer for reuse.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// writerPool recycles Writers for the encode hot paths (tuple hash
// keys, batch encodes) so steady-state encoding allocates nothing.
var writerPool = sync.Pool{
	New: func() any { return &Writer{buf: make([]byte, 0, 512)} },
}

// pooledWriterMaxCap bounds the buffers the pool retains: a writer
// that grew past this (one giant frame) is dropped rather than pinned.
const pooledWriterMaxCap = 64 << 10

// GetWriter returns an empty Writer from the pool. The caller must
// finish with the buffer (or copy it out) before PutWriter — pooled
// buffers are reused and must never outlive the checkout.
func GetWriter() *Writer {
	w := writerPool.Get().(*Writer)
	w.buf = w.buf[:0]
	return w
}

// PutWriter recycles w. Any slice obtained from w.Bytes() is invalid
// after this call.
func PutWriter(w *Writer) {
	if cap(w.buf) > pooledWriterMaxCap {
		return
	}
	writerPool.Put(w)
}

// Byte appends a single byte.
func (w *Writer) Byte(b byte) { w.buf = append(w.buf, b) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// Uvarint appends an unsigned varint.
func (w *Writer) Uvarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}

// UvarintLen is the number of bytes Uvarint appends for v.
func UvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// Varint appends a signed varint (zigzag).
func (w *Writer) Varint(v int64) {
	w.buf = binary.AppendVarint(w.buf, v)
}

// Uint64 appends a fixed-width big-endian uint64.
func (w *Writer) Uint64(v uint64) {
	w.buf = binary.BigEndian.AppendUint64(w.buf, v)
}

// Uint32 appends a fixed-width big-endian uint32.
func (w *Writer) Uint32(v uint32) {
	w.buf = binary.BigEndian.AppendUint32(w.buf, v)
}

// Float64 appends an IEEE-754 double.
func (w *Writer) Float64(v float64) {
	w.Uint64(math.Float64bits(v))
}

// Bytes appends a length-prefixed byte slice.
func (w *Writer) BytesLP(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Raw appends b with no prefix; the reader must know the width.
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// Time appends a time as Unix nanoseconds (varint). The zero time is
// encoded as math.MinInt64 so it round-trips exactly.
func (w *Writer) Time(t time.Time) {
	if t.IsZero() {
		w.Varint(math.MinInt64)
		return
	}
	w.Varint(t.UnixNano())
}

// Duration appends a duration as a varint of nanoseconds.
func (w *Writer) Duration(d time.Duration) { w.Varint(int64(d)) }

// Reader consumes primitive values from a byte slice. Methods return
// an error rather than panicking on truncated input; once an error is
// returned the Reader is poisoned and subsequent reads return the same
// error.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps buf for decoding.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Reset re-arms the reader over a new buffer, clearing any poison —
// decode loops reuse one Reader across many payloads instead of
// allocating one each.
func (r *Reader) Reset(buf []byte) {
	r.buf = buf
	r.off = 0
	r.err = nil
}

// Err returns the first error encountered, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Done returns nil if the reader consumed the whole buffer without
// error, and a descriptive error otherwise. Call it at the end of a
// frame decode to reject trailing garbage.
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("wire: %d trailing bytes", len(r.buf)-r.off)
	}
	return nil
}

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.buf) {
		r.fail(ErrTruncated)
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

// Bool reads one boolean byte.
func (r *Reader) Bool() bool { return r.Byte() != 0 }

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail(ErrTruncated)
		return 0
	}
	r.off += n
	return v
}

// Varint reads a signed varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.fail(ErrTruncated)
		return 0
	}
	r.off += n
	return v
}

// Uint64 reads a fixed-width big-endian uint64.
func (r *Reader) Uint64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.Remaining() < 8 {
		r.fail(ErrTruncated)
		return 0
	}
	v := binary.BigEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

// Uint32 reads a fixed-width big-endian uint32.
func (r *Reader) Uint32() uint32 {
	if r.err != nil {
		return 0
	}
	if r.Remaining() < 4 {
		r.fail(ErrTruncated)
		return 0
	}
	v := binary.BigEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

// Float64 reads an IEEE-754 double.
func (r *Reader) Float64() float64 {
	return math.Float64frombits(r.Uint64())
}

// BytesLP reads a length-prefixed byte slice. The result aliases the
// underlying buffer; callers that retain it across buffer reuse must
// copy.
func (r *Reader) BytesLP() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > MaxLen {
		r.fail(ErrTooLong)
		return nil
	}
	if uint64(r.Remaining()) < n {
		r.fail(ErrTruncated)
		return nil
	}
	b := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	return b
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	return string(r.BytesLP())
}

// Raw reads exactly n bytes with no prefix.
func (r *Reader) Raw(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.Remaining() < n {
		r.fail(ErrTruncated)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// Time reads a time written by Writer.Time.
func (r *Reader) Time() time.Time {
	ns := r.Varint()
	if r.err != nil || ns == math.MinInt64 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// Duration reads a duration.
func (r *Reader) Duration() time.Duration {
	return time.Duration(r.Varint())
}

// Hash64 maps a byte string onto 64 bits: FNV-1a with a splitmix64
// finisher for avalanche (FNV alone biases the low bits HLL's rho
// computation reads). Deterministic across nodes — sketches built on
// different machines must agree on hashes to merge, and so must the
// senders of a distributed join (physical.RehashPartition) and every
// reader of one stored row (tuple.RowID).
func Hash64(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	// splitmix64 finisher.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}
