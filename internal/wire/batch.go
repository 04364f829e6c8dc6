package wire

import (
	"errors"
	"fmt"
)

// Batch frames coalesce many logical routed records into one overlay
// message: a single versioned header followed by a length-prefixed
// record list. Each record carries its own routing key, tag, and
// payload so the receiver can demultiplex and fire the normal
// per-record delivery upcalls. The frame exists purely to amortize
// per-message routing cost (headers, hops, datagrams) over many small
// records on the rehash/put hot paths.

// batchVersion guards the frame layout; bump on any change.
const batchVersion = 1

// MaxBatchRecords bounds the record-count prefix so a corrupt frame
// cannot force a huge allocation.
const MaxBatchRecords = 1 << 16

// maxBatchTags bounds a BatchReader's table of distinct tags: a
// frame's records share a tag or two, so each distinct tag is allocated
// once per frame, and a corrupt frame of distinct tags cannot grow it
// (past it, every record's tag is a string of its own).
const maxBatchTags = 8

// ErrBadBatch is returned for frames with an unknown version or an
// absurd record count.
var ErrBadBatch = errors.New("wire: malformed batch frame")

// BatchRecord is one logical routed message inside a batch frame. Key
// is the record's own routing key (raw identifier bytes; the id
// package's width, but wire stays width-agnostic).
type BatchRecord struct {
	Key     []byte
	Tag     string
	Payload []byte
}

// BatchBuilder builds a batch frame a record at a time: each record is
// encoded once, into pooled scratch, as it arrives, and Frame returns
// the frame in one allocation of its exact size. The zero value is an
// empty frame; Release hands the scratch back.
type BatchBuilder struct {
	w *Writer // the records so far, nil before the first
	n int
}

// Add appends one record.
func (b *BatchBuilder) Add(key []byte, tag string, payload []byte) {
	if b.w == nil {
		b.w = GetWriter()
	}
	b.w.BytesLP(key)
	b.w.String(tag)
	b.w.BytesLP(payload)
	b.n++
}

// Len is the number of records added.
func (b *BatchBuilder) Len() int { return b.n }

// Frame returns the records added so far as a frame of its own, the
// bytes BatchBytes makes of them.
func (b *BatchBuilder) Frame() []byte {
	var body []byte
	if b.w != nil {
		body = b.w.Bytes()
	}
	w := Writer{buf: make([]byte, 0, 1+UvarintLen(uint64(b.n))+len(body))}
	w.Byte(batchVersion)
	w.Uvarint(uint64(b.n))
	w.Raw(body)
	return w.buf
}

// Release empties the builder and returns its scratch to the pool.
func (b *BatchBuilder) Release() {
	if b.w != nil {
		PutWriter(b.w)
	}
	*b = BatchBuilder{}
}

// BatchRecordSize bounds one record's encoded size (three length
// prefixes of up to 4 bytes each plus the fields). Byte-budget
// accounting in callers must use this rather than re-deriving the
// layout, so it stays correct if the frame format changes.
func BatchRecordSize(rec BatchRecord) int {
	return len(rec.Key) + len(rec.Tag) + len(rec.Payload) + 12
}

// BatchBytes encodes recs as a standalone frame.
func BatchBytes(recs []BatchRecord) []byte {
	var b BatchBuilder
	for _, rec := range recs {
		b.Add(rec.Key, rec.Tag, rec.Payload)
	}
	frame := b.Frame()
	b.Release()
	return frame
}

// BatchReader reads a frame written by BatchBuilder record by record,
// allocating nothing but each distinct tag's string. Records alias the
// frame.
type BatchReader struct {
	r     Reader
	left  int
	tags  [maxBatchTags]string
	ntags int
}

// Reset checks the whole of frame — version, record count, every
// record, no trailing bytes — and readies the reader at its first
// record, returning the count: a malformed frame is refused whole,
// before any record is read. Records of tag known (when not empty)
// share the caller's string.
func (br *BatchReader) Reset(frame []byte, known string) (int, error) {
	br.left, br.ntags = 0, 0
	if known != "" {
		br.tags[0], br.ntags = known, 1
	}
	br.r.Reset(frame)
	v := br.r.Byte()
	if br.r.Err() == nil && v != batchVersion {
		return 0, fmt.Errorf("%w: version %d", ErrBadBatch, v)
	}
	count := br.r.Uvarint()
	if br.r.Err() == nil && count > MaxBatchRecords {
		return 0, fmt.Errorf("%w: %d records", ErrBadBatch, count)
	}
	first := br.r.off
	for i := uint64(0); i < count && br.r.Err() == nil; i++ {
		br.r.BytesLP()
		br.r.BytesLP()
		br.r.BytesLP()
	}
	if err := br.r.Done(); err != nil {
		return 0, err
	}
	br.r.off = first
	br.left = int(count)
	return br.left, nil
}

// Next returns the next record; ok is false after the last.
func (br *BatchReader) Next() (rec BatchRecord, ok bool) {
	if br.left == 0 {
		return BatchRecord{}, false
	}
	br.left--
	rec.Key = br.r.BytesLP()
	raw := br.r.BytesLP()
	rec.Payload = br.r.BytesLP()
	for _, t := range br.tags[:br.ntags] {
		if t == string(raw) {
			rec.Tag = t
			return rec, true
		}
	}
	rec.Tag = string(raw)
	if br.ntags < maxBatchTags {
		br.tags[br.ntags] = rec.Tag
		br.ntags++
	}
	return rec, true
}

// DecodeBatch reads a frame written by BatchBuilder into a record
// list. The returned records alias buf; callers that retain them across
// buffer reuse must copy.
func DecodeBatch(buf []byte) ([]BatchRecord, error) {
	var br BatchReader
	n, err := br.Reset(buf, "")
	if err != nil {
		return nil, err
	}
	recs := make([]BatchRecord, 0, n)
	for rec, ok := br.Next(); ok; rec, ok = br.Next() {
		recs = append(recs, rec)
	}
	return recs, nil
}
