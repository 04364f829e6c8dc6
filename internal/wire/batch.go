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

// maxBatchTags bounds DecodeBatch's table of distinct tags: a frame's
// records share a tag or two, so each distinct tag is allocated once
// per frame, and a corrupt frame of distinct tags cannot grow it.
const maxBatchTags = 64

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

// EncodeBatch appends a batch frame holding recs to w. All records in
// a frame share the key width of the first record.
func EncodeBatch(w *Writer, recs []BatchRecord) {
	w.Byte(batchVersion)
	w.Uvarint(uint64(len(recs)))
	for _, rec := range recs {
		w.BytesLP(rec.Key)
		w.String(rec.Tag)
		w.BytesLP(rec.Payload)
	}
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
	n := 8
	for _, rec := range recs {
		n += BatchRecordSize(rec)
	}
	w := NewWriter(n)
	EncodeBatch(w, recs)
	return w.Bytes()
}

// DecodeBatch reads a frame written by EncodeBatch. The returned
// records alias buf; callers that retain them across buffer reuse must
// copy.
func DecodeBatch(buf []byte) ([]BatchRecord, error) {
	r := NewReader(buf)
	v := r.Byte()
	if r.Err() == nil && v != batchVersion {
		return nil, fmt.Errorf("%w: version %d", ErrBadBatch, v)
	}
	count := r.Uvarint()
	if r.Err() == nil && count > MaxBatchRecords {
		return nil, fmt.Errorf("%w: %d records", ErrBadBatch, count)
	}
	// Cap the pre-allocation by what the buffer could possibly hold
	// (every record costs at least 3 bytes), so a corrupt count prefix
	// in a tiny datagram cannot force a large allocation.
	capHint := count
	if max := uint64(len(buf) / 3); capHint > max {
		capHint = max
	}
	recs := make([]BatchRecord, 0, capHint)
	var tagBuf [4]string
	tags := tagBuf[:0] // distinct tags so far, at most maxBatchTags
	for i := uint64(0); i < count; i++ {
		key := r.BytesLP()
		raw := r.BytesLP()
		payload := r.BytesLP()
		if r.Err() != nil {
			break
		}
		tag, seen := "", false
		for _, t := range tags {
			if t == string(raw) {
				tag, seen = t, true
				break
			}
		}
		if !seen {
			tag = string(raw)
			if len(tags) < maxBatchTags {
				tags = append(tags, tag)
			}
		}
		recs = append(recs, BatchRecord{Key: key, Tag: tag, Payload: payload})
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return recs, nil
}
