package wire

import "fmt"

// TupleFrame is the header of the framed layout shared by every
// tuple-carrying engine message: rehashed join tuples, aggregation
// partials, and result rows all ship a (query, window, join-stage,
// side) header followed by a record count and length-prefixed record
// payloads. One codec instead of a hand-rolled encoder per message
// kind — the message's meaning comes from the overlay tag or RPC method
// it travels under. Records are written in place after EncodeHead and
// read in place after DecodeHead: no list of them is ever built.
type TupleFrame struct {
	// Query identifies the query the records belong to.
	Query uint64
	// Window is the window sequence number (0 for one-shot traffic).
	Window uint64
	// Stage is the join stage the records are destined for (join
	// traffic; 0 otherwise).
	Stage uint8
	// Side is the join input side, 0 = left, 1 = right (join
	// traffic; 0 otherwise).
	Side uint8
}

// MaxFrameRecords bounds a frame's record count against corrupt
// length prefixes.
const MaxFrameRecords = 65536

// EncodeHead appends the frame's header with a count of n records; the
// caller then appends each record's length prefix and bytes, as
// BytesLP would.
func (f *TupleFrame) EncodeHead(w *Writer, n int) {
	w.Uint64(f.Query)
	w.Uint64(f.Window)
	w.Byte(f.Stage)
	w.Byte(f.Side)
	w.Uvarint(uint64(n))
}

// TupleFrameHeadLen is the length EncodeHead appends for n records.
func TupleFrameHeadLen(n int) int { return 8 + 8 + 1 + 1 + UvarintLen(uint64(n)) }

// DecodeHead reads a frame's header from r into f and returns its
// record count: r is then at the first record, each one
// length-prefixed (r.BytesLP), and a whole frame ends at its last
// (r.Done).
func (f *TupleFrame) DecodeHead(r *Reader) (int, error) {
	f.Query = r.Uint64()
	f.Window = r.Uint64()
	f.Stage = r.Byte()
	f.Side = r.Byte()
	n := r.Uvarint()
	if err := r.Err(); err != nil {
		return 0, err
	}
	// A record is at least its length byte, so the count is bounded by
	// what is left to read as well as by the cap.
	if n > MaxFrameRecords || n > uint64(r.Remaining()) {
		return 0, fmt.Errorf("wire: tuple frame with %d records in %d bytes", n, r.Remaining())
	}
	return int(n), nil
}
