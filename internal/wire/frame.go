package wire

import "fmt"

// TupleFrame is the framed layout shared by every tuple-carrying
// engine message: rehashed join tuples, aggregation partials, and
// result rows all ship a (query, window, join-stage, side) header
// followed by length-prefixed record payloads. One codec instead of a
// hand-rolled encoder per message kind — the message's meaning comes
// from the overlay tag or RPC method it travels under.
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
	// Records are the encoded tuples.
	Records [][]byte
}

// MaxFrameRecords bounds a frame's record count against corrupt
// length prefixes.
const MaxFrameRecords = 65536

// Encode appends the frame to w.
func (f *TupleFrame) Encode(w *Writer) {
	f.EncodeHead(w, len(f.Records))
	for _, rec := range f.Records {
		w.BytesLP(rec)
	}
}

// EncodeHead appends the frame's header with a count of n records,
// ignoring f.Records: a caller that encodes its records in place then
// appends each one's length prefix and bytes, as BytesLP would.
func (f *TupleFrame) EncodeHead(w *Writer, n int) {
	w.Uint64(f.Query)
	w.Uint64(f.Window)
	w.Byte(f.Stage)
	w.Byte(f.Side)
	w.Uvarint(uint64(n))
}

// TupleFrameHeadLen is the length EncodeHead appends for n records.
func TupleFrameHeadLen(n int) int { return 8 + 8 + 1 + 1 + UvarintLen(uint64(n)) }

// Bytes serializes the frame into a fresh buffer.
func (f *TupleFrame) Bytes() []byte {
	n := 24
	for _, rec := range f.Records {
		n += len(rec) + 4
	}
	w := NewWriter(n)
	f.Encode(w)
	return w.Bytes()
}

// Decode reads buf, one whole frame written by Encode, into f, reusing
// f.Records' storage: a caller decoding frame after frame into one
// TupleFrame allocates its record list once. Records alias buf.
func (f *TupleFrame) Decode(buf []byte) error {
	var r Reader
	r.Reset(buf)
	f.Query = r.Uint64()
	f.Window = r.Uint64()
	f.Stage = r.Byte()
	f.Side = r.Byte()
	n := r.Uvarint()
	// A record is at least its length byte, so the count is bounded by
	// what is left to read as well as by the cap.
	if n > MaxFrameRecords || n > uint64(r.Remaining()) {
		return fmt.Errorf("wire: tuple frame with %d records in %d bytes", n, r.Remaining())
	}
	if uint64(cap(f.Records)) < n {
		f.Records = make([][]byte, 0, n)
	}
	f.Records = f.Records[:0]
	for i := uint64(0); i < n; i++ {
		f.Records = append(f.Records, r.BytesLP())
	}
	return r.Done()
}

// TupleFrameFromBytes decodes a frame into a new TupleFrame, rejecting
// trailing bytes. Records alias buf; callers that retain them must copy.
func TupleFrameFromBytes(buf []byte) (*TupleFrame, error) {
	f := &TupleFrame{}
	if err := f.Decode(buf); err != nil {
		return nil, err
	}
	return f, nil
}
