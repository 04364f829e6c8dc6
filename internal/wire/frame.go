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
	w.Uint64(f.Query)
	w.Uint64(f.Window)
	w.Byte(f.Stage)
	w.Byte(f.Side)
	w.Uvarint(uint64(len(f.Records)))
	for _, rec := range f.Records {
		w.BytesLP(rec)
	}
}

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

// DecodeTupleFrame reads a frame written by Encode. Records alias the
// reader's buffer; callers that retain them must copy.
func DecodeTupleFrame(r *Reader) (*TupleFrame, error) {
	f := &TupleFrame{
		Query:  r.Uint64(),
		Window: r.Uint64(),
		Stage:  r.Byte(),
		Side:   r.Byte(),
	}
	n := r.Uvarint()
	// A record is at least its length byte, so the count is bounded by
	// what is left to read as well as by the cap.
	if n > MaxFrameRecords || n > uint64(r.Remaining()) {
		return nil, fmt.Errorf("wire: tuple frame with %d records in %d bytes", n, r.Remaining())
	}
	f.Records = make([][]byte, n)
	for i := range f.Records {
		f.Records[i] = r.BytesLP()
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return f, nil
}

// TupleFrameFromBytes decodes a frame, rejecting trailing bytes.
func TupleFrameFromBytes(buf []byte) (*TupleFrame, error) {
	r := NewReader(buf)
	f, err := DecodeTupleFrame(r)
	if err != nil {
		return nil, err
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return f, nil
}
