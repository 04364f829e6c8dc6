package pier

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/id"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// TestTupleFrameCodec: encodeTupleMsg sizes the frame once and encodes
// every row straight into it, and decodeTupleMsg decodes them into one
// arena; the frame must be the bytes a record-per-row encoder produces,
// rows must come back equal and not alias each other, an encode must
// allocate the frame alone, and a decode must not allocate per row.
func TestTupleFrameCodec(t *testing.T) {
	rows := []tuple.Tuple{
		{tuple.Int(1), tuple.String("alice"), tuple.Float(2.5), tuple.Null()},
		{tuple.Int(2), tuple.String(""), tuple.Bool(true), tuple.Bytes([]byte{0, 0xff})},
		{}, // another arity in the same frame
		{tuple.Time(time.Unix(1096848000, 7)), tuple.IDVal(id.HashString("x")), tuple.Time(time.Time{})},
	}
	ref := wire.TupleFrame{Query: 42, Window: 7, Stage: 1, Side: 1}
	for _, r := range rows {
		ref.Records = append(ref.Records, r.Bytes())
	}
	payload := encodeTupleMsg(42, 7, 1, 1, rows...)
	if !bytes.Equal(payload, ref.Bytes()) {
		t.Fatalf("frame bytes differ from the record-per-row encoding:\n got %x\nwant %x", payload, ref.Bytes())
	}
	f, got, err := decodeTupleMsg(payload)
	if err != nil {
		t.Fatal(err)
	}
	if f.Query != 42 || f.Window != 7 || f.Stage != 1 || f.Side != 1 || len(got) != len(rows) {
		t.Fatalf("header %+v, %d rows", f, len(got))
	}
	for i := range rows {
		if len(got[i]) != len(rows[i]) || !got[i].Equal(rows[i]) {
			t.Fatalf("row %d: %v, want %v", i, got[i], rows[i])
		}
	}
	// Rows share an arena: growing one must not write into the next.
	_ = append(got[0], tuple.Int(99))
	if !got[1].Equal(rows[1]) {
		t.Fatalf("append to row 0 wrote into row 1: %v", got[1])
	}
	if _, _, err := decodeTupleMsg(payload[:len(payload)-1]); err == nil {
		t.Fatal("truncated frame accepted")
	}
	// A record count the bytes cannot hold is refused before anything
	// is sized from it.
	for _, count := range []uint64{wire.MaxFrameRecords, 1 << 63} {
		w := wire.NewWriter(32)
		(&wire.TupleFrame{Query: 42}).Encode(w)
		lie := w.Bytes()[:w.Len()-1] // drop the zero count
		w = wire.NewWriter(32)
		w.Raw(lie)
		w.Uvarint(count)
		if _, _, err := decodeTupleMsg(w.Bytes()); err == nil {
			t.Fatalf("frame claiming %d records in no bytes accepted", count)
		}
	}

	ints := make([]tuple.Tuple, 64)
	for i := range ints {
		ints[i] = tuple.Tuple{tuple.Int(int64(i)), tuple.Int(int64(i * i))}
	}
	if allocs := testing.AllocsPerRun(20, func() { payload = encodeTupleMsg(1, 0, 0, 0, ints...) }); allocs > 1 {
		t.Fatalf("encoding a 64-row frame allocates %.0f times, want the frame alone", allocs)
	}
	// The frame, its record list, the row list and the arena: the same
	// count for 64 rows as for 8.
	if allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := decodeTupleMsg(payload); err != nil {
			t.Fatal(err)
		}
	}); allocs > 6 {
		t.Fatalf("decoding a 64-row frame allocates %.0f times", allocs)
	}
}
