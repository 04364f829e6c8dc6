package wire

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestRoundTripPrimitives(t *testing.T) {
	w := NewWriter(64)
	w.Byte(0xab)
	w.Bool(true)
	w.Bool(false)
	w.Uvarint(12345)
	w.Varint(-98765)
	w.Uint64(0xdeadbeefcafe)
	w.Uint32(0x1234)
	w.Float64(3.25)
	w.BytesLP([]byte{1, 2, 3})
	w.String("héllo")
	w.Raw([]byte{9, 9})
	now := time.Unix(12345, 6789)
	w.Time(now)
	w.Time(time.Time{})
	w.Duration(5 * time.Second)

	r := NewReader(w.Bytes())
	if r.Byte() != 0xab || !r.Bool() || r.Bool() {
		t.Fatalf("byte/bool mismatch")
	}
	if r.Uvarint() != 12345 || r.Varint() != -98765 {
		t.Fatalf("varint mismatch")
	}
	if r.Uint64() != 0xdeadbeefcafe || r.Uint32() != 0x1234 {
		t.Fatalf("fixed int mismatch")
	}
	if r.Float64() != 3.25 {
		t.Fatalf("float mismatch")
	}
	if !bytes.Equal(r.BytesLP(), []byte{1, 2, 3}) {
		t.Fatalf("bytes mismatch")
	}
	if r.String() != "héllo" {
		t.Fatalf("string mismatch")
	}
	if !bytes.Equal(r.Raw(2), []byte{9, 9}) {
		t.Fatalf("raw mismatch")
	}
	if !r.Time().Equal(now) {
		t.Fatalf("time mismatch")
	}
	if !r.Time().IsZero() {
		t.Fatalf("zero time mismatch")
	}
	if r.Duration() != 5*time.Second {
		t.Fatalf("duration mismatch")
	}
	if err := r.Done(); err != nil {
		t.Fatalf("Done: %v", err)
	}
}

func TestTruncation(t *testing.T) {
	w := NewWriter(16)
	w.Uint64(42)
	full := w.Bytes()
	for i := 0; i < len(full); i++ {
		r := NewReader(full[:i])
		r.Uint64()
		if r.Err() == nil {
			t.Fatalf("no error on %d-byte prefix", i)
		}
	}
}

func TestPoisonedReaderStaysPoisoned(t *testing.T) {
	r := NewReader(nil)
	r.Byte()
	if r.Err() == nil {
		t.Fatal("expected error")
	}
	first := r.Err()
	r.Uint64()
	_ = r.String()
	if r.Err() != first {
		t.Fatalf("error changed: %v", r.Err())
	}
}

func TestLengthLimit(t *testing.T) {
	w := NewWriter(16)
	w.Uvarint(MaxLen + 1)
	r := NewReader(w.Bytes())
	if r.BytesLP() != nil || r.Err() != ErrTooLong {
		t.Fatalf("oversized length accepted: %v", r.Err())
	}
}

func TestBytesLPTruncatedPayload(t *testing.T) {
	w := NewWriter(16)
	w.Uvarint(100) // claims 100 bytes, provides none
	r := NewReader(w.Bytes())
	if r.BytesLP() != nil || r.Err() != ErrTruncated {
		t.Fatalf("truncated payload accepted: %v", r.Err())
	}
}

func TestDoneRejectsTrailing(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	r.Byte()
	if err := r.Done(); err == nil {
		t.Fatalf("Done accepted trailing bytes")
	}
}

func TestRawNegative(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	if r.Raw(-1) != nil || r.Err() == nil {
		t.Fatalf("negative Raw accepted")
	}
}

func TestReset(t *testing.T) {
	w := NewWriter(8)
	w.String("abc")
	w.Reset()
	if w.Len() != 0 {
		t.Fatalf("reset did not clear")
	}
	w.Uvarint(7)
	r := NewReader(w.Bytes())
	if r.Uvarint() != 7 || r.Done() != nil {
		t.Fatalf("writer unusable after reset")
	}
}

func TestQuickVarintRoundTrip(t *testing.T) {
	f := func(v int64, u uint64, s string, b []byte, f64 float64) bool {
		w := NewWriter(64)
		w.Varint(v)
		w.Uvarint(u)
		w.String(s)
		w.BytesLP(b)
		w.Float64(f64)
		r := NewReader(w.Bytes())
		if r.Varint() != v || r.Uvarint() != u || r.String() != s {
			return false
		}
		got := r.BytesLP()
		if !bytes.Equal(got, b) {
			return false
		}
		gf := r.Float64()
		if math.IsNaN(f64) {
			if !math.IsNaN(gf) {
				return false
			}
		} else if gf != f64 {
			return false
		}
		return r.Done() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickTimeRoundTrip(t *testing.T) {
	f := func(sec int64, ns int32) bool {
		// Stay within UnixNano's representable range.
		sec = sec % (1 << 33)
		tm := time.Unix(sec, int64(ns))
		w := NewWriter(16)
		w.Time(tm)
		r := NewReader(w.Bytes())
		return r.Time().Equal(tm) && r.Done() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestTupleFrameDecodeHead: DecodeHead reads a frame's header into a
// caller's TupleFrame and leaves the reader at its first record, so
// decoding frame after frame allocates nothing; it refuses a record
// count the bytes cannot hold and a truncated header.
func TestTupleFrameDecodeHead(t *testing.T) {
	frame := func(f TupleFrame, recs ...string) []byte {
		w := NewWriter(64)
		f.EncodeHead(w, len(recs))
		for _, rec := range recs {
			w.BytesLP([]byte(rec))
		}
		return w.Bytes()
	}
	big := frame(TupleFrame{Query: 1, Window: 2, Stage: 1, Side: 1}, "a", "bc", "")
	small := frame(TupleFrame{Query: 3}, "d")
	if TupleFrameHeadLen(3) != len(big)-len("a")-len("bc")-3 {
		t.Fatalf("TupleFrameHeadLen(3) = %d in a frame of %d bytes", TupleFrameHeadLen(3), len(big))
	}
	var f TupleFrame
	var r Reader
	r.Reset(big)
	n, err := f.DecodeHead(&r)
	if err != nil || f != (TupleFrame{Query: 1, Window: 2, Stage: 1, Side: 1}) || n != 3 {
		t.Fatalf("decoded %+v, %d records, %v", f, n, err)
	}
	if r.BytesLP(); string(r.BytesLP()) != "bc" || len(r.BytesLP()) != 0 || r.Done() != nil {
		t.Fatal("records do not follow the header")
	}
	if allocs := testing.AllocsPerRun(20, func() {
		for _, buf := range [][]byte{small, big} {
			r.Reset(buf)
			if _, err := f.DecodeHead(&r); err != nil {
				t.Fatal(err)
			}
		}
	}); allocs != 0 {
		t.Fatalf("decoding headers allocates %.0f times", allocs)
	}
	r.Reset(small)
	if n, err := f.DecodeHead(&r); err != nil || f.Query != 3 || n != 1 || string(r.BytesLP()) != "d" {
		t.Fatalf("decoded %+v, %d records, %v", f, n, err)
	}
	for _, count := range []uint64{MaxFrameRecords + 1, 1 << 63, 2} {
		w := NewWriter(32)
		(&TupleFrame{Query: 42}).EncodeHead(w, 0)
		lie := w.Bytes()[:w.Len()-1] // drop the zero count
		w = NewWriter(32)
		w.Raw(lie)
		w.Uvarint(count)
		w.Byte(0) // one empty record
		r.Reset(w.Bytes())
		if _, err := f.DecodeHead(&r); err == nil {
			t.Fatalf("frame claiming %d records in one byte accepted", count)
		}
	}
	r.Reset(big[:TupleFrameHeadLen(3)-1])
	if _, err := f.DecodeHead(&r); err == nil {
		t.Fatal("truncated header accepted")
	}
}
