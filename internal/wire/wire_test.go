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

// TestTupleFrameDecodeReuses: Decode reads a whole frame into a
// caller's TupleFrame, reusing its record list, so decoding frame after
// frame allocates nothing once the list is grown; it rejects what
// TupleFrameFromBytes rejects.
func TestTupleFrameDecodeReuses(t *testing.T) {
	big := (&TupleFrame{Query: 1, Window: 2, Stage: 1, Side: 1, Records: [][]byte{[]byte("a"), []byte("bc"), nil}}).Bytes()
	small := (&TupleFrame{Query: 3, Records: [][]byte{[]byte("d")}}).Bytes()
	var f TupleFrame
	if err := f.Decode(big); err != nil {
		t.Fatal(err)
	}
	if f.Query != 1 || f.Window != 2 || f.Stage != 1 || f.Side != 1 || len(f.Records) != 3 || string(f.Records[1]) != "bc" {
		t.Fatalf("decoded %+v", f)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if err := f.Decode(small); err != nil {
			t.Fatal(err)
		}
		if err := f.Decode(big); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("decoding into a grown TupleFrame allocates %.0f times", allocs)
	}
	if err := f.Decode(small); err != nil || f.Query != 3 || len(f.Records) != 1 || string(f.Records[0]) != "d" {
		t.Fatalf("decoded %+v, %v", f, err)
	}
	if err := f.Decode(append(small, 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	if err := f.Decode(big[:len(big)-1]); err == nil {
		t.Fatal("truncated frame accepted")
	}
}
