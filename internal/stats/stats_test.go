package stats

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/tuple"
	"repro/internal/wire"
)

// TestHLLAccuracy: the distinct estimate stays within a relative
// error bound across cardinalities 10..10^6 (standard error for 2048
// registers is ~2.3%; the bound leaves slack for unlucky hash draws,
// and linear counting keeps small cardinalities near-exact).
func TestHLLAccuracy(t *testing.T) {
	for _, n := range []int{10, 100, 1000, 10000, 100000, 1000000} {
		h := NewHLL()
		for i := 0; i < n; i++ {
			h.Add([]byte(fmt.Sprintf("value-%d-%d", n, i)))
		}
		est := h.Estimate()
		relErr := math.Abs(float64(est)-float64(n)) / float64(n)
		bound := 0.10
		if n <= 100 {
			bound = 0.05 // linear counting regime
		}
		if relErr > bound {
			t.Errorf("n=%d: estimate %d (rel err %.3f > %.2f)", n, est, relErr, bound)
		}
	}
}

// TestHLLDuplicatesIgnored: re-adding values never inflates the
// estimate.
func TestHLLDuplicatesIgnored(t *testing.T) {
	h := NewHLL()
	for rep := 0; rep < 5; rep++ {
		for i := 0; i < 500; i++ {
			h.Add([]byte(fmt.Sprintf("dup-%d", i)))
		}
	}
	est := h.Estimate()
	if est < 450 || est > 550 {
		t.Fatalf("500 distinct values re-added: estimate %d", est)
	}
}

func randomSketch(r *rand.Rand, rows int) *TableSketch {
	s := NewTableSketch("t", []string{"a", "b"})
	for i := 0; i < rows; i++ {
		s.Add(tuple.Tuple{
			tuple.Int(int64(r.Intn(200))),
			tuple.String(fmt.Sprintf("s%d", r.Intn(50))),
		})
	}
	return s
}

func encodeSketch(s *TableSketch) []byte { return s.Bytes() }

// cloneSketch deep-copies a sketch through its codec.
func cloneSketch(t *testing.T, s *TableSketch) *TableSketch {
	t.Helper()
	c, err := TableSketchFromBytes(s.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSketchMergeCommutative: a⊕b and b⊕a encode byte-identically —
// registers max, row counts sum, samples keep the same bottom-k.
func TestSketchMergeCommutative(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		a1, b1 := randomSketch(r, 1+r.Intn(400)), randomSketch(r, 1+r.Intn(400))
		a2, b2 := cloneSketch(t, a1), cloneSketch(t, b1)
		if err := a1.Merge(b1); err != nil {
			t.Fatal(err)
		}
		if err := b2.Merge(a2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encodeSketch(a1), encodeSketch(b2)) {
			t.Fatalf("trial %d: a⊕b != b⊕a", trial)
		}
	}
}

// TestSketchMergeAssociative: (a⊕b)⊕c and a⊕(b⊕c) encode
// byte-identically.
func TestSketchMergeAssociative(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		a, b, c := randomSketch(r, 1+r.Intn(300)), randomSketch(r, 1+r.Intn(300)), randomSketch(r, 1+r.Intn(300))

		ab := cloneSketch(t, a)
		if err := ab.Merge(b); err != nil {
			t.Fatal(err)
		}
		if err := ab.Merge(c); err != nil {
			t.Fatal(err)
		}

		bc := cloneSketch(t, b)
		if err := bc.Merge(c); err != nil {
			t.Fatal(err)
		}
		abc := cloneSketch(t, a)
		if err := abc.Merge(bc); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encodeSketch(ab), encodeSketch(abc)) {
			t.Fatalf("trial %d: (a⊕b)⊕c != a⊕(b⊕c)", trial)
		}
	}
}

// TestSketchMergeSchemaMismatch: merging sketches of different tables
// or shapes errors instead of corrupting estimates.
func TestSketchMergeSchemaMismatch(t *testing.T) {
	a := NewTableSketch("t", []string{"a"})
	if err := a.Merge(NewTableSketch("u", []string{"a"})); err == nil {
		t.Fatal("cross-table merge accepted")
	}
	if err := a.Merge(NewTableSketch("t", []string{"a", "b"})); err == nil {
		t.Fatal("arity-mismatched merge accepted")
	}
	if err := a.Merge(NewTableSketch("t", []string{"x"})); err == nil {
		t.Fatal("column-name-mismatched merge accepted")
	}
}

// TestSketchRowsAndDistincts: counts are exact, distincts accurate on
// a known composition.
func TestSketchRowsAndDistincts(t *testing.T) {
	s := NewTableSketch("t", []string{"k", "v"})
	const rows, distinctK = 5000, 40
	for i := 0; i < rows; i++ {
		s.Add(tuple.Tuple{tuple.Int(int64(i % distinctK)), tuple.Int(int64(i))})
	}
	if s.Rows != rows {
		t.Fatalf("rows %d, want %d", s.Rows, rows)
	}
	if d := s.Distincts()["k"]; d < distinctK*9/10 || d > distinctK*11/10 {
		t.Fatalf("distinct(k)=%d, want ~%d", d, distinctK)
	}
	if d := s.Distincts()["v"]; d < rows*9/10 || d > rows*11/10 {
		t.Fatalf("distinct(v)=%d, want ~%d", d, rows)
	}
}

// TestSketchCodecRoundTrip: encode→decode→encode byte-identical.
func TestSketchCodecRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		s := randomSketch(r, r.Intn(500))
		enc := encodeSketch(s)
		dec, err := TableSketchFromBytes(enc)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, encodeSketch(dec)) {
			t.Fatal("re-encode differs")
		}
		if dec.Rows != s.Rows || len(dec.Cols) != len(s.Cols) {
			t.Fatal("decoded structure differs")
		}
	}
}

// TestSampleBottomK: the sample holds the k smallest hashes seen,
// regardless of arrival order, and never exceeds k.
func TestSampleBottomK(t *testing.T) {
	rows := make([][]byte, 200)
	for i := range rows {
		rows[i] = []byte(fmt.Sprintf("row-%d", i))
	}
	fwd, rev := NewSample(16), NewSample(16)
	for _, b := range rows {
		fwd.Add(wire.Hash64(b), b)
	}
	for i := len(rows) - 1; i >= 0; i-- {
		rev.Add(wire.Hash64(rows[i]), rows[i])
	}
	wf, wr := wire.NewWriter(64), wire.NewWriter(64)
	fwd.Encode(wf)
	rev.Encode(wr)
	if !bytes.Equal(wf.Bytes(), wr.Bytes()) {
		t.Fatal("sample depends on arrival order")
	}
	if len(fwd.Items) != 16 {
		t.Fatalf("sample size %d, want 16", len(fwd.Items))
	}
	for i := 1; i < len(fwd.Items); i++ {
		if fwd.Items[i-1].Hash >= fwd.Items[i].Hash {
			t.Fatal("sample not sorted/unique")
		}
	}
}

// TestWideTableTruncates: builders truncate past MaxColumns so every
// sketch they encode is one every receiver accepts; rows stay exact.
func TestWideTableTruncates(t *testing.T) {
	cols := make([]string, MaxColumns+40)
	for i := range cols {
		cols[i] = fmt.Sprintf("c%d", i)
	}
	s := NewTableSketch("wide", cols)
	if len(s.Cols) != MaxColumns {
		t.Fatalf("sketch kept %d columns", len(s.Cols))
	}
	row := make(tuple.Tuple, len(cols))
	for i := range row {
		row[i] = tuple.Int(int64(i))
	}
	for n := 0; n < 10; n++ {
		s.Add(row)
	}
	if s.Rows != 10 {
		t.Fatalf("rows %d, want 10", s.Rows)
	}
	if d := s.Distincts()["c0"]; d != 1 {
		t.Fatalf("distinct(c0)=%d, want 1", d)
	}
	if _, err := TableSketchFromBytes(s.Bytes()); err != nil {
		t.Fatalf("truncated sketch rejected by its own decoder: %v", err)
	}
}

// TestDecodeSampleRejectsMalformed: merge adopts decoded samples
// verbatim, so wire input violating the sorted/unique invariant (or
// an absurd capacity) must fail the decode.
func TestDecodeSampleRejectsMalformed(t *testing.T) {
	encode := func(k int, hashes []uint64) []byte {
		w := wire.NewWriter(64)
		w.Uvarint(uint64(k))
		w.Uvarint(uint64(len(hashes)))
		for _, h := range hashes {
			w.Uint64(h)
			w.BytesLP([]byte("row"))
		}
		return w.Bytes()
	}
	if _, err := DecodeSample(wire.NewReader(encode(8, []uint64{5, 3}))); err == nil {
		t.Fatal("descending hashes accepted")
	}
	if _, err := DecodeSample(wire.NewReader(encode(8, []uint64{5, 5}))); err == nil {
		t.Fatal("duplicate hashes accepted")
	}
	if _, err := DecodeSample(wire.NewReader(encode(1<<20, nil))); err == nil {
		t.Fatal("absurd capacity accepted")
	}
	if s, err := DecodeSample(wire.NewReader(encode(8, []uint64{3, 5}))); err != nil || len(s.Items) != 2 {
		t.Fatalf("well-formed sample rejected: %v", err)
	}
}

// TestHLLSparseEncoding: a sketch with few set registers encodes only
// those, three bytes each; one past hllSparseMax encodes every
// register; both round-trip byte-identically, and a sparse list out of
// index order fails the decode.
func TestHLLSparseEncoding(t *testing.T) {
	for _, n := range []int{0, 20, 5000} {
		h := NewHLL()
		for i := 0; i < n; i++ {
			h.Add([]byte(fmt.Sprintf("v%d", i)))
		}
		w := wire.NewWriter(64)
		h.Encode(w)
		enc := w.Bytes()
		if n <= 20 && len(enc) > 4+3*n {
			t.Fatalf("%d values: %d-byte encoding, want sparse", n, len(enc))
		}
		if n == 5000 && len(enc) < hllM {
			t.Fatalf("%d values: %d-byte encoding, want dense", n, len(enc))
		}
		dec, err := DecodeHLL(wire.NewReader(enc))
		if err != nil {
			t.Fatal(err)
		}
		again := wire.NewWriter(64)
		dec.Encode(again)
		if !bytes.Equal(enc, again.Bytes()) || dec.Estimate() != h.Estimate() {
			t.Fatalf("%d values: sparse round trip changed the sketch", n)
		}
	}
	w := wire.NewWriter(16)
	w.Byte(hllP)
	w.Uvarint(2)
	w.Uvarint(9)
	w.Byte(1)
	w.Uvarint(3) // descending
	w.Byte(1)
	if _, err := DecodeHLL(wire.NewReader(w.Bytes())); err == nil {
		t.Fatal("descending sparse registers accepted")
	}
}
