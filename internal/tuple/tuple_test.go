package tuple

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/id"
	"repro/internal/wire"
)

func allKinds() []Value {
	return []Value{
		Null(),
		Bool(true), Bool(false),
		Int(-42), Int(0), Int(1 << 40),
		Float(3.5), Float(-0.25),
		String(""), String("hello"),
		Bytes(nil), Bytes([]byte{1, 2, 3}),
		Time(time.Unix(1234, 5678)),
		IDVal(id.HashString("x")),
	}
}

func TestValueEncodeDecodeAllKinds(t *testing.T) {
	for _, v := range allKinds() {
		w := wire.NewWriter(32)
		v.Encode(w)
		r := wire.NewReader(w.Bytes())
		got := DecodeValue(r)
		if err := r.Done(); err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if !got.Equal(v) {
			t.Fatalf("round trip %v -> %v", v, got)
		}
	}
}

func TestDecodeValueRejectsBadTag(t *testing.T) {
	r := wire.NewReader([]byte{0xee})
	DecodeValue(r)
	if r.Err() == nil {
		t.Fatal("bad tag accepted")
	}
}

func TestCompareTotalOrder(t *testing.T) {
	vs := allKinds()
	// Antisymmetry and reflexivity across every pair.
	for _, a := range vs {
		for _, b := range vs {
			ab, ba := a.Compare(b), b.Compare(a)
			if ab != -ba {
				t.Fatalf("Compare(%v,%v)=%d but Compare(%v,%v)=%d", a, b, ab, b, a, ba)
			}
		}
		if a.Compare(a) != 0 {
			t.Fatalf("%v not equal to itself", a)
		}
	}
}

func TestCompareNumericCrossKind(t *testing.T) {
	if Int(2).Compare(Float(2.0)) != 0 {
		t.Fatal("2 != 2.0")
	}
	if Int(2).Compare(Float(2.5)) != -1 {
		t.Fatal("2 not < 2.5")
	}
	if Float(3.5).Compare(Int(3)) != 1 {
		t.Fatal("3.5 not > 3")
	}
}

func TestNullSortsFirst(t *testing.T) {
	for _, v := range allKinds()[1:] {
		if Null().Compare(v) != -1 {
			t.Fatalf("NULL not < %v", v)
		}
	}
}

func TestAsFloat(t *testing.T) {
	if f, ok := Int(7).AsFloat(); !ok || f != 7 {
		t.Fatal("Int AsFloat")
	}
	if f, ok := Float(2.5).AsFloat(); !ok || f != 2.5 {
		t.Fatal("Float AsFloat")
	}
	if _, ok := String("x").AsFloat(); ok {
		t.Fatal("String AsFloat should fail")
	}
}

func TestTupleEncodeDecode(t *testing.T) {
	tp := Tuple{Int(1), String("node7"), Float(12.5), Null()}
	got, err := FromBytes(tp.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(tp) {
		t.Fatalf("round trip %v -> %v", tp, got)
	}
}

// TestEncodedLenMatchesEncode: the counted length is the encoding's,
// for every kind, across varint widths and long string prefixes.
func TestEncodedLenMatchesEncode(t *testing.T) {
	f := func(i int64, s string, b []byte, fl float64, bl bool, ns int64, long uint16) bool {
		tp := Tuple{Int(i), String(s), Bytes(b), Float(fl), Bool(bl), Null(),
			Time(time.Unix(0, ns)), Time(time.Time{}), IDVal(id.HashString(s)),
			String(strings.Repeat("x", int(long))), Int(-i)}
		return tp.EncodedLen() == len(tp.Bytes())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if n := (Tuple{}).EncodedLen(); n != len(Tuple{}.Bytes()) {
		t.Fatalf("empty tuple: %d", n)
	}
}

func TestFromBytesRejectsGarbage(t *testing.T) {
	if _, err := FromBytes([]byte{0xff, 0xff}); err == nil {
		t.Fatal("garbage accepted")
	}
	tp := Tuple{Int(1)}
	buf := append(tp.Bytes(), 0x00)
	if _, err := FromBytes(buf); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestQuickTupleRoundTrip(t *testing.T) {
	f := func(i int64, s string, b []byte, fl float64, bl bool) bool {
		tp := Tuple{Int(i), String(s), Bytes(b), Float(fl), Bool(bl), Null()}
		got, err := FromBytes(tp.Bytes())
		return err == nil && got.Equal(tp)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	src := []byte{1, 2}
	tp := Tuple{Bytes(src), Int(5)}
	cl := tp.Clone()
	src[0] = 99
	tp[1] = Int(6)
	if b := cl[0].AsBytes(); b[0] != 1 || cl[1].I != 5 {
		t.Fatalf("clone shares storage: %v", cl)
	}
	cl[0].AsBytes()[1] = 99
	if cl[0].AsBytes()[1] != 2 {
		t.Fatal("AsBytes exposes the value's storage")
	}
}

func TestProjectConcat(t *testing.T) {
	tp := Tuple{Int(1), Int(2), Int(3)}
	if got := tp.Project([]int{2, 0}); !got.Equal(Tuple{Int(3), Int(1)}) {
		t.Fatalf("project: %v", got)
	}
	if got := tp.Concat(Tuple{Int(9)}); !got.Equal(Tuple{Int(1), Int(2), Int(3), Int(9)}) {
		t.Fatalf("concat: %v", got)
	}
}

func TestTupleCompareDesc(t *testing.T) {
	a := Tuple{Int(1), Int(5)}
	b := Tuple{Int(1), Int(9)}
	if a.Compare(b, []int{0, 1}, nil) != -1 {
		t.Fatal("asc compare")
	}
	if a.Compare(b, []int{0, 1}, []bool{false, true}) != 1 {
		t.Fatal("desc compare")
	}
	if a.Compare(b, []int{0}, nil) != 0 {
		t.Fatal("prefix compare")
	}
}

func TestHashKeyConsistency(t *testing.T) {
	a := Tuple{String("k"), Int(1), Float(2)}
	b := Tuple{String("k"), Int(999), Float(2)}
	if a.HashKey([]int{0}) != b.HashKey([]int{0}) {
		t.Fatal("same key columns hash differently")
	}
	if a.HashKey([]int{0, 1}) == b.HashKey([]int{0, 1}) {
		t.Fatal("different key columns hash equal")
	}
}

func TestSchemaColIndex(t *testing.T) {
	s := MustSchema("traffic", []Column{
		{Name: "node", Type: TString},
		{Name: "rate", Type: TFloat},
	}, "node")
	if s.ColIndex("rate") != 1 || s.ColIndex("node") != 0 {
		t.Fatal("bare lookup")
	}
	if s.ColIndex("traffic.rate") != 1 {
		t.Fatal("qualified lookup")
	}
	if s.ColIndex("other.rate") != -1 {
		t.Fatal("wrong qualifier accepted")
	}
	if s.ColIndex("nope") != -1 {
		t.Fatal("missing column found")
	}
}

func TestSchemaQualify(t *testing.T) {
	s := MustSchema("traffic", []Column{{Name: "node", Type: TString}}, "node")
	q := s.Qualify("t")
	if q.Columns[0].Name != "t.node" {
		t.Fatalf("qualify: %v", q.Columns[0].Name)
	}
	if q.ColIndex("node") != 0 {
		t.Fatal("suffix match after qualify")
	}
	if q.ColIndex("t.node") != 0 {
		t.Fatal("qualified match after qualify")
	}
	// Re-qualifying replaces the prefix instead of stacking.
	q2 := q.Qualify("u")
	if q2.Columns[0].Name != "u.node" {
		t.Fatalf("requalify: %v", q2.Columns[0].Name)
	}
}

func TestSchemaKeyOf(t *testing.T) {
	s := MustSchema("r", []Column{
		{Name: "k", Type: TString},
		{Name: "v", Type: TInt},
	}, "k")
	a := Tuple{String("x"), Int(1)}
	b := Tuple{String("x"), Int(2)}
	if s.KeyOf(a) != s.KeyOf(b) {
		t.Fatal("key columns ignored")
	}
	noKey := &Schema{Name: "n", Columns: s.Columns}
	if noKey.KeyOf(a) == noKey.KeyOf(b) {
		t.Fatal("whole-tuple key collided")
	}
}

func TestSchemaValidate(t *testing.T) {
	s := MustSchema("r", []Column{
		{Name: "k", Type: TString},
		{Name: "v", Type: TFloat},
	}, "k")
	if err := s.Validate(Tuple{String("a"), Float(1)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(Tuple{String("a"), Int(1)}); err != nil {
		t.Fatalf("int-for-float rejected: %v", err)
	}
	if err := s.Validate(Tuple{String("a"), Null()}); err != nil {
		t.Fatalf("null rejected: %v", err)
	}
	if err := s.Validate(Tuple{String("a")}); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	if err := s.Validate(Tuple{Int(1), Float(2)}); err == nil {
		t.Fatal("kind mismatch accepted")
	}
}

func TestNewSchemaBadKey(t *testing.T) {
	if _, err := NewSchema("r", []Column{{Name: "a", Type: TInt}}, "zzz"); err == nil {
		t.Fatal("bad key column accepted")
	}
}

func TestSchemaConcat(t *testing.T) {
	a := MustSchema("a", []Column{{Name: "x", Type: TInt}})
	b := MustSchema("b", []Column{{Name: "y", Type: TInt}})
	c := a.Concat(b)
	if c.Arity() != 2 || c.Columns[1].Name != "y" {
		t.Fatalf("concat schema: %+v", c)
	}
}

func TestValueStringRendering(t *testing.T) {
	cases := map[string]Value{
		"NULL":     Null(),
		"true":     Bool(true),
		"-42":      Int(-42),
		"3.5":      Float(3.5),
		"hi":       String("hi"),
		"0x010203": Bytes([]byte{1, 2, 3}),
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Fatalf("String(%v) = %q, want %q", v.Kind, got, want)
		}
	}
}

// TestDecodeColsAgreesWithNarrow: over a row holding every kind, each
// ascending column subset decodes to what Decode followed by Narrow
// returns — the kept columns, and after them the row's identity unless
// every column is kept.
func TestDecodeColsAgreesWithNarrow(t *testing.T) {
	row := Tuple(allKinds())
	buf := row.Bytes()
	var d Decoder
	// None, each column alone, each column alone left out, all, and two
	// interleaved picks.
	subsets := [][]int{{}, allFrom(0, len(row)), {1, 3, 5, 8, 9, 13}, {0, 2, 4, 10, 11, 12}}
	for i := range row {
		subsets = append(subsets, []int{i}, append(allFrom(0, i), allFrom(i+1, len(row))...))
	}
	for _, cols := range subsets {
		got, err := d.DecodeCols(buf, len(row), cols)
		if err != nil {
			t.Fatalf("cols %v: %v", cols, err)
		}
		want := row.Project(cols)
		if len(cols) < len(row) {
			want = append(want, RowID(buf))
		}
		if !got.Equal(want) || len(got) != len(want) {
			t.Fatalf("cols %v: got %v, want %v", cols, got, want)
		}
		for i := range got {
			if got[i].Kind != want[i].Kind {
				t.Fatalf("cols %v: column %d decoded as %v, want %v", cols, i, got[i].Kind, want[i].Kind)
			}
		}
		decoded, err := d.Decode(buf)
		if err != nil {
			t.Fatal(err)
		}
		if n := Narrow(decoded, cols); !n.Equal(got) || len(n) != len(got) {
			t.Fatalf("cols %v: Narrow %v, DecodeCols %v", cols, n, got)
		}
	}
}

// TestRowIDTellsDroppedColumnsApart: two stored rows equal in every
// kept column and different in a dropped one narrow to different rows;
// the same stored row narrows to the same row every time, whichever
// form of the rule reads it.
func TestRowIDTellsDroppedColumnsApart(t *testing.T) {
	a := Tuple{String("fish"), String("file-1"), Int(3)}
	b := Tuple{String("fish"), String("file-2"), Int(3)}
	cols := []int{0, 2}
	na, nb := Narrow(a, cols), Narrow(b, cols)
	if na.Equal(nb) {
		t.Fatalf("rows that differ in a dropped column narrowed to one: %v", na)
	}
	if !na.Project([]int{0, 1}).Equal(nb.Project([]int{0, 1})) {
		t.Fatalf("kept columns differ: %v, %v", na, nb)
	}
	var d Decoder
	again, err := d.DecodeCols(a.Bytes(), 3, cols)
	if err != nil || !again.Equal(na) {
		t.Fatalf("the same stored row narrowed to %v then %v (%v)", na, again, err)
	}
	if all := Narrow(a, []int{0, 1, 2}); len(all) != 3 || !all.Equal(a) {
		t.Fatalf("keeping every column changed the row: %v", all)
	}
}

func allFrom(lo, hi int) []int {
	var out []int
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

// TestDecodeColsChecksWhatItSkips: a row of another arity, bytes after
// the last value, and a bad kind tag in a column that is not kept all
// fail the row, as they fail Decode.
func TestDecodeColsChecksWhatItSkips(t *testing.T) {
	row := Tuple{Int(1), String("skipped"), Int(3)}
	var d Decoder
	if _, err := d.DecodeCols(row.Bytes(), 3, []int{0, 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.DecodeCols(row.Bytes(), 2, []int{0}); err == nil {
		t.Fatal("a 3-value row passed as a 2-column one")
	}
	if _, err := d.DecodeCols(row.Bytes(), 4, []int{0, 2}); err == nil {
		t.Fatal("a 3-value row passed as a 4-column one")
	}
	if _, err := d.DecodeCols(append(row.Bytes(), 0), 3, []int{0, 2}); err == nil {
		t.Fatal("trailing byte accepted")
	}
	bad := row.Bytes()
	// Layout: arity, (TInt, varint 1), then the skipped string's tag.
	if Type(bad[3]) != TString {
		t.Fatalf("test layout: byte 3 is %d, not the string tag", bad[3])
	}
	bad[3] = 0xee
	if _, err := d.DecodeCols(bad, 3, []int{0, 2}); err == nil {
		t.Fatal("bad kind tag in a skipped column accepted")
	}
	truncated := row.Bytes()
	if _, err := d.DecodeCols(truncated[:6], 3, []int{0}); err == nil {
		t.Fatal("a skipped string running past the payload accepted")
	}
}

// TestDecodeColsSkipsWithoutAllocating: once the arena block exists, a
// row whose string column is not kept decodes with no allocation; the
// same row decoded whole pays one for the string.
func TestDecodeColsSkipsWithoutAllocating(t *testing.T) {
	buf := Tuple{Int(7), String("a string long enough to need the heap"), Int(9)}.Bytes()
	var d Decoder
	d.arena = make([]Value, 0, 1<<16)
	cols := []int{0, 2}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := d.DecodeCols(buf, 3, cols); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("skipping a string column allocated %v times per row", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := d.Decode(buf); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Fatalf("decoding the string column allocated %v times per row, want 1", n)
	}
}
