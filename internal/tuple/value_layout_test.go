package tuple

import (
	"encoding/hex"
	"testing"
	"time"
	"unsafe"

	"repro/internal/id"
	"repro/internal/wire"
)

// TestValueSize pins the struct every operator copies row by row: a
// field added to Value shows here, and MemSize books what is resident.
func TestValueSize(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 40 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 40", got)
	}
	if valueHeaderSize != unsafe.Sizeof(Value{}) {
		t.Fatalf("valueHeaderSize = %d, Value is %d bytes", valueHeaderSize, unsafe.Sizeof(Value{}))
	}
}

// TestValueEncodeGoldenBytes holds Value.Encode to the bytes the
// 112-byte Value (Bs, T and ID fields) produced: stored tuples, spill
// files, DHT keys and plan hashes all embed this encoding.
func TestValueEncodeGoldenBytes(t *testing.T) {
	times := []time.Time{{}, time.Unix(-86400, 5), time.Unix(1096848000, 123456789)}
	golden := []struct {
		v   Value
		hex string
	}{
		{Null(), "00"},
		{Bool(true), "0101"},
		{Bool(false), "0100"},
		{Int(-7), "020d"},
		{Int(1 << 40), "02808080808040"},
		{Float(2.5), "034004000000000000"},
		{String("héllo"), "040668c3a96c6c6f"},
		{String(""), "0400"},
		{Bytes([]byte{0, 1, 0xfe, 0xff}), "05040001feff"},
		{Bytes(nil), "0500"},
		{Time(times[0]), "06ffffffffffffffffff01"},
		{Time(times[1]), "06f5fff79492a527"},
		{Time(times[2]), "06aab4a6bfbbdce4b81e"},
		{IDVal(id.Hash([]byte("pier"))), "07dd6f68210b117c4dc26ec1f124066a9380a75187"},
		{IDVal(id.ID{}), "070000000000000000000000000000000000000000"},
		{Value{Kind: TID}, "070000000000000000000000000000000000000000"},
	}
	var row Tuple
	rowHex := "10"
	for _, g := range golden {
		w := wire.NewWriter(32)
		g.v.Encode(w)
		if got := hex.EncodeToString(w.Bytes()); got != g.hex {
			t.Errorf("%v %v encodes as %s, want %s", g.v.Kind, g.v, got, g.hex)
		}
		r := wire.NewReader(w.Bytes())
		back := DecodeValue(r)
		if err := r.Done(); err != nil {
			t.Fatalf("%v: %v", g.v, err)
		}
		if back.Kind != g.v.Kind || !back.Equal(g.v) {
			t.Errorf("round trip %v -> %v", g.v, back)
		}
		row = append(row, g.v)
		rowHex += g.hex
	}
	if got := hex.EncodeToString(row.Bytes()); got != rowHex {
		t.Errorf("tuple encodes as %s, want %s", got, rowHex)
	}

	// Round-tripped times keep their instant and order as time.Time does.
	for i, a := range times {
		va := Time(a)
		if !va.AsTime().Equal(a) {
			t.Errorf("AsTime(%v) = %v", a, va.AsTime())
		}
		for j, b := range times {
			want := 0
			switch {
			case a.Before(b):
				want = -1
			case a.After(b):
				want = 1
			}
			if got := va.Compare(Time(b)); got != want {
				t.Errorf("Compare(times[%d], times[%d]) = %d, time.Time says %d", i, j, got, want)
			}
		}
	}
	if got := IDVal(id.Hash([]byte("pier"))).AsID(); got != id.Hash([]byte("pier")) {
		t.Errorf("AsID = %v", got)
	}
}

// TestDecodeRecordsBoundsItsArena: the arena is sized from the record
// count and width, but never past what the record bytes could hold —
// 1000 records claiming 4096 columns in a frame of a few bytes each
// must fail without a 4096-slot block per record.
func TestDecodeRecordsBoundsItsArena(t *testing.T) {
	w := wire.NewWriter(8)
	w.Uvarint(4096)
	lie := w.Bytes()
	frame := wire.NewWriter(4 << 10)
	for i := 0; i < 1000; i++ {
		frame.BytesLP(lie)
	}
	var r wire.Reader
	if allocs := testing.AllocsPerRun(5, func() {
		var d Decoder
		d.ReserveRecords(1000, 4096, frame.Len())
		r.Reset(frame.Bytes())
		if _, err := d.DecodeRecords(&r, 1000, 4096, nil); err == nil {
			t.Fatal("short record accepted")
		}
	}); allocs > 8 {
		t.Fatalf("%v allocations for a corrupt frame", allocs)
	}
	var d Decoder
	r.Reset(nil)
	if rows, err := d.DecodeRecords(&r, 0, 3, nil); err != nil || len(rows) != 0 {
		t.Fatalf("empty frame: %v %v", rows, err)
	}
}
