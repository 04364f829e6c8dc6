package wire

import (
	"reflect"
	"testing"
)

func TestEosFrameRoundTrip(t *testing.T) {
	for _, settled := range []bool{true, false} {
		f := &EosFrame{
			Query:      42,
			Addr:       "node7",
			Seq:        981,
			Depth:      2,
			Fanout:     3,
			ScanDone:   true,
			DrainRound: 3,
			Settled:    settled,
			Channels: []EosChannel{
				{Kind: 0, Sent: 120, Recv: 120},
				{Kind: 2, Stage: 1, Side: 1, Sent: 7, Recv: 5},
			},
			Scans: []EosScan{
				{Table: "traffic", Served: true},
				{Table: "alerts", Served: false},
			},
		}
		got, err := EosFrameFromBytes(f.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(f, got) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, f)
		}
	}
}

// TestEosFrameRejectsTruncatedSettled: a frame that ends where the
// Settled byte should be does not decode.
func TestEosFrameRejectsTruncatedSettled(t *testing.T) {
	f := &EosFrame{Query: 9, Addr: "n", Seq: 4, ScanDone: true, DrainRound: 2, Settled: true}
	w := NewWriter(32)
	w.Uint64(f.Query)
	w.String(f.Addr)
	w.Uvarint(f.Seq)
	w.Uvarint(f.Depth)
	w.Uvarint(f.Fanout)
	w.Bool(f.ScanDone)
	w.Uvarint(f.DrainRound)
	head := len(w.Bytes())
	full := f.Bytes()
	if full[head] != 1 {
		t.Fatalf("byte %d is %d, want the Settled byte 1", head, full[head])
	}
	if _, err := EosFrameFromBytes(full[:head]); err == nil {
		t.Fatal("frame truncated at the Settled byte decoded without error")
	}
}

func TestEosFrameRejectsOversizedLists(t *testing.T) {
	f := &EosFrame{Query: 1, Addr: "n"}
	for i := 0; i <= MaxEosScans; i++ {
		f.Scans = append(f.Scans, EosScan{Table: "t"})
	}
	if _, err := EosFrameFromBytes(f.Bytes()); err == nil {
		t.Fatal("oversized scan list decoded without error")
	}
	f.Scans = nil
	for i := 0; i <= MaxEosChannels; i++ {
		f.Channels = append(f.Channels, EosChannel{})
	}
	if _, err := EosFrameFromBytes(f.Bytes()); err == nil {
		t.Fatal("oversized channel list decoded without error")
	}
	f.Channels = nil
	f.Depth = MaxEosDepth + 1
	if _, err := EosFrameFromBytes(f.Bytes()); err == nil {
		t.Fatal("frame past the depth bound decoded without error")
	}
}
