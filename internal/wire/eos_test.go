package wire

import (
	"reflect"
	"testing"
)

// frameBytes encodes one frame as a ledger datagram carries it.
func frameBytes(f *EosFrame) []byte {
	w := NewWriter(64)
	f.Encode(w)
	return w.Bytes()
}

// frameFromBytes decodes one frame as DecodeEosFrames decodes each of a
// datagram's, rejecting trailing bytes.
func frameFromBytes(buf []byte) (*EosFrame, error) {
	r := NewReader(buf)
	f := new(EosFrame)
	if _, _, err := f.decode(r, nil, nil); err != nil {
		return nil, err
	}
	return f, r.Done()
}

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
		got, err := frameFromBytes(frameBytes(f))
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
	full := frameBytes(f)
	if full[head] != 1 {
		t.Fatalf("byte %d is %d, want the Settled byte 1", head, full[head])
	}
	if _, err := frameFromBytes(full[:head]); err == nil {
		t.Fatal("frame truncated at the Settled byte decoded without error")
	}
}

func TestEosFrameRejectsOversizedLists(t *testing.T) {
	f := &EosFrame{Query: 1, Addr: "n"}
	for i := 0; i <= MaxEosScans; i++ {
		f.Scans = append(f.Scans, EosScan{Table: "t"})
	}
	if _, err := frameFromBytes(frameBytes(f)); err == nil {
		t.Fatal("oversized scan list decoded without error")
	}
	f.Scans = nil
	for i := 0; i <= MaxEosChannels; i++ {
		f.Channels = append(f.Channels, EosChannel{})
	}
	if _, err := frameFromBytes(frameBytes(f)); err == nil {
		t.Fatal("oversized channel list decoded without error")
	}
	f.Channels = nil
	f.Depth = MaxEosDepth + 1
	if _, err := frameFromBytes(frameBytes(f)); err == nil {
		t.Fatal("frame past the depth bound decoded without error")
	}
}

// TestEosBatchRoundTrip: a ledger datagram carries its frames in order,
// each as Encode writes it, behind their count; EncodedLen is what each
// adds. Frames without channels or scans decode with none.
func TestEosBatchRoundTrip(t *testing.T) {
	frames := []EosFrame{
		{Query: 1, Addr: "node3", Seq: 7, Depth: 1, ScanDone: true, DrainRound: 2, Settled: true,
			Channels: []EosChannel{{Kind: 1, Sent: 4}, {Kind: 2, Stage: 1, Side: 1, Sent: 300, Recv: 2}},
			Scans:    []EosScan{{Table: "traffic", Served: true}}},
		{Query: 2, Addr: "node3", Seq: 1, Fanout: 2},
		{Query: 1 << 60, Addr: "node3", Seq: 1 << 40, Channels: []EosChannel{{Recv: 1 << 50}},
			Scans: []EosScan{{Table: "a"}, {Table: "b", Served: true}}},
	}
	var b EosBatch
	for round := 0; round < 2; round++ { // the second round reuses the reset batch
		b.Reset()
		size := 1
		for i := range frames {
			b.Add(&frames[i])
			size += frames[i].EncodedLen()
			if b.Size() != size {
				t.Fatalf("after %d frames the batch is %d bytes, EncodedLen says %d", i+1, b.Size(), size)
			}
		}
		head, body := b.Parts()
		got, err := DecodeEosFrames(append(append([]byte(nil), head...), body...))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, frames) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, frames)
		}
	}
}

// TestEosFramesRejectsBadCounts: a datagram whose count does not match
// its frames, or could not fit its bytes, does not decode.
func TestEosFramesRejectsBadCounts(t *testing.T) {
	f := EosFrame{Query: 1, Addr: "n", Seq: 1}
	one := frameBytes(&f)
	for _, c := range []struct {
		name string
		buf  []byte
	}{
		{"empty", nil},
		{"no frames", []byte{0}},
		{"one frame counted twice", append([]byte{2}, one...)},
		{"two frames counted once", append(append([]byte{1}, one...), one...)},
		{"a count past the bytes", append([]byte{0xff, 0x7f}, one...)},
	} {
		if _, err := DecodeEosFrames(c.buf); err == nil {
			t.Errorf("%s: decoded", c.name)
		}
	}
}
