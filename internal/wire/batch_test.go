package wire

import (
	"bytes"
	"testing"
)

func TestBatchRoundTrip(t *testing.T) {
	recs := []BatchRecord{
		{Key: []byte("01234567890123456789"), Tag: "pier.join", Payload: []byte("alpha")},
		{Key: []byte("abcdefghijabcdefghij"), Tag: "pier.agg", Payload: nil},
		{Key: []byte("01234567890123456789"), Tag: "dht.put", Payload: bytes.Repeat([]byte{7}, 300)},
	}
	buf := BatchBytes(recs)
	got, err := DecodeBatch(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if !bytes.Equal(got[i].Key, recs[i].Key) || got[i].Tag != recs[i].Tag ||
			!bytes.Equal(got[i].Payload, recs[i].Payload) {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, got[i], recs[i])
		}
	}
}

func TestBatchEmptyFrame(t *testing.T) {
	got, err := DecodeBatch(BatchBytes(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty frame decoded %d records", len(got))
	}
}

func TestBatchRejectsBadVersion(t *testing.T) {
	buf := BatchBytes([]BatchRecord{{Key: []byte("k"), Tag: "t", Payload: []byte("p")}})
	buf[0] = 99
	if _, err := DecodeBatch(buf); err == nil {
		t.Fatal("bad version accepted")
	}
}

func TestBatchRejectsTruncation(t *testing.T) {
	buf := BatchBytes([]BatchRecord{
		{Key: []byte("aaaa"), Tag: "t", Payload: []byte("p1")},
		{Key: []byte("bbbb"), Tag: "t", Payload: []byte("p2")},
	})
	for cut := 1; cut < len(buf); cut++ {
		if _, err := DecodeBatch(buf[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestBatchRejectsTrailingGarbage(t *testing.T) {
	buf := BatchBytes([]BatchRecord{{Key: []byte("k"), Tag: "t", Payload: []byte("p")}})
	if _, err := DecodeBatch(append(buf, 0xff)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

func TestBatchRejectsAbsurdCount(t *testing.T) {
	w := NewWriter(16)
	w.Byte(1)
	w.Uvarint(MaxBatchRecords + 1)
	if _, err := DecodeBatch(w.Bytes()); err == nil {
		t.Fatal("absurd record count accepted")
	}
}

// TestBatchTagsInterned: a frame's records share one string per
// distinct tag, so a 64-record frame of one tag allocates the record
// list and one tag; past maxBatchTags distinct tags every record still
// decodes with its own tag.
func TestBatchTagsInterned(t *testing.T) {
	recs := make([]BatchRecord, 64)
	for i := range recs {
		recs[i] = BatchRecord{Key: []byte("01234567890123456789"), Tag: "pier.join", Payload: []byte{byte(i)}}
	}
	buf := BatchBytes(recs)
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := DecodeBatch(buf); err != nil {
			t.Fatal(err)
		}
	}); allocs > 2 {
		t.Fatalf("decoding a 64-record frame of one tag allocates %.0f times, want 2", allocs)
	}

	distinct := make([]BatchRecord, 3*maxBatchTags)
	for i := range distinct {
		distinct[i] = BatchRecord{Key: []byte("k"), Tag: string(rune('A' + i%(2*maxBatchTags)))}
	}
	got, err := DecodeBatch(BatchBytes(distinct))
	if err != nil {
		t.Fatal(err)
	}
	for i := range distinct {
		if got[i].Tag != distinct[i].Tag {
			t.Fatalf("record %d: tag %q, want %q", i, got[i].Tag, distinct[i].Tag)
		}
	}
}
