package batch

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/id"
	"repro/internal/overlay"
	"repro/internal/wire"
)

// warmOwner resolves key's owner into the batcher's cache and returns
// the fake's routes to none.
func warmOwner(t *testing.T, f *fakeRouter, b *Batcher, key id.ID) {
	t.Helper()
	if err := b.Route(key, "warm", nil); err != nil {
		t.Fatal(err)
	}
	b.Flush()
	f.mu.Lock()
	f.routes = f.routes[:0]
	f.mu.Unlock()
}

// TestBuiltFrameIsBatchBytes: a frame built record by record as
// records arrive is the bytes wire.BatchBytes makes of them. RouteMany
// copies what it keeps — into the frame, or into a record's own copy
// while it waits on its owner's lookup — so payloads overwritten after
// the call do not reach the frame. A frame of one ships its record as a plain route,
// and a frame whose send fails is routed record by record, as each was
// routed, read back from the frame.
func TestBuiltFrameIsBatchBytes(t *testing.T) {
	f := newFake()
	b := New(f, Config{MaxRecords: 4, MaxDelay: time.Hour})
	key := f.remoteKey("built", "owner:1")
	warmOwner(t, f, b, key)

	recs := []Record{
		{Key: key, Tag: "a", Payload: []byte("alpha")},
		{Key: key, Tag: "b", Payload: nil},
		{Key: key, Tag: "a", Payload: bytes.Repeat([]byte{7}, 300)},
		{Key: key, Tag: "c", Payload: []byte("z")},
	}
	want := make([]wire.BatchRecord, len(recs))
	scratch := make([]Record, len(recs)) // the caller's reusable payloads
	for i, r := range recs {
		want[i] = wire.BatchRecord{Key: key[:], Tag: r.Tag, Payload: r.Payload}
		scratch[i] = Record{Key: r.Key, Tag: r.Tag, Payload: append([]byte(nil), r.Payload...)}
	}
	scribble := func() {
		for _, r := range scratch {
			for i := range r.Payload {
				r.Payload[i] ^= 0xff
			}
		}
	}
	if err := b.RouteMany(scratch); err != nil {
		t.Fatal(err)
	}
	scribble()
	b.Flush()
	frames := f.routesByTag(FrameTag)
	if len(frames) != 1 {
		t.Fatalf("%d frames, want 1", len(frames))
	}
	if got := frames[0].payload; !bytes.Equal(got, wire.BatchBytes(want)) {
		t.Fatalf("built frame differs from BatchBytes:\n got %x\nwant %x", got, wire.BatchBytes(want))
	}

	// Records that wait on an owner lookup keep copies of their own.
	cold := f.remoteKey("cold", "owner:1")
	for i := range scratch {
		scratch[i] = Record{Key: cold, Tag: recs[i].Tag, Payload: append([]byte(nil), recs[i].Payload...)}
		want[i].Key = cold[:]
	}
	f.mu.Lock()
	f.routes = f.routes[:0]
	f.mu.Unlock()
	if err := b.RouteMany(scratch); err != nil {
		t.Fatal(err)
	}
	scribble()
	b.Flush()
	frames = f.routesByTag(FrameTag)
	if len(frames) != 1 || !bytes.Equal(frames[0].payload, wire.BatchBytes(want)) {
		t.Fatalf("records framed after their lookup differ from BatchBytes: %d frames", len(frames))
	}

	// A frame of one: the record's own payload, routed under its tag.
	if err := b.Route(key, "one", []byte("solo")); err != nil {
		t.Fatal(err)
	}
	b.Flush()
	if one := f.routesByTag("one"); len(one) != 1 || string(one[0].payload) != "solo" || one[0].key != key {
		t.Fatalf("single-record frame routed as %+v", one)
	}

	// A failed send: every record routed on its own, in order.
	f.mu.Lock()
	f.routeErr[FrameTag] = errors.New("owner gone")
	f.routes = f.routes[:0]
	f.mu.Unlock()
	for i := 0; i < 4; i++ {
		if err := b.Route(key, "fb", []byte(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	b.Flush()
	fb := f.routesByTag("fb")
	if len(fb) != 4 {
		t.Fatalf("fallback routed %d records, want 4", len(fb))
	}
	for i, r := range fb {
		if want := fmt.Sprintf("r%d", i); string(r.payload) != want || r.key != key {
			t.Fatalf("fallback record %d: %q under %s, want %q", i, r.payload, r.key.Short(), want)
		}
	}
}

// TestFrameBuildAllocsFlatInRecords: building and sending a frame
// costs a fixed few allocations — the pending frame, its delay timer,
// the frame itself — however many records it holds: no record is
// copied into a list on its way in.
func TestFrameBuildAllocsFlatInRecords(t *testing.T) {
	if raceEnabled {
		t.Skip("pooled scratch is dropped at random under -race")
	}
	allocs := func(n int) float64 {
		f := newFake()
		b := New(f, Config{MaxRecords: n, MaxDelay: time.Hour})
		b.SetDeliver(func(overlay.Node, id.ID, string, []byte) {})
		key := f.remoteKey("flat", "owner:1")
		warmOwner(t, f, b, key)
		f.mu.Lock()
		f.deliver = nil // the frame stops at the fake's wire
		f.mu.Unlock()
		recs := make([]Record, n)
		for i := range recs {
			recs[i] = Record{Key: key, Tag: "j", Payload: []byte("0123456789abcdef")}
		}
		return testing.AllocsPerRun(50, func() {
			if err := b.RouteMany(recs); err != nil {
				t.Fatal(err)
			}
			f.mu.Lock()
			f.routes = f.routes[:0]
			f.mu.Unlock()
		})
	}
	few, many := allocs(4), allocs(64)
	t.Logf("a frame of 4 records: %.0f allocations; of 64: %.0f", few, many)
	if many > few || many > 5 {
		t.Fatalf("a frame of 64 records costs %.0f allocations, of 4 %.0f; want the same, at most 5", many, few)
	}
}
