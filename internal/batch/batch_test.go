package batch

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/id"
	"repro/internal/overlay"
	"repro/internal/wire"
)

// fakeRouter is an in-memory overlay.Router for exercising the
// Batcher without a network. Ownership is scripted per key; Route
// "delivers" to the local deliver upcall immediately (as an owner
// would) and records every call for assertions.
type fakeRouter struct {
	mu         sync.Mutex
	self       overlay.Node
	owners     map[id.ID]overlay.Node // key -> scripted owner (default: self)
	lookups    int
	lookupErr  error
	lookupGate chan struct{}    // if set, Lookup blocks until closed
	routeErr   map[string]error // tag -> error to return (frames use FrameTag)
	routes     []routedCall
	deliver    overlay.DeliverFunc
	intercept  overlay.InterceptFunc
}

type routedCall struct {
	key     id.ID
	tag     string
	payload []byte
}

func newFake() *fakeRouter {
	return &fakeRouter{
		self:     overlay.Node{ID: id.HashString("self"), Addr: "self:1"},
		owners:   make(map[id.ID]overlay.Node),
		routeErr: make(map[string]error),
	}
}

func (f *fakeRouter) Self() overlay.Node { return f.self }

func (f *fakeRouter) Lookup(ctx context.Context, key id.ID) (overlay.Node, int, error) {
	f.mu.Lock()
	gate := f.lookupGate
	f.mu.Unlock()
	if gate != nil {
		select {
		case <-gate:
		case <-ctx.Done():
			return overlay.Node{}, 0, ctx.Err()
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.lookups++
	if f.lookupErr != nil {
		return overlay.Node{}, 0, f.lookupErr
	}
	if n, ok := f.owners[key]; ok {
		return n, 1, nil
	}
	return f.self, 0, nil
}

func (f *fakeRouter) Route(key id.ID, tag string, payload []byte) error {
	f.mu.Lock()
	f.routes = append(f.routes, routedCall{key: key, tag: tag, payload: payload})
	err := f.routeErr[tag]
	deliver := f.deliver
	f.mu.Unlock()
	if err != nil {
		return err
	}
	if deliver != nil {
		deliver(f.self, key, tag, payload)
	}
	return nil
}

// Owns reports the scripted ownership: keys without an owner entry, or
// scripted to self, are this node's.
func (f *fakeRouter) Owns(key id.ID) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	n, ok := f.owners[key]
	return !ok || n.Addr == f.self.Addr
}

func (f *fakeRouter) Broadcast(tag string, payload []byte) error { return nil }
func (f *fakeRouter) SetDeliver(fn overlay.DeliverFunc) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.deliver = fn
}
func (f *fakeRouter) SetIntercept(fn overlay.InterceptFunc) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.intercept = fn
}
func (f *fakeRouter) SetBroadcast(fn overlay.BroadcastFunc) {}
func (f *fakeRouter) Neighbors() []overlay.Node             { return nil }
func (f *fakeRouter) Predecessor() overlay.Node             { return overlay.Node{} }
func (f *fakeRouter) Stop()                                 {}

func (f *fakeRouter) routesByTag(tag string) []routedCall {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []routedCall
	for _, r := range f.routes {
		if r.tag == tag {
			out = append(out, r)
		}
	}
	return out
}

// remoteKey returns a key scripted to a non-self owner so records
// actually buffer (locally-owned keys pass through by design).
func (f *fakeRouter) remoteKey(s string, ownerAddr string) id.ID {
	k := id.HashString(s)
	f.mu.Lock()
	f.owners[k] = overlay.Node{ID: id.HashString(ownerAddr), Addr: ownerAddr}
	f.mu.Unlock()
	return k
}

func TestFlushOnRecordCount(t *testing.T) {
	f := newFake()
	b := New(f, Config{MaxRecords: 3, MaxDelay: time.Hour})
	var got []string
	b.SetDeliver(func(from overlay.Node, key id.ID, tag string, payload []byte) {
		got = append(got, string(payload))
	})
	k := f.remoteKey("k", "owner:1")
	for i := 0; i < 3; i++ {
		if err := b.Route(k, "t", []byte(fmt.Sprintf("p%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	b.Flush() // settle the async owner resolution
	frames := f.routesByTag(FrameTag)
	if len(frames) != 1 {
		t.Fatalf("expected 1 frame after MaxRecords, got %d", len(frames))
	}
	recs, err := wire.DecodeBatch(frames[0].payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("frame holds %d records, want 3", len(recs))
	}
	// Demux (fake delivered the frame back to the batcher's wrapper)
	// must fire once per record, in append order.
	want := []string{"p0", "p1", "p2"}
	if len(got) != 3 {
		t.Fatalf("delivered %d records, want 3", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivery order %v, want %v", got, want)
		}
	}
}

func TestFlushOnByteBudget(t *testing.T) {
	f := newFake()
	b := New(f, Config{MaxRecords: 1000, MaxBytes: 256, MaxDelay: time.Hour})
	b.SetDeliver(func(overlay.Node, id.ID, string, []byte) {})
	k := f.remoteKey("k", "owner:1")
	// Each record costs ~113 buffered bytes: two fit in the 256-byte
	// budget, the third must trigger an early flush of the first two.
	payload := make([]byte, 80)
	for i := 0; i < 3; i++ {
		if err := b.Route(k, "t", payload); err != nil {
			t.Fatal(err)
		}
	}
	b.Flush()
	frames := f.routesByTag(FrameTag)
	if len(frames) != 1 {
		t.Fatalf("expected 1 frame after byte budget, got %d", len(frames))
	}
	recs, err := wire.DecodeBatch(frames[0].payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("frame holds %d records, want 2 (budget respected)", len(recs))
	}
	// The encoded frame must never exceed the configured budget plus
	// per-record framing slack (it has to fit in one datagram).
	if len(frames[0].payload) > 256+64 {
		t.Fatalf("frame is %d bytes, exceeds budget", len(frames[0].payload))
	}
}

func TestFlushOnTimer(t *testing.T) {
	f := newFake()
	b := New(f, Config{MaxRecords: 1000, MaxDelay: 10 * time.Millisecond})
	b.SetDeliver(func(overlay.Node, id.ID, string, []byte) {})
	k := f.remoteKey("k", "owner:1")
	_ = b.Route(k, "t", []byte("a"))
	_ = b.Route(k, "t", []byte("b"))
	if len(f.routesByTag(FrameTag)) != 0 {
		t.Fatal("frame flushed before timer")
	}
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		if len(f.routesByTag(FrameTag)) == 1 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("timer never flushed the frame")
}

func TestExplicitFlushBarrier(t *testing.T) {
	f := newFake()
	b := New(f, Config{MaxRecords: 1000, MaxDelay: time.Hour})
	b.SetDeliver(func(overlay.Node, id.ID, string, []byte) {})
	ka := f.remoteKey("a", "owner:1")
	kb := f.remoteKey("b", "owner:2")
	_ = b.Route(ka, "t", []byte("1"))
	_ = b.Route(ka, "t", []byte("2"))
	_ = b.Route(kb, "t", []byte("3"))
	_ = b.Route(kb, "t", []byte("4"))
	b.Flush()
	if frames := f.routesByTag(FrameTag); len(frames) != 2 {
		t.Fatalf("Flush sent %d frames, want 2 (one per owner)", len(frames))
	}
	b.Flush() // idempotent on empty state
}

func TestSingleRecordFlushSkipsFraming(t *testing.T) {
	f := newFake()
	b := New(f, Config{MaxRecords: 1000, MaxDelay: time.Hour})
	b.SetDeliver(func(overlay.Node, id.ID, string, []byte) {})
	k := f.remoteKey("solo", "owner:1")
	_ = b.Route(k, "t", []byte("x"))
	b.Flush()
	if len(f.routesByTag(FrameTag)) != 0 {
		t.Fatal("single record was framed")
	}
	if got := f.routesByTag("t"); len(got) != 1 || string(got[0].payload) != "x" {
		t.Fatalf("single record not routed plainly: %v", got)
	}
}

func TestLocallyOwnedKeysPassThrough(t *testing.T) {
	f := newFake()
	b := New(f, Config{MaxRecords: 1000, MaxDelay: time.Hour})
	delivered := 0
	b.SetDeliver(func(overlay.Node, id.ID, string, []byte) { delivered++ })
	// No scripted owner: Lookup returns self, so the record must route
	// (and deliver) rather than buffer in a frame.
	_ = b.Route(id.HashString("local"), "t", []byte("x"))
	b.Flush()
	if delivered != 1 {
		t.Fatalf("locally-owned record buffered (delivered=%d)", delivered)
	}
	if len(f.routesByTag(FrameTag)) != 0 {
		t.Fatal("locally-owned record was framed")
	}
}

func TestOwnerCacheHitAndExpiry(t *testing.T) {
	f := newFake()
	b := New(f, Config{MaxRecords: 1000, MaxDelay: time.Hour, OwnerTTL: 30 * time.Millisecond})
	b.SetDeliver(func(overlay.Node, id.ID, string, []byte) {})
	k := f.remoteKey("k", "owner:1")
	_ = b.Route(k, "t", []byte("a"))
	_ = b.Route(k, "t", []byte("b"))
	b.Flush()
	f.mu.Lock()
	lookups := f.lookups
	f.mu.Unlock()
	if lookups != 1 {
		t.Fatalf("%d lookups for repeated key, want 1 (cache)", lookups)
	}
	time.Sleep(50 * time.Millisecond) // past OwnerTTL
	_ = b.Route(k, "t", []byte("c"))
	b.Flush()
	f.mu.Lock()
	lookups = f.lookups
	f.mu.Unlock()
	if lookups != 2 {
		t.Fatalf("%d lookups after TTL expiry, want 2", lookups)
	}
}

func TestFrameSendFailureInvalidatesOwnerAndFallsBack(t *testing.T) {
	f := newFake()
	b := New(f, Config{MaxRecords: 2, MaxDelay: time.Hour})
	var delivered []string
	b.SetDeliver(func(from overlay.Node, key id.ID, tag string, payload []byte) {
		delivered = append(delivered, string(payload))
	})
	k := f.remoteKey("k", "dead:1")
	f.mu.Lock()
	f.routeErr[FrameTag] = fmt.Errorf("owner died")
	f.mu.Unlock()
	_ = b.Route(k, "t", []byte("a"))
	_ = b.Route(k, "t", []byte("b")) // hits MaxRecords once resolved, frame send fails
	b.Flush()
	// Fallback: both records routed individually and delivered.
	if len(delivered) != 2 {
		t.Fatalf("fallback delivered %d records, want 2", len(delivered))
	}
	if b.metrics.Invalidations.Load() == 0 {
		t.Fatal("owner cache not invalidated after frame send failure")
	}
	// Next Route for the key must re-resolve the owner.
	f.mu.Lock()
	before := f.lookups
	f.mu.Unlock()
	_ = b.Route(k, "t", []byte("c"))
	b.Flush()
	f.mu.Lock()
	after := f.lookups
	f.mu.Unlock()
	if after != before+1 {
		t.Fatal("owner not re-resolved after invalidation")
	}
}

func TestExplicitInvalidateOwner(t *testing.T) {
	f := newFake()
	b := New(f, Config{MaxRecords: 1000, MaxDelay: time.Hour})
	b.SetDeliver(func(overlay.Node, id.ID, string, []byte) {})
	k := f.remoteKey("k", "owner:1")
	_ = b.Route(k, "t", []byte("a"))
	b.Flush() // settle: owner now cached
	b.InvalidateOwner("owner:1")
	f.mu.Lock()
	before := f.lookups
	f.mu.Unlock()
	_ = b.Route(k, "t", []byte("b"))
	b.Flush()
	f.mu.Lock()
	after := f.lookups
	f.mu.Unlock()
	if after != before+1 {
		t.Fatal("InvalidateOwner did not evict the cache entry")
	}
}

func TestDisabledPassesThrough(t *testing.T) {
	f := newFake()
	b := New(f, Config{Disabled: true})
	b.SetDeliver(func(overlay.Node, id.ID, string, []byte) {})
	k := f.remoteKey("k", "owner:1")
	_ = b.Route(k, "t", []byte("a"))
	_ = b.Route(k, "t", []byte("b"))
	if got := f.routesByTag("t"); len(got) != 2 {
		t.Fatalf("disabled batcher coalesced: %d plain routes, want 2", len(got))
	}
	if len(f.routesByTag(FrameTag)) != 0 {
		t.Fatal("disabled batcher emitted a frame")
	}
}

func TestDisabledStillDemuxesIncomingFrames(t *testing.T) {
	f := newFake()
	b := New(f, Config{Disabled: true})
	var got []string
	b.SetDeliver(func(from overlay.Node, key id.ID, tag string, payload []byte) {
		got = append(got, tag+":"+string(payload))
	})
	k := id.HashString("k")
	frame := wire.BatchBytes([]wire.BatchRecord{
		{Key: k[:], Tag: "t1", Payload: []byte("a")},
		{Key: k[:], Tag: "t2", Payload: []byte("b")},
	})
	// Simulate a frame arriving from a batching peer.
	f.mu.Lock()
	deliver := f.deliver
	f.mu.Unlock()
	deliver(f.self, k, FrameTag, frame)
	if len(got) != 2 || got[0] != "t1:a" || got[1] != "t2:b" {
		t.Fatalf("demux on disabled batcher got %v", got)
	}
}

func TestOversizedPayloadBypasses(t *testing.T) {
	f := newFake()
	b := New(f, Config{MaxBytes: 64, MaxDelay: time.Hour})
	b.SetDeliver(func(overlay.Node, id.ID, string, []byte) {})
	k := f.remoteKey("k", "owner:1")
	big := make([]byte, 128)
	_ = b.Route(k, "t", big)
	if got := f.routesByTag("t"); len(got) != 1 {
		t.Fatal("oversized payload was not routed directly")
	}
}

func TestInterceptAppliesPerRecordInsideFrames(t *testing.T) {
	f := newFake()
	b := New(f, Config{})
	b.SetDeliver(func(overlay.Node, id.ID, string, []byte) {})
	// Intercept suppresses records tagged "drop" and passes others.
	b.SetIntercept(func(key id.ID, tag string, payload []byte) ([]byte, bool) {
		if tag == "drop" {
			return nil, false
		}
		return payload, true
	})
	f.mu.Lock()
	intercept := f.intercept
	f.mu.Unlock()
	k := id.HashString("k")
	frame := wire.BatchBytes([]wire.BatchRecord{
		{Key: k[:], Tag: "keep", Payload: []byte("a")},
		{Key: k[:], Tag: "drop", Payload: []byte("b")},
		{Key: k[:], Tag: "keep", Payload: []byte("c")},
	})
	np, forward := intercept(k, FrameTag, frame)
	if !forward {
		t.Fatal("frame with surviving records was suppressed")
	}
	recs, err := wire.DecodeBatch(np)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || string(recs[0].Payload) != "a" || string(recs[1].Payload) != "c" {
		t.Fatalf("rewritten frame holds %v", recs)
	}
	// A frame whose records are all suppressed must stop forwarding.
	all := wire.BatchBytes([]wire.BatchRecord{{Key: k[:], Tag: "drop", Payload: []byte("x")}})
	if _, forward := intercept(k, FrameTag, all); forward {
		t.Fatal("fully-suppressed frame still forwarded")
	}
	// An untouched frame must pass through without re-encoding.
	clean := wire.BatchBytes([]wire.BatchRecord{{Key: k[:], Tag: "keep", Payload: []byte("y")}})
	np2, forward := intercept(k, FrameTag, clean)
	if !forward || &np2[0] != &clean[0] {
		t.Fatal("untouched frame was re-encoded")
	}
}

func TestCloseFlushesAndPassesThrough(t *testing.T) {
	f := newFake()
	b := New(f, Config{MaxRecords: 1000, MaxDelay: time.Hour})
	delivered := 0
	b.SetDeliver(func(overlay.Node, id.ID, string, []byte) { delivered++ })
	k := f.remoteKey("k", "owner:1")
	_ = b.Route(k, "t", []byte("a"))
	_ = b.Route(k, "t", []byte("b"))
	b.Close()
	if delivered != 2 {
		t.Fatalf("Close flushed %d records, want 2", delivered)
	}
	_ = b.Route(k, "t", []byte("c"))
	if delivered != 3 {
		t.Fatal("post-Close route did not pass through")
	}
}

// TestConcurrentRouteAndFlush hammers the batcher from routing and
// flushing goroutines at once — the continuous-query pattern where
// per-tick barriers run concurrently with another query's rehash.
// Run under -race this guards the barrier accounting.
func TestConcurrentRouteAndFlush(t *testing.T) {
	f := newFake()
	b := New(f, Config{MaxRecords: 4, MaxDelay: time.Millisecond})
	var delivered sync.Map
	var count int64
	b.SetDeliver(func(from overlay.Node, key id.ID, tag string, payload []byte) {
		delivered.Store(string(payload), true)
		atomic.AddInt64(&count, 1)
	})
	keys := make([]id.ID, 8)
	for i := range keys {
		keys[i] = f.remoteKey(fmt.Sprintf("k%d", i), fmt.Sprintf("owner:%d", i%3))
	}
	const writers, perWriter = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				_ = b.Route(keys[(w+i)%len(keys)], "t", []byte(fmt.Sprintf("w%d-%d", w, i)))
				if i%16 == 0 {
					b.Flush()
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { // independent flusher, like the republish loop
		for {
			select {
			case <-done:
				return
			default:
				b.Flush()
			}
		}
	}()
	wg.Wait()
	close(done)
	b.Flush()
	if got := atomic.LoadInt64(&count); got != writers*perWriter {
		t.Fatalf("delivered %d records, want %d", got, writers*perWriter)
	}
}

func TestRouteNeverBlocksOnSlowLookup(t *testing.T) {
	f := newFake()
	release := make(chan struct{})
	f.lookupGate = release
	b := New(f, Config{MaxRecords: 1000, MaxDelay: time.Hour})
	var got []string
	b.SetDeliver(func(from overlay.Node, key id.ID, tag string, payload []byte) {
		got = append(got, string(payload))
	})
	k := f.remoteKey("k", "owner:1")
	start := time.Now()
	for i := 0; i < 3; i++ {
		_ = b.Route(k, "t", []byte(fmt.Sprintf("p%d", i)))
	}
	if d := time.Since(start); d > 200*time.Millisecond {
		t.Fatalf("Route blocked %v on an unresolved owner", d)
	}
	close(release) // let the lookup finish
	b.Flush()
	if len(got) != 3 {
		t.Fatalf("delivered %d records after resolution, want 3", len(got))
	}
	if frames := f.routesByTag(FrameTag); len(frames) != 1 {
		t.Fatalf("records routed during a slow lookup were not framed (frames=%d)", len(frames))
	}
}

func TestLookupFailurePassesThrough(t *testing.T) {
	f := newFake()
	f.lookupErr = fmt.Errorf("no route")
	b := New(f, Config{MaxRecords: 1000, MaxDelay: time.Hour})
	delivered := 0
	b.SetDeliver(func(overlay.Node, id.ID, string, []byte) { delivered++ })
	_ = b.Route(id.HashString("k"), "t", []byte("a"))
	b.Flush()
	if delivered != 1 {
		t.Fatal("record lost when owner resolution failed")
	}
}

func TestRouteManyCoalescesLikeRoute(t *testing.T) {
	f := newFake()
	b := New(f, Config{MaxRecords: 4, MaxDelay: time.Hour})
	k1 := f.remoteKey("rm-a", "owner-a:1")
	k2 := f.remoteKey("rm-b", "owner-b:1")
	// Warm the owner cache so the vector path frames synchronously.
	_ = b.Route(k1, "t", []byte("warm1"))
	_ = b.Route(k2, "t", []byte("warm2"))
	b.Flush()
	f.mu.Lock()
	f.routes = nil
	f.mu.Unlock()

	recs := make([]Record, 0, 8)
	for i := 0; i < 4; i++ {
		recs = append(recs, Record{Key: k1, Tag: "t", Payload: []byte(fmt.Sprintf("a%d", i))})
		recs = append(recs, Record{Key: k2, Tag: "t", Payload: []byte(fmt.Sprintf("b%d", i))})
	}
	if err := b.RouteMany(recs); err != nil {
		t.Fatal(err)
	}
	b.Flush()
	frames := f.routesByTag(FrameTag)
	if len(frames) != 2 {
		t.Fatalf("got %d frames, want 2 (one per owner)", len(frames))
	}
	total := 0
	for _, fr := range frames {
		decoded, err := wire.DecodeBatch(fr.payload)
		if err != nil {
			t.Fatal(err)
		}
		total += len(decoded)
	}
	if total != 8 {
		t.Fatalf("frames carried %d records, want 8", total)
	}
	if got := f.routesByTag("t"); len(got) != 0 {
		t.Fatalf("%d records leaked as passthrough", len(got))
	}
}

func TestRouteManyLocalAndDisabledPassThrough(t *testing.T) {
	f := newFake()
	b := New(f, Config{Disabled: true})
	k := f.remoteKey("rm-d", "owner-d:1")
	if err := b.RouteMany([]Record{{Key: k, Tag: "t", Payload: []byte("x")}}); err != nil {
		t.Fatal(err)
	}
	if got := f.routesByTag("t"); len(got) != 1 {
		t.Fatalf("disabled RouteMany routed %d records, want 1 passthrough", len(got))
	}

	// Locally-owned keys pass through even when enabled.
	f2 := newFake()
	b2 := New(f2, Config{MaxDelay: time.Hour})
	local := id.HashString("rm-local") // fake defaults ownership to self
	_ = b2.Route(local, "t", []byte("warm"))
	b2.Flush()
	f2.mu.Lock()
	f2.routes = nil
	f2.mu.Unlock()
	if err := b2.RouteMany([]Record{{Key: local, Tag: "t", Payload: []byte("y")}}); err != nil {
		t.Fatal(err)
	}
	b2.Flush()
	if got := f2.routesByTag("t"); len(got) != 1 {
		t.Fatalf("locally-owned RouteMany routed %d records, want 1 passthrough", len(got))
	}
	if got := f2.routesByTag(FrameTag); len(got) != 0 {
		t.Fatalf("locally-owned records were framed")
	}
}

// TestFrameUpcallTakesOwnedRecordsInOneCall: an arriving frame of N
// records of a tag with a frame upcall, k of them owned here, reaches
// the upcall in one call holding exactly those k, in frame order; the
// other N−k are forwarded one by one, and a record of another tag is
// delivered as before.
func TestFrameUpcallTakesOwnedRecordsInOneCall(t *testing.T) {
	f := newFake()
	b := New(f, Config{})
	var delivered []string
	b.SetDeliver(func(_ overlay.Node, _ id.ID, tag string, payload []byte) {
		delivered = append(delivered, tag+":"+string(payload))
	})
	var calls [][]Record
	b.SetDeliverFrame("j", func(recs []Record) { calls = append(calls, recs) })

	const n, k = 9, 5
	var recs []wire.BatchRecord
	var wantOwned []string
	for i := 0; i < n; i++ {
		key := id.HashString(fmt.Sprintf("own-%d", i)) // the fake owns unscripted keys
		if i%2 == 1 {
			key = f.remoteKey(fmt.Sprintf("away-%d", i), "owner:1")
		} else {
			wantOwned = append(wantOwned, fmt.Sprint(i))
		}
		recs = append(recs, wire.BatchRecord{Key: append([]byte(nil), key[:]...), Tag: "j", Payload: []byte(fmt.Sprint(i))})
	}
	other := id.HashString("other")
	recs = append(recs, wire.BatchRecord{Key: other[:], Tag: "t", Payload: []byte("x")})
	f.deliver(f.self, other, FrameTag, wire.BatchBytes(recs))

	if len(calls) != 1 {
		t.Fatalf("frame upcall called %d times, want 1", len(calls))
	}
	var got []string
	for _, r := range calls[0] {
		if r.Tag != "j" || !b.Owns(r.Key) {
			t.Fatalf("upcall got record %+v it does not own", r)
		}
		got = append(got, string(r.Payload))
	}
	if len(got) != k || fmt.Sprint(got) != fmt.Sprint(wantOwned) {
		t.Fatalf("upcall got %v, want the %d owned records %v", got, k, wantOwned)
	}
	if fwd := f.routesByTag("j"); len(fwd) != n-k {
		t.Fatalf("%d records forwarded, want %d", len(fwd), n-k)
	}
	// The fake delivers forwarded records back here, one upcall each.
	if len(delivered) != n-k+1 || delivered[len(delivered)-1] != "t:x" {
		t.Fatalf("delivery upcalls %v, want the %d forwarded records and t:x", delivered, n-k)
	}
	if in := b.MetricsRef().FramesIn.Load(); in != 1 {
		t.Fatalf("FramesIn %d, want 1", in)
	}
}

// TestRouteManyOwnedRecordsInOneCall: the records of one RouteMany call
// that this node owns, of a tag with a frame upcall, reach the upcall in
// one call, as an arriving frame's do; none is routed.
func TestRouteManyOwnedRecordsInOneCall(t *testing.T) {
	f := newFake()
	b := New(f, Config{MaxDelay: time.Hour})
	var calls [][]Record
	b.SetDeliverFrame("j", func(recs []Record) { calls = append(calls, recs) })
	var recs []Record
	for i := 0; i < 4; i++ {
		k := id.HashString(fmt.Sprintf("rm-own-%d", i)) // the fake owns unscripted keys
		_ = b.Route(k, "warm", nil)                     // resolve the owner into the cache
		recs = append(recs, Record{Key: k, Tag: "j", Payload: []byte{byte(i)}})
	}
	b.Flush()
	if err := b.RouteMany(recs); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 1 || len(calls[0]) != len(recs) {
		t.Fatalf("frame upcall calls %v, want one with %d records", calls, len(recs))
	}
	if got := f.routesByTag("j"); len(got) != 0 {
		t.Fatalf("%d owned records routed", len(got))
	}
}
