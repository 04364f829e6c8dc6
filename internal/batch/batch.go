// Package batch implements per-destination coalescing of routed
// overlay messages. PIER's evaluation is dominated by routed-message
// counts: every rehashed join tuple, every aggregation partial, and
// every DHT put is a small record that pays the full multi-hop routing
// cost on its own. The Batcher wraps any overlay.Router and groups
// Route calls into multi-record frames keyed by the owner of each
// record's routing key, flushing a frame when it reaches a byte
// budget, a record count, or a delay timer — the partition-granularity
// buffering that makes distributed hash operators robust at scale.
//
// Owners are resolved with Lookup and cached with a TTL; the cache is
// invalidated when a frame send fails (the owner died) and simply goes
// stale-and-expires under churn. Correctness never depends on the
// cache: a frame is routed by key like any other message, or first
// handed to its cached owner, which forwards it by key like any relay
// when it no longer owns the key; either way it arrives at the
// *current* owner of its representative key, and the
// receiving Batcher demultiplexes by re-routing each record through
// its own router — records the receiver owns are delivered locally in
// one step (the common case), while records whose ownership moved take
// extra hops toward their true owner. Delivery upcalls therefore fire
// exactly once per logical record, with tags unchanged, and relay
// intercept upcalls (in-network aggregation) are applied per record
// inside frames as well. The tag with a frame upcall (SetDeliverFrame)
// gets the records of one arriving frame that the receiver owns in one
// call instead of one delivery each. A frame holding only records of
// that tag takes its cached owner as its first hop when the wrapped
// router offers one (chord's RouteVia): one datagram instead of one per
// hop, unless the router knows the owner is dead and routes by key.
package batch

import (
	"context"
	"sync"
	"time"

	"repro/internal/id"
	"repro/internal/obs"
	"repro/internal/overlay"
	"repro/internal/wire"
)

// FrameTag is the overlay tag claimed by batch frames. Application
// tags must not collide with it.
const FrameTag = "batch.frame"

// maxCachedOwners bounds the owner cache so long-lived nodes with
// high-cardinality key traffic cannot grow it without limit.
const maxCachedOwners = 8192

// maxFrameBytes caps the byte budget regardless of configuration so a
// worst-case frame (budget plus one record's overhead) stays under
// transport.MaxDatagram (60KiB) after routing headers.
const maxFrameBytes = 48 << 10

// Config tunes the batcher. The zero value enables batching with
// simulation-scale defaults.
type Config struct {
	// Disabled turns coalescing off: Route passes through unchanged.
	// Incoming frames from batching peers are still demultiplexed.
	Disabled bool
	// MaxRecords flushes a frame at this record count. Default 64.
	MaxRecords int
	// MaxBytes flushes a frame when its encoded payload bytes reach
	// this budget; records larger than it bypass batching entirely.
	// Default 8192 (frames stay well under transport.MaxDatagram
	// after routing headers).
	MaxBytes int
	// MaxDelay bounds how long a record may wait in a partial frame.
	// Default 2ms.
	MaxDelay time.Duration
	// OwnerTTL is the owner-cache entry lifetime. Default 2s.
	OwnerTTL time.Duration
}

func (c Config) withDefaults() Config {
	// Zero or negative knobs take the default: a negative budget would
	// otherwise silently flush every record alone (use Disabled to
	// turn coalescing off on purpose).
	if c.MaxRecords <= 0 {
		c.MaxRecords = 64
	}
	if c.MaxBytes <= 0 {
		c.MaxBytes = 8192
	}
	if c.MaxBytes > maxFrameBytes {
		c.MaxBytes = maxFrameBytes
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 2 * time.Millisecond
	}
	if c.OwnerTTL <= 0 {
		c.OwnerTTL = 2 * time.Second
	}
	return c
}

// Metrics counts batcher activity.
type Metrics struct {
	// RecordsIn is the number of logical Route calls accepted for
	// coalescing.
	RecordsIn obs.Counter
	// FramesOut is the number of multi-record frames routed.
	FramesOut obs.Counter
	// FrameRecords is the total records shipped inside frames.
	FrameRecords obs.Counter
	// Passthrough counts records routed individually (batching
	// disabled, oversized payloads, failed owner resolution,
	// single-record flushes, and frame-send fallbacks).
	Passthrough obs.Counter
	// OwnerHits / OwnerMisses count owner-cache outcomes.
	OwnerHits   obs.Counter
	OwnerMisses obs.Counter
	// Invalidations counts owner-cache entries dropped after a frame
	// send failed.
	Invalidations obs.Counter
	// FramesIn counts arriving frames; Demuxed counts the records
	// unpacked from them.
	FramesIn obs.Counter
	Demuxed  obs.Counter
	// Flush reasons: byte-budget pre-flush, record-count full frame,
	// MaxDelay timer, and Flush() barrier detach.
	FlushBytes   obs.Counter
	FlushCount   obs.Counter
	FlushTimer   obs.Counter
	FlushBarrier obs.Counter
}

// RegisterMetrics attaches the batcher's counters to a registry under
// batch_* series names, plus a computed coalesce ratio (records per
// multi-record frame).
func (b *Batcher) RegisterMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	m := &b.metrics
	reg.RegisterCounter("batch_records_in_total", &m.RecordsIn)
	reg.RegisterCounter("batch_frames_out_total", &m.FramesOut)
	reg.RegisterCounter("batch_frame_records_total", &m.FrameRecords)
	reg.RegisterCounter("batch_passthrough_total", &m.Passthrough)
	reg.RegisterCounter("batch_owner_hits_total", &m.OwnerHits)
	reg.RegisterCounter("batch_owner_misses_total", &m.OwnerMisses)
	reg.RegisterCounter("batch_invalidations_total", &m.Invalidations)
	reg.RegisterCounter("batch_frames_in_total", &m.FramesIn)
	reg.RegisterCounter("batch_demuxed_total", &m.Demuxed)
	reg.RegisterCounter(obs.L("batch_flushes_total", "reason", "bytes"), &m.FlushBytes)
	reg.RegisterCounter(obs.L("batch_flushes_total", "reason", "count"), &m.FlushCount)
	reg.RegisterCounter(obs.L("batch_flushes_total", "reason", "timer"), &m.FlushTimer)
	reg.RegisterCounter(obs.L("batch_flushes_total", "reason", "barrier"), &m.FlushBarrier)
	reg.RegisterFunc("batch_coalesce_ratio", func() float64 {
		frames := m.FramesOut.Load()
		if frames == 0 {
			return 0
		}
		return float64(m.FrameRecords.Load()) / float64(frames)
	})
}

type ownerEntry struct {
	addr    string
	expires time.Time
}

// pendingFrame accumulates records destined for one owner, each
// encoded into the frame as it arrives.
type pendingFrame struct {
	repKey id.ID  // routing key for the frame (first record's key)
	tag    string // the first record's tag
	recs   wire.BatchBuilder
	bytes  int // the records' wire.BatchRecordSize, the budget's measure
	timer  *time.Timer
	// direct: every record carries the tag with a frame upcall, so the
	// frame goes straight to its owner (routeVia); else hop by hop.
	direct bool
}

// ownedFrame pairs a detached frame with its destination for sending
// outside the lock.
type ownedFrame struct {
	owner string
	f     *pendingFrame
}

// pendingLookup is an in-flight owner resolution. Records routed to
// the key while the lookup runs wait here instead of blocking the
// caller; they are framed (or routed individually) when it completes.
type pendingLookup struct {
	records []waiting
	done    chan struct{} // closed after the records are handed off
}

// waiting is a record held by a pendingLookup: its key is the lookup's.
type waiting struct {
	tag     string
	payload []byte
}

// routeVia is a router that can route a message with a given node as
// its first hop (chord.Node.RouteVia).
type routeVia interface {
	RouteVia(addr string, key id.ID, tag string, payload []byte) error
}

// lookupTimeout bounds the owner resolution on a cache miss.
const lookupTimeout = 750 * time.Millisecond

// maxInflightLookups bounds concurrent owner resolutions so
// high-cardinality key streams cannot flood the overlay with lookup
// traffic; records for keys beyond the cap route straight through.
const maxInflightLookups = 64

// Batcher is an overlay.Router that coalesces Route calls. All other
// Router methods pass through to the wrapped router.
type Batcher struct {
	inner overlay.Router
	via   routeVia // inner's direct first hop; nil: frames route by key
	cfg   Config
	self  string // inner.Self().Addr, cached

	mu        sync.Mutex
	frames    map[string]*pendingFrame // owner addr -> accumulating frame
	owners    map[id.ID]ownerEntry     // routing key -> cached owner
	resolving map[id.ID]*pendingLookup // routing key -> in-flight lookup
	frameTag  string                   // the tag with a frame upcall (SetDeliverFrame)
	frameFn   FrameFunc                // its upcall; nil: none
	closed    bool

	// inflight counts detached-but-unsent frames and lookup handoffs,
	// so Flush can wait for them (a concurrent full-frame send or a
	// fired delay timer must not escape the barrier). Guarded by mu;
	// idle broadcasts on every decrement. A plain sync.WaitGroup would
	// race here: Add from zero (a new detach) can run concurrently
	// with a flusher's Wait.
	inflight int
	idle     *sync.Cond // on mu

	metrics Metrics
}

var _ overlay.Router = (*Batcher)(nil)

// New wraps inner. The Batcher claims the FrameTag delivery and
// installs its demux wrapper as soon as SetDeliver is called.
func New(inner overlay.Router, cfg Config) *Batcher {
	b := &Batcher{
		inner:     inner,
		cfg:       cfg.withDefaults(),
		self:      inner.Self().Addr,
		frames:    make(map[string]*pendingFrame),
		owners:    make(map[id.ID]ownerEntry),
		resolving: make(map[id.ID]*pendingLookup),
	}
	b.via, _ = inner.(routeVia)
	b.idle = sync.NewCond(&b.mu)
	return b
}

// releaseInflight decrements the in-flight counter and wakes waiting
// flushers.
func (b *Batcher) releaseInflight() {
	b.mu.Lock()
	b.inflight--
	b.idle.Broadcast()
	b.mu.Unlock()
}

// Unwrap returns the wrapped router.
func (b *Batcher) Unwrap() overlay.Router { return b.inner }

// MetricsRef exposes the counters (benchmark harness).
func (b *Batcher) MetricsRef() *Metrics { return &b.metrics }

// Self returns the wrapped router's identity.
func (b *Batcher) Self() overlay.Node { return b.inner.Self() }

// Lookup passes through to the wrapped router.
func (b *Batcher) Lookup(ctx context.Context, key id.ID) (overlay.Node, int, error) {
	return b.inner.Lookup(ctx, key)
}

// Owns passes through to the wrapped router.
func (b *Batcher) Owns(key id.ID) bool { return b.inner.Owns(key) }

// Predecessor passes through to the wrapped router.
func (b *Batcher) Predecessor() overlay.Node { return b.inner.Predecessor() }

// Broadcast passes through to the wrapped router.
func (b *Batcher) Broadcast(tag string, payload []byte) error {
	return b.inner.Broadcast(tag, payload)
}

// Neighbors passes through to the wrapped router.
func (b *Batcher) Neighbors() []overlay.Node { return b.inner.Neighbors() }

// SetBroadcast passes through to the wrapped router.
func (b *Batcher) SetBroadcast(fn overlay.BroadcastFunc) { b.inner.SetBroadcast(fn) }

// SetDeliver installs fn behind the frame demultiplexer: arriving
// frames are unpacked and each record re-routed through the wrapped
// router, so fn fires once per logical record with its original key
// and tag (owned records of the tag with a frame upcall go to that
// instead, see SetDeliverFrame). Records the local node owns (the
// common case) deliver immediately; records whose ownership moved
// since the sender cached it are forwarded toward the current owner.
// The from argument of
// demultiplexed deliveries is the demuxing node, not the original
// sender — no engine upcall depends on it.
func (b *Batcher) SetDeliver(fn overlay.DeliverFunc) {
	b.inner.SetDeliver(func(from overlay.Node, key id.ID, tag string, payload []byte) {
		if tag != FrameTag {
			if fn != nil {
				fn(from, key, tag, payload)
			}
			return
		}
		b.demux(payload)
	})
}

// FrameFunc receives, in one call, the records of one arriving frame
// that carry the tag it was installed for and that this node owns.
type FrameFunc func(recs []Record)

// SetDeliverFrame installs fn as the frame upcall of tag (one tag has
// one): an arriving frame's records of that tag which this node owns
// reach fn together, once per frame, instead of one delivery upcall
// each. Records it does not own are forwarded one by one, as every
// other record is, and a record of the tag that arrives outside a frame
// still reaches the delivery upcall.
func (b *Batcher) SetDeliverFrame(tag string, fn FrameFunc) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.frameTag, b.frameFn = tag, fn
}

func (b *Batcher) demux(frame []byte) {
	b.mu.Lock()
	tag, fn := b.frameTag, b.frameFn
	b.mu.Unlock()
	var br wire.BatchReader
	left, err := br.Reset(frame, tag)
	if err != nil {
		return // best effort, like any corrupt datagram
	}
	b.metrics.FramesIn.Add(1)
	var owned []Record
	for rec, ok := br.Next(); ok; rec, ok = br.Next() {
		left--
		if len(rec.Key) != id.Bytes || rec.Tag == FrameTag {
			continue
		}
		b.metrics.Demuxed.Add(1)
		rkey := id.ID(rec.Key)
		if fn != nil && rec.Tag == tag && b.inner.Owns(rkey) {
			if owned == nil {
				// Sized for the rest of the frame: a frame sent to its
				// owner is that owner's to the last record.
				owned = make([]Record, 0, left+1)
			}
			owned = append(owned, Record{Key: rkey, Tag: rec.Tag, Payload: rec.Payload})
			continue
		}
		_ = b.inner.Route(rkey, rec.Tag, rec.Payload)
	}
	if len(owned) > 0 {
		fn(owned)
	}
}

// SetIntercept installs fn so that relay upcalls fire per logical
// record even inside frames: each record is offered to fn with its own
// key and tag, suppressed records are dropped from the frame, and the
// frame is re-encoded only when something changed. In-network
// aggregation therefore keeps combining batched partials at relays.
func (b *Batcher) SetIntercept(fn overlay.InterceptFunc) {
	if fn == nil {
		b.inner.SetIntercept(nil)
		return
	}
	b.inner.SetIntercept(func(key id.ID, tag string, payload []byte) ([]byte, bool) {
		if tag != FrameTag {
			return fn(key, tag, payload)
		}
		var br wire.BatchReader
		if _, err := br.Reset(payload, ""); err != nil {
			return payload, true
		}
		// kept re-encodes the frame as records are offered; it becomes
		// the frame only if something changed.
		var kept wire.BatchBuilder
		defer kept.Release()
		changed := false
		for rec, ok := br.Next(); ok; rec, ok = br.Next() {
			if len(rec.Key) == id.Bytes {
				np, forward := fn(id.ID(rec.Key), rec.Tag, rec.Payload)
				if !forward {
					changed = true
					continue
				}
				if !sameSlice(np, rec.Payload) {
					changed = true
					rec.Payload = np
				}
			}
			kept.Add(rec.Key, rec.Tag, rec.Payload)
		}
		if !changed {
			return payload, true
		}
		if kept.Len() == 0 {
			return nil, false
		}
		return kept.Frame(), true
	})
}

func sameSlice(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	return len(a) == 0 || &a[0] == &b[0]
}

// Route coalesces the record into the pending frame for the owner of
// key, flushing on the byte budget, the record count, or the delay
// timer. Route never blocks on the network: records whose owner is
// not cached wait on an asynchronous lookup (bounded in number) and
// are framed when it completes. Oversized payloads, frame payloads,
// and records whose owner cannot be resolved pass straight through to
// the wrapped router. The payload must not be mutated after the call.
func (b *Batcher) Route(key id.ID, tag string, payload []byte) error {
	if b.cfg.Disabled || tag == FrameTag || len(payload) > b.cfg.MaxBytes {
		b.metrics.Passthrough.Add(1)
		return b.inner.Route(key, tag, payload)
	}
	var sendBuf [2]ownedFrame
	now := time.Now()
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		b.metrics.Passthrough.Add(1)
		return b.inner.Route(key, tag, payload)
	}
	if e, ok := b.owners[key]; ok && now.Before(e.expires) {
		addr := e.addr
		if addr == b.self {
			// Locally-owned key: delivery is a local call; batching
			// would only add latency.
			b.mu.Unlock()
			b.metrics.OwnerHits.Add(1)
			b.metrics.Passthrough.Add(1)
			return b.inner.Route(key, tag, payload)
		}
		b.metrics.RecordsIn.Add(1)
		toSend := b.appendLocked(sendBuf[:0], addr, key, tag, payload)
		b.mu.Unlock()
		b.metrics.OwnerHits.Add(1)
		for _, it := range toSend {
			b.dispatch(it.owner, it.f)
		}
		return nil
	}
	if !b.waitLocked(key, waiting{tag: tag, payload: payload}) {
		b.mu.Unlock()
		b.metrics.Passthrough.Add(1)
		return b.inner.Route(key, tag, payload)
	}
	b.mu.Unlock()
	return nil
}

// waitLocked queues w behind the owner lookup of key, starting one when
// none runs; false when the lookup cap leaves w to be routed as it is.
// Caller holds b.mu.
func (b *Batcher) waitLocked(key id.ID, w waiting) bool {
	if pl := b.resolving[key]; pl != nil {
		// A lookup for this key is already running: wait with it.
		pl.records = append(pl.records, w)
		b.metrics.RecordsIn.Add(1)
		return true
	}
	if len(b.resolving) >= maxInflightLookups {
		return false
	}
	pl := &pendingLookup{records: []waiting{w}, done: make(chan struct{})}
	b.resolving[key] = pl
	b.metrics.OwnerMisses.Add(1)
	b.metrics.RecordsIn.Add(1)
	go b.runLookup(key, pl)
	return true
}

// Record is one logical routed message for RouteMany.
type Record struct {
	Key     id.ID
	Tag     string
	Payload []byte
}

// RouteMany coalesces a pre-batched slice of records in one lock
// acquisition — the batch-at-a-time ship path hands a whole vector of
// rehashed tuples over instead of paying the per-record Route
// overhead (lock, cache probe, metrics) once per tuple. Semantics are
// those of calling Route per record, except that the records this node
// owns of the tag with a frame upcall reach it in one call, like an
// arriving frame's, and that the payloads stay the caller's: a record
// is copied into its owner's frame, or into a copy of its own while it
// waits on a lookup, so the caller may reuse a payload's storage once
// RouteMany returns, as long as the delivery upcalls of its tag keep
// nothing they are handed (the engine's join upcall decodes its records
// within the call).
func (b *Batcher) RouteMany(recs []Record) error {
	if b.cfg.Disabled {
		var first error
		for _, r := range recs {
			b.metrics.Passthrough.Add(1)
			if err := b.inner.Route(r.Key, r.Tag, r.Payload); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	var sendBuf [8]ownedFrame
	toSend := sendBuf[:0]
	var passBuf [64]int32
	pass := passBuf[:0] // indexes of the records routed one by one
	now := time.Now()
	b.mu.Lock()
	tag, fn := b.frameTag, b.frameFn
	for i, r := range recs {
		if r.Tag == FrameTag || len(r.Payload) > b.cfg.MaxBytes || b.closed {
			pass = append(pass, int32(i))
			continue
		}
		if e, ok := b.owners[r.Key]; ok && now.Before(e.expires) {
			b.metrics.OwnerHits.Add(1)
			if e.addr == b.self {
				// Locally-owned key: delivery is a local call.
				pass = append(pass, int32(i))
				continue
			}
			b.metrics.RecordsIn.Add(1)
			toSend = b.appendLocked(toSend, e.addr, r.Key, r.Tag, r.Payload)
			continue
		}
		if b.resolving[r.Key] == nil && len(b.resolving) >= maxInflightLookups {
			pass = append(pass, int32(i))
			continue
		}
		b.waitLocked(r.Key, waiting{tag: r.Tag, payload: append([]byte(nil), r.Payload...)})
	}
	b.mu.Unlock()
	var first error
	var owned []Record
	for _, i := range pass {
		r := recs[i]
		b.metrics.Passthrough.Add(1)
		if fn != nil && r.Tag == tag && b.inner.Owns(r.Key) {
			// Owned here: the call's owned records of the tag reach its
			// frame upcall together, as an arriving frame's do.
			if owned == nil {
				owned = make([]Record, 0, len(pass))
			}
			owned = append(owned, r)
			continue
		}
		if err := b.inner.Route(r.Key, r.Tag, r.Payload); err != nil && first == nil {
			first = err
		}
	}
	if len(owned) > 0 {
		fn(owned)
	}
	for _, it := range toSend {
		b.dispatch(it.owner, it.f)
	}
	return first
}

// appendLocked encodes a record into owner's accumulating frame and
// appends to toSend any frames that must be sent (early flush to
// respect the byte budget, and/or the now-full frame). Caller holds
// b.mu and sends the result after unlocking.
func (b *Batcher) appendLocked(toSend []ownedFrame, owner string, key id.ID, tag string, payload []byte) []ownedFrame {
	recSize := wire.BatchRecordSize(wire.BatchRecord{Key: key[:], Tag: tag, Payload: payload})
	f := b.frames[owner]
	if f != nil && f.bytes+recSize > b.cfg.MaxBytes {
		// Appending would blow the byte budget (and potentially the
		// transport datagram limit): ship what's pending first.
		b.metrics.FlushBytes.Add(1)
		toSend = append(toSend, ownedFrame{owner, b.detachLocked(owner)})
		f = nil
	}
	if f == nil {
		f = &pendingFrame{repKey: key, tag: tag, direct: b.via != nil && b.frameFn != nil}
		ownerCopy := owner
		f.timer = time.AfterFunc(b.cfg.MaxDelay, func() { b.flushOwner(ownerCopy) })
		b.frames[owner] = f
	}
	f.recs.Add(key[:], tag, payload)
	f.bytes += recSize
	f.direct = f.direct && tag == b.frameTag
	if n := f.recs.Len(); n >= b.cfg.MaxRecords || f.bytes >= b.cfg.MaxBytes {
		if n >= b.cfg.MaxRecords {
			b.metrics.FlushCount.Add(1)
		} else {
			b.metrics.FlushBytes.Add(1)
		}
		toSend = append(toSend, ownedFrame{owner, b.detachLocked(owner)})
	}
	return toSend
}

// runLookup resolves the owner of key and hands the waiting records
// over: into frames on success, individually routed otherwise (or
// when the owner is the local node, or the batcher has closed).
func (b *Batcher) runLookup(key id.ID, pl *pendingLookup) {
	defer close(pl.done)
	ctx, cancel := context.WithTimeout(context.Background(), lookupTimeout)
	owner, _, err := b.inner.Lookup(ctx, key)
	cancel()
	resolved := err == nil && !owner.IsZero()
	now := time.Now()
	b.mu.Lock()
	delete(b.resolving, key)
	recs := pl.records
	pl.records = nil
	if resolved {
		b.cacheOwnerLocked(key, owner.Addr, now)
	}
	var toSend []ownedFrame
	if resolved && owner.Addr != b.self && !b.closed {
		for _, w := range recs {
			toSend = b.appendLocked(toSend, owner.Addr, key, w.tag, w.payload)
		}
		recs = nil
	}
	// Register the handoff with the barrier while still holding the
	// lock, so a concurrent Flush that no longer sees this resolving
	// entry still waits for these sends.
	b.inflight++
	b.mu.Unlock()
	defer b.releaseInflight()
	for _, w := range recs {
		b.metrics.Passthrough.Add(1)
		_ = b.inner.Route(key, w.tag, w.payload)
	}
	for _, it := range toSend {
		b.dispatch(it.owner, it.f)
	}
}

// cacheOwnerLocked inserts an owner-cache entry, pruning when full.
// Caller holds b.mu.
func (b *Batcher) cacheOwnerLocked(key id.ID, addr string, now time.Time) {
	if len(b.owners) >= maxCachedOwners {
		for k, e := range b.owners {
			if now.After(e.expires) {
				delete(b.owners, k)
			}
		}
		if len(b.owners) >= maxCachedOwners {
			b.owners = make(map[id.ID]ownerEntry)
		}
	}
	b.owners[key] = ownerEntry{addr: addr, expires: now.Add(b.cfg.OwnerTTL)}
}

// InvalidateOwner drops every owner-cache entry pointing at addr.
// Called internally when a frame send fails; exposed so integrations
// with their own failure detectors can invalidate eagerly on churn.
func (b *Batcher) InvalidateOwner(addr string) {
	b.mu.Lock()
	for k, e := range b.owners {
		if e.addr == addr {
			delete(b.owners, k)
			b.metrics.Invalidations.Add(1)
		}
	}
	b.mu.Unlock()
}

// detachLocked removes and returns the pending frame for owner,
// stopping its timer and registering the in-flight send with the
// barrier counter. Caller holds b.mu and MUST pass a non-nil result
// to dispatch.
func (b *Batcher) detachLocked(owner string) *pendingFrame {
	f := b.frames[owner]
	if f == nil {
		return nil
	}
	delete(b.frames, owner)
	f.timer.Stop()
	b.inflight++
	return f
}

// dispatch sends a detached frame and releases its barrier slot.
func (b *Batcher) dispatch(owner string, f *pendingFrame) {
	defer b.releaseInflight()
	b.sendFrame(owner, f)
}

func (b *Batcher) flushOwner(owner string) {
	b.mu.Lock()
	f := b.detachLocked(owner)
	b.mu.Unlock()
	if f != nil {
		b.metrics.FlushTimer.Add(1)
		b.dispatch(owner, f)
	}
}

// sendFrame routes a detached frame. Single-record frames ship as
// plain routed messages (no frame overhead). A failed frame send
// invalidates the owner cache for this destination and falls back to
// routing each record individually, read back from the frame, so one
// dead owner cannot drop a whole batch.
func (b *Batcher) sendFrame(owner string, f *pendingFrame) {
	n := f.recs.Len()
	frame := f.recs.Frame()
	f.recs.Release()
	var br wire.BatchReader
	if n == 1 {
		br.Reset(frame, f.tag)
		rec, _ := br.Next()
		b.metrics.Passthrough.Add(1)
		_ = b.routeFrame(owner, f, rec.Tag, rec.Payload)
		return
	}
	err := b.routeFrame(owner, f, FrameTag, frame)
	if err == nil {
		b.metrics.FramesOut.Add(1)
		b.metrics.FrameRecords.Add(uint64(n))
		return
	}
	b.InvalidateOwner(owner)
	br.Reset(frame, f.tag)
	for rec, ok := br.Next(); ok; rec, ok = br.Next() {
		b.metrics.Passthrough.Add(1)
		_ = b.inner.Route(id.ID(rec.Key), rec.Tag, rec.Payload)
	}
}

// routeFrame routes f's message under its representative key: straight
// to owner when f is direct, else hop by hop.
func (b *Batcher) routeFrame(owner string, f *pendingFrame, tag string, payload []byte) error {
	if f.direct {
		return b.via.RouteVia(owner, f.repKey, tag, payload)
	}
	return b.inner.Route(f.repKey, tag, payload)
}

// Flush synchronously drains the batcher — the barrier callers run at
// query-completion points so "my scan is done" is never reported
// while rehashed tuples still sit in local buffers. It waits
// (bounded by lookupTimeout) for in-flight owner resolutions holding
// records, sends every pending frame, and waits for concurrently
// detached frames (full-frame or timer flushes in other goroutines)
// to finish sending.
func (b *Batcher) Flush() {
	// Wait (bounded) for owner lookups that were already holding
	// records when Flush was called. Lookups started afterwards belong
	// to later work and do not extend the barrier, so one slow lookup
	// cannot stall repeated flush ticks indefinitely.
	b.mu.Lock()
	waits := make([]chan struct{}, 0, len(b.resolving))
	for _, pl := range b.resolving {
		if len(pl.records) > 0 {
			waits = append(waits, pl.done)
		}
	}
	b.mu.Unlock()
	if len(waits) > 0 {
		deadline := time.NewTimer(lookupTimeout + 100*time.Millisecond)
	waitLoop:
		for _, ch := range waits {
			select {
			case <-ch:
			case <-deadline.C:
				break waitLoop // stragglers route when their lookups finish
			}
		}
		deadline.Stop()
	}
	b.mu.Lock()
	owners := make([]string, 0, len(b.frames))
	for owner := range b.frames {
		owners = append(owners, owner)
	}
	items := make([]ownedFrame, 0, len(owners))
	for _, owner := range owners {
		if f := b.detachLocked(owner); f != nil {
			items = append(items, ownedFrame{owner, f})
		}
	}
	b.mu.Unlock()
	b.metrics.FlushBarrier.Add(uint64(len(items)))
	for _, it := range items {
		b.dispatch(it.owner, it.f)
	}
	// Wait for sends detached by concurrent full-frame or timer
	// flushes so nothing escapes the barrier.
	b.mu.Lock()
	for b.inflight > 0 {
		b.idle.Wait()
	}
	b.mu.Unlock()
}

// Close flushes pending frames and stops accepting new coalescing work
// (subsequent Routes pass through). It does NOT stop the wrapped
// router — for integrations that share a router they do not own.
func (b *Batcher) Close() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	b.Flush()
}

// Stop closes the batcher and stops the wrapped router.
func (b *Batcher) Stop() {
	b.Close()
	b.inner.Stop()
}
