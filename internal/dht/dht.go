// Package dht implements PIER's distributed-hash-table storage API on
// top of any overlay.Router: Put/Get keyed by (namespace, resource
// ID), local scans, and the newData upcall the query engine's exchange
// operators consume. All state is soft: every item carries a TTL, the
// owner sweeps expired items, and holders periodically republish
// toward the current owner so data survives churn without any
// consistency protocol — exactly the paper's "relaxed consistency,
// best effort" storage model.
package dht

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/batch"
	"repro/internal/id"
	"repro/internal/obs"
	"repro/internal/overlay"
	"repro/internal/rpc"
	"repro/internal/wire"
)

const routeTag = "dht.put"

// Config tunes the store.
type Config struct {
	// Replicas is how many overlay neighbors receive a copy of each
	// item in addition to the owner. Default 2.
	Replicas int
	// SweepEvery is the expiry sweep period. Default 250ms
	// (simulation scale).
	SweepEvery time.Duration
	// RepublishEvery is how often holders re-route their live items
	// toward the current owner, repairing placement after churn.
	// Default 1s.
	RepublishEvery time.Duration
	// Batch configures per-destination coalescing of the Put and
	// republish-repair route traffic. Default on; set Batch.Disabled
	// to route every item individually. Ignored when the router
	// passed to New is already a batching wrapper (the query engine
	// shares one batcher across all its tags).
	Batch batch.Config
}

func (c Config) withDefaults() Config {
	if c.Replicas == 0 {
		c.Replicas = 2
	}
	if c.SweepEvery == 0 {
		c.SweepEvery = 250 * time.Millisecond
	}
	if c.RepublishEvery == 0 {
		c.RepublishEvery = time.Second
	}
	return c
}

const (
	// maxItemsPerNamespace bounds local storage per namespace
	// (receiver overload protection).
	maxItemsPerNamespace = 100000
	// getRetries bounds the Get attempt loop. Each attempt re-resolves
	// the key's owner through the overlay and backs off exponentially
	// (starting at getBackoff, doubling per attempt), so a Get issued
	// while the owner is crashing succeeds against the stabilized
	// successor — which holds the replica.
	getRetries = 4
	getBackoff = 25 * time.Millisecond
)

// Item is one stored soft-state entry. Identity is (Namespace,
// Resource, hash of Payload): re-putting identical bytes renews the
// TTL instead of duplicating.
type Item struct {
	Namespace string
	Resource  id.ID
	Payload   []byte
	Expires   time.Time
}

// Metrics counts store activity.
type Metrics struct {
	Puts        obs.Counter
	Gets        obs.Counter
	StoredNew   obs.Counter
	Renewed     obs.Counter
	Expired     obs.Counter
	Republished obs.Counter
	// GetFailovers counts Get attempts past the first — each is a
	// re-resolving retry that lands on the stabilized successor (the
	// replica set) when the primary owner died.
	GetFailovers obs.Counter
}

// RegisterMetrics attaches the store's counters to a registry under
// dht_* series names.
func (s *Store) RegisterMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.RegisterCounter("dht_puts_total", &s.metrics.Puts)
	reg.RegisterCounter("dht_gets_total", &s.metrics.Gets)
	reg.RegisterCounter("dht_stored_new_total", &s.metrics.StoredNew)
	reg.RegisterCounter("dht_renewed_total", &s.metrics.Renewed)
	reg.RegisterCounter("dht_expired_total", &s.metrics.Expired)
	reg.RegisterCounter("dht_republished_total", &s.metrics.Republished)
	reg.RegisterCounter("dht_get_failovers_total", &s.metrics.GetFailovers)
}

// SubscribeFunc receives newly arrived items for a namespace.
type SubscribeFunc func(Item)

type itemKey struct {
	rid  id.ID
	inst id.ID // hash of payload
}

type storedItem struct {
	payload []byte
	expires time.Time
	// replica marks copies pushed by the owner for fault tolerance;
	// scans skip them unless this node owns key, so they never
	// double-count, while Get serves them (read availability after
	// owner failure).
	replica bool
	// pinned marks node-local partition items (PutLocal): they live
	// where they were created and are never republished into the DHT.
	pinned bool
	key    id.ID // StorageKey of an unpinned item
}

// counted reports whether a scan sees it: live, and the copy this node
// answers for — a primary, or a replica of a key it owns (the owner
// left, and no republish round has promoted the copy yet).
func (it *storedItem) counted(now time.Time, own owned) bool {
	return now.Before(it.expires) && (!it.replica || own.has(it.key))
}

// owned is the key range this node answers for, (pred, self].
type owned struct {
	pred, self id.ID
	ok         bool
}

func (o owned) has(key id.ID) bool { return o.ok && id.BetweenRightIncl(key, o.pred, o.self) }

// owned reads the range for one scan. A node that knows no predecessor
// claims the whole ring, and would count the replicas of a live
// predecessor beside their primaries: its range is then empty.
func (s *Store) owned() owned {
	pred, self := s.router.Predecessor(), s.router.Self()
	return owned{pred: pred.ID, self: self.ID, ok: !pred.IsZero() && pred.Addr != self.Addr}
}

// Store is one node's slice of the DHT.
type Store struct {
	router overlay.Router
	peer   *rpc.Peer
	cfg    Config

	// ownBatcher is the batching wrapper this store created (nil when
	// the caller passed one in, or batching is disabled). Stop closes
	// it without stopping the underlying router.
	ownBatcher *batch.Batcher

	mu    sync.Mutex
	items map[string]map[itemKey]*storedItem
	subs  map[string][]SubscribeFunc

	metrics Metrics

	stopCh   chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// StorageKey maps (namespace, resource) onto the overlay key space.
func StorageKey(ns string, rid id.ID) id.ID {
	return id.HashParts(ns, string(rid[:]))
}

// New attaches a store to a router. The router's Deliver upcall for
// the "dht.put" tag is claimed by the store; other tags are forwarded
// to prev (chainable with the query engine's own tags).
func New(router overlay.Router, peer *rpc.Peer, cfg Config, prev overlay.DeliverFunc) *Store {
	s := &Store{
		router: router,
		peer:   peer,
		cfg:    cfg.withDefaults(),
		items:  make(map[string]map[itemKey]*storedItem),
		subs:   make(map[string][]SubscribeFunc),
		stopCh: make(chan struct{}),
	}
	// Coalesce put/republish route traffic unless the caller already
	// routes through a batcher of their own. Wrap even when Disabled:
	// the wrapper still demultiplexes frames arriving from batching
	// peers in a mixed cluster.
	if _, ok := router.(*batch.Batcher); !ok {
		s.ownBatcher = batch.New(router, cfg.Batch)
		s.router = s.ownBatcher
	}
	s.router.SetDeliver(func(from overlay.Node, key id.ID, tag string, payload []byte) {
		if tag == routeTag {
			s.onPut(payload)
			return
		}
		if prev != nil {
			prev(from, key, tag, payload)
		}
	})
	peer.Handle("dht.replica", func(from string, req []byte) ([]byte, error) {
		ns, rid, payload, expires, _, err := decodeItem(req)
		if err == nil && time.Now().Before(expires) {
			s.storeLocal(ns, rid, payload, expires, true, false)
		}
		return nil, nil
	})
	peer.Handle("dht.get", func(from string, req []byte) ([]byte, error) {
		r := wire.NewReader(req)
		ns := r.String()
		var rid id.ID
		copy(rid[:], r.Raw(id.Bytes))
		if err := r.Done(); err != nil {
			return nil, err
		}
		payloads := s.getLocal(ns, rid)
		w := wire.NewWriter(64)
		w.Uvarint(uint64(len(payloads)))
		for _, p := range payloads {
			w.BytesLP(p)
		}
		return w.Bytes(), nil
	})
	s.wg.Add(2)
	go s.sweepLoop()
	go s.republishLoop()
	return s
}

// Stop halts background maintenance. It does not close the router.
func (s *Store) Stop() {
	s.stopOnce.Do(func() { close(s.stopCh) })
	s.wg.Wait()
	if s.ownBatcher != nil {
		s.ownBatcher.Close() // flush pending puts; leaves the router running
	}
}

// encodeItem frames a routed item. holder is the node that republishes
// a primary it does not own (empty on a Put): the owner acknowledges
// the item to it once stored.
func encodeItem(ns string, rid id.ID, payload []byte, expires time.Time, holder string) []byte {
	w := wire.NewWriter(32 + len(ns) + len(payload) + len(holder))
	w.String(ns)
	w.Raw(rid[:])
	w.Time(expires)
	w.BytesLP(payload)
	w.String(holder)
	return w.Bytes()
}

func decodeItem(buf []byte) (ns string, rid id.ID, payload []byte, expires time.Time, holder string, err error) {
	r := wire.NewReader(buf)
	ns = r.String()
	copy(rid[:], r.Raw(id.Bytes))
	expires = r.Time()
	payload = append([]byte(nil), r.BytesLP()...)
	holder = r.String()
	err = r.Done()
	return
}

// Put publishes payload under (ns, rid) with the given lifetime. The
// item is routed to the owner of StorageKey(ns, rid), which replicates
// it to its overlay neighbors. Put is asynchronous and best effort.
func (s *Store) Put(ns string, rid id.ID, payload []byte, ttl time.Duration) error {
	s.metrics.Puts.Add(1)
	expires := time.Now().Add(ttl)
	return s.router.Route(StorageKey(ns, rid), routeTag, encodeItem(ns, rid, payload, expires, ""))
}

// onPut stores an item routed here, its owner, and pushes a replica of
// it to each of Replicas neighbors and to the holder that republished
// it, if that is none of them.
func (s *Store) onPut(buf []byte) {
	ns, rid, payload, expires, holder, err := decodeItem(buf)
	if err != nil || time.Now().After(expires) {
		return
	}
	s.storeLocal(ns, rid, payload, expires, false, false)
	neighbors := s.router.Neighbors()
	for _, nb := range neighbors[:min(len(neighbors), max(s.cfg.Replicas, 0))] {
		if nb.Addr == holder {
			holder = ""
		}
		_ = s.peer.Notify(nb.Addr, "dht.replica", buf)
	}
	if holder != "" && holder != s.router.Self().Addr {
		_ = s.peer.Notify(holder, "dht.replica", buf)
	}
}

// storeLocal inserts or renews a primary, a replica copy or a pinned
// item; it returns true (and fires subscriptions) when the item is new
// as a primary. A primary arrival promotes an existing replica in
// place, and a replica arrival demotes an unpinned primary: its sender
// stored the primary before pushing, so this copy (one kept from
// before a ring change) steps down.
func (s *Store) storeLocal(ns string, rid id.ID, payload []byte, expires time.Time, replica, pinned bool) bool {
	key := itemKey{rid: rid, inst: id.Hash(payload)}
	s.mu.Lock()
	m := s.items[ns]
	if m == nil {
		m = make(map[itemKey]*storedItem)
		s.items[ns] = m
	}
	it, held := m[key]
	switch {
	case held:
		if expires.After(it.expires) {
			it.expires = expires
		}
		promoted := it.replica && !replica
		it.pinned = it.pinned || pinned
		it.replica = replica && !it.pinned
		s.metrics.Renewed.Add(1)
		if !promoted {
			s.mu.Unlock()
			return false
		}
	case len(m) >= maxItemsPerNamespace:
		s.mu.Unlock()
		return false
	default:
		it = &storedItem{payload: payload, expires: expires, replica: replica, pinned: pinned}
		if !pinned { // a pinned item is never a replica and needs no key
			it.key = StorageKey(ns, rid)
		}
		m[key] = it
		s.metrics.StoredNew.Add(1)
		if replica {
			s.mu.Unlock()
			return false
		}
	}
	subs := append([]SubscribeFunc(nil), s.subs[ns]...)
	s.mu.Unlock()
	item := Item{Namespace: ns, Resource: rid, Payload: payload, Expires: expires}
	for _, fn := range subs {
		fn(item)
	}
	return true
}

func (s *Store) getLocal(ns string, rid id.ID) [][]byte {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	var out [][]byte
	for key, it := range s.items[ns] {
		if key.rid == rid && now.Before(it.expires) {
			out = append(out, it.payload)
		}
	}
	return out
}

// Get fetches all live items stored under (ns, rid), querying the
// current owner of the storage key. Failed attempts retry with
// exponential backoff (getRetries / getBackoff), re-resolving
// ownership each time: when the owner just crashed, the overlay
// stabilizes onto its successor during the backoff — and the
// successor is exactly where the replicas were pushed, so the retry
// lands on a copy. This is the replica-aware repair path for
// fetch-matches probes under churn.
func (s *Store) Get(ctx context.Context, ns string, rid id.ID) ([][]byte, error) {
	s.metrics.Gets.Add(1)
	key := StorageKey(ns, rid)
	w := wire.NewWriter(32 + len(ns))
	w.String(ns)
	w.Raw(rid[:])
	req := w.Bytes()
	var lastErr error
	backoff := getBackoff
	for attempt := 0; attempt < getRetries; attempt++ {
		if attempt > 0 {
			s.metrics.GetFailovers.Add(1)
			select {
			case <-ctx.Done():
				return nil, fmt.Errorf("dht: get %s/%s: %w", ns, rid.Short(), lastErr)
			case <-time.After(backoff):
			}
			backoff *= 2
		}
		owner, _, err := s.router.Lookup(ctx, key)
		if err != nil {
			lastErr = err
			continue
		}
		var resp []byte
		if owner.Addr == s.router.Self().Addr {
			payloads := s.getLocal(ns, rid)
			return payloads, nil
		}
		resp, err = s.peer.Call(ctx, owner.Addr, "dht.get", req)
		if err != nil {
			lastErr = err
			continue
		}
		r := wire.NewReader(resp)
		count := int(r.Uvarint())
		out := make([][]byte, 0, count)
		for i := 0; i < count; i++ {
			out = append(out, append([]byte(nil), r.BytesLP()...))
		}
		if err := r.Done(); err != nil {
			return nil, err
		}
		return out, nil
	}
	return nil, fmt.Errorf("dht: get %s/%s: %w", ns, rid.Short(), lastErr)
}

// PutLocal stores an item directly into the local primary partition
// with no network traffic — the edge-data model of the monitoring
// application, where samples stay on the node that produced them.
func (s *Store) PutLocal(ns string, rid id.ID, payload []byte, ttl time.Duration) {
	s.storeLocal(ns, rid, payload, time.Now().Add(ttl), false, true)
}

// LScan returns the live items stored locally under ns that this node
// answers for (see storedItem.counted) — PIER's lscan. Other replica
// copies are excluded so distributed scans never double-count.
func (s *Store) LScan(ns string) []Item {
	now, own := time.Now(), s.owned()
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.items[ns]
	out := make([]Item, 0, len(m))
	for key, it := range m {
		if it.counted(now, own) {
			out = append(out, Item{Namespace: ns, Resource: key.rid, Payload: it.payload, Expires: it.expires})
		}
	}
	return out
}

// LScanParts is LScan's payloads split into up to parts shards of
// roughly equal size — the input to every table scan operator, a shard
// per worker of the engine's parallel partitioned scans. Payloads are
// dealt round-robin under one lock acquisition, straight into the
// shards; shard membership (like LScan order) is arbitrary, and empty
// shards are omitted.
func (s *Store) LScanParts(ns string, parts int) [][][]byte {
	if parts < 1 {
		parts = 1
	}
	now, own := time.Now(), s.owned()
	s.mu.Lock()
	m := s.items[ns]
	if parts > len(m) {
		parts = len(m)
	}
	if parts < 1 {
		s.mu.Unlock()
		return nil
	}
	out := make([][][]byte, parts)
	per := (len(m) + parts - 1) / parts
	for i := range out {
		out[i] = make([][]byte, 0, per)
	}
	i := 0
	for _, it := range m {
		if !it.counted(now, own) {
			continue
		}
		shard := i % parts
		out[shard] = append(out[shard], it.payload)
		i++
	}
	s.mu.Unlock()
	kept := out[:0]
	for _, shard := range out {
		if len(shard) > 0 {
			kept = append(kept, shard)
		}
	}
	return kept
}

// Namespaces lists locally present namespaces (diagnostics).
func (s *Store) Namespaces() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.items))
	for ns := range s.items {
		out = append(out, ns)
	}
	return out
}

// Count returns the number of items in ns a scan would return.
func (s *Store) Count(ns string) int {
	now, own := time.Now(), s.owned()
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, it := range s.items[ns] {
		if it.counted(now, own) {
			n++
		}
	}
	return n
}

// Subscribe registers fn to run for every new item arriving in ns —
// PIER's newData upcall. Subscriptions fire on the storing node only.
func (s *Store) Subscribe(ns string, fn SubscribeFunc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.subs[ns] = append(s.subs[ns], fn)
}

// Unsubscribe removes every subscription for ns (queries do this at
// teardown).
func (s *Store) Unsubscribe(ns string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.subs, ns)
}

func (s *Store) sweepLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.SweepEvery)
	defer t.Stop()
	for {
		select {
		case <-s.stopCh:
			return
		case <-t.C:
			now := time.Now()
			s.mu.Lock()
			for ns, m := range s.items {
				for key, it := range m {
					if now.After(it.expires) {
						delete(m, key)
						s.metrics.Expired.Add(1)
					}
				}
				if len(m) == 0 {
					delete(s.items, ns)
				}
			}
			s.mu.Unlock()
		}
	}
}

// republishLoop periodically re-routes every live local item toward
// the current owner of its storage key. After churn the new owner
// receives copies from replicas; renewal-by-identity makes the repair
// idempotent. A primary this node no longer owns (one stored while the
// ring was changing) goes with this node as its holder, and stays a
// primary until the owner's replica push says the owner stored it:
// demoted earlier, a lost route would leave no primary to scan.
func (s *Store) republishLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.RepublishEvery)
	defer t.Stop()
	for {
		select {
		case <-s.stopCh:
			return
		case <-t.C:
			type pub struct {
				ns      string
				rid     id.ID
				key     id.ID
				replica bool
				payload []byte
				expires time.Time
			}
			now := time.Now()
			var pubs []pub
			s.mu.Lock()
			for ns, m := range s.items {
				for key, it := range m {
					if !it.pinned && now.Before(it.expires) {
						pubs = append(pubs, pub{ns, key.rid, it.key, it.replica, it.payload, it.expires})
					}
				}
			}
			s.mu.Unlock()
			self := s.router.Self().Addr
			for _, p := range pubs {
				s.metrics.Republished.Add(1)
				holder := ""
				if !p.replica && !s.router.Owns(p.key) {
					holder = self
				}
				_ = s.router.Route(p.key, routeTag, encodeItem(p.ns, p.rid, p.payload, p.expires, holder))
			}
			// Repair rounds are bursty; drain the round's batches now
			// rather than waiting out the coalescing timer. s.router is
			// a batcher both when this store created it and when the
			// query engine passed its shared one in.
			if bb, ok := s.router.(*batch.Batcher); ok {
				bb.Flush()
			}
		}
	}
}
