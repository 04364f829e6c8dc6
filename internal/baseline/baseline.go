// Package baseline implements the naive comparison points the paper's
// in-network techniques are measured against: a centralized
// ship-all-data executor (every node sends its raw tuples to one
// collection point, which computes the query locally) and a
// Gnutella-style flooding search (the pre-DHT peer-to-peer search
// strategy the file-sharing application [3] improves on).
package baseline

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/overlay"
	"repro/internal/pier"
	"repro/internal/tuple"
	"repro/internal/wire"
)

const (
	tagPull   = "base.pull"
	methRows  = "base.rows"
	methFlood = "base.flood"
	methHit   = "base.hit"
)

// Centralized is the ship-all-data baseline attached to one node.
type Centralized struct {
	node *pier.Node

	mu        sync.Mutex
	gathering map[uint64]*gatherState
	qidSeq    atomic.Uint64
}

type gatherState struct {
	rows         []tuple.Tuple
	lastActivity time.Time
}

// NewCentralized registers the baseline's protocol on a node. Every
// node in the experiment must construct one (they answer pulls).
func NewCentralized(node *pier.Node) *Centralized {
	c := &Centralized{node: node, gathering: make(map[uint64]*gatherState)}
	node.HandleBroadcast(tagPull, c.onPull)
	node.Peer().Handle(methRows, c.onRows)
	return c
}

// CollectAll pulls every live tuple of table from every node to this
// node — the "centralized" plan whose single-link bandwidth the
// in-network aggregation benchmark compares against.
func (c *Centralized) CollectAll(ctx context.Context, table string, settle time.Duration) ([]tuple.Tuple, error) {
	if settle <= 0 {
		settle = 400 * time.Millisecond
	}
	qid := c.qidSeq.Add(1)
	c.mu.Lock()
	c.gathering[qid] = &gatherState{lastActivity: time.Now()}
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.gathering, qid)
		c.mu.Unlock()
	}()
	w := wire.NewWriter(64)
	w.Uint64(qid)
	w.String(c.node.Addr())
	w.String("table:" + table)
	if err := c.node.Broadcast(tagPull, w.Bytes()); err != nil {
		return nil, fmt.Errorf("baseline: pull broadcast: %w", err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(25 * time.Millisecond):
		}
		c.mu.Lock()
		g := c.gathering[qid]
		last := g.lastActivity
		c.mu.Unlock()
		if time.Since(last) > settle || time.Now().After(deadline) {
			break
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gathering[qid].rows, nil
}

func (c *Centralized) onPull(_ overlay.Node, _ string, payload []byte, _, _ int) {
	r := wire.NewReader(payload)
	qid := r.Uint64()
	origin := r.String()
	ns := r.String()
	if r.Done() != nil {
		return
	}
	items := c.node.Store().LScan(ns)
	const batch = 64
	for off := 0; off < len(items); off += batch {
		end := off + batch
		if end > len(items) {
			end = len(items)
		}
		w := wire.NewWriter(1024)
		w.Uint64(qid)
		w.Uvarint(uint64(end - off))
		for _, it := range items[off:end] {
			w.BytesLP(it.Payload)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_, _ = c.node.Peer().Call(ctx, origin, methRows, w.Bytes())
		cancel()
	}
	// Even empty partitions report once so quiescence advances.
	if len(items) == 0 {
		w := wire.NewWriter(16)
		w.Uint64(qid)
		w.Uvarint(0)
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_, _ = c.node.Peer().Call(ctx, origin, methRows, w.Bytes())
		cancel()
	}
}

func (c *Centralized) onRows(from string, req []byte) ([]byte, error) {
	r := wire.NewReader(req)
	qid := r.Uint64()
	count := int(r.Uvarint())
	var rows []tuple.Tuple
	for i := 0; i < count && r.Err() == nil; i++ {
		if t, err := tuple.FromBytes(r.BytesLP()); err == nil {
			rows = append(rows, t)
		}
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if g, ok := c.gathering[qid]; ok {
		g.rows = append(g.rows, rows...)
		g.lastActivity = time.Now()
	}
	return nil, nil
}

// ---------------------------------------------------------------------------
// Flooding search

// FilesSchema is the node-local shared-file table used by the
// flooding baseline: (word, file) pairs that never leave the node
// until a query floods past.
var FilesSchema = tuple.MustSchema("files", []tuple.Column{
	{Name: "word", Type: tuple.TString},
	{Name: "file", Type: tuple.TString},
}, "word", "file")

// Flood is the Gnutella-style search baseline on one node.
type Flood struct {
	node *pier.Node

	mu      sync.Mutex
	seen    map[uint64]bool
	hits    map[uint64]*floodGather
	qidSeq  atomic.Uint64
	queries atomic.Uint64 // forwarded query messages (cost metric)
}

type floodGather struct {
	files        map[string]bool
	lastActivity time.Time
}

// NewFlood registers the flooding protocol on a node.
func NewFlood(node *pier.Node) (*Flood, error) {
	if err := node.DefineTable(FilesSchema, time.Hour); err != nil {
		return nil, err
	}
	f := &Flood{node: node, seen: make(map[uint64]bool), hits: make(map[uint64]*floodGather)}
	node.Peer().Handle(methFlood, f.onFlood)
	node.Peer().Handle(methHit, f.onHit)
	return f, nil
}

// ShareFile registers a local file under its keywords (node-local
// only — no index is published anywhere, which is the point of the
// baseline).
func (f *Flood) ShareFile(file string, keywords []string) error {
	for _, w := range keywords {
		if err := f.node.PublishLocal("files", tuple.Tuple{tuple.String(w), tuple.String(file)}); err != nil {
			return err
		}
	}
	return nil
}

// ForwardedQueries reports how many flood messages this node emitted.
func (f *Flood) ForwardedQueries() uint64 { return f.queries.Load() }

// Search floods the query through the overlay's neighbor links with
// the given hop budget, then waits for hits to settle.
func (f *Flood) Search(ctx context.Context, word string, maxHops int, settle time.Duration) ([]string, error) {
	if settle <= 0 {
		settle = 400 * time.Millisecond
	}
	qid := uint64(time.Now().UnixNano())<<8 | (f.qidSeq.Add(1) & 0xff)
	f.mu.Lock()
	f.hits[qid] = &floodGather{files: make(map[string]bool), lastActivity: time.Now()}
	f.seen[qid] = true
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		delete(f.hits, qid)
		f.mu.Unlock()
	}()

	// Answer from the local partition, then flood.
	f.localHits(qid, f.node.Addr(), word)
	f.forward(qid, f.node.Addr(), word, maxHops)

	deadline := time.Now().Add(30 * time.Second)
	for {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(25 * time.Millisecond):
		}
		f.mu.Lock()
		last := f.hits[qid].lastActivity
		f.mu.Unlock()
		if time.Since(last) > settle || time.Now().After(deadline) {
			break
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, 0, len(f.hits[qid].files))
	for file := range f.hits[qid].files {
		out = append(out, file)
	}
	sort.Strings(out)
	return out, nil
}

func (f *Flood) localHits(qid uint64, origin, word string) {
	for _, it := range f.node.Store().LScan("table:files") {
		t, err := tuple.FromBytes(it.Payload)
		if err != nil || len(t) != 2 || t[0].S != word {
			continue
		}
		w := wire.NewWriter(32)
		w.Uint64(qid)
		w.String(t[1].S)
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_, _ = f.node.Peer().Call(ctx, origin, methHit, w.Bytes())
		cancel()
	}
}

func (f *Flood) forward(qid uint64, origin, word string, hops int) {
	if hops <= 0 {
		return
	}
	for _, nb := range f.node.Router().Neighbors() {
		w := wire.NewWriter(64)
		w.Uint64(qid)
		w.String(origin)
		w.String(word)
		w.Uvarint(uint64(hops - 1))
		f.queries.Add(1)
		_ = f.node.Peer().Notify(nb.Addr, methFlood, w.Bytes())
	}
}

func (f *Flood) onFlood(from string, req []byte) ([]byte, error) {
	r := wire.NewReader(req)
	qid := r.Uint64()
	origin := r.String()
	word := r.String()
	hops := int(r.Uvarint())
	if err := r.Done(); err != nil {
		return nil, err
	}
	f.mu.Lock()
	if f.seen[qid] {
		f.mu.Unlock()
		return nil, nil
	}
	f.seen[qid] = true
	if len(f.seen) > 65536 {
		f.seen = map[uint64]bool{qid: true} // crude GC
	}
	f.mu.Unlock()
	f.localHits(qid, origin, word)
	f.forward(qid, origin, word, hops)
	return nil, nil
}

func (f *Flood) onHit(from string, req []byte) ([]byte, error) {
	r := wire.NewReader(req)
	qid := r.Uint64()
	file := r.String()
	if err := r.Done(); err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if g, ok := f.hits[qid]; ok {
		g.files[file] = true
		g.lastActivity = time.Now()
	}
	return nil, nil
}
