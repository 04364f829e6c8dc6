// Package chord implements the Chord overlay (Stoica et al., SIGCOMM
// 2001) — one of the DHT schemes the paper cites as PIER's
// communication substrate. It provides O(log n) multi-hop key routing
// with successor lists for failure resilience, periodic stabilization
// for dynamic membership, finger tables for logarithmic lookups, and
// the El-Ansary interval broadcast used for query dissemination.
//
// The implementation follows the published protocol: join via any
// bootstrap node, stabilize/notify to converge the ring, fix-fingers
// round-robin, and a check-predecessor failure detector. Lookups are
// iterative (driven by the querying node, robust under churn); Route
// is recursive (forwarded hop by hop, enabling the per-hop intercept
// upcall PIER's in-network aggregation needs).
package chord

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/id"
	"repro/internal/overlay"
	"repro/internal/rpc"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Config tunes protocol timers and sizes. The defaults are scaled for
// simulated networks with millisecond latencies; cmd/pier raises them
// for real deployments.
type Config struct {
	// SuccessorListLen is the replication/resilience depth r. A ring
	// survives up to r-1 simultaneous adjacent failures. Default 8.
	SuccessorListLen int
	// StabilizeEvery is the period of the stabilize/notify cycle.
	// Default 50ms.
	StabilizeEvery time.Duration
	// FixFingersEvery is the period between single-finger repairs
	// (round-robin over the table). Default 20ms.
	FixFingersEvery time.Duration
	// CheckPredEvery is the predecessor failure-detector period.
	// Default 100ms.
	CheckPredEvery time.Duration
	// MaxHops bounds recursive routing against stale-table loops.
	// Default 64.
	MaxHops int
	// RPC configures per-call timeouts and retries.
	RPC rpc.Config
	// NodeID overrides the default identifier (the hash of the
	// transport address). Tests use it to craft specific rings.
	NodeID *id.ID
}

func (c Config) withDefaults() Config {
	if c.SuccessorListLen == 0 {
		c.SuccessorListLen = 8
	}
	if c.StabilizeEvery == 0 {
		c.StabilizeEvery = 50 * time.Millisecond
	}
	if c.FixFingersEvery == 0 {
		c.FixFingersEvery = 20 * time.Millisecond
	}
	if c.CheckPredEvery == 0 {
		c.CheckPredEvery = 100 * time.Millisecond
	}
	if c.MaxHops == 0 {
		c.MaxHops = 64
	}
	if c.RPC.Timeout == 0 {
		c.RPC.Timeout = 250 * time.Millisecond
	}
	return c
}

// Metrics exposes protocol counters for the benchmark harness.
type Metrics struct {
	Lookups          atomic.Uint64
	LookupHopsTotal  atomic.Uint64
	RouteForwards    atomic.Uint64
	MaintenanceCalls atomic.Uint64
}

// Node is a Chord participant.
type Node struct {
	self overlay.Node
	cfg  Config
	peer *rpc.Peer

	mu          sync.Mutex
	predecessor overlay.Node
	successors  []overlay.Node // [0] is the immediate successor
	fingers     [id.Bits]overlay.Node
	// contacts caches the distinct nodes of successors and fingers, self
	// excluded, clockwise from self: every route and broadcast hop reads
	// it. Nil when stale — whatever changes successors or fingers resets
	// it; liveness is checked at use, not cached.
	contacts   []overlay.Node
	nextFinger int
	deadCache  map[string]time.Time // recently-failed addrs to route around
	stopped    bool

	deliver   overlay.DeliverFunc
	intercept overlay.InterceptFunc
	broadcast overlay.BroadcastFunc

	metrics Metrics

	stopCh chan struct{}
	wg     sync.WaitGroup
}

var _ overlay.Router = (*Node)(nil)

const deadCacheTTL = 2 * time.Second

// New creates a Chord node on tr. The node starts as a one-node ring;
// call Join to merge into an existing overlay. Maintenance timers
// start immediately.
func New(tr transport.Transport, cfg Config) *Node {
	cfg = cfg.withDefaults()
	nid := id.HashString(tr.Addr())
	if cfg.NodeID != nil {
		nid = *cfg.NodeID
	}
	n := &Node{
		self:      overlay.Node{ID: nid, Addr: tr.Addr()},
		cfg:       cfg,
		peer:      rpc.New(tr, cfg.RPC),
		deadCache: make(map[string]time.Time),
		stopCh:    make(chan struct{}),
	}
	n.successors = []overlay.Node{n.self}
	n.registerHandlers()
	n.wg.Add(3)
	go n.stabilizeLoop()
	go n.fixFingersLoop()
	go n.checkPredecessorLoop()
	return n
}

// Self returns this node's identity.
func (n *Node) Self() overlay.Node { return n.self }

// MetricsSnapshot returns the current counter values.
func (n *Node) MetricsSnapshot() (lookups, hops, forwards, maintenance uint64) {
	return n.metrics.Lookups.Load(), n.metrics.LookupHopsTotal.Load(),
		n.metrics.RouteForwards.Load(), n.metrics.MaintenanceCalls.Load()
}

// SetDeliver installs the owner upcall.
func (n *Node) SetDeliver(fn overlay.DeliverFunc) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.deliver = fn
}

// SetIntercept installs the per-hop upcall.
func (n *Node) SetIntercept(fn overlay.InterceptFunc) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.intercept = fn
}

// SetBroadcast installs the broadcast upcall.
func (n *Node) SetBroadcast(fn overlay.BroadcastFunc) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.broadcast = fn
}

// Stop halts maintenance and closes the endpoint.
func (n *Node) Stop() {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	n.stopped = true
	n.mu.Unlock()
	close(n.stopCh)
	n.peer.Close()
	n.wg.Wait()
}

// Join merges this node into the ring reachable at bootstrapAddr.
func (n *Node) Join(ctx context.Context, bootstrapAddr string) error {
	succ, _, err := n.lookupVia(ctx, overlay.Node{Addr: bootstrapAddr}, n.self.ID)
	if err != nil {
		return fmt.Errorf("chord: join via %s: %w", bootstrapAddr, err)
	}
	n.mu.Lock()
	n.predecessor = overlay.Node{}
	n.setSuccessorsLocked([]overlay.Node{succ})
	n.mu.Unlock()
	// Kick one stabilize round immediately so the ring links us in
	// without waiting for the first timer tick.
	n.stabilizeOnce()
	return nil
}

// Predecessor returns the current predecessor (zero if unknown).
func (n *Node) Predecessor() overlay.Node {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.predecessor
}

// Successor returns the immediate successor.
func (n *Node) Successor() overlay.Node {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.successors[0]
}

// Neighbors returns the successor list (excluding self), PIER's
// replication set.
func (n *Node) Neighbors() []overlay.Node {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]overlay.Node, 0, len(n.successors))
	for _, s := range n.successors {
		if s.Addr != n.self.Addr {
			out = append(out, s)
		}
	}
	return out
}

// Owns reports whether this node is currently responsible for key:
// key ∈ (predecessor, self]. With no known predecessor the node
// claims the whole ring (it is alone or still joining). Route delivers
// exactly such a key locally, without a hop.
func (n *Node) Owns(key id.ID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.ownsLocked(key)
}

func (n *Node) ownsLocked(key id.ID) bool {
	if n.predecessor.IsZero() {
		return true
	}
	return id.BetweenRightIncl(key, n.predecessor.ID, n.self.ID)
}

// ---------------------------------------------------------------------------
// Iterative lookup

// Lookup resolves the owner of key, counting hops.
func (n *Node) Lookup(ctx context.Context, key id.ID) (overlay.Node, int, error) {
	node, hops, err := n.lookupVia(ctx, n.self, key)
	if err == nil {
		n.metrics.Lookups.Add(1)
		n.metrics.LookupHopsTotal.Add(uint64(hops))
	}
	return node, hops, err
}

// lookupVia runs the iterative find-successor protocol starting at
// start. Each step asks the current node for either the answer or a
// closer node. Failed nodes are cached and skipped on retry.
func (n *Node) lookupVia(ctx context.Context, start overlay.Node, key id.ID) (overlay.Node, int, error) {
	const restarts = 3
	var lastErr error
	for attempt := 0; attempt <= restarts; attempt++ {
		cur := start
		hops := 0
		for hops <= n.cfg.MaxHops {
			if err := ctx.Err(); err != nil {
				return overlay.Node{}, hops, err
			}
			done, next, err := n.findNext(ctx, cur, key)
			if err != nil {
				n.markDead(cur.Addr)
				lastErr = err
				break // restart from self
			}
			if done {
				return next, hops, nil
			}
			if next.Addr == cur.Addr {
				// The node has no better contact: it believes its
				// successor owns the key but could not prove it;
				// treat its successor answer as final.
				return next, hops, nil
			}
			cur = next
			hops++
		}
		if lastErr == nil {
			lastErr = fmt.Errorf("chord: lookup exceeded %d hops", n.cfg.MaxHops)
		}
		start = n.self
	}
	return overlay.Node{}, 0, fmt.Errorf("chord: lookup %s failed: %w", key.Short(), lastErr)
}

// findNext performs one lookup step at node cur (locally when cur is
// self).
func (n *Node) findNext(ctx context.Context, cur overlay.Node, key id.ID) (bool, overlay.Node, error) {
	if cur.Addr == n.self.Addr {
		done, next := n.findNextLocal(key)
		return done, next, nil
	}
	w := wire.NewWriter(id.Bytes)
	w.Raw(key[:])
	resp, err := n.peer.Call(ctx, cur.Addr, "chord.find_next", w.Bytes())
	if err != nil {
		return false, overlay.Node{}, err
	}
	r := wire.NewReader(resp)
	done := r.Bool()
	next := overlay.DecodeNode(r)
	if err := r.Done(); err != nil {
		return false, overlay.Node{}, err
	}
	return done, next, nil
}

// findNextLocal is one step of find-successor evaluated against local
// state: if key ∈ (self, successor], the successor is the answer;
// otherwise return the closest preceding live contact.
func (n *Node) findNextLocal(key id.ID) (bool, overlay.Node) {
	n.mu.Lock()
	defer n.mu.Unlock()
	succ := n.firstLiveSuccessorLocked()
	if succ.Addr == n.self.Addr || id.BetweenRightIncl(key, n.self.ID, succ.ID) {
		return true, succ
	}
	cp := n.closestPrecedingLocked(key)
	if cp.Addr == n.self.Addr {
		return true, succ
	}
	return false, cp
}

// isDeadLocked consults the dead cache, lazily expiring stale entries
// so recovered nodes become eligible again.
func (n *Node) isDeadLocked(addr string) bool {
	exp, ok := n.deadCache[addr]
	if !ok {
		return false
	}
	if time.Now().After(exp) {
		delete(n.deadCache, addr)
		return false
	}
	return true
}

func (n *Node) firstLiveSuccessorLocked() overlay.Node {
	for _, s := range n.successors {
		if n.isDeadLocked(s.Addr) {
			continue
		}
		return s
	}
	return n.self
}

// closestPrecedingLocked returns the live contact whose ID most
// closely precedes key: contacts run clockwise from self, so it is the
// last live one inside (self, key).
func (n *Node) closestPrecedingLocked(key id.ID) overlay.Node {
	contacts := n.contactsLocked()
	for i := len(contacts) - 1; i >= 0; i-- {
		if c := contacts[i]; id.Between(c.ID, n.self.ID, key) && !n.isDeadLocked(c.Addr) {
			return c
		}
	}
	return n.self
}

// contactsLocked returns the contact list, rebuilding it if a change to
// successors or fingers reset it.
func (n *Node) contactsLocked() []overlay.Node {
	if n.contacts != nil {
		return n.contacts
	}
	seen := map[string]bool{n.self.Addr: true}
	n.contacts = make([]overlay.Node, 0, len(n.successors)) // non-nil even when empty
	add := func(c overlay.Node) {
		if !c.IsZero() && !seen[c.Addr] {
			seen[c.Addr] = true
			n.contacts = append(n.contacts, c)
		}
	}
	for _, s := range n.successors {
		add(s)
	}
	for i := range n.fingers {
		add(n.fingers[i])
	}
	sortByDistance(n.self.ID, n.contacts)
	return n.contacts
}

// setSuccessorsLocked installs a successor list.
func (n *Node) setSuccessorsLocked(list []overlay.Node) {
	n.successors = list
	n.contacts = nil
}

func (n *Node) markDead(addr string) {
	if addr == n.self.Addr {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.deadCache[addr] = time.Now().Add(deadCacheTTL)
	// Drop from successor list immediately so routing moves on.
	live := n.successors[:0]
	for _, s := range n.successors {
		if s.Addr != addr {
			live = append(live, s)
		}
	}
	if len(live) == 0 {
		live = append(live, n.self)
	}
	n.setSuccessorsLocked(live)
	for i := range n.fingers {
		if n.fingers[i].Addr == addr {
			n.fingers[i] = overlay.Node{}
		}
	}
	if n.predecessor.Addr == addr {
		n.predecessor = overlay.Node{}
	}
}

// ---------------------------------------------------------------------------
// Recursive routing

// Route forwards payload toward the owner of key.
func (n *Node) Route(key id.ID, tag string, payload []byte) error {
	return n.routeMsg(n.self, key, tag, payload, 0)
}

// RouteVia routes payload toward the owner of key with addr as its
// first hop: a caller that already knows the owner (the route batcher's
// cache) saves the hops in between. addr handles the message as any
// relay would, so a stale guess costs hops, not correctness: if addr
// no longer owns key it forwards the message on by key. An addr this
// node has marked dead is skipped, and the message routes by key from
// here. A failed send marks addr dead and returns the error.
func (n *Node) RouteVia(addr string, key id.ID, tag string, payload []byte) error {
	n.mu.Lock()
	skip := addr == n.self.Addr || n.isDeadLocked(addr)
	n.mu.Unlock()
	if skip {
		return n.routeMsg(n.self, key, tag, payload, 0)
	}
	n.metrics.RouteForwards.Add(1)
	if err := n.sendRoute(addr, n.self, key, tag, payload, 1); err != nil {
		n.markDead(addr)
		return err
	}
	return nil
}

// sendRoute sends one hop of a routed message: the chord.route header
// is the frame's head and payload its tail, so the hop copies the
// payload once, into the datagram.
func (n *Node) sendRoute(to string, origin overlay.Node, key id.ID, tag string, payload []byte, hops int) error {
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	origin.Encode(w)
	w.Raw(key[:])
	w.String(tag)
	w.Uvarint(uint64(hops))
	w.Uvarint(uint64(len(payload))) // the body's BytesLP prefix; payload follows
	return n.peer.NotifyParts(to, "chord.route", w.Bytes(), payload)
}

func (n *Node) routeMsg(origin overlay.Node, key id.ID, tag string, payload []byte, hops int) error {
	if hops > n.cfg.MaxHops {
		return fmt.Errorf("chord: route %s exceeded %d hops", key.Short(), n.cfg.MaxHops)
	}
	n.mu.Lock()
	owns := n.ownsLocked(key)
	deliver := n.deliver
	intercept := n.intercept
	n.mu.Unlock()
	if owns {
		if deliver != nil {
			deliver(origin, key, tag, payload)
		}
		return nil
	}
	if hops > 0 && intercept != nil {
		// Intercept fires at relays only, not at the origin (the
		// origin already had its chance before calling Route).
		np, forward := intercept(key, tag, payload)
		if !forward {
			return nil
		}
		payload = np
	}
	_, next := n.findNextLocal(key)
	if next.Addr == n.self.Addr {
		// We believe we are the best node but do not own the key
		// (e.g. mid-join). Deliver locally rather than loop.
		if deliver != nil {
			deliver(origin, key, tag, payload)
		}
		return nil
	}
	n.metrics.RouteForwards.Add(1)
	if err := n.sendRoute(next.Addr, origin, key, tag, payload, hops+1); err != nil {
		n.markDead(next.Addr)
		// One retry through the repaired table.
		_, next2 := n.findNextLocal(key)
		if next2.Addr == n.self.Addr || next2.Addr == next.Addr {
			return err
		}
		return n.sendRoute(next2.Addr, origin, key, tag, payload, hops+1)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Broadcast (El-Ansary et al. interval broadcast)

// Broadcast delivers payload to every node on the ring, best effort,
// in O(log n) depth. The initiating node covers the interval
// (self, self] — the whole ring — and recursively delegates
// sub-intervals to its fingers.
func (n *Node) Broadcast(tag string, payload []byte) error {
	n.mu.Lock()
	bc := n.broadcast
	n.mu.Unlock()
	if bc != nil {
		bc(n.self, tag, payload)
	}
	return n.forwardBroadcast(n.self, tag, payload, n.self.ID)
}

// forwardBroadcast delegates coverage of (self, limit) to fingers.
// It walks the cached contact list, which is never written once built
// (a change replaces it), skipping dead contacts in place; the lock is
// dropped around each send.
func (n *Node) forwardBroadcast(origin overlay.Node, tag string, payload []byte, limit id.ID) error {
	var firstErr error
	n.mu.Lock()
	contacts := n.contactsLocked()
	for i, c := range contacts {
		// Only live contacts strictly inside (self, limit) receive the
		// broadcast; each gets responsibility up to the next live
		// contact (or the overall limit for the last one).
		if !id.Between(c.ID, n.self.ID, limit) || n.isDeadLocked(c.Addr) {
			continue
		}
		next := limit
		for _, d := range contacts[i+1:] {
			if n.isDeadLocked(d.Addr) {
				continue
			}
			if id.Between(d.ID, c.ID, limit) {
				next = d.ID
			}
			break
		}
		n.mu.Unlock()
		if err := n.sendBroadcast(c.Addr, origin, tag, payload, next); err != nil && firstErr == nil {
			firstErr = err
		}
		n.mu.Lock()
	}
	n.mu.Unlock()
	return firstErr
}

// sendBroadcast sends one broadcast delegation, its header as the
// frame's head and payload as the tail.
func (n *Node) sendBroadcast(to string, origin overlay.Node, tag string, payload []byte, limit id.ID) error {
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	origin.Encode(w)
	w.String(tag)
	w.Raw(limit[:])
	w.Uvarint(uint64(len(payload))) // the body's BytesLP prefix; payload follows
	return n.peer.NotifyParts(to, "chord.broadcast", w.Bytes(), payload)
}

func sortByDistance(from id.ID, nodes []overlay.Node) {
	// Insertion sort: contact lists are short (≤ successors+fingers).
	for i := 1; i < len(nodes); i++ {
		for j := i; j > 0; j-- {
			dj := from.Distance(nodes[j].ID)
			dp := from.Distance(nodes[j-1].ID)
			if dj.Cmp(dp) < 0 {
				nodes[j], nodes[j-1] = nodes[j-1], nodes[j]
			} else {
				break
			}
		}
	}
}

// ---------------------------------------------------------------------------
// RPC handlers

func (n *Node) registerHandlers() {
	n.peer.Handle("chord.find_next", func(from string, req []byte) ([]byte, error) {
		r := wire.NewReader(req)
		var key id.ID
		copy(key[:], r.Raw(id.Bytes))
		if err := r.Err(); err != nil {
			return nil, err
		}
		done, next := n.findNextLocal(key)
		w := wire.NewWriter(64)
		w.Bool(done)
		next.Encode(w)
		return w.Bytes(), nil
	})
	n.peer.Handle("chord.get_state", func(from string, req []byte) ([]byte, error) {
		n.mu.Lock()
		pred := n.predecessor
		succs := append([]overlay.Node(nil), n.successors...)
		n.mu.Unlock()
		w := wire.NewWriter(256)
		pred.Encode(w)
		w.Uvarint(uint64(len(succs)))
		for _, s := range succs {
			s.Encode(w)
		}
		return w.Bytes(), nil
	})
	n.peer.Handle("chord.notify", func(from string, req []byte) ([]byte, error) {
		r := wire.NewReader(req)
		cand := overlay.DecodeNode(r)
		if err := r.Done(); err != nil {
			return nil, err
		}
		n.mu.Lock()
		if n.predecessor.IsZero() || id.Between(cand.ID, n.predecessor.ID, n.self.ID) {
			n.predecessor = cand
		}
		delete(n.deadCache, cand.Addr)
		n.mu.Unlock()
		return nil, nil
	})
	n.peer.Handle("chord.ping", func(from string, req []byte) ([]byte, error) {
		return []byte{1}, nil
	})
	n.peer.Handle("chord.route", func(from string, req []byte) ([]byte, error) {
		r := wire.NewReader(req)
		origin := overlay.DecodeNode(r)
		var key id.ID
		copy(key[:], r.Raw(id.Bytes))
		tag := r.String()
		hops := int(r.Uvarint())
		payload := r.BytesLP()
		if err := r.Done(); err != nil {
			return nil, err
		}
		return nil, n.routeMsg(origin, key, tag, payload, hops) // req is ours to pass on (rpc.Handler)
	})
	n.peer.Handle("chord.broadcast", func(from string, req []byte) ([]byte, error) {
		r := wire.NewReader(req)
		origin := overlay.DecodeNode(r)
		tag := r.String()
		var limit id.ID
		copy(limit[:], r.Raw(id.Bytes))
		payload := r.BytesLP()
		if err := r.Done(); err != nil {
			return nil, err
		}
		n.mu.Lock()
		bc := n.broadcast
		n.mu.Unlock()
		if bc != nil {
			bc(origin, tag, payload)
		}
		return nil, n.forwardBroadcast(origin, tag, payload, limit)
	})
}

// ---------------------------------------------------------------------------
// Maintenance

func (n *Node) stabilizeLoop() {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.StabilizeEvery)
	defer t.Stop()
	for {
		select {
		case <-n.stopCh:
			return
		case <-t.C:
			n.stabilizeOnce()
		}
	}
}

// stabilizeOnce runs one stabilize/notify round: verify the successor,
// adopt a closer one if its predecessor is between us, refresh the
// successor list, and notify the successor of our existence.
func (n *Node) stabilizeOnce() {
	ctx, cancel := context.WithTimeout(context.Background(), n.cfg.RPC.Timeout*3)
	defer cancel()
	n.mu.Lock()
	succ := n.firstLiveSuccessorLocked()
	pred := n.predecessor
	n.mu.Unlock()
	if succ.Addr == n.self.Addr {
		// Our successor is ourselves: either we are alone, or a
		// newcomer has notified us (classic Chord reads its own
		// predecessor here and adopts it), or every successor died.
		if !pred.IsZero() && pred.Addr != n.self.Addr {
			n.mu.Lock()
			n.setSuccessorsLocked([]overlay.Node{pred})
			n.mu.Unlock()
			w := wire.NewWriter(64)
			n.self.Encode(w)
			n.metrics.MaintenanceCalls.Add(1)
			_ = n.peer.Notify(pred.Addr, "chord.notify", w.Bytes())
		} else {
			n.adoptFromFingers()
		}
		return
	}
	n.metrics.MaintenanceCalls.Add(1)
	pred2, succList, err := n.getState(ctx, succ.Addr)
	if err != nil {
		n.markDead(succ.Addr)
		return
	}
	n.mu.Lock()
	if !pred2.IsZero() && pred2.Addr != n.self.Addr && id.Between(pred2.ID, n.self.ID, succ.ID) {
		if !n.isDeadLocked(pred2.Addr) {
			succ = pred2
		}
	}
	// Successor list = successor followed by its list, truncated.
	list := make([]overlay.Node, 0, n.cfg.SuccessorListLen)
	list = append(list, succ)
	for _, s := range succList {
		if len(list) >= n.cfg.SuccessorListLen {
			break
		}
		if s.Addr == n.self.Addr || s.Addr == succ.Addr {
			continue
		}
		dup := false
		for _, l := range list {
			if l.Addr == s.Addr {
				dup = true
				break
			}
		}
		if !dup {
			list = append(list, s)
		}
	}
	// Most rounds confirm the list they found: keep the contacts then.
	if !slices.Equal(n.successors, list) {
		n.setSuccessorsLocked(list)
	}
	n.mu.Unlock()

	w := wire.NewWriter(64)
	n.self.Encode(w)
	n.metrics.MaintenanceCalls.Add(1)
	_ = n.peer.Notify(succ.Addr, "chord.notify", w.Bytes())
}

// adoptFromFingers recovers a partitioned-off node: if every successor
// died, any live finger can re-seed the successor list.
func (n *Node) adoptFromFingers() {
	n.mu.Lock()
	var cand overlay.Node
	for i := 0; i < id.Bits; i++ {
		f := n.fingers[i]
		if f.IsZero() || f.Addr == n.self.Addr {
			continue
		}
		if n.isDeadLocked(f.Addr) {
			continue
		}
		cand = f
		break
	}
	n.mu.Unlock()
	if cand.IsZero() {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), n.cfg.RPC.Timeout*3)
	defer cancel()
	succ, _, err := n.lookupVia(ctx, cand, n.self.ID)
	if err != nil || succ.Addr == n.self.Addr {
		return
	}
	n.mu.Lock()
	n.setSuccessorsLocked([]overlay.Node{succ})
	n.mu.Unlock()
}

func (n *Node) getState(ctx context.Context, addr string) (overlay.Node, []overlay.Node, error) {
	resp, err := n.peer.Call(ctx, addr, "chord.get_state", nil)
	if err != nil {
		return overlay.Node{}, nil, err
	}
	r := wire.NewReader(resp)
	pred := overlay.DecodeNode(r)
	count := int(r.Uvarint())
	if count > 64 {
		return overlay.Node{}, nil, fmt.Errorf("chord: absurd successor list length %d", count)
	}
	succs := make([]overlay.Node, 0, count)
	for i := 0; i < count; i++ {
		succs = append(succs, overlay.DecodeNode(r))
	}
	if err := r.Done(); err != nil {
		return overlay.Node{}, nil, err
	}
	return pred, succs, nil
}

func (n *Node) fixFingersLoop() {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.FixFingersEvery)
	defer t.Stop()
	for {
		select {
		case <-n.stopCh:
			return
		case <-t.C:
			n.fixOneFinger()
		}
	}
}

// fixOneFinger repairs one finger-table entry per tick, cycling
// through entries. Low entries mostly equal the successor, so the
// cycle is seeded to spend most repairs on the high (long-range) ones.
func (n *Node) fixOneFinger() {
	n.mu.Lock()
	k := n.nextFinger
	n.nextFinger = (n.nextFinger + 7) % id.Bits // coprime stride covers all entries
	n.mu.Unlock()
	target := n.self.ID.AddPow2(k)
	ctx, cancel := context.WithTimeout(context.Background(), n.cfg.RPC.Timeout*4)
	defer cancel()
	n.metrics.MaintenanceCalls.Add(1)
	owner, _, err := n.lookupVia(ctx, n.self, target)
	if err != nil {
		return
	}
	n.mu.Lock()
	if n.fingers[k] != owner {
		n.fingers[k] = owner
		n.contacts = nil
	}
	n.mu.Unlock()
}

func (n *Node) checkPredecessorLoop() {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.CheckPredEvery)
	defer t.Stop()
	for {
		select {
		case <-n.stopCh:
			return
		case <-t.C:
			n.mu.Lock()
			pred := n.predecessor
			n.mu.Unlock()
			if pred.IsZero() {
				continue
			}
			ctx, cancel := context.WithTimeout(context.Background(), n.cfg.RPC.Timeout*2)
			n.metrics.MaintenanceCalls.Add(1)
			_, err := n.peer.Call(ctx, pred.Addr, "chord.ping", nil)
			cancel()
			if err != nil {
				n.mu.Lock()
				if n.predecessor.Addr == pred.Addr {
					n.predecessor = overlay.Node{}
				}
				n.mu.Unlock()
			}
		}
	}
}

// Peer exposes the node's RPC endpoint so higher layers (the DHT
// store, the query engine) can register their own methods and issue
// direct calls over the same transport.
func (n *Node) Peer() *rpc.Peer { return n.peer }

// WaitConverged blocks until the nodes form one ring: each node's
// successor is the next node in ID order. It then pauses briefly so
// finger tables warm and a broadcast reaches every node. It fails if
// the ring has not closed within timeout.
func WaitConverged(nodes []*Node, timeout time.Duration) error {
	if len(nodes) <= 1 {
		return nil
	}
	sorted := slices.Clone(nodes)
	slices.SortFunc(sorted, func(a, b *Node) int { return a.Self().ID.Cmp(b.Self().ID) })
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		closed := true
		for i, nd := range sorted {
			if nd.Successor().Addr != sorted[(i+1)%len(sorted)].Self().Addr {
				closed = false
				break
			}
		}
		if closed {
			time.Sleep(150 * time.Millisecond)
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("chord: %d-node ring did not converge in %v", len(nodes), timeout)
}
