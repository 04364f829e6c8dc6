package pier

import (
	"cmp"
	"slices"
	"sync"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// The ledger outbox is a node's one shipper of EOS ledgers, for every
// one-shot query it takes part in. A query enlists when participation
// starts; from then on a movement of its books marks it pending, its
// frame due one settle pause later, so a burst of arrivals (a collector
// absorbing many frames) lands in one frame instead of one each. A
// state transition (scan done, a drain round acknowledged) makes the
// frame due at once, and the counts that were waiting ride along. One
// goroutine and one timer, set for the earliest due frame, serve every
// query; each wake sends the frames that are due, every one for the
// same coordinator in one datagram, still one frame per query.
//
// Frames are fire-and-forget: no ack, no retransmission. A lost frame
// is repaired by the next movement or heartbeat, and a send never
// blocks on a retrying call — a blocked shipper would starve the very
// heartbeats the coordinator's failure detector counts, making pure
// message loss look like a dead member. Reordering is handled by the
// frame sequence number on the receiving side.
//
// One ticker serves every enlisted query's heartbeat. It ticks
// beatTicks times per HeartbeatEvery, and a query silent for all but
// one of those ticks ships its ledger unchanged, so a member is never
// silent for a whole beat, and a query younger than that sends no
// heartbeat at all. The same tick drops a query MaxQueryLife after it
// arrived: its stop broadcast was lost, or its coordinator died, and
// nothing else would free the state.

// ledgerSettle is the pause a count movement waits before its frame
// leaves, gathering the movements that follow it.
const ledgerSettle = time.Millisecond

// beatTicks is how many times the heartbeat ticker ticks per
// HeartbeatEvery: a silent query beats at the first tick past
// (beatTicks-1)/beatTicks of a beat, which comes within one beat.
const beatTicks = 4

// ledgerDatagramBytes bounds one ledger datagram, leaving room under
// transport.MaxDatagram for the rpc header.
const ledgerDatagramBytes = transport.MaxDatagram - 256

// ledgerOutbox is the node's outbox state; the goroutine that empties
// it is Node.shipLedgersLoop.
type ledgerOutbox struct {
	mu sync.Mutex
	// live holds every enlisted query until it ends.
	live map[*queryState]struct{}
	// pending lists the queries owed a frame, each once (its tracker's
	// pending flag), and armed says the goroutine's settle timer is set
	// for the earliest of them.
	pending []*queryState
	armed   bool
	// wake rouses the goroutine: for a count movement when no settle
	// timer is set, and for every state transition, whose frame leaves
	// at once.
	wake chan struct{}

	// Used by the goroutine only: the queries it ships at one wake, the
	// frame and the datagram it builds.
	due   []*queryState
	frame wire.EosFrame
	batch wire.EosBatch
}

func (o *ledgerOutbox) init() {
	o.live = make(map[*queryState]struct{})
	o.wake = make(chan struct{}, 1)
}

// enlist adds a participant's query to the live set.
func (o *ledgerOutbox) enlist(q *queryState) {
	o.mu.Lock()
	o.live[q] = struct{}{}
	o.mu.Unlock()
}

// drop takes a query that ended out of the live set.
func (o *ledgerOutbox) drop(q *queryState) {
	o.mu.Lock()
	delete(o.live, q)
	o.mu.Unlock()
}

// kick marks an enlisted query pending, its frame due one settle pause
// from now, or at once when urgent. A movement of a query already
// pending costs two atomic loads.
func (o *ledgerOutbox) kick(q *queryState, urgent bool) {
	e := q.eos
	if !e.enlisted.Load() {
		return // participation has not started: enlisting kicks
	}
	rouse := urgent
	if urgent {
		e.urgent.Store(true)
	}
	if !e.pending.Load() && e.pending.CompareAndSwap(false, true) {
		due := time.Now().Add(ledgerSettle)
		o.mu.Lock()
		e.due = due
		o.pending = append(o.pending, q)
		rouse = rouse || !o.armed
		o.mu.Unlock()
	}
	if rouse {
		select {
		case o.wake <- struct{}{}:
		default:
		}
	}
}

// shipLedgersLoop is the outbox's goroutine: from the node's start to
// its stop, on every wake it sends the frames that are due and sets
// its one settle timer for the next.
func (n *Node) shipLedgersLoop() {
	defer n.wg.Done()
	o := &n.outbox
	hb := n.cfg.HeartbeatEvery
	if hb <= 0 {
		hb = 50 * time.Millisecond
	}
	tick := time.NewTicker(hb / beatTicks)
	defer tick.Stop()
	settle := time.NewTimer(time.Hour)
	defer settle.Stop()
	for {
		select {
		case <-n.stopCh:
			return
		case <-o.wake:
		case <-settle.C:
		case now := <-tick.C:
			n.beat(now, hb)
		}
		now := time.Now()
		if next := n.shipLedgers(now); !next.IsZero() {
			if !settle.Stop() { // a reused timer may hold a stale fire
				select {
				case <-settle.C:
				default:
				}
			}
			settle.Reset(next.Sub(now))
		}
	}
}

// beat marks pending, due at once, every live query silent for all but
// one tick of a beat, and drops every one MaxQueryLife after its
// arrival.
func (n *Node) beat(now time.Time, hb time.Duration) {
	o := &n.outbox
	var expired []*queryState
	o.mu.Lock()
	for q := range o.live {
		e := q.eos
		switch {
		case q.ctx.Err() != nil:
			delete(o.live, q)
		case now.Sub(e.arrived) > n.cfg.MaxQueryLife:
			delete(o.live, q)
			expired = append(expired, q)
		case now.Sub(e.lastShip) >= hb-hb/beatTicks && e.pending.CompareAndSwap(false, true):
			e.due = now
			o.pending = append(o.pending, q)
		}
	}
	o.mu.Unlock()
	for _, q := range expired {
		n.expireQuery(q)
	}
}

// shipLedgers sends the frame of every pending query that is due — its
// settle pause ran out, or it made a state transition — in one datagram
// per coordinator, split below ledgerDatagramBytes. It returns when the
// earliest query still pending is due (zero when none is).
func (n *Node) shipLedgers(now time.Time) (next time.Time) {
	o := &n.outbox
	due := o.due[:0]
	o.mu.Lock()
	kept := o.pending[:0]
	for _, q := range o.pending {
		e := q.eos
		switch {
		case e.urgent.Load() || !now.Before(e.due):
			due = append(due, q)
		default:
			kept = append(kept, q)
			if next.IsZero() || e.due.Before(next) {
				next = e.due
			}
		}
	}
	clear(o.pending[len(kept):])
	o.pending = kept
	o.armed = !next.IsZero()
	o.mu.Unlock()
	slices.SortFunc(due, func(a, b *queryState) int { return cmp.Compare(a.coord, b.coord) })
	for i, q := range due {
		// Cleared before the frame is built: a movement from here on
		// marks the query pending again, and its frame follows.
		q.eos.urgent.Store(false)
		q.eos.pending.Store(false)
		if q.ctx.Err() == nil {
			q.fillFrame(&o.frame)
			q.eos.lastShip = now
			if o.batch.Len() > 0 && o.batch.Size()+o.frame.EncodedLen() > ledgerDatagramBytes {
				n.sendLedgers(q.coord)
			}
			o.batch.Add(&o.frame)
		}
		if o.batch.Len() > 0 && (i+1 == len(due) || due[i+1].coord != q.coord) {
			n.sendLedgers(q.coord)
		}
	}
	clear(due)
	o.due = due[:0]
	return next
}

// sendLedgers sends the datagram being built to coord and empties it.
func (n *Node) sendLedgers(coord string) {
	b := &n.outbox.batch
	n.hbSent.Add(uint64(b.Len()))
	head, body := b.Parts()
	_ = n.peer.NotifyParts(coord, methEos, head, body)
	b.Reset()
}
