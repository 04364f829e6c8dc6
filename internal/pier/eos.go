package pier

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataflow"
	"repro/internal/physical"
	"repro/internal/wire"
)

// Deterministic query completion. Every one-shot query keeps
// per-channel sent/received record books on every node; participants
// ship their books to the coordinator as EOS ledger frames (replacing
// the bare "done" ping), and the coordinator declares the query
// complete the instant all expected members report scan completion,
// the books balance network-wide, and every member's latest drain
// round settled: no join or aggregation record entered its pipelines
// after the round's cut (DESIGN.md, *Why a settled round ends the
// query*). Relays that combine partials in-network enter both sides of
// the rewrite (absorbed records as received, the merged record as
// sent) as the entry leaves the buffer, so a held combine buffer keeps
// the books imbalanced and the query provably incomplete until it
// flushes.
//
// Ledgers leave through the node's one outbox (outbox.go): a movement
// of the books marks the query pending, and each wake of the outbox
// sends every pending query's frame for one coordinator in one
// datagram. The coordinator folds each arriving frame into running
// per-channel totals, so an evaluation adds its own books to them and
// reads one small record per member.
//
// A drain round is a coordinator broadcast that forces every node to
// flush its held state — relay combine buffers, route batches, and
// collector pipelines (via dataflow.Drain markers pushed through every
// inlet and acknowledged at the sinks) — then report its advanced
// round in the next ledger. The Quiet timer survives only as the
// fallback bound for churn and message loss, and MaxQueryLife still
// caps everything.

// chanKey identifies one logical record channel of a query: the unit
// of EOS accounting. Kinds mirror wire.EosChannel.
type chanKey struct{ kind, stage, side uint8 }

// less orders channels by kind, stage, side: a ledger's wire order.
func (a chanKey) less(b chanKey) bool {
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	if a.stage != b.stage {
		return a.stage < b.stage
	}
	return a.side < b.side
}

// keyOf is the channel a ledger entry books.
func keyOf(ch *wire.EosChannel) chanKey {
	return chanKey{kind: ch.Kind, stage: ch.Stage, side: ch.Side}
}

const (
	chanRows uint8 = iota // result rows to the coordinator
	chanAgg               // aggregation partials toward collectors
	chanJoin              // rehashed join tuples per (stage, side)
)

// bookOf returns k's entry in books, a list sorted by chanKey, adding a
// zero entry in its place when k has none.
func bookOf(books *[]wire.EosChannel, k chanKey) *wire.EosChannel {
	b := *books
	i := 0
	for i < len(b) && keyOf(&b[i]).less(k) {
		i++
	}
	if i == len(b) || keyOf(&b[i]) != k {
		b = append(b, wire.EosChannel{})
		copy(b[i+1:], b[i:])
		b[i] = wire.EosChannel{Kind: k.kind, Stage: k.stage, Side: k.side}
		*books = b
	}
	return &b[i]
}

// eachTotal calls fn with the sum of a and b on every channel either
// books, in channel order; both lists are sorted by chanKey.
func eachTotal(a, b []wire.EosChannel, fn func(k chanKey, sent, recv uint64)) {
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j == len(b) || (i < len(a) && keyOf(&a[i]).less(keyOf(&b[j]))):
			fn(keyOf(&a[i]), a[i].Sent, a[i].Recv)
			i++
		case i == len(a) || keyOf(&b[j]).less(keyOf(&a[i])):
			fn(keyOf(&b[j]), b[j].Sent, b[j].Recv)
			j++
		default:
			fn(keyOf(&a[i]), a[i].Sent+b[j].Sent, a[i].Recv+b[j].Recv)
			i++
			j++
		}
	}
}

// eosTracker is one node's per-query end-of-stream books.
type eosTracker struct {
	mu sync.Mutex
	// books holds the per-channel counts, sorted by chanKey: a ledger's
	// channel list as it goes on the wire.
	books []wire.EosChannel
	// pipeRecv totals the join and aggregation records this node
	// received. Result rows are left out: they end at the coordinator,
	// and a row received there causes no send.
	pipeRecv uint64
	// scanDone is set once the participant pipeline ran to
	// end-of-stream and its route batches flushed.
	scanDone bool
	// served records that this node's partitions of the scanned tables
	// ran to end-of-stream: the per-table coverage record shipped with
	// every ledger.
	served bool
	// seq numbers shipped frames so the coordinator can discard
	// reordered datagrams.
	seq uint64
	// drainRound is the highest coordinator-issued round this node has
	// fully acknowledged. cuts holds each round that reached this node
	// (presence dedups the broadcast) with pipeRecv at its cut.
	drainRound uint64
	cuts       []drainCut
	gate       *drainGate

	// The node's outbox state for this query (participants only):
	// enlisted once participation starts, pending while a frame is
	// owed, urgent when it is owed at once, else at due (written under
	// the outbox's lock). arrived starts the MaxQueryLife clock;
	// lastShip, touched only by the outbox's goroutine, spaces the
	// heartbeats.
	enlisted, pending, urgent atomic.Bool
	due, arrived, lastShip    time.Time
}

// drainCut is one drain round that reached this node and pipeRecv at
// the round's cut.
type drainCut struct{ round, recv uint64 }

// drainGate tracks one in-flight drain round on this node: remaining
// counts the markers pushed into collector inlets whose sinks have not
// acknowledged yet.
type drainGate struct {
	round     uint64
	remaining int
	done      chan struct{}
}

func newEosTracker() *eosTracker {
	return &eosTracker{arrived: time.Now()}
}

// drainStarted reports whether any drain round has reached this node.
func (e *eosTracker) drainStarted() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.cuts) > 0
}

// cut returns the cut of a round that reached this node, nil for one
// that has not. Callers hold e.mu.
func (e *eosTracker) cut(round uint64) *drainCut {
	for i := range e.cuts {
		if e.cuts[i].round == round {
			return &e.cuts[i]
		}
	}
	return nil
}

// settled reports whether no join or aggregation record arrived since
// the cut of the last round acknowledged (false before the first).
// Callers hold e.mu.
func (e *eosTracker) settled() bool {
	c := e.cut(e.drainRound)
	return c != nil && e.pipeRecv == c.recv
}

// countSent enters n records put on the wire for a channel.
func (q *queryState) countSent(k chanKey, n int) {
	e := q.eos
	if e == nil || n <= 0 {
		return
	}
	e.mu.Lock()
	bookOf(&e.books, k).Sent += uint64(n)
	e.mu.Unlock()
	q.eosKick()
}

// countRecv enters n records delivered into local pipelines.
func (q *queryState) countRecv(k chanKey, n int) {
	e := q.eos
	if e == nil || n <= 0 {
		return
	}
	e.mu.Lock()
	bookOf(&e.books, k).Recv += uint64(n)
	if k.kind != chanRows {
		e.pipeRecv += uint64(n)
	}
	e.mu.Unlock()
	q.eosKick()
}

// eosKick signals that this node's books moved: the coordinator
// re-evaluates completion, a participant's ledger leaves after the
// outbox's settle pause.
func (q *queryState) eosKick() { q.eosSignal(false) }

// eosKickNow signals a state transition — scan done or a drain round
// acknowledged: the participant's ledger leaves without the pause.
func (q *queryState) eosKickNow() { q.eosSignal(true) }

func (q *queryState) eosSignal(urgent bool) {
	if q.eos == nil {
		return
	}
	if q.isCoord {
		select {
		case q.eosEval <- struct{}{}:
		default:
		}
		return
	}
	q.node.outbox.kick(q, urgent)
}

// fillFrame snapshots this node's live books into f as a wire ledger,
// reusing f's lists.
func (q *queryState) fillFrame(f *wire.EosFrame) {
	e := q.eos
	e.mu.Lock()
	defer e.mu.Unlock()
	e.seq++
	*f = wire.EosFrame{
		Query:      q.id,
		Addr:       q.node.Addr(),
		Seq:        e.seq,
		Depth:      uint64(q.depth),
		Fanout:     uint64(q.fanout),
		ScanDone:   e.scanDone,
		DrainRound: e.drainRound,
		// Evaluated now, from the books this frame carries: a receipt
		// after the round's cut unsettles every later frame.
		Settled:  e.settled(),
		Channels: append(f.Channels[:0], e.books...),
		Scans:    f.Scans[:0],
	}
	// One coverage record per scanned table, in plan order (each node
	// holds one partition of each table; Served marks that this node's
	// partition ran to end-of-stream).
	for i := range q.spec.Scans {
		f.Scans = append(f.Scans, wire.EosScan{Table: q.spec.Scans[i].Table, Served: e.served})
	}
}

// eosMarkScansServed records that this node's partitions of the
// spec's scanned tables ran to end-of-stream without error.
func (q *queryState) eosMarkScansServed() {
	e := q.eos
	if e == nil {
		return
	}
	e.mu.Lock()
	e.served = true
	e.mu.Unlock()
}

// eosMarkScanDone records local scan completion and reports it to the
// coordinator — the EOS replacement for the old "done" RPC.
func (q *queryState) eosMarkScanDone() {
	e := q.eos
	if e == nil {
		return
	}
	e.mu.Lock()
	already := e.scanDone
	e.scanDone = true
	e.mu.Unlock()
	if already {
		return
	}
	if q.isCoord {
		// The coordinator reads its own live books at every evaluation;
		// only the membership mark needs recording.
		q.coMu.Lock()
		q.doneNodes[q.node.Addr()] = true
		q.lastActivity = time.Now()
		q.coMu.Unlock()
	}
	q.eosEnlist()
	q.eosKickNow()
}

// eosEnlist puts a participant's query in its node's ledger outbox,
// once, when participation begins — not at scan completion — so the
// ledger doubles as a liveness heartbeat and the coordinator learns a
// member's address before a long scan finishes. The first ledger is a
// count movement, not a frame of its own: a scan shorter than the
// settle pause reports "I am a member" and "my scan is done" in one
// frame.
func (q *queryState) eosEnlist() {
	e := q.eos
	if e == nil || q.isCoord || e.enlisted.Swap(true) {
		return
	}
	q.node.outbox.enlist(q)
	q.eosKick()
}

// drainLocal executes one coordinator-issued drain round on this node:
// flush relay combine buffers, flush route batches, take the round's
// cut, push a Drain marker through every live collector pipeline and
// wait for the sink acknowledgements, flush routes again (the sinks
// may have shipped), and only then advance the acknowledged round and
// report it. The cut precedes the inlet snapshot, so every record it
// counts sits in a listed inlet ahead of that inlet's marker.
func (q *queryState) drainLocal(round uint64) {
	e := q.eos
	if e == nil {
		return
	}
	e.mu.Lock()
	if e.cut(round) != nil {
		e.mu.Unlock()
		return
	}
	e.cuts = append(e.cuts, drainCut{round: round}) // seen; the cut is taken below
	e.mu.Unlock()

	drainSpan := q.spans.Start(fmt.Sprintf("drain.r%d", round))
	defer q.spans.End(drainSpan)

	q.flushCombining()
	q.node.flushRoutes()
	e.mu.Lock()
	e.cut(round).recv = e.pipeRecv
	e.mu.Unlock()

	inlets := q.snapshotInlets()
	if len(inlets) > 0 {
		gate := &drainGate{round: round, remaining: len(inlets), done: make(chan struct{})}
		e.mu.Lock()
		e.gate = gate
		e.mu.Unlock()
		for _, in := range inlets {
			in.Push(dataflow.DrainMsg(round))
		}
		select {
		case <-gate.done:
		case <-q.ctx.Done():
			// Teardown (or fallback completion) cancelled the query: the
			// round stays unacknowledged, which is correct.
			return
		}
		e.mu.Lock()
		e.gate = nil
		e.mu.Unlock()
		q.node.flushRoutes()
	}

	e.mu.Lock()
	if round > e.drainRound {
		e.drainRound = round
	}
	e.mu.Unlock()
	q.eosKickNow()
}

// eosDrainAck is the physical pipelines' Env.DrainAck: a sink
// acknowledges that one Drain marker — and with it every effect of the
// data that preceded it — has left its pipeline.
func (q *queryState) eosDrainAck(round uint64) {
	e := q.eos
	if e == nil {
		return
	}
	e.mu.Lock()
	g := e.gate
	if g != nil && g.round == round {
		g.remaining--
		if g.remaining == 0 {
			close(g.done)
		}
	}
	e.mu.Unlock()
}

// snapshotInlets lists every live collector inlet on this node (one
// per aggregation merge, two per join stage). Each pushed marker is
// forwarded through the pipeline and acknowledged exactly once at the
// sink, so the expected ack count equals the inlet count.
func (q *queryState) snapshotInlets() []*physical.Inlet {
	q.pipeMu.Lock()
	defer q.pipeMu.Unlock()
	var out []*physical.Inlet
	if q.aggIn != nil {
		out = append(out, q.aggIn)
	}
	for _, pair := range q.joinInlets {
		for _, in := range pair {
			if in != nil {
				out = append(out, in)
			}
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Coordinator-side evaluation

// applyEosLedger records a participant's latest ledger (coordinator
// role) and folds it into the running totals: the new frame's counts
// in, the replaced frame's out. Ledgers travel as datagrams and may
// arrive reordered; the sender's sequence number keeps the newest and
// drops stale frames, so each member's counts only grow and so does
// their running sum. Only a ledger whose content actually moved resets
// the quiescence clock — pure heartbeats feed the liveness detector
// but must not keep the Quiet fallback from ever firing.
func (q *queryState) applyEosLedger(f *wire.EosFrame) {
	if f.Addr == "" || f.Addr == q.node.Addr() {
		return // the coordinator reads its own books live
	}
	now := time.Now()
	q.coMu.Lock()
	if q.lastSeen == nil {
		q.lastSeen = make(map[string]time.Time, q.members+1)
	}
	if q.ledgerAt == nil {
		q.ledgerAt = make(map[string]int, q.members+1)
	}
	q.lastSeen[f.Addr] = now
	var prev *wire.EosFrame
	if i, ok := q.ledgerAt[f.Addr]; ok {
		if prev = q.ledgers[i]; f.Seq <= prev.Seq {
			q.coMu.Unlock()
			q.node.clearSuspect(f.Addr)
			return // reordered stale frame
		}
		q.ledgers[i] = f
	} else {
		q.ledgerAt[f.Addr] = len(q.ledgers)
		q.ledgers = append(q.ledgers, f)
	}
	if prev == nil {
		q.countMember(int(f.Depth), int(f.Fanout))
	} else {
		for i := range prev.Channels {
			ch := &prev.Channels[i]
			t := bookOf(&q.totals, keyOf(ch))
			t.Sent -= ch.Sent
			t.Recv -= ch.Recv
			q.moved -= ch.Sent + ch.Recv
		}
	}
	for i := range f.Channels {
		ch := &f.Channels[i]
		t := bookOf(&q.totals, keyOf(ch))
		t.Sent += ch.Sent
		t.Recv += ch.Recv
		q.moved += ch.Sent + ch.Recv
	}
	if f.ScanDone && (prev == nil || !prev.ScanDone) {
		q.doneNodes[f.Addr] = true
	}
	if !eosFrameEqual(prev, f) {
		q.lastActivity = now
	}
	q.coMu.Unlock()
	q.node.clearSuspect(f.Addr)
	q.eosKick()
}

// eosFrameEqual reports whether two ledgers carry the same content
// (heartbeat detection; Addr and Query are fixed per sender).
func eosFrameEqual(a, b *wire.EosFrame) bool {
	if a == nil || b == nil {
		return false
	}
	if a.ScanDone != b.ScanDone || a.DrainRound != b.DrainRound || a.Settled != b.Settled ||
		len(a.Channels) != len(b.Channels) || len(a.Scans) != len(b.Scans) {
		return false
	}
	for i := range a.Channels {
		if a.Channels[i] != b.Channels[i] {
			return false
		}
	}
	for i := range a.Scans {
		if a.Scans[i] != b.Scans[i] {
			return false
		}
	}
	return true
}

// treeLevel is one depth of a query broadcast's delegation tree as the
// coordinator has heard of it: the members that reported there and the
// fan-out they delegated.
type treeLevel struct{ reached, fanout int }

// countMember enters a member's first report (the coordinator's own at
// depth 0) into the delegation tree, keeping a level past the deepest
// reported one so its fan-out is checked too. Callers hold coMu.
func (q *queryState) countMember(depth, fanout int) {
	for len(q.tree) < depth+2 {
		q.tree = append(q.tree, treeLevel{})
	}
	q.tree[depth].reached++
	q.tree[depth].fanout += fanout
}

// membership counts the query's members from its delegation tree:
// expected is the coordinator plus every fan-out reported, and complete
// holds when every delegated node reported — each depth reached exactly
// what the depth above delegated. A depth-by-depth match is needed, not
// just a match of the totals: a node whose ledger is late but whose
// child's is in could balance them. Callers hold coMu.
func (q *queryState) membership() (expected int, complete bool) {
	expected, complete = 1, len(q.tree) > 0
	for d, l := range q.tree {
		expected += l.fanout
		if d > 0 && l.reached != q.tree[d-1].fanout {
			complete = false
		}
	}
	return expected, complete
}

// eosStatus is one completion evaluation's view of the network.
type eosStatus struct {
	// scanDone counts members whose ledger reports scan completion.
	scanDone int
	// acked reports that every ledger (and the coordinator's own
	// books) has acknowledged drain round `round`.
	acked bool
	// settled reports that every ledger says its latest round settled
	// (false before the first round).
	settled bool
	// balanced reports that network-wide sent == recv on every channel.
	balanced bool
	// moved sums every count of every ledger and of the coordinator's
	// own books. Counters are monotone, so an unchanged sum across a
	// full drain round proves nothing moved anywhere. Frozen ledgers
	// of dead members fold in too — constants never perturb the check.
	moved uint64
	// live / liveScanDone / liveAcked are the same accounting
	// restricted to non-suspect members: the degraded completion path
	// under churn. A dead member's frozen books can never ack a new
	// round or finish a scan, so requiring them would stall forever.
	live         int
	liveScanDone int
	liveAcked    bool
}

// member folds one member's ledger state into the status.
func (st *eosStatus) member(scanDone, settled bool, drainRound, round uint64, alive bool) {
	if alive {
		st.live++
	}
	if scanDone {
		st.scanDone++
		if alive {
			st.liveScanDone++
		}
	}
	st.settled = st.settled && settled
	if drainRound < round {
		st.acked = false
		if alive {
			st.liveAcked = false
		}
	}
}

// eosStatus adds the coordinator's live books to the running totals of
// every received ledger. The coordinator never ships a ledger to
// itself — its own row is always the freshest possible snapshot.
// suspects (may be nil) marks members currently considered dead; their
// frames still fold into the totals but are excluded from the live
// accounting.
func (q *queryState) eosStatus(round uint64, suspects map[string]bool) eosStatus {
	st := eosStatus{acked: true, settled: true, balanced: true, liveAcked: true}
	e := q.eos
	q.coMu.Lock()
	defer q.coMu.Unlock()
	for _, f := range q.ledgers {
		st.member(f.ScanDone, f.Settled, f.DrainRound, round, !suspects[f.Addr])
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	st.member(e.scanDone, e.settled(), e.drainRound, round, true)
	st.moved = q.moved
	eachTotal(q.totals, e.books, func(_ chanKey, sent, recv uint64) {
		st.balanced = st.balanced && sent == recv
	})
	for i := range e.books {
		st.moved += e.books[i].Sent + e.books[i].Recv
	}
	return st
}

// booksText renders the network-wide totals per channel as
// kind.stage.side:sent/recv; — what a query that gave up waiting says
// about the books that never balanced.
func (q *queryState) booksText() string {
	e := q.eos
	q.coMu.Lock()
	defer q.coMu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	var buf []byte
	eachTotal(q.totals, e.books, func(k chanKey, sent, recv uint64) {
		buf = fmt.Appendf(buf, "%d.%d.%d:%d/%d;", k.kind, k.stage, k.side, sent, recv)
	})
	return string(buf)
}

// broadcastDrain issues (or re-issues) a drain round.
func (n *Node) broadcastDrain(qid, round uint64) {
	_ = n.router.Broadcast(tagDrain, wire.EncodeDrain(qid, round))
}

// maxDrainRounds caps the rounds one query may issue; past it the
// coordinator gives up on deterministic completion and lets the Quiet
// fallback finish the query. Real queries settle in one or two rounds;
// the cap is a backstop against pathological counter churn.
const maxDrainRounds = 64
