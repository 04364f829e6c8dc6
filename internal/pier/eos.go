package pier

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
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

const (
	chanRows uint8 = iota // result rows to the coordinator
	chanAgg               // aggregation partials toward collectors
	chanJoin              // rehashed join tuples per (stage, side)
)

// eosTracker is one node's per-query end-of-stream books.
type eosTracker struct {
	mu   sync.Mutex
	sent map[chanKey]uint64
	recv map[chanKey]uint64
	// scanDone is set once the participant pipeline ran to
	// end-of-stream and its route batches flushed.
	scanDone bool
	// scans records which scanned tables this node's partition served
	// to end-of-stream — the per-table coverage record shipped with
	// every ledger.
	scans map[string]bool
	// shipOnce guards the single start of the ledger shipper
	// goroutine, at participation start.
	shipOnce sync.Once
	// seq numbers shipped frames so the coordinator can discard
	// reordered datagrams.
	seq uint64
	// drainRound is the highest coordinator-issued round this node has
	// fully acknowledged. drainCut maps each round that reached this
	// node (presence dedups the broadcast) to pipeRecv at its cut.
	drainRound uint64
	drainCut   map[uint64]uint64
	gate       *drainGate
	// dirty and urgent wake the shipper goroutine: dirty for count
	// movements, which wait out a settle pause; urgent for state
	// transitions (scan done, a drain round acknowledged), which the
	// coordinator's next step waits on and which leave at once.
	dirty  chan struct{}
	urgent chan struct{}
}

// drainGate tracks one in-flight drain round on this node: remaining
// counts the markers pushed into collector inlets whose sinks have not
// acknowledged yet.
type drainGate struct {
	round     uint64
	remaining int
	done      chan struct{}
}

func newEosTracker() *eosTracker {
	return &eosTracker{
		sent:     make(map[chanKey]uint64),
		recv:     make(map[chanKey]uint64),
		scans:    make(map[string]bool),
		drainCut: make(map[uint64]uint64),
		dirty:    make(chan struct{}, 1),
		urgent:   make(chan struct{}, 1),
	}
}

// drainStarted reports whether any drain round has reached this node.
func (e *eosTracker) drainStarted() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.drainCut) > 0
}

// pipeRecv totals the join and aggregation records this node received.
// Result rows are left out: they end at the coordinator, and a row
// received there causes no send. Callers hold e.mu.
func (e *eosTracker) pipeRecv() uint64 {
	var n uint64
	for k, v := range e.recv {
		if k.kind != chanRows {
			n += v
		}
	}
	return n
}

// countSent enters n records put on the wire for a channel.
func (q *queryState) countSent(k chanKey, n int) {
	e := q.eos
	if e == nil || n <= 0 {
		return
	}
	e.mu.Lock()
	e.sent[k] += uint64(n)
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
	e.recv[k] += uint64(n)
	e.mu.Unlock()
	q.eosKick()
}

// eosKick signals that this node's books moved: the coordinator
// re-evaluates completion, participants re-ship their ledger after the
// settle pause.
func (q *queryState) eosKick() {
	if e := q.eos; e != nil {
		q.eosSignal(e.dirty)
	}
}

// eosKickNow signals a state transition — scan done or a drain round
// acknowledged: the participant's ledger leaves without the pause.
func (q *queryState) eosKickNow() {
	if e := q.eos; e != nil {
		q.eosSignal(e.urgent)
	}
}

func (q *queryState) eosSignal(wake chan struct{}) {
	if q.isCoord {
		wake = q.eosEval
	}
	select {
	case wake <- struct{}{}:
	default:
	}
}

// eosFrame snapshots this node's live books as a wire ledger.
func (q *queryState) eosFrame() *wire.EosFrame {
	e := q.eos
	e.mu.Lock()
	defer e.mu.Unlock()
	e.seq++
	f := &wire.EosFrame{
		Query:      q.id,
		Addr:       q.node.Addr(),
		Seq:        e.seq,
		Depth:      uint64(q.depth),
		Fanout:     uint64(q.fanout),
		ScanDone:   e.scanDone,
		DrainRound: e.drainRound,
	}
	// Evaluated now, from the books this frame carries: a receipt after
	// the round's cut unsettles every later frame.
	if cut, ok := e.drainCut[e.drainRound]; ok {
		f.Settled = e.pipeRecv() == cut
	}
	keys := make([]chanKey, 0, len(e.sent)+len(e.recv))
	for k := range e.sent {
		keys = append(keys, k)
	}
	for k := range e.recv {
		if _, sent := e.sent[k]; !sent {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].less(keys[j]) })
	for _, k := range keys {
		f.Channels = append(f.Channels, wire.EosChannel{
			Kind: k.kind, Stage: k.stage, Side: k.side,
			Sent: e.sent[k], Recv: e.recv[k],
		})
	}
	// One coverage record per scanned table, in plan order (each node
	// holds one partition of each table; Served marks that this
	// node's partition ran to end-of-stream).
	for i := range q.spec.Scans {
		t := q.spec.Scans[i].Table
		f.Scans = append(f.Scans, wire.EosScan{Table: t, Served: e.scans[t]})
	}
	return f
}

// eosMarkScansServed records that this node's partitions of the
// spec's scanned tables ran to end-of-stream without error.
func (q *queryState) eosMarkScansServed() {
	e := q.eos
	if e == nil {
		return
	}
	e.mu.Lock()
	for i := range q.spec.Scans {
		e.scans[q.spec.Scans[i].Table] = true
	}
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
	q.startEosShipper()
	q.eosKickNow()
}

// startEosShipper starts the shipper goroutine exactly once, when
// participation begins — not at scan completion — so the ledger doubles
// as a liveness heartbeat and the coordinator learns a member's address
// before a long scan finishes. The first ledger is a count movement, not
// a frame of its own: a scan shorter than the settle pause reports "I am
// a member" and "my scan is done" in one frame.
func (q *queryState) startEosShipper() {
	e := q.eos
	if e == nil || q.isCoord {
		return
	}
	e.shipOnce.Do(func() {
		q.eosKick()
		q.node.wg.Add(1)
		q.node.peer.Go(func() {
			defer q.node.wg.Done()
			q.eosShipperLoop()
		})
	})
}

// shipEosLedger sends the current ledger to the coordinator as a
// fire-and-forget datagram. No ack, no retransmission: a lost frame is
// repaired by the next heartbeat tick, and crucially the shipper never
// blocks on a retrying call — a blocked shipper would starve the very
// heartbeats the coordinator's failure detector counts, making pure
// message loss look like a dead member. Reordering is handled by the
// frame sequence number on the receiving side.
func (q *queryState) shipEosLedger() {
	q.node.hbSent.Inc()
	_ = q.node.peer.Notify(q.coord, methEos, q.eosFrame().Bytes())
}

// eosShipperLoop re-ships the ledger whenever the books or the drain
// round move, and on a heartbeat tick even when nothing moved (the
// coordinator's failure detector counts missed beats). It runs from
// participation start until query teardown, bounded by MaxQueryLife
// in case the stop broadcast never arrives (dead coordinator).
// Count movements coalesce twice: the dirty channel absorbs signals
// while a ship is in flight, and a short settle pause lets a batch of
// arrivals (e.g. a collector absorbing many frames) land in one
// ledger instead of one RPC each. A state transition ships at once,
// cutting short a pause in progress: the frame is the full ledger, so
// the counts that were waiting ride along.
func (q *queryState) eosShipperLoop() {
	const settle = time.Millisecond
	e := q.eos
	hb := q.node.cfg.HeartbeatEvery
	if hb <= 0 {
		hb = 50 * time.Millisecond
	}
	tick := time.NewTicker(hb)
	defer tick.Stop()
	pause := time.NewTimer(settle)
	defer pause.Stop()
	deadline := time.Now().Add(q.node.cfg.MaxQueryLife)
	for {
		select {
		case <-q.ctx.Done():
			return
		case <-e.urgent:
		case <-e.dirty:
			if !pause.Stop() { // a reused timer may hold a stale fire
				select {
				case <-pause.C:
				default:
				}
			}
			pause.Reset(settle)
			select {
			case <-q.ctx.Done():
				return
			case <-e.urgent:
			case <-pause.C:
			}
		case <-tick.C:
			if time.Now().After(deadline) {
				return
			}
		}
		// The frame built next carries every signal raised so far.
		for _, wake := range [2]chan struct{}{e.dirty, e.urgent} {
			select {
			case <-wake:
			default:
			}
		}
		q.shipEosLedger()
	}
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
	if _, seen := e.drainCut[round]; seen {
		e.mu.Unlock()
		return
	}
	e.drainCut[round] = 0 // seen; the cut is taken below
	e.mu.Unlock()

	drainSpan := q.spans.Start(fmt.Sprintf("drain.r%d", round))
	defer q.spans.End(drainSpan)

	q.flushCombining()
	q.node.flushRoutes()
	e.mu.Lock()
	e.drainCut[round] = e.pipeRecv()
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
// role). Ledgers travel as datagrams and may arrive reordered; the
// sender's sequence number keeps the newest and drops stale frames.
// Only a ledger whose content actually moved resets the quiescence
// clock — pure heartbeats feed the liveness detector but must not
// keep the Quiet fallback from ever firing.
func (q *queryState) applyEosLedger(f *wire.EosFrame) {
	q.noteAlive(f.Addr)
	q.coMu.Lock()
	if q.ledgers == nil {
		q.ledgers = make(map[string]*wire.EosFrame)
	}
	prev := q.ledgers[f.Addr]
	if prev != nil && f.Seq <= prev.Seq {
		q.coMu.Unlock()
		return // reordered stale frame
	}
	q.ledgers[f.Addr] = f
	if prev == nil {
		q.countMember(int(f.Depth), int(f.Fanout))
	}
	if f.ScanDone {
		q.doneNodes[f.Addr] = true
	}
	if !eosFrameEqual(prev, f) {
		q.lastActivity = time.Now()
	}
	q.coMu.Unlock()
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
	// canon is a deterministic rendering of the network-wide totals;
	// counters are monotone, so an unchanged canon across a full drain
	// round proves nothing moved anywhere. Frozen ledgers of dead
	// members fold in too — constants never perturb the check.
	canon string
	// live / liveScanDone / liveAcked are the same accounting
	// restricted to non-suspect members: the degraded completion path
	// under churn. A dead member's frozen books can never ack a new
	// round or finish a scan, so requiring them would stall forever.
	live         int
	liveScanDone int
	liveAcked    bool
}

// eosStatus folds the coordinator's live books with every received
// ledger. The coordinator never ships a ledger to itself — its own
// row is always the freshest possible snapshot. suspects (may be nil)
// marks members currently considered dead; their frames still fold
// into the totals but are excluded from the live accounting.
func (q *queryState) eosStatus(round uint64, suspects map[string]bool) eosStatus {
	self := q.eosFrame()
	q.coMu.Lock()
	frames := make([]*wire.EosFrame, 0, len(q.ledgers)+1)
	for addr, f := range q.ledgers {
		if addr != self.Addr {
			frames = append(frames, f)
		}
	}
	q.coMu.Unlock()
	frames = append(frames, self)

	st := eosStatus{acked: true, settled: true, balanced: true, liveAcked: true}
	totals := make(map[chanKey]*[2]uint64)
	for _, f := range frames {
		alive := !suspects[f.Addr]
		if alive {
			st.live++
		}
		if f.ScanDone {
			st.scanDone++
			if alive {
				st.liveScanDone++
			}
		}
		st.settled = st.settled && f.Settled
		if f.DrainRound < round {
			st.acked = false
			if alive {
				st.liveAcked = false
			}
		}
		for _, ch := range f.Channels {
			k := chanKey{kind: ch.Kind, stage: ch.Stage, side: ch.Side}
			t := totals[k]
			if t == nil {
				t = new([2]uint64)
				totals[k] = t
			}
			t[0] += ch.Sent
			t[1] += ch.Recv
		}
	}
	keys := make([]chanKey, 0, len(totals))
	for k := range totals {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].less(keys[j]) })
	buf := make([]byte, 0, 24*len(keys))
	for _, k := range keys {
		t := totals[k]
		if t[0] != t[1] {
			st.balanced = false
		}
		buf = strconv.AppendUint(buf, uint64(k.kind), 10)
		buf = append(buf, '.')
		buf = strconv.AppendUint(buf, uint64(k.stage), 10)
		buf = append(buf, '.')
		buf = strconv.AppendUint(buf, uint64(k.side), 10)
		buf = append(buf, ':')
		buf = strconv.AppendUint(buf, t[0], 10)
		buf = append(buf, '/')
		buf = strconv.AppendUint(buf, t[1], 10)
		buf = append(buf, ';')
	}
	st.canon = string(buf)
	return st
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
