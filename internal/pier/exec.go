package pier

import (
	"context"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/batch"
	"repro/internal/bloom"
	"repro/internal/dataflow"
	"repro/internal/id"
	"repro/internal/obs"
	"repro/internal/overlay"
	"repro/internal/physical"
	"repro/internal/plan"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// Overlay tags and RPC methods used by the query engine.
const (
	tagQuery = "pier.query" // broadcast: start a query
	tagStop  = "pier.stop"  // broadcast: tear a query down
	tagDrain = "pier.drain" // broadcast: flush held state for a drain round
	tagAgg   = "pier.agg"   // routed: partial aggregate toward collector
	tagJoin  = "pier.join"  // routed: rehashed join tuple toward collector

	methRows  = "pier.rows"  // rpc to coordinator: result rows
	methEos   = "pier.eos"   // one-way to coordinator: EOS ledgers (scan done + books), a datagram per sender's wake
	methStats = "pier.stats" // one-way to coordinator: EXPLAIN ANALYZE counters, trace spans
)

// queryState carries every role a node can play for one query:
// participant (scanning its partitions), collector (join rehash
// target or aggregation tree root), and coordinator (the node the
// client asked).
type queryState struct {
	id    uint64
	spec  *plan.Spec
	coord string
	node  *Node

	ctx    context.Context
	cancel context.CancelFunc

	participateOnce sync.Once

	// Bloom filters attached to the query, keyed by join stage: the
	// phase-1 gathers that ended eos (BloomJoin phase 2). Written once,
	// before the query message leaves the coordinator or, elsewhere,
	// before the state is published.
	filters map[int]*bloom.Filter
	// members is the coordinator's member count, as the query message
	// carried it; joinParts, the routing partition count of every
	// rehash-join stage, follows from it. depth and fanout place this
	// node in the query broadcast's tree (wire.EosFrame).
	members, joinParts int
	depth, fanout      int

	// --- physical pipelines this node runs for the query ---
	// (participant scan/window pipeline, lazily started collectors)
	pipeMu     sync.Mutex
	pipes      []*physical.Pipeline
	running    []*dataflow.Running        // lazily started collector pipelines
	joinInlets map[int][2]*physical.Inlet // join stage -> side inlets
	aggIn      *physical.Inlet
	statsOnce  sync.Once
	// rowsFailOnce limits the rows-unacked event to one per query.
	rowsFailOnce sync.Once

	// --- tracing (one-shot queries only) ---
	// spans buffers this node's phase spans for the query; traceRoot
	// is the coordinator's root span id carried in the query message.
	// shipSpanOnce lazily opens one "ship" span covering the window
	// from the first outbound tuple to teardown.
	spans        *obs.SpanBuf
	traceRoot    uint64
	shipSpanOnce sync.Once
	shipSpanID   uint64

	// --- relay combining buffers ---
	combMu    sync.Mutex
	combining map[combineKey]*combineEntry

	// --- EOS completion (one-shot; nil for continuous queries) ---
	eos *eosTracker

	// --- coordinator ---
	isCoord      bool
	coMu         sync.Mutex
	aggRows      map[uint64]map[string]tuple.Tuple // window -> groupkey -> canonical row
	plainRows    map[uint64][][]tuple.Tuple        // window -> canonical rows, a list per frame
	lastActivity time.Time
	doneNodes    map[string]bool
	winFlushed   map[uint64]bool
	winTimers    map[uint64]*time.Timer
	results      chan WindowResult
	// nodeStats holds the latest EXPLAIN ANALYZE snapshot per node.
	// Snapshots replace rather than sum, so continuous queries can
	// re-ship cumulative counters every window without double counting.
	nodeStats map[string]*plan.Analysis
	// ledgers holds the latest EOS ledger per participant, ledgerAt
	// its index by address; totals sums their channels, sorted by
	// chanKey, and moved every count in them. eosEval pokes the
	// coordinator's completion evaluation. lastSeen is the per-member
	// liveness clock fed by every arriving RPC (heartbeat ledgers
	// included) — the coordinator's failure detector.
	ledgers  []*wire.EosFrame
	ledgerAt map[string]int
	totals   []wire.EosChannel
	moved    uint64
	lastSeen map[string]time.Time
	eosEval  chan struct{}
	// tree tallies the query broadcast's tree per depth (membership).
	tree []treeLevel
}

// getQuery returns (and optionally creates) the state for qid.
func (n *Node) getQuery(qid uint64, create func() *queryState) *queryState {
	n.mu.Lock()
	defer n.mu.Unlock()
	if q, ok := n.queries[qid]; ok {
		return q
	}
	if create == nil || n.stopped {
		return nil
	}
	q := create()
	n.queries[qid] = q
	return q
}

func (n *Node) dropQuery(qid uint64) {
	n.mu.Lock()
	q := n.queries[qid]
	delete(n.queries, qid)
	n.mu.Unlock()
	if q != nil {
		n.teardown(q)
	}
}

// expireQuery drops q if it is still its query's state: a participant
// state MaxQueryLife after its arrival, whose stop broadcast never came.
func (n *Node) expireQuery(q *queryState) {
	n.mu.Lock()
	mine := n.queries[q.id] == q
	if mine {
		delete(n.queries, q.id)
	}
	n.mu.Unlock()
	if mine {
		n.teardown(q)
	}
}

// teardown ends a dropped query's state on this node.
func (n *Node) teardown(q *queryState) {
	n.outbox.drop(q)
	q.shipStats()
	if q.coord == q.node.Addr() {
		// The coordinator's spans ship last, here: its root span
		// only gets its completion detail after teardown, and the
		// stop broadcast loops back into shipStats before that.
		q.spans.CloseOpen()
		if spans := q.spans.Snapshot(); len(spans) > 0 {
			n.addTraceSpans(q.id, spans)
		}
	}
	q.cancel()
	q.stopTimers()
}

// stopTimers cancels any pending window-flush timers (coordinator
// role). A timer that already fired is harmless: flushWindow checks
// the query context before doing work.
func (q *queryState) stopTimers() {
	q.coMu.Lock()
	for w, tm := range q.winTimers {
		tm.Stop()
		delete(q.winTimers, w)
	}
	q.coMu.Unlock()
}

// closeResults closes the continuous results channel exactly once.
// The close and every send happen under coMu, so a window flush can
// never race the close into a send-on-closed panic.
func (q *queryState) closeResults() {
	q.coMu.Lock()
	if q.results != nil {
		close(q.results)
		q.results = nil
	}
	q.coMu.Unlock()
}

// waitPipelines blocks until every lazily started collector pipeline
// has exited. Callers cancel the query context first; participant
// pipelines run under the node wait group and are not tracked here.
func (q *queryState) waitPipelines() {
	q.pipeMu.Lock()
	running := append([]*dataflow.Running(nil), q.running...)
	q.pipeMu.Unlock()
	for _, r := range running {
		<-r.Done()
	}
}

// shipStats delivers this node's teardown payload to the coordinator
// exactly once: trace spans always (one-shot queries), per-operator
// pipeline counters only under EXPLAIN ANALYZE. It runs on every
// teardown path — eos, cancel, deadline, stop broadcast — so partial
// queries still trace. The coordinator stores its own share in place;
// remote nodes send it one-way (best effort, see sendStats).
func (q *queryState) shipStats() {
	q.statsOnce.Do(func() { q.shipFinal() })
}

func (q *queryState) shipFinal() {
	var stats []plan.OpStats
	if q.spec.Analyze {
		stats = q.localStats()
	}
	if q.coord == q.node.Addr() {
		// Counters only: the coordinator's spans are still being
		// written at this point (the stop broadcast loops back here
		// before the root span gets its completion detail), so
		// dropQuery ships them into the trace ring instead.
		if len(stats) > 0 {
			q.setNodeStats(q.node.Addr(), &plan.Analysis{Ops: stats})
		}
		return
	}
	q.spans.CloseOpen()
	spans := q.spans.Snapshot()
	if len(stats) == 0 && len(spans) == 0 {
		return
	}
	q.node.sendStats(q.id, q.coord, stats, spans)
}

// shipStatsSnapshot ships the current cumulative counter snapshot.
// Continuous queries call it once per window close so EXPLAIN ANALYZE
// works while the query is still running; the coordinator replaces
// the node's previous snapshot.
func (q *queryState) shipStatsSnapshot() {
	stats := q.localStats()
	if len(stats) == 0 {
		return
	}
	if q.coord == q.node.Addr() {
		q.setNodeStats(q.node.Addr(), &plan.Analysis{Ops: stats})
		return
	}
	q.node.sendStats(q.id, q.coord, stats, nil)
}

// setNodeStats records one node's latest snapshot.
func (q *queryState) setNodeStats(node string, a *plan.Analysis) {
	q.coMu.Lock()
	if q.nodeStats == nil {
		q.nodeStats = make(map[string]*plan.Analysis)
	}
	q.nodeStats[node] = a
	q.coMu.Unlock()
	q.eosKick() // an EXPLAIN ANALYZE coordinator may be waiting for this snapshot
}

// mergedAnalysis folds every node's latest snapshot (plus any extra
// coordinator-local operator stats) into one network-wide Analysis.
// Keys merge in sorted order so the report is deterministic for a
// given set of snapshots.
func (q *queryState) mergedAnalysis(extra ...plan.OpStats) *plan.Analysis {
	q.coMu.Lock()
	keys := make([]string, 0, len(q.nodeStats))
	for k := range q.nodeStats {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	merged := &plan.Analysis{}
	for _, k := range keys {
		merged.Merge(q.nodeStats[k].Ops...)
	}
	q.coMu.Unlock()
	merged.Merge(extra...)
	return merged
}

// sendStats ships one stats snapshot plus any trace spans to the
// coordinator as a one-way datagram. Nothing waits on a reply: a lost
// frame loses this node's spans and counters, and the coordinator's
// allStatsIn wait ends on analyzeGrace.
func (n *Node) sendStats(qid uint64, coord string, stats []plan.OpStats, spans []obs.Span) {
	w := wire.NewWriter(256)
	w.Uint64(qid)
	a := plan.Analysis{Ops: stats}
	a.Encode(w)
	obs.EncodeSpans(w, spans)
	_ = n.peer.Notify(coord, methStats, w.Bytes())
}

func (n *Node) newQueryState(qid uint64, spec *plan.Spec, coord string, members int) *queryState {
	ctx, cancel := context.WithCancel(context.Background())
	q := &queryState{
		id:        qid,
		spec:      spec,
		coord:     coord,
		node:      n,
		ctx:       ctx,
		cancel:    cancel,
		eosEval:   make(chan struct{}, 1),
		members:   members,
		joinParts: joinPartitions(members),
	}
	if coord == n.Addr() {
		// The coordinator's books; a participant elsewhere keeps none.
		q.aggRows = make(map[uint64]map[string]tuple.Tuple)
		q.plainRows = make(map[uint64][][]tuple.Tuple)
		q.doneNodes = make(map[string]bool, members+1)
		q.winFlushed = make(map[uint64]bool)
		q.winTimers = make(map[uint64]*time.Timer)
	}
	if !spec.IsContinuous() {
		q.eos = newEosTracker()
	}
	return q
}

// initTrace arms span recording for a one-shot query. root is the
// coordinator's root span id (new spans parent on it). Continuous
// queries record no spans: their phases never end.
func (q *queryState) initTrace(root uint64) {
	if q.spec.IsContinuous() {
		return
	}
	q.traceRoot = root
	q.spans = obs.NewSpanBuf(q.node.Addr(), root)
}

// shipSpan lazily opens the node's "ship" span the first time any
// outbound tuple path runs; it closes with the other open spans at
// teardown, bracketing the node's whole shipping window.
func (q *queryState) shipSpan() {
	q.shipSpanOnce.Do(func() {
		q.shipSpanID = q.spans.Start("ship")
	})
}

// ---------------------------------------------------------------------------
// Message encoding

// queryMsg is a query dissemination: the trace context (query id + the
// coordinator's root span id) and the coordinator's member count ride
// in the same wire frame as the plan, so every participant parents its
// spans correctly and derives the same join partitions with no extra
// message. Participants read the count from here only — never from
// their own, which may disagree during a membership change.
type queryMsg struct {
	qid      uint64
	coord    string
	rootSpan uint64
	members  int
	spec     *plan.Spec
	filters  map[int]*bloom.Filter
}

// maxJoinPartitions bounds the partition count, and the member count a
// query message may carry.
const maxJoinPartitions = 1 << 16

// joinPartitions chooses P for a cluster of members nodes: 64 up to 16
// members — one stage's owner lookups then fit the route batcher's
// in-flight lookup cap, and an undercount there changes nothing — and
// the next power of two ≥ 4×members above that, so every member still
// owns a few partitions.
func joinPartitions(members int) int {
	p := 64
	for p < 4*members && p < maxJoinPartitions {
		p *= 2
	}
	return p
}

func (m queryMsg) encode() []byte {
	w := wire.NewWriter(512)
	w.Uint64(m.qid)
	w.String(m.coord)
	w.Uint64(m.rootSpan)
	w.Uvarint(uint64(m.members))
	stages := make([]int, 0, len(m.filters))
	for s, f := range m.filters {
		if f != nil {
			stages = append(stages, s)
		}
	}
	sort.Ints(stages)
	w.Uvarint(uint64(len(stages)))
	for _, s := range stages {
		w.Uvarint(uint64(s))
		m.filters[s].Encode(w)
	}
	w.BytesLP(m.spec.Bytes())
	return w.Bytes()
}

func decodeQueryMsg(payload []byte) (m queryMsg, err error) {
	r := wire.NewReader(payload)
	m.qid = r.Uint64()
	m.coord = r.String()
	m.rootSpan = r.Uint64()
	members := r.Uvarint()
	if members > maxJoinPartitions {
		return m, fmt.Errorf("pier: query message with %d members", members)
	}
	m.members = int(members)
	nf := int(r.Uvarint())
	if nf > plan.MaxTables {
		return m, fmt.Errorf("pier: query message with %d bloom filters", nf)
	}
	for i := 0; i < nf; i++ {
		stage := int(r.Uvarint())
		f, err := bloom.Decode(r)
		if err != nil {
			return m, err
		}
		if m.filters == nil {
			m.filters = make(map[int]*bloom.Filter, nf)
		}
		m.filters[stage] = f
	}
	specBytes := r.BytesLP()
	if err = r.Err(); err != nil {
		return m, err
	}
	m.spec, err = plan.FromBytes(specBytes)
	return m, err
}

// All tuple-carrying engine traffic (aggregation partials, rehashed
// join tuples, result rows) shares the wire.TupleFrame codec; the
// overlay tag or RPC method carries the message's meaning, the frame
// header carries (query, window, join stage, side).

func encodeTupleMsg(qid, window uint64, stage, side uint8, rows ...tuple.Tuple) []byte {
	// Sized once and encoded in place.
	size := wire.TupleFrameHeadLen(len(rows))
	for _, t := range rows {
		n := t.EncodedLen()
		size += wire.UvarintLen(uint64(n)) + n
	}
	w := wire.NewWriter(size)
	appendTupleMsg(w, qid, window, stage, side, rows)
	return w.Bytes()
}

// appendTupleMsg appends the frame of rows to w, each row encoded
// straight into it.
func appendTupleMsg(w *wire.Writer, qid, window uint64, stage, side uint8, rows []tuple.Tuple) {
	f := wire.TupleFrame{Query: qid, Window: window, Stage: stage, Side: side}
	f.EncodeHead(w, len(rows))
	tuple.AppendRecords(w, rows)
}

// decodeTupleMsg decodes one whole frame: its header, and its rows into
// one arena and one list, both sized from the frame.
func decodeTupleMsg(payload []byte) (wire.TupleFrame, []tuple.Tuple, error) {
	var f wire.TupleFrame
	var r wire.Reader
	r.Reset(payload)
	n, err := f.DecodeHead(&r)
	if err != nil {
		return f, nil, err
	}
	var d tuple.Decoder
	d.ReserveFrame(&r, n)
	rows, err := d.DecodeRecords(&r, n, -1, make([]tuple.Tuple, 0, n))
	if err == nil {
		err = r.Done()
	}
	if err != nil {
		return f, nil, err
	}
	return f, rows, nil
}

// aggCollectorKey places a group's aggregation collector in the key
// space. The window is deliberately excluded so one group always
// aggregates at one node.
func aggCollectorKey(qid uint64, groupKey []byte) id.ID {
	var qb [8]byte
	binary.BigEndian.PutUint64(qb[:], qid)
	return id.HashParts("pier.agg", string(qb[:]), string(groupKey))
}

// joinOrigin is the ring position of a join stage's routing partition
// 0. It depends on the stage and nothing else, so a stage's collector
// keys are the same for every query and the owner a node resolved for
// one serves the next query from the batcher's cache, while one query's
// stages still sit on different keys. The even spacing of
// joinCollectorKey gives every node its arc's share of a stage's
// partitions whatever the origin; a fixed one only means the rounding
// remainder falls to the same nodes every time.
func joinOrigin(stage int) id.ID {
	return id.HashParts("pier.join", string([]byte{byte(stage)}))
}

// joinCollectorKey places the join work for one routing partition of a
// stage (physical.RehashPartition maps a join-key value to its
// partition): partition p of parts sits p/parts of the way around the
// ring from the stage's origin. Even spacing hands every node its arc's
// share of the partitions to within one, where independently hashed
// keys left the heaviest collector holding 1.2× as much at 64
// partitions on 8 nodes.
func joinCollectorKey(origin id.ID, partition, parts int) id.ID {
	top := binary.BigEndian.Uint32(origin[:4]) + uint32(uint64(partition)<<32/uint64(parts))
	binary.BigEndian.PutUint32(origin[:4], top)
	return origin
}

// ---------------------------------------------------------------------------
// Upcalls: broadcast, routed delivery, intercept

func (n *Node) onBroadcast(from overlay.Node, tag string, payload []byte, depth, fanout int) {
	switch tag {
	case tagQuery:
		m, err := decodeQueryMsg(payload)
		if err != nil {
			return
		}
		q := n.getQuery(m.qid, func() *queryState {
			qs := n.newQueryState(m.qid, m.spec, m.coord, m.members)
			// Set before the state is published: a join frame from a
			// node the broadcast reached first can find it at once.
			qs.filters = m.filters
			qs.depth, qs.fanout = depth, fanout
			if m.coord != n.Addr() {
				qs.initTrace(m.rootSpan)
			}
			return qs
		})
		if q == nil {
			return
		}
		if q.isCoord && q.eos != nil {
			q.coMu.Lock()
			q.countMember(depth, fanout)
			q.coMu.Unlock()
		}
		q.participateOnce.Do(func() {
			n.Metrics.QueriesParticipated.Add(1)
			n.replayPending(q)
			n.wg.Add(1)
			n.peer.Go(func() {
				defer n.wg.Done()
				q.participate()
			})
		})
	case tagDrain:
		qid, round, err := wire.DecodeDrain(payload)
		if err != nil {
			return
		}
		q := n.getQuery(qid, nil)
		if q == nil || q.eos == nil {
			return
		}
		// Off the dispatch goroutine: the drain blocks on pipeline acks.
		n.wg.Add(1)
		n.peer.Go(func() {
			defer n.wg.Done()
			q.drainLocal(round)
		})
	case tagStop:
		r := wire.NewReader(payload)
		qid := r.Uint64()
		if r.Done() != nil {
			return
		}
		if q := n.getQuery(qid, nil); q != nil && q.isCoord {
			// The coordinator stays registered until its query call
			// returns, so late methStats/methRows RPCs still find it;
			// cancel the pipelines and snapshot local counters now.
			q.shipStats()
			q.cancel()
			return
		}
		n.dropQuery(qid)
	case tagAnalyzed:
		n.onAnalyzed(from, payload)
	default:
		if fn := n.appBroadcastFor(tag); fn != nil {
			fn(from, tag, payload, depth, fanout)
		}
	}
}

// onRouted handles routed deliveries for the engine's tags (the DHT
// store chains non-"dht.put" tags here). Tuples can outrun the query
// broadcast that announces their query, so unknown query IDs are
// buffered briefly and replayed once the query registers.
func (n *Node) onRouted(from overlay.Node, key id.ID, tag string, payload []byte) {
	switch tag {
	case tagAgg:
		f, rows, err := decodeTupleMsg(payload)
		if err != nil || len(rows) == 0 {
			return
		}
		q := n.getQuery(f.Query, nil)
		if q == nil {
			n.bufferPending(f.Query, tag, payload)
			return
		}
		q.collectPartials(f.Window, rows)
	case tagJoin:
		// A record that arrived alone is a frame of one.
		n.onJoinRecords([]batch.Record{{Key: key, Tag: tag, Payload: payload}})
	}
}

// joinGroup is the rehashed tuples of one (query, stage, side, window)
// within one arrival: what one inlet push carries.
type joinGroup struct {
	q           *queryState
	window      uint64
	stage, side uint8
	width       int // the stage side's tuple width: other records are dropped
	n, size     int // its frames' records and record bytes
}

// joinFrame is one arriving frame of a group: recs is its n records,
// which must end it.
type joinFrame struct {
	group int
	n     int
	recs  []byte
}

// onJoinRecords feeds the rehashed join records of one arrival — the
// records of an arriving frame this node owns (the route batcher's
// frame upcall), or a record that arrived alone — to their collectors:
// one decode and one inlet push per (query, stage, side, window)
// group, so a frame costs its receiver per group, not per record. A
// group's rows are decoded where they lie, frame by frame, into one
// arena and one row list sized from its frames' record counts. Only
// what is pushed is booked as received: a tuple not of its stage side's
// width is dropped, and a malformed record drops the rest of its own
// frame, so lost rows leave the books short instead of ending the query
// eos without them. Records of a query not yet announced are buffered
// one by one.
func (n *Node) onJoinRecords(recs []batch.Record) {
	n.Metrics.JoinArrivals.Add(1)
	var groupBuf [4]joinGroup
	var frameBuf [64]joinFrame
	groups, frames := groupJoinFrames(recs, groupBuf[:0], frameBuf[:0], n.joinQuery)
	for gi := range groups {
		g := &groups[gi]
		rows := g.decode(gi, frames)
		if len(rows) == 0 {
			dataflow.PutBatch(rows)
			continue
		}
		n.Metrics.JoinPushes.Add(1)
		g.q.collectJoinTuples(g.window, int(g.stage), int(g.side), rows)
	}
}

// joinQuery is the state of query qid for an arriving join frame, or
// nil once the frame is buffered to wait for the query's announcement.
func (n *Node) joinQuery(qid uint64, payload []byte) *queryState {
	q := n.getQuery(qid, nil)
	if q == nil {
		n.bufferPending(qid, tagJoin, payload)
	}
	return q
}

// groupJoinFrames reads the header of each record's frame and appends
// the frame to frames and its group to groups, when new. query resolves
// a frame's query (nil: not here, the frame is dropped); a frame of no
// stage of its query, or with no records, is dropped too.
func groupJoinFrames(recs []batch.Record, groups []joinGroup, frames []joinFrame, query func(qid uint64, payload []byte) *queryState) ([]joinGroup, []joinFrame) {
	var f wire.TupleFrame
	var r wire.Reader
	for _, rec := range recs {
		r.Reset(rec.Payload)
		cnt, err := f.DecodeHead(&r)
		if err != nil || cnt == 0 || f.Side > 1 {
			continue
		}
		i := 0
		for i < len(groups) && !(groups[i].q.id == f.Query && groups[i].window == f.Window &&
			groups[i].stage == f.Stage && groups[i].side == f.Side) {
			i++
		}
		if i == len(groups) {
			q := query(f.Query, rec.Payload)
			if q == nil || int(f.Stage) >= len(q.spec.Joins) {
				continue
			}
			width := physical.JoinArity(q.spec, int(f.Stage))[f.Side]
			groups = append(groups, joinGroup{q: q, window: f.Window, stage: f.Stage, side: f.Side, width: width})
		}
		groups[i].n += cnt
		groups[i].size += r.Remaining()
		frames = append(frames, joinFrame{group: i, n: cnt, recs: rec.Payload[len(rec.Payload)-r.Remaining():]})
	}
	return groups, frames
}

// decode decodes group gi's rows from its frames, where they lie, into
// one arena and one pooled row list, both sized from the record counts.
// A tuple not of the group's width is dropped, and a malformed frame
// loses its own records.
func (g *joinGroup) decode(gi int, frames []joinFrame) []tuple.Tuple {
	var d tuple.Decoder
	d.ReserveRecords(g.n, g.width, g.size)
	rows := dataflow.GetBatch()
	if cap(rows) < g.n {
		rows = make([]tuple.Tuple, 0, g.n)
	}
	var r wire.Reader
	for _, fr := range frames {
		if fr.group != gi {
			continue
		}
		kept := len(rows)
		r.Reset(fr.recs)
		var err error
		if rows, err = d.DecodeRecords(&r, fr.n, g.width, rows); err == nil && r.Done() != nil {
			rows = rows[:kept] // trailing bytes: the frame is malformed
		}
	}
	return rows
}

// pendingMsg is a routed tuple awaiting its query announcement.
type pendingMsg struct {
	tag     string
	payload []byte
	at      time.Time
}

const (
	pendingPerQuery = 4096
	pendingMaxAge   = 3 * time.Second
)

func (n *Node) bufferPending(qid uint64, tag string, payload []byte) {
	n.pendMu.Lock()
	if n.pending == nil {
		n.pending = make(map[uint64][]pendingMsg)
	}
	// Lazy prune of stale buffers (queries that never announced).
	now := time.Now()
	for id, msgs := range n.pending {
		if len(msgs) > 0 && now.Sub(msgs[0].at) > pendingMaxAge {
			delete(n.pending, id)
		}
	}
	if len(n.pending[qid]) < pendingPerQuery {
		n.pending[qid] = append(n.pending[qid], pendingMsg{tag: tag, payload: append([]byte(nil), payload...), at: now})
	}
	n.pendMu.Unlock()
	// The announcement may have registered the query and replayed an
	// empty buffer between the caller's lookup and this append; the
	// tuple would then wait for a replay that already happened, and the
	// query's books would never balance.
	if q := n.getQuery(qid, nil); q != nil {
		n.replayPending(q)
	}
}

// replayPending re-dispatches tuples that arrived before the query.
func (n *Node) replayPending(q *queryState) {
	n.pendMu.Lock()
	msgs := n.pending[q.id]
	delete(n.pending, q.id)
	n.pendMu.Unlock()
	var joins []batch.Record
	for _, m := range msgs {
		switch m.tag {
		case tagAgg:
			if f, rows, err := decodeTupleMsg(m.payload); err == nil && f.Query == q.id && len(rows) > 0 {
				q.collectPartials(f.Window, rows)
			}
		case tagJoin:
			joins = append(joins, batch.Record{Tag: m.tag, Payload: m.payload})
		}
	}
	if len(joins) > 0 {
		n.onJoinRecords(joins)
	}
}

// onIntercept implements hierarchical in-network aggregation: relays
// buffer partial aggregates flowing toward the same collector and
// forward one combined partial per hold period.
func (n *Node) onIntercept(key id.ID, tag string, payload []byte) ([]byte, bool) {
	if tag != tagAgg {
		return payload, true
	}
	f, rows, err := decodeTupleMsg(payload)
	if err != nil || len(rows) != 1 {
		return payload, true
	}
	q := n.getQuery(f.Query, nil)
	if q == nil || !q.spec.IsAggregate() {
		return payload, true // unknown query: pass through
	}
	if q.combineInto(key, f.Window, rows[0]) {
		n.Metrics.PartialsCombined.Add(1)
		return nil, false // buffered; a timer will re-route the merge
	}
	return payload, true
}

// ---------------------------------------------------------------------------
// RPC handlers (coordinator side receives these)

// onRows is the methRows handler: a participant's or collector's result
// rows for a query this node coordinates.
func (n *Node) onRows(from string, req []byte) ([]byte, error) {
	f, rows, err := decodeTupleMsg(req)
	if err != nil {
		return nil, err
	}
	q := n.getQuery(f.Query, nil)
	if q == nil || !q.isCoord {
		return nil, nil
	}
	q.noteAlive(from)
	q.coordAddRows(f.Window, rows)
	return nil, nil
}

func (n *Node) registerHandlers() {
	n.peer.Handle(methRows, n.onRows)
	n.peer.Handle(methDrift, n.onDrift)
	n.peer.Handle(methEos, func(from string, req []byte) ([]byte, error) {
		frames, err := wire.DecodeEosFrames(req)
		if err != nil {
			return nil, err
		}
		for i := range frames {
			if q := n.getQuery(frames[i].Query, nil); q != nil && q.isCoord {
				q.applyEosLedger(&frames[i])
			}
		}
		return nil, nil
	})
	n.peer.Handle(methStats, func(from string, req []byte) ([]byte, error) {
		r := wire.NewReader(req)
		qid := r.Uint64()
		a, err := plan.DecodeAnalysis(r)
		if err != nil {
			return nil, err
		}
		spans, err := obs.DecodeSpans(r)
		if err != nil {
			return nil, err
		}
		if err := r.Done(); err != nil {
			return nil, err
		}
		// Spans land in the trace ring even when the query is already
		// dropped: teardown RPCs race the coordinator's return on
		// cancel/deadline paths, and the ring entry outlives the query.
		n.addTraceSpans(qid, spans)
		q := n.getQuery(qid, nil)
		if q == nil || !q.isCoord {
			return nil, nil
		}
		q.noteAlive(from)
		if len(a.Ops) > 0 {
			// A node's latest snapshot replaces its previous one —
			// counters are cumulative at the sender.
			q.setNodeStats(from, a)
		}
		return nil, nil
	})
}
