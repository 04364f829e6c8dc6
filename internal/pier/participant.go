package pier

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/batch"
	"repro/internal/dataflow"
	"repro/internal/dht"
	"repro/internal/id"
	"repro/internal/obs"
	"repro/internal/overlay"
	"repro/internal/physical"
	"repro/internal/plan"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// This file is the participant harness: every node's share of a
// disseminated query is compiled by internal/physical into an
// instrumented operator pipeline on the dataflow engine, and the code
// here only builds the Env bridging those pipelines to the overlay
// (route batching and relay combining stay underneath, untouched),
// runs them, and reports completion.

// participate runs this node's share of a disseminated query.
func (q *queryState) participate() {
	if q.spec.IsContinuous() {
		q.participateContinuous()
		return
	}
	q.participateOneShot()
}

// pipelineEnv bridges a physical pipeline to this node: local
// partition scans, DHT probes, and the three ship paths (rehashed
// join tuples, partial aggregates, result rows).
func (q *queryState) pipelineEnv() *physical.Env {
	n := q.node
	return &physical.Env{
		Scan:                 n.store.LScanParts,
		Fetch:                q.fetchProbe,
		ShipRows:             q.sendRows,
		ShipPartial:          q.shipPartials,
		Rehash:               q.rehashShip,
		FlushRoutes:          n.flushRoutes,
		DrainAck:             q.eosDrainAck,
		Blooms:               q.filters,
		JoinMemBudget:        n.cfg.JoinMemBudget,
		Spill:                n.spill,
		SpillLabel:           fmt.Sprintf("q%d", q.id),
		SpillHold:            n.cfg.CollectorHold,
		FetchSwitchThreshold: q.fetchSwitchThreshold,
		OnFetchSwitch: func(stage int) {
			n.Metrics.StrategySwitches.Add(1)
		},
		BatchSize:     n.cfg.BatchSize,
		CollectorHold: n.cfg.CollectorHold,
		Go:            n.peer.Go,
	}
}

// localEnv is the Env of the pipelines that neither scan nor ship:
// coordinator tails and merges.
func (n *Node) localEnv() *physical.Env {
	return &physical.Env{BatchSize: n.cfg.BatchSize, Go: n.peer.Go}
}

// switchFactor is how far a fetch-matches stage's input may outgrow
// the optimizer's estimate before the stage stops per-tuple DHT
// probing and rehash-ships the rest of the stream to collectors, which
// probe once per distinct key.
const switchFactor = 4

// fetchSwitchThreshold is the mid-flight strategy-switch trip point
// for one fetch-matches stage: switchFactor × the optimizer's left
// cardinality estimate, scaled down by the member count the query
// message carried (each node sees roughly its share of the scan;
// collectors running a later fetch stage see a key-partitioned share
// of the same order; a count not yet learned scales by 1). A
// stage with no estimate never switches — there is no premise to
// contradict.
func (q *queryState) fetchSwitchThreshold(stage int) int64 {
	if stage >= len(q.spec.Joins) {
		return 0
	}
	est := q.spec.Joins[stage].EstLeft
	if est <= 0 {
		return 0
	}
	thr := int64(switchFactor * float64(est) / float64(max(q.members, 1)))
	if thr < 1 {
		thr = 1
	}
	return thr
}

func (q *queryState) participateOneShot() {
	// Heartbeat from the very start: the coordinator's failure
	// detector needs this member's address (and beats) before any
	// scan finishes, or a node dying mid-scan would be
	// indistinguishable from one that never joined the query.
	q.eosEnlist()
	pipe := physical.CompileOneShot(q.spec, q.pipelineEnv())
	q.trackPipeline(pipe)
	scanSpan := q.spans.Start("scan")
	err := pipe.Run(q.ctx)
	q.spans.End(scanSpan)
	// Barrier: drain coalesced route batches before reporting
	// completion, so no rehashed tuple or partial is still buffered
	// when the coordinator reads this node's first EOS ledger.
	q.node.flushRoutes()
	if err == nil {
		// Coverage record: this node's partitions of the scanned
		// tables ran to end-of-stream.
		q.eosMarkScansServed()
	}
	// Report end-of-scan with the ledger; the outbox keeps the
	// coordinator's copy current as collector work moves the books.
	q.eosMarkScanDone()
}

// participateContinuous subscribes the windowed pipeline to the
// scanned table; the WindowTicker source punctuates at absolute
// window boundaries, so every downstream operator (window buffer,
// partial aggregation, ship barrier) is driven by punctuation rather
// than a private timer.
func (q *queryState) participateContinuous() {
	spec := q.spec
	if len(spec.Scans) != 1 {
		return // continuous joins are out of scope (documented)
	}
	sc := &spec.Scans[0]
	pipe, in := physical.CompileContinuous(spec, q.pipelineEnv())
	q.trackPipeline(pipe)

	admit := func(payload []byte, at time.Time) {
		stored, err := tuple.FromBytes(payload)
		if err != nil {
			return
		}
		if t, ok := sc.Narrow(stored); ok {
			in.Push(dataflow.Msg{Kind: dataflow.Data, Batch: []tuple.Tuple{t}, Time: at})
		}
	}
	// Existing live items seed the first window; new arrivals stream
	// in through the newData upcall.
	now := time.Now()
	for _, it := range q.node.store.LScan(sc.Namespace) {
		admit(it.Payload, now)
	}
	q.node.store.Subscribe(sc.Namespace, func(it dht.Item) {
		admit(it.Payload, time.Now())
	})
	defer q.node.store.Unsubscribe(sc.Namespace)
	if spec.Analyze {
		// Ship cumulative counter snapshots once per window close, so
		// the coordinator can render EXPLAIN ANALYZE while the query
		// is still running (snapshots replace, never double count).
		stop := q.startPeriodicStats()
		defer stop()
	}
	// Runs until the LIVE horizon ends the source or the query is
	// torn down.
	_ = pipe.Run(q.ctx)
}

// startPeriodicStats ships a stats snapshot per window slide, aligned
// just after the absolute window boundaries the WindowTicker uses.
// Returns a stop function (idempotent with query teardown, which
// ships the final snapshot through shipStats).
func (q *queryState) startPeriodicStats() func() {
	slide := time.Duration(q.spec.Slide)
	if slide <= 0 {
		slide = time.Duration(q.spec.Window)
	}
	if slide <= 0 {
		return func() {}
	}
	// Offset the ship point past the boundary so the window's ship
	// and flush work is already counted in the snapshot. Boundaries
	// are absolute unix-time multiples of the slide — the same
	// formula WindowTicker punctuates on.
	const offset = 20 * time.Millisecond
	slideNS := int64(slide)
	done := make(chan struct{})
	q.node.wg.Add(1)
	q.node.peer.Go(func() {
		defer q.node.wg.Done()
		for {
			next := time.Unix(0, (time.Now().UnixNano()/slideNS+1)*slideNS).Add(offset)
			select {
			case <-q.ctx.Done():
				return
			case <-done:
				return
			case <-time.After(time.Until(next)):
				q.shipStatsSnapshot()
			}
		}
	})
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}

// ---------------------------------------------------------------------------
// Ship callbacks (the pipeline's exits onto the network)

// shipPartials routes a batch of canonical partial tuples (group
// values then states) toward their groups' collectors. Partials stay
// one per routed record so relay combining keeps merging them
// in-network.
func (q *queryState) shipPartials(window uint64, partials []tuple.Tuple) int {
	q.node.Metrics.PartialsSent.Add(uint64(len(partials)))
	q.shipSpan()
	q.countSent(chanKey{kind: chanAgg}, len(partials))
	nGroup := len(q.spec.GroupCols)
	total := 0
	r := q.partialRouter()
	for _, partial := range partials {
		payload := encodeTupleMsg(q.id, window, 0, 0, partial)
		total += len(payload)
		_ = r.Route(aggCollectorKey(q.id, partial[:nGroup].Bytes()), tagAgg, payload)
	}
	return total
}

// partialRouter is where this query's aggregation partials (its own
// and, at a relay, the merged ones) enter the overlay. A one-shot
// query's collector keys hash the query id, so no node has met one
// before and each node uses each key once: the batcher's owner
// resolution (a lookup of several RPC round trips per new key before
// the record may leave, awaited by the flush barrier that gates the
// scan-done ledger) can never be repaid by a cache hit and costs more
// datagrams than routing the record. Those partials go hop by hop
// through the raw overlay; relays intercept and combine them all the
// same. A continuous query meets its keys again every window and
// keeps the batcher.
func (q *queryState) partialRouter() overlay.Router {
	if q.eos != nil {
		return q.node.chord
	}
	return q.node.router
}

// sendRows ships one result frame of canonical rows to the coordinator
// (the ship-rows sink sizes it: physical.RowFrameBytes). The rows
// enter the sent books before the call, so a call that fails leaves
// the query's books unbalanced; the first failure per query is put on
// record with the frame's size. The frame is sent once (CallOnce),
// never retransmitted: without frame-sequence dedup at the coordinator
// a retransmission whose original was only slow would deliver the rows
// twice.
func (q *queryState) sendRows(window uint64, rows []tuple.Tuple) int {
	if len(rows) == 0 {
		return 0
	}
	q.shipSpan()
	q.countSent(chanKey{kind: chanRows}, len(rows))
	payload := encodeTupleMsg(q.id, window, 0, 0, rows...)
	ctx, cancel := context.WithTimeout(q.ctx, 2*time.Second)
	_, err := q.node.peer.CallOnce(ctx, q.coord, methRows, payload)
	cancel()
	if err != nil && q.ctx.Err() == nil {
		q.rowsFailOnce.Do(func() {
			q.node.events.Emit(obs.SevWarn, obs.EvRowsUnacked, q.id,
				"coord=%s rows=%d bytes=%d: %v", q.coord, len(rows), len(payload), err)
		})
	}
	return len(payload)
}

// rehashShip routes a batch of tuples of one join stage's side toward
// the stage's collectors: one routing partition per tuple (a hash of
// its join-key value), one collector key per partition. Tuples sharing
// a partition are packed into one multi-record frame in arrival order
// (the receiver feeds them to its join pipeline as one batch), and the
// whole vector is handed to the route batcher in one call. The frames
// are encoded into pooled scratch, which the batcher copies each into
// its owner's pending batch frame: a tuple is encoded once and lands in
// the frame that crosses the network.
func (q *queryState) rehashShip(stage, side int, window uint64, keys [][]byte, ts []tuple.Tuple) int {
	q.node.Metrics.JoinTuplesRehashed.Add(uint64(len(ts)))
	q.shipSpan()
	q.countSent(chanKey{kind: chanJoin, stage: uint8(stage), side: uint8(side)}, len(ts))
	sc := rehashPool.Get().(*rehashScratch)
	defer sc.release()
	// Bucket the batch by partition, arrival order kept within each: a
	// counting sort into one array.
	parts := q.joinParts
	of := resize(&sc.of, len(ts))
	end := resize(&sc.end, parts+1) // partition p's tuples end at end[p+1]
	for i := range ts {
		p := physical.RehashPartition(keys[i], parts)
		of[i] = int32(p)
		end[p+1]++
	}
	for p := 1; p <= parts; p++ {
		end[p] += end[p-1]
	}
	sorted := resize(&sc.sorted, len(ts))
	next := resize(&sc.next, parts)
	copy(next, end[:parts])
	for i, t := range ts {
		sorted[next[of[i]]] = t
		next[of[i]]++
	}
	origin := joinOrigin(stage)
	recs := sc.recs[:0]
	cut := next[:0] // where each record's frame ends in sc.w (the sort is done with next)
	for p := 0; p < parts; p++ {
		rows := sorted[end[p]:end[p+1]]
		if len(rows) == 0 {
			continue
		}
		appendTupleMsg(sc.w, q.id, window, uint8(stage), uint8(side), rows)
		cut = append(cut, sc.w.Len())
		recs = append(recs, batch.Record{Key: joinCollectorKey(origin, p, parts), Tag: tagJoin})
	}
	buf := sc.w.Bytes()
	from := 0
	for i := range recs {
		recs[i].Payload = buf[from:cut[i]]
		from = cut[i]
	}
	sc.recs = recs
	q.node.routeRecords(recs)
	return len(buf)
}

// rehashScratch is a rehashShip call's working space — the counting
// sort, the encoded frames and their records — pooled, since every
// batch of every rehash needs one and none outlives its call.
type rehashScratch struct {
	of     []int32
	end    []int
	next   []int
	sorted []tuple.Tuple
	recs   []batch.Record
	w      *wire.Writer
}

// maxPooledRehashBytes bounds the frame buffer a pooled rehashScratch
// keeps.
const maxPooledRehashBytes = 64 << 10

var rehashPool = sync.Pool{New: func() any { return &rehashScratch{w: wire.GetWriter()} }}

// release clears what the call left in sc — tuples and payloads it
// must not pin — and returns it to the pool.
func (sc *rehashScratch) release() {
	clear(sc.sorted)
	clear(sc.recs)
	if cap(sc.w.Bytes()) > maxPooledRehashBytes {
		sc.w = wire.GetWriter() // one giant batch does not pin its buffer
	}
	sc.w.Reset()
	rehashPool.Put(sc)
}

// resize sets *s to n zero elements, reusing its storage when it has
// room, and returns it.
func resize[T any](s *[]T, n int) []T {
	if cap(*s) < n {
		*s = make([]T, n)
	} else {
		*s = (*s)[:n]
		clear(*s)
	}
	return *s
}

// fetchProbe resolves one fetch-matches probe against the probed
// table's DHT namespace.
func (q *queryState) fetchProbe(ctx context.Context, ns string, rid id.ID) ([][]byte, error) {
	q.node.Metrics.FetchProbes.Add(1)
	cctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	return q.node.store.Get(cctx, ns, rid)
}

// ---------------------------------------------------------------------------
// Pipeline registry (EXPLAIN ANALYZE)

// trackPipeline registers a pipeline for the stats snapshot.
func (q *queryState) trackPipeline(p *physical.Pipeline) {
	q.pipeMu.Lock()
	q.pipes = append(q.pipes, p)
	q.pipeMu.Unlock()
}

// localStats snapshots every pipeline this node ran for the query.
func (q *queryState) localStats() []plan.OpStats {
	q.pipeMu.Lock()
	defer q.pipeMu.Unlock()
	var out []plan.OpStats
	for _, p := range q.pipes {
		out = append(out, p.Stats()...)
	}
	return out
}
