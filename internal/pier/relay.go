package pier

import (
	"time"

	"repro/internal/agg"
	"repro/internal/id"
	"repro/internal/tuple"
)

// Relay combining (hierarchical aggregation): partial aggregates
// passing through this node on their way to a collector are buffered
// and merged for a hold period, so the aggregation tree combines
// in-network. This sits underneath the physical pipelines — the
// ShipPartial exchange operator routes through the overlay, and any
// relay on the path may intercept and coalesce.

// idKey aliases the overlay key type for combineInto's signature.
type idKey = id.ID

// combineKey identifies a relay's combining buffer entry.
type combineKey struct {
	window uint64
	group  string
}

type combineEntry struct {
	acc   *agg.Accumulator
	group tuple.Tuple
	key   idKey       // destination collector key
	n     int         // partials absorbed into acc
	hold  *time.Timer // emits the entry after CombineHold unless a drain round flushes it first
}

// combineInto merges a passing partial into this relay's buffer for
// (window, collector-key, group); the first arrival schedules the
// combined forward. Returns false when the message should just be
// forwarded: non-aggregate plans, and a one-shot query that has seen a
// drain round — what passes then is another relay's flushed merge, and
// a second hold costs a round per overlay hop and combines nothing.
func (q *queryState) combineInto(key idKey, window uint64, partial tuple.Tuple) bool {
	spec := q.spec
	nGroup := len(spec.GroupCols)
	if len(partial) != nGroup+agg.StateWidth(spec.Aggs) {
		return false
	}
	ck := combineKey{window: window, group: string(partial[:nGroup].Bytes())}
	q.combMu.Lock()
	if q.combining == nil {
		q.combining = make(map[combineKey]*combineEntry)
	}
	e := q.combining[ck]
	if e == nil {
		// Asked under combMu, which a drain round takes only after it has
		// marked itself seen: an entry is flushed by the round or never made.
		if q.eos != nil && q.eos.drainStarted() {
			q.combMu.Unlock()
			return false
		}
		e = &combineEntry{acc: agg.NewAccumulator(spec.Aggs), group: partial[:nGroup].Clone(), key: key}
		q.combining[ck] = e
		e.hold = time.AfterFunc(q.node.cfg.CombineHold, func() {
			select {
			case <-q.ctx.Done():
				return
			default:
			}
			q.combMu.Lock()
			e := q.combining[ck]
			if e == nil {
				q.combMu.Unlock()
				return // a drain flushed the entry first
			}
			delete(q.combining, ck)
			q.countCombined(e.n)
			q.combMu.Unlock()
			q.emitCombined(ck.window, e)
		})
	}
	_ = e.acc.MergeStates(partial[nGroup:])
	e.n++
	q.combMu.Unlock()
	return true
}

// countCombined enters both sides of a relay's rewrite in the EOS
// books — the absorbed partials as received, the merged one as sent —
// as the entry leaves the buffer, under combMu: a held combine buffer
// keeps the ledgers imbalanced until it flushes, and a drain round's
// flush, which takes combMu, finds every entry that left before it
// counted already, so the round's cut covers every rewrite.
func (q *queryState) countCombined(n int) {
	q.countRecv(chanKey{kind: chanAgg}, n)
	q.countSent(chanKey{kind: chanAgg}, 1)
}

// emitCombined forwards one merged partial, counted by countCombined.
func (q *queryState) emitCombined(window uint64, e *combineEntry) {
	merged := append(e.group.Clone(), e.acc.StateValues()...)
	_ = q.partialRouter().Route(e.key, tagAgg, encodeTupleMsg(q.id, window, 0, 0, merged))
}

// flushCombining force-emits every held combine buffer — the relay's
// share of a drain round.
func (q *queryState) flushCombining() {
	q.combMu.Lock()
	entries := q.combining
	q.combining = nil
	for _, e := range entries {
		q.countCombined(e.n)
	}
	q.combMu.Unlock()
	for ck, e := range entries {
		e.hold.Stop()
		q.emitCombined(ck.window, e)
	}
}
