package physical

import (
	"context"
	"time"

	"repro/internal/dataflow"
	"repro/internal/id"
	"repro/internal/plan"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// FetchAdapt configures mid-flight strategy switching for a
// fetch-matches stage. The optimizer picked fetch-matches because the
// estimated left cardinality made per-tuple DHT probing cheaper than
// rehashing both sides; when the observed left stream blows through
// that estimate, the premise is gone — every further tuple is a
// network round-trip. At Threshold observed left rows, the operator
// stops probing and rehash-ships the remainder of the stream (side 0)
// to the stage's join collectors, which run the probes with a shared
// per-key cache instead (see CompileFetchCollector). Emitted rows are
// byte-identical either way — the same left tuples meet the same
// published right tuples — so the switch is invisible to results.
type FetchAdapt struct {
	// Stage is the join stage being adapted.
	Stage int
	// Threshold is the observed left-row count that trips the switch
	// (<= 0: never switch).
	Threshold int64
	// LeftCols are the stage's left join columns (the rehash key).
	LeftCols []int
	// Rehash ships switched tuples toward the stage's collectors
	// (Env.Rehash).
	Rehash func(stage, side int, window uint64, keys [][]byte, ts []tuple.Tuple) int
	// OnSwitch fires once when the operator switches (metrics hook).
	OnSwitch func(stage int)
}

// FetchMatchesAdaptive probes the right-hand table in place: the right
// table is already published into the DHT keyed by the join columns, so
// each left tuple issues one DHT get (via the env's fetch callback)
// instead of rehashing anything, and left ++ right goes out for every
// match, batched per input batch. With a nil adapt (or non-positive
// threshold) that is all it does. Otherwise, after the switch, left
// tuples go to the rehash exchange instead of probing; tuples probed
// before the switch are never shipped, so the two regimes partition
// the stream.
func FetchMatchesAdaptive(probeOrder []int, right *plan.ScanSpec,
	leftCols, rightCols []int,
	fetch func(ctx context.Context, rid id.ID) ([][]byte, error),
	adapt *FetchAdapt) OpFunc {
	if adapt != nil && (adapt.Threshold <= 0 || adapt.Rehash == nil) {
		adapt = nil
	}
	return func(c *Counters) dataflow.RunFunc {
		var dec tuple.Decoder
		var rights []tuple.Tuple // one probe's right rows, reused by the next
		probe := func(ctx context.Context, lt tuple.Tuple, joined []tuple.Tuple) []tuple.Tuple {
			payloads, err := fetch(ctx, lt.HashKey(probeOrder))
			if err != nil {
				return joined
			}
			rights = fetchedRight(rights[:0], &dec, right, payloads)
			return appendMatches(joined, lt, rights, leftCols, rightCols)
		}
		return func(ctx context.Context, ins []<-chan dataflow.Msg, outs []chan<- dataflow.Msg) error {
			var seen int64
			switched := false
			// ship rehashes one batch of post-switch left tuples.
			ship := func(seq uint64, ts []tuple.Tuple) {
				if len(ts) == 0 {
					return
				}
				w := wire.GetWriter()
				keys := make([][]byte, len(ts))
				for i, t := range ts {
					mark := w.Len()
					t.AppendKey(w, adapt.LeftCols)
					keys[i] = w.Bytes()[mark:]
				}
				bytes := adapt.Rehash(adapt.Stage, 0, seq, keys, ts)
				c.EmitRows(len(ts), bytes)
				wire.PutWriter(w)
			}
			for m := range dataflow.Merge(ctx, ins) {
				if m.Kind != dataflow.Data {
					c.RecvPunct()
					if !dataflow.EmitAll(ctx, outs, m) {
						return nil
					}
					continue
				}
				start := time.Now()
				c.RecvRows(len(m.Batch))
				var joined, shipped []tuple.Tuple
				for _, lt := range m.Batch {
					if adapt != nil && !switched && seen >= adapt.Threshold {
						switched = true
						if adapt.OnSwitch != nil {
							adapt.OnSwitch(adapt.Stage)
						}
					}
					seen++
					if switched {
						shipped = append(shipped, lt)
						continue
					}
					joined = probe(ctx, lt, joined)
				}
				ship(m.Seq, shipped)
				dataflow.PutBatch(m.Batch)
				c.Busy(start)
				if len(joined) == 0 {
					continue
				}
				batch := append(dataflow.GetBatch(), joined...)
				c.EmitBatch(batch)
				if !dataflow.EmitAll(ctx, outs, dataflow.BatchMsg(batch, m.Seq)) {
					return nil
				}
			}
			return nil
		}
	}
}

// FetchCollector is the collector-side half of the mid-flight switch:
// it receives the rehash-shipped remainder of a switched fetch-matches
// stage's left stream and runs the probes the participants stopped
// running. Two things make the collector the better place for them —
// identical retransmits are deduplicated once per window (the overlay
// redelivers, and unlike a local scan a shipped stream can repeat),
// and all tuples sharing a join key land at the same collector, so one
// DHT get per distinct key serves every tuple via the probe cache.
// The collector must never switch strategies itself: shipping its own
// stage's tuples would route them straight back to itself.
func FetchCollector(probeOrder []int, right *plan.ScanSpec,
	leftArity int, leftCols, rightCols []int,
	fetch func(ctx context.Context, rid id.ID) ([][]byte, error)) OpFunc {
	type windowState struct {
		seen  map[string]struct{}
		cache map[id.ID][]tuple.Tuple
	}
	return func(c *Counters) dataflow.RunFunc {
		return func(ctx context.Context, ins []<-chan dataflow.Msg, outs []chan<- dataflow.Msg) error {
			windows := make(map[uint64]*windowState)
			var dec tuple.Decoder
			probe := func(ctx context.Context, ws *windowState, lt tuple.Tuple, joined []tuple.Tuple) []tuple.Tuple {
				rid := lt.HashKey(probeOrder)
				rows, hit := ws.cache[rid]
				if !hit {
					payloads, err := fetch(ctx, rid)
					if err != nil {
						return joined // dropped probe; retransmit retries
					}
					rows = fetchedRight(nil, &dec, right, payloads)
					ws.cache[rid] = rows
				}
				return appendMatches(joined, lt, rows, leftCols, rightCols)
			}
			for m := range dataflow.Merge(ctx, ins) {
				if m.Kind != dataflow.Data {
					c.RecvPunct()
					if !dataflow.EmitAll(ctx, outs, m) {
						return nil
					}
					continue
				}
				start := time.Now()
				c.RecvRows(len(m.Batch))
				ws := windows[m.Seq]
				if ws == nil {
					ws = &windowState{seen: make(map[string]struct{}), cache: make(map[id.ID][]tuple.Tuple)}
					windows[m.Seq] = ws
				}
				var joined []tuple.Tuple
				for _, lt := range m.Batch {
					if len(lt) != leftArity {
						continue
					}
					enc := string(lt.Bytes())
					if _, dup := ws.seen[enc]; dup {
						continue
					}
					ws.seen[enc] = struct{}{}
					joined = probe(ctx, ws, lt, joined)
				}
				dataflow.PutBatch(m.Batch)
				c.Busy(start)
				if len(joined) == 0 {
					continue
				}
				batch := append(dataflow.GetBatch(), joined...)
				c.EmitBatch(batch)
				if !dataflow.EmitAll(ctx, outs, dataflow.BatchMsg(batch, m.Seq)) {
					return nil
				}
			}
			return nil
		}
	}
}
