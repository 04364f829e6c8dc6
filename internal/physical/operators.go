package physical

import (
	"sort"
	"sync"
	"time"

	"repro/internal/agg"
	"repro/internal/bloom"
	"repro/internal/dataflow"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// OpFunc builds one instrumented operator. Pipeline.Add supplies the
// counter bound to the operator's slot in the stats snapshot.
//
// Operators are batch-at-a-time push calls: a data message carries a
// batch (Msg.Batch) of one tuple or many, every operator processes the
// full message in one Push, folding its instrumentation inline, and
// hands its output on with Out.Emit — a call into the operator
// downstream. Batch containers follow the dataflow.Msg ownership rule:
// received containers are compacted in place, forwarded, or recycled
// with dataflow.PutBatch; retained tuples are never cloned because
// emitted tuples are immutable.
type OpFunc func(c *Counters) dataflow.RunFunc

// ---------------------------------------------------------------------------
// Sources

// ScanSource reads the live local partition of one namespace: decode
// every stored payload down to the columns the plan keeps (cols of
// stored, as plan.ScanSpec.Narrow does for a decoded row), skip
// malformed or wrong-arity tuples (best effort, as the store is
// schema-less), push the rest in batches of batchSize. The scan
// callback splits the partition into up to workers shards: the first
// drains in the caller, each other on a task of the graph (Out.Go),
// and they hand decoded batches to the chain one at a time under the
// source's lock — the parallel partitioned scan. One-shot scans carry
// no punctuation, so shard interleaving (like any exchange) is
// unordered and alignment semantics are untouched.
func ScanSource(scan func(ns string, partitions int) [][][]byte, ns string, stored int, cols []int, batchSize, workers int) OpFunc {
	batchSize = max(batchSize, 1)
	workers = max(workers, 1)
	width := len(cols) // values DecodeCols makes of one row
	if len(cols) < stored {
		width++
	}
	return func(c *Counters) dataflow.RunFunc {
		return func(out *dataflow.Out) dataflow.Op {
			var mu sync.Mutex // the shards' fan-in
			drain := func(payloads [][]byte) {
				var dec tuple.Decoder
				dec.Reserve(len(payloads) * width)
				for len(payloads) > 0 && !out.Stopped() {
					// One output message per clock reading: the payloads
					// it takes to fill it, or the rest of the shard.
					start := time.Now()
					batch := dataflow.GetBatch()
					for len(payloads) > 0 && len(batch) < batchSize {
						payload := payloads[0]
						payloads = payloads[1:]
						c.RecvRows(1)
						t, err := dec.DecodeCols(payload, stored, cols)
						if err != nil {
							continue
						}
						c.EmitRows(1, len(payload))
						batch = append(batch, t)
					}
					c.Busy(start)
					if len(batch) == 0 {
						dataflow.PutBatch(batch)
						continue
					}
					mu.Lock()
					out.Emit(dataflow.BatchMsg(batch, 0))
					mu.Unlock()
				}
			}
			return dataflow.Op{Source: func() {
				parts := scan(ns, workers)
				if len(parts) == 0 {
					return
				}
				var wg sync.WaitGroup
				for _, payloads := range parts[1:] {
					wg.Add(1)
					out.Go(func() {
						defer wg.Done()
						drain(payloads)
					})
				}
				drain(parts[0])
				wg.Wait()
			}}
		}
	}
}

// SliceSource pushes a fixed row set in batches — unit tests and
// compiled coordinator tails enter the pipeline here.
func SliceSource(rows []tuple.Tuple, batchSize int) OpFunc {
	batchSize = max(batchSize, 1)
	return func(c *Counters) dataflow.RunFunc {
		return func(out *dataflow.Out) dataflow.Op {
			return dataflow.Op{Source: func() {
				c.RecvRows(len(rows))
				emitBatches(c, out, rows, 0, batchSize)
			}}
		}
	}
}

// WindowTicker is the continuous-query source: it drains the sample
// inlet (data messages stamped with their arrival time) and emits one
// punctuation per window boundary. Boundaries are aligned to absolute
// unix-time multiples of the slide, so every node in the network
// closes the same window sequence number at the same wall-clock
// instant — window membership is driven by punctuation, not by each
// node's private ticker phase. Samples pass through as they were
// admitted, one message each: a message carries one arrival time, which
// downstream window assignment depends on. The boundary timer runs on
// the graph's task after the samples queued before it, so arrivals
// order ahead of the boundary that follows them. After live (> 0) the
// inlet closes, and the stream ends once its queue has drained.
func WindowTicker(in *Inlet, slide, live time.Duration) OpFunc {
	return func(c *Counters) dataflow.RunFunc {
		src := in.Source(c)
		return func(out *dataflow.Out) dataflow.Op {
			if live > 0 {
				out.After(live, in.Close)
			}
			slideNS := int64(slide)
			nextNS := (time.Now().UnixNano()/slideNS + 1) * slideNS
			var tick func()
			tick = func() {
				c.RecvPunct()
				out.Emit(dataflow.PunctMsg(uint64(nextNS/slideNS), time.Unix(0, nextNS)))
				nextNS += slideNS
				out.After(time.Until(time.Unix(0, nextNS)), tick)
			}
			out.After(time.Until(time.Unix(0, nextNS)), tick)
			return src(out)
		}
	}
}

// ---------------------------------------------------------------------------
// Row transforms

// perRow is the body of the operators that keep, drop or rewrite each
// row on its own: each data message is compacted in place to the rows
// f keeps, as f returns them, and punctuation passes through.
func perRow(c *Counters, out *dataflow.Out, f func(t tuple.Tuple) (tuple.Tuple, bool)) dataflow.Op {
	return dataflow.Op{Push: func(_ int, m dataflow.Msg) {
		start := time.Now()
		if m.Kind != dataflow.Data {
			c.RecvPunct()
			c.Busy(start)
			out.Emit(m)
			return
		}
		c.RecvRows(len(m.Batch))
		kept := m.Batch[:0]
		for _, t := range m.Batch {
			if t, ok := f(t); ok {
				kept = append(kept, t)
			}
		}
		if len(kept) == 0 {
			dataflow.PutBatch(m.Batch)
			c.Busy(start)
			return
		}
		m.Batch = kept
		c.EmitBatch(kept)
		c.Busy(start)
		out.Emit(m)
	}}
}

// Filter drops tuples whose predicate does not evaluate to true.
// Evaluation errors drop the row (scans are best-effort over
// schema-less storage); punctuation passes through. Batches are
// compacted in place.
func Filter(pred expr.Expr) OpFunc {
	return func(c *Counters) dataflow.RunFunc {
		return func(out *dataflow.Out) dataflow.Op {
			return perRow(c, out, func(t tuple.Tuple) (tuple.Tuple, bool) {
				v, err := pred.Eval(t)
				return t, err == nil && expr.Truthy(v)
			})
		}
	}
}

// Project computes one output column per expression; rows that fail
// evaluation are dropped; punctuation passes through. Output tuples
// are always freshly allocated (never written through into input
// backing arrays) so downstream retention is safe; the batch
// container is reused in place.
func Project(exprs []expr.Expr) OpFunc {
	eval := func(t tuple.Tuple) (tuple.Tuple, bool) {
		out := make(tuple.Tuple, len(exprs))
		for i, e := range exprs {
			v, err := e.Eval(t)
			if err != nil {
				return nil, false
			}
			out[i] = v
		}
		return out, true
	}
	return func(c *Counters) dataflow.RunFunc {
		return func(out *dataflow.Out) dataflow.Op { return perRow(c, out, eval) }
	}
}

// BloomProbe suppresses tuples whose join key cannot appear on the
// other side — the Bloom-join rewrite's network-saving filter. A nil
// filter passes everything (the coordinator gathered no filter).
func BloomProbe(filter *bloom.Filter, keyCols []int) OpFunc {
	pass := func(t tuple.Tuple) (tuple.Tuple, bool) {
		if filter == nil {
			return t, true
		}
		w := wire.GetWriter()
		t.AppendKey(w, keyCols)
		ok := filter.MayContain(w.Bytes())
		wire.PutWriter(w)
		return t, ok
	}
	return func(c *Counters) dataflow.RunFunc {
		return func(out *dataflow.Out) dataflow.Op { return perRow(c, out, pass) }
	}
}

// WindowBuffer holds arriving samples and, on each punctuation,
// re-emits the ones inside the closing window (arrival time after
// closeAt - window), stamped with the window's sequence number, then
// forwards the punctuation. Samples older than the window are pruned.
// The window contents are re-emitted in batches of batchSize.
func WindowBuffer(window time.Duration, batchSize int) OpFunc {
	batchSize = max(batchSize, 1)
	type held struct {
		t       tuple.Tuple
		arrived time.Time
	}
	return func(c *Counters) dataflow.RunFunc {
		return func(out *dataflow.Out) dataflow.Op {
			var buf []held
			return dataflow.Op{Push: func(_ int, m dataflow.Msg) {
				start := time.Now()
				if m.Kind == dataflow.Data {
					at := m.Time
					if at.IsZero() {
						at = time.Now()
					}
					c.RecvRows(len(m.Batch))
					for _, t := range m.Batch {
						buf = append(buf, held{t: t, arrived: at})
					}
					dataflow.PutBatch(m.Batch)
					c.Busy(start)
					return
				}
				c.RecvPunct()
				cutoff := m.Time.Add(-window)
				live := buf[:0]
				var emit []tuple.Tuple
				for _, s := range buf {
					if !s.arrived.After(cutoff) {
						continue // aged out of every future window
					}
					live = append(live, s)
					// Samples past closeAt belong to later windows
					// only — emitting them here too would double-count
					// across disjoint (tumbling) windows.
					if !s.arrived.After(m.Time) {
						emit = append(emit, s.t)
					}
				}
				buf = live
				c.Busy(start)
				emitBatches(c, out, emit, m.Seq, batchSize)
				out.Emit(m)
			}}
		}
	}
}

// ---------------------------------------------------------------------------
// Joins

// fetchedRight appends to dst the right rows the plan reads among the
// payloads a fetch-matches probe returned: decoded down to the columns
// the right scan keeps (a malformed row or one of another stored arity
// is dropped) and held against its pushed-down filter.
func fetchedRight(dst []tuple.Tuple, dec *tuple.Decoder, right *plan.ScanSpec, payloads [][]byte) []tuple.Tuple {
	for _, p := range payloads {
		rt, err := dec.DecodeCols(p, right.Stored, right.Cols)
		if err != nil {
			continue
		}
		if right.Where != nil {
			v, err := right.Where.Eval(rt)
			if err != nil || !expr.Truthy(v) {
				continue
			}
		}
		dst = append(dst, rt)
	}
	return dst
}

// appendMatches appends lt ++ rt for every right row whose join columns
// equal lt's.
func appendMatches(joined []tuple.Tuple, lt tuple.Tuple, rights []tuple.Tuple, leftCols, rightCols []int) []tuple.Tuple {
	for _, rt := range rights {
		if joinKeysEqual(lt, rt, leftCols, rightCols) {
			joined = append(joined, lt.Concat(rt))
		}
	}
	return joined
}

// ---------------------------------------------------------------------------
// Aggregation

// PartialAgg turns work tuples into mergeable partial-state tuples
// (group values then states). In batch mode it accumulates groups and
// flushes on punctuation (stamping outputs with the window sequence)
// and — when flushAtEOS — at end of stream, preserving first-arrival
// group order. In eager mode every input row becomes one single-row
// partial immediately: the streaming collector shape, where relay
// combining and the collector merge absorb the fan-in.
func PartialAgg(groupCols []int, aggs []agg.AggSpec, eager, flushAtEOS bool, batchSize int) OpFunc {
	batchSize = max(batchSize, 1)
	makePartial := func(t tuple.Tuple) (tuple.Tuple, bool) {
		acc := agg.NewAccumulator(aggs)
		if err := acc.AddRaw(t); err != nil {
			return nil, false
		}
		return append(t.Project(groupCols), acc.StateValues()...), true
	}
	type group struct {
		key tuple.Tuple
		acc *agg.Accumulator
	}
	return func(c *Counters) dataflow.RunFunc {
		return func(out *dataflow.Out) dataflow.Op {
			if eager {
				return perRow(c, out, makePartial)
			}
			groups := make(map[string]*group)
			var order []string
			flush := func(seq uint64) {
				batch := dataflow.GetBatch()
				for _, k := range order {
					g := groups[k]
					batch = append(batch, append(g.key.Clone(), g.acc.StateValues()...))
					if len(batch) >= batchSize {
						c.EmitBatch(batch)
						out.Emit(dataflow.BatchMsg(batch, seq))
						batch = dataflow.GetBatch()
					}
				}
				if len(batch) > 0 {
					c.EmitBatch(batch)
					out.Emit(dataflow.BatchMsg(batch, seq))
				} else {
					dataflow.PutBatch(batch)
				}
				clear(groups)
				order = order[:0]
			}
			op := dataflow.Op{Push: func(_ int, m dataflow.Msg) {
				start := time.Now()
				if m.Kind != dataflow.Data {
					// Drain markers only flow through one-shot pipelines,
					// whose outputs all live in window 0.
					c.RecvPunct()
					if m.Kind == dataflow.Punct {
						flush(m.Seq)
					} else {
						flush(0)
					}
					c.Busy(start)
					out.Emit(m)
					return
				}
				c.RecvRows(len(m.Batch))
				for _, t := range m.Batch {
					w := wire.GetWriter()
					t.AppendKey(w, groupCols)
					g, ok := groups[string(w.Bytes())]
					if !ok {
						key := string(w.Bytes())
						g = &group{key: t.Project(groupCols), acc: agg.NewAccumulator(aggs)}
						groups[key] = g
						order = append(order, key)
					}
					wire.PutWriter(w)
					// A poisoned row is dropped; the group keeps its state.
					_ = g.acc.AddRaw(t)
				}
				dataflow.PutBatch(m.Batch)
				c.Busy(start)
			}}
			if flushAtEOS {
				op.End = func() { flush(0) }
			}
			return op
		}
	}
}

// FinalAgg is the aggregation-collector merge: partial-state tuples
// arrive tagged with their window, are merged per (window, group),
// and a debounced hold timer per window emits the finalized rows
// (followed by a punctuation for that window) once arrivals go quiet.
// State is retained after a flush so stragglers trigger a refined
// re-flush; the coordinator replaces rows per group.
func FinalAgg(groupCols []int, aggs []agg.AggSpec, hold time.Duration, batchSize int) OpFunc {
	batchSize = max(batchSize, 1)
	type group struct {
		key tuple.Tuple
		acc *agg.Accumulator
	}
	type windowState struct {
		groups map[string]*group
		timer  *time.Timer
		// dirty marks merges since the window's last emission; flushes
		// skip clean windows so a drain round that changes nothing also
		// emits nothing (the EOS protocol's totals-stability test relies
		// on repeated drains of quiesced state producing no new rows).
		dirty bool
	}
	stateWidth := agg.StateWidth(aggs)
	groupKeyCols := identityCols(len(groupCols))
	return func(c *Counters) dataflow.RunFunc {
		return func(out *dataflow.Out) dataflow.Op {
			windows := make(map[uint64]*windowState)
			emit := func(w uint64, ws *windowState) {
				ws.dirty = false
				if ws.timer != nil {
					ws.timer.Stop()
					ws.timer = nil
				}
				batch := dataflow.GetBatch()
				for _, g := range ws.groups {
					batch = append(batch, append(g.key.Clone(), g.acc.FinalValues()...))
					if len(batch) >= batchSize {
						c.EmitBatch(batch)
						out.Emit(dataflow.BatchMsg(batch, w))
						batch = dataflow.GetBatch()
					}
				}
				if len(batch) > 0 {
					c.EmitBatch(batch)
					out.Emit(dataflow.BatchMsg(batch, w))
				} else {
					dataflow.PutBatch(batch)
				}
			}
			// held runs when window w's hold expires.
			held := func(w uint64) {
				start := time.Now()
				ws := windows[w]
				if ws == nil || !ws.dirty {
					return // a drain already emitted this window's state
				}
				emit(w, ws)
				c.Busy(start)
				out.Emit(dataflow.PunctMsg(w, time.Now()))
			}
			return dataflow.Op{Push: func(_ int, m dataflow.Msg) {
				start := time.Now()
				if m.Kind != dataflow.Data {
					c.RecvPunct()
					if m.Kind == dataflow.Drain {
						// Flush every window with merges pending, then
						// forward the marker so the sink acknowledges
						// the round with these rows already shipped.
						for w, ws := range windows {
							if ws.dirty {
								emit(w, ws)
							}
						}
						c.Busy(start)
						out.Emit(m)
						return
					}
					c.Busy(start)
					return
				}
				c.RecvRows(len(m.Batch))
				w := m.Seq
				// Window state is created only once a well-formed
				// tuple arrives: flush is the only path that deletes
				// map entries, so a malformed-only message must not
				// plant a timerless entry that would leak.
				ws := windows[w]
				merged := false
				for _, t := range m.Batch {
					if len(t) != len(groupCols)+stateWidth {
						continue
					}
					if ws == nil {
						ws = &windowState{groups: make(map[string]*group)}
						windows[w] = ws
					}
					kw := wire.GetWriter()
					t[:len(groupCols)].AppendKey(kw, groupKeyCols)
					g := ws.groups[string(kw.Bytes())]
					if g == nil {
						g = &group{key: t[:len(groupCols)].Clone(), acc: agg.NewAccumulator(aggs)}
						ws.groups[string(kw.Bytes())] = g
					}
					wire.PutWriter(kw)
					_ = g.acc.MergeStates(t[len(groupCols):])
					merged = true
				}
				dataflow.PutBatch(m.Batch)
				if merged {
					ws.dirty = true
					// Debounce: reset the window's flush timer on
					// every arrival.
					if ws.timer == nil {
						ws.timer = out.After(hold, func() { held(w) })
					} else {
						ws.timer.Reset(hold)
					}
				}
				c.Busy(start)
			}}
		}
	}
}

// ---------------------------------------------------------------------------
// Exchange and ship sinks

// RehashExchange routes every tuple toward the collector responsible
// for its join-key value at one join stage — the DHT put side of the
// distributed symmetric hash join. The ship callback receives the
// whole batch with one canonical key encoding per tuple (the keys
// alias a pooled buffer and are valid only during the call) and
// returns the payload bytes it put on the wire.
func RehashExchange(stage, side int, keyCols []int,
	ship func(stage, side int, window uint64, keys [][]byte, ts []tuple.Tuple) int,
	flushRoutes func(), drainAck func(round uint64)) OpFunc {
	return func(c *Counters) dataflow.RunFunc {
		return func(out *dataflow.Out) dataflow.Op {
			var keys [][]byte
			return dataflow.Op{Push: func(_ int, m dataflow.Msg) {
				start := time.Now()
				defer c.Busy(start)
				if m.Kind != dataflow.Data {
					c.RecvPunct()
					if m.Kind == dataflow.Drain {
						// Everything rehashed before the marker must be on
						// the wire before the round is acknowledged.
						if flushRoutes != nil {
							flushRoutes()
						}
						if drainAck != nil {
							drainAck(m.Seq)
						}
					}
					return
				}
				c.RecvRows(len(m.Batch))
				w := wire.GetWriter()
				if cap(keys) < len(m.Batch) {
					keys = make([][]byte, 0, len(m.Batch))
				}
				keys = keys[:0]
				for _, t := range m.Batch {
					from := w.Len()
					t.AppendKey(w, keyCols)
					keys = append(keys, w.Bytes()[from:w.Len()])
				}
				c.EmitRows(len(m.Batch), ship(stage, side, m.Seq, keys, m.Batch))
				wire.PutWriter(w)
				dataflow.PutBatch(m.Batch)
			}}
		}
	}
}

// ShipPartial routes partial-state tuples toward their groups'
// aggregation collectors, a batch at a time. Punctuation triggers the
// route-batch flush barrier — the continuous query's per-window ship
// point.
func ShipPartial(ship func(window uint64, partials []tuple.Tuple) int, flushRoutes func(), drainAck func(round uint64)) OpFunc {
	return func(c *Counters) dataflow.RunFunc {
		return func(out *dataflow.Out) dataflow.Op {
			return dataflow.Op{Push: func(_ int, m dataflow.Msg) {
				start := time.Now()
				if m.Kind == dataflow.Data {
					c.RecvRows(len(m.Batch))
					c.EmitRows(len(m.Batch), ship(m.Seq, m.Batch))
					dataflow.PutBatch(m.Batch)
				} else {
					c.RecvPunct()
					if flushRoutes != nil {
						flushRoutes()
					}
					if m.Kind == dataflow.Drain && drainAck != nil {
						drainAck(m.Seq)
					}
				}
				c.Busy(start)
			}}
		}
	}
}

// ShipRows delivers result rows to the coordinator, one result frame
// per call to ship. A frame fills to frameBytes of encoded records
// (each row's encoding and its length prefix); a row that would
// overflow it starts the next frame, and a row larger than the budget
// ships alone. Frames also close early when the window sequence
// changes, on punctuation and at end of stream. In eager mode — a
// collector, whose input never ends — held rows also ship as soon as
// the input runs dry (the graph's Idle call): an idle node sends each
// arrival at once, a node that is behind fills whole result frames.
// ship must not keep rows past its return: the list is reused.
func ShipRows(ship func(window uint64, rows []tuple.Tuple) int, frameBytes int, eager bool, flushRoutes func(), drainAck func(round uint64)) OpFunc {
	return func(c *Counters) dataflow.RunFunc {
		return func(out *dataflow.Out) dataflow.Op {
			// batch is reused frame after frame, ship being done with a
			// frame when it returns, and handed on to the next pipeline
			// through shipLists.
			var list *[]tuple.Tuple
			var batch []tuple.Tuple
			var batchSeq uint64
			size := 0 // encoded record bytes held in batch
			flush := func() {
				if len(batch) == 0 {
					return
				}
				c.EmitRows(len(batch), ship(batchSeq, batch))
				clear(batch)
				batch, size = batch[:0], 0
			}
			end := func() {
				flush()
				if list != nil {
					*list, batch = batch, nil
					shipLists.Put(list)
					list = nil
				}
			}
			op := dataflow.Op{End: end, Push: func(_ int, m dataflow.Msg) {
				start := time.Now()
				defer c.Busy(start)
				if m.Kind != dataflow.Data {
					c.RecvPunct()
					flush()
					if flushRoutes != nil {
						flushRoutes()
					}
					if m.Kind == dataflow.Drain && drainAck != nil {
						drainAck(m.Seq)
					}
					return
				}
				c.RecvRows(len(m.Batch))
				if list == nil {
					list = shipLists.Get().(*[]tuple.Tuple)
					batch = (*list)[:0]
				}
				if len(batch) > 0 && m.Seq != batchSeq {
					flush()
				}
				batchSeq = m.Seq
				for _, t := range m.Batch {
					n := t.EncodedLen()
					n += wire.UvarintLen(uint64(n))
					if len(batch) > 0 && size+n > frameBytes {
						flush()
					}
					batch = append(batch, t)
					if size += n; size >= frameBytes {
						flush()
					}
				}
				dataflow.PutBatch(m.Batch)
			}}
			if eager {
				op.Idle = func() {
					if len(batch) > 0 {
						start := time.Now()
						flush()
						c.Busy(start)
					}
				}
			}
			return op
		}
	}
}

// shipLists recycles ShipRows' frame lists, empty, from one pipeline to
// the next. They are a frame's rows long — hundreds to thousands — so
// they stay out of dataflow's batch pool, whose containers every
// PutBatch clears to their capacity.
var shipLists = sync.Pool{New: func() any { return new([]tuple.Tuple) }}

// FuncSink invokes fn per data tuple — tests and the benchmark's
// layer probes collect through it.
func FuncSink(fn func(t tuple.Tuple)) OpFunc {
	return func(c *Counters) dataflow.RunFunc {
		return func(out *dataflow.Out) dataflow.Op {
			return dataflow.Op{Push: func(_ int, m dataflow.Msg) {
				if m.Kind != dataflow.Data {
					c.RecvPunct()
					return
				}
				c.RecvRows(len(m.Batch))
				for _, t := range m.Batch {
					fn(t)
				}
				dataflow.PutBatch(m.Batch)
			}}
		}
	}
}

// ---------------------------------------------------------------------------
// Coordinator-tail operators (HAVING / DISTINCT / ORDER BY / LIMIT)

// Distinct suppresses duplicate tuples by canonical encoding. State
// persists across punctuations (a continuous DISTINCT).
func Distinct() OpFunc {
	return func(c *Counters) dataflow.RunFunc {
		return func(out *dataflow.Out) dataflow.Op {
			seen := make(map[string]struct{})
			return perRow(c, out, func(t tuple.Tuple) (tuple.Tuple, bool) {
				w := wire.GetWriter()
				defer wire.PutWriter(w)
				t.Encode(w)
				if _, dup := seen[string(w.Bytes())]; dup {
					return t, false
				}
				seen[string(w.Bytes())] = struct{}{}
				return t, true
			})
		}
	}
}

// TopK keeps the k best tuples by the sort columns (desc flags per
// column) and emits them in order at end of input or at each
// punctuation. k <= 0 means sort everything (full ORDER BY).
func TopK(k int, sortCols []int, desc []bool, batchSize int) OpFunc {
	batchSize = max(batchSize, 1)
	return func(c *Counters) dataflow.RunFunc {
		return func(out *dataflow.Out) dataflow.Op {
			var rows []tuple.Tuple
			flush := func(seq uint64) {
				sort.SliceStable(rows, func(i, j int) bool {
					return rows[i].Compare(rows[j], sortCols, desc) < 0
				})
				if k > 0 && len(rows) > k {
					rows = rows[:k]
				}
				emitBatches(c, out, rows, seq, batchSize)
				rows = nil
			}
			return dataflow.Op{End: func() { flush(0) }, Push: func(_ int, m dataflow.Msg) {
				start := time.Now()
				if m.Kind != dataflow.Data {
					c.RecvPunct()
					if m.Kind == dataflow.Punct {
						flush(m.Seq)
					}
					c.Busy(start)
					out.Emit(m)
					return
				}
				c.RecvRows(len(m.Batch))
				rows = append(rows, m.Batch...)
				dataflow.PutBatch(m.Batch)
				c.Busy(start)
			}}
		}
	}
}

// Limit forwards the first n data tuples and drops the rest.
func Limit(n int) OpFunc {
	return func(c *Counters) dataflow.RunFunc {
		return func(out *dataflow.Out) dataflow.Op {
			emitted := 0
			return dataflow.Op{Push: func(_ int, m dataflow.Msg) {
				start := time.Now()
				if m.Kind != dataflow.Data {
					c.RecvPunct()
					c.Busy(start)
					out.Emit(m)
					return
				}
				c.RecvRows(len(m.Batch))
				if emitted >= n {
					dataflow.PutBatch(m.Batch)
					c.Busy(start)
					return
				}
				if keep := n - emitted; len(m.Batch) > keep {
					m.Batch = m.Batch[:keep]
				}
				emitted += len(m.Batch)
				c.EmitBatch(m.Batch)
				c.Busy(start)
				out.Emit(m)
			}}
		}
	}
}

// Collect appends every data tuple into rows (nil: only counts them)
// and forwards nothing. The slice must not be read until the graph
// finishes.
func Collect(rows *[]tuple.Tuple) OpFunc {
	return func(c *Counters) dataflow.RunFunc {
		return func(out *dataflow.Out) dataflow.Op {
			return dataflow.Op{Push: func(_ int, m dataflow.Msg) {
				if m.Kind != dataflow.Data {
					c.RecvPunct()
					return
				}
				c.RecvRows(len(m.Batch))
				if rows != nil {
					*rows = append(*rows, m.Batch...)
				}
				dataflow.PutBatch(m.Batch)
			}}
		}
	}
}

// ---------------------------------------------------------------------------
// Helpers

// emitBatches emits rows in messages of at most batchSize rows stamped
// seq, each in a pooled container.
func emitBatches(c *Counters, out *dataflow.Out, rows []tuple.Tuple, seq uint64, batchSize int) {
	for len(rows) > 0 {
		n := min(batchSize, len(rows))
		batch := append(dataflow.GetBatch(), rows[:n]...)
		rows = rows[n:]
		c.EmitBatch(batch)
		out.Emit(dataflow.BatchMsg(batch, seq))
	}
}

func identityCols(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func joinKeysEqual(l, r tuple.Tuple, lc, rc []int) bool {
	for i := range lc {
		if !l[lc[i]].Equal(r[rc[i]]) {
			return false
		}
	}
	return true
}
