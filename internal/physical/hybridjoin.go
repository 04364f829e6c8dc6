package physical

import (
	"fmt"
	"time"

	"repro/internal/dataflow"
	"repro/internal/expr"
	"repro/internal/spill"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// Hybrid-hash join tuning. The fan-out divides a stage's build state
// into independently spillable partitions; recursive passes re-salt
// the partition hash per level so keys that collided at one level
// spread at the next, and maxSpillLevels bounds the recursion before
// the pass falls back to joining a sub-partition in memory whatever
// its size (pathological single-key skew cannot be partitioned away).
const (
	hybridFanout     = 16
	maxSpillLevels   = 4
	spillFrameRows   = 256
	defaultSpillHold = 200 * time.Millisecond
)

// HybridJoinConfig parameterizes the memory-budgeted collector join.
type HybridJoinConfig struct {
	// Budget caps resident build bytes for this operator instance
	// (0 = unbounded; the join degenerates to the flat in-memory
	// symmetric hash join, still partitioned and peak-mem-instrumented).
	Budget int64
	// Spill manages overflow temp files; nil disables spilling even
	// with a budget set.
	Spill *spill.Manager
	// Label prefixes spill file names ("q12-s0").
	Label string
	// IdleHold is the quiet-mode pass trigger: when spilled state holds
	// unjoined tuples and no input arrives for IdleHold, a re-join pass
	// runs. Queries completing through the EOS drain protocol pass
	// earlier, on the drain marker. <= 0 takes defaultSpillHold.
	IdleHold time.Duration
	// BatchSize is the output vectorization width.
	BatchSize int
	// Proj, when set, is what the join emits for each matched pair: the
	// plan's projection over the concatenated pair, evaluated in place —
	// for a join that ends the plan with no post-filter, so each answer
	// row is built once. A pair whose evaluation fails is dropped, as
	// Project drops it. Nil emits the concatenated pair.
	Proj []expr.Expr
}

// partHash spreads a canonical join-key encoding over partitions,
// salted by recursion level (FNV-1a with a level-mixed seed).
func partHash(key []byte, level int) uint64 {
	h := uint64(14695981039346656037) ^ (uint64(level+1) * 0x9E3779B97F4A7C15)
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// RehashPartition maps a canonical join-key encoding to one of parts
// routing partitions — the sender side of the distributed join, one
// collector per (query, stage, partition). Every tuple a collector
// receives shares its routing partition and is partitioned again by
// partHash(key, 0) % hybridFanout, so the two functions must be
// independent or a collector fills only a few of its 16 partitions
// (measured: 3 with FNV-1a mod 64 here, both taking FNV-1a's low bits).
// This one takes the high bits of the finalized hash the statistics
// sketches use.
func RehashPartition(key []byte, parts int) int {
	return int((wire.Hash64(key) >> 32) * uint64(parts) >> 32)
}

// hybridBucket holds one join-key value's resident tuples, per side.
type hybridBucket struct {
	rows [2][]tuple.Tuple
}

// hybridPart is one partition of one window's build state. A resident
// partition holds one hash table whose buckets carry both sides' tuples
// of a key, so an arrival finds its own side and the side it probes in
// one lookup; once spilled, the table is dropped and arrivals append to
// the partition's frame log unjoined (their join output is owed by the
// next re-join pass).
type hybridPart struct {
	table   map[string]*hybridBucket
	bytes   int64
	rows    int64
	spilled bool
	file    *spill.File
}

// hybridWindow is one window's partitioned state.
type hybridWindow struct {
	parts [hybridFanout]*hybridPart
}

// HybridJoin is the collector-side symmetric hash join rebuilt around
// a memory budget: build state is partitioned by join-key hash, and
// when resident bytes exceed the budget whole partitions spill to
// temp files. Resident partitions stream: both sides' hash tables
// build incrementally per window, identical retransmits are dropped
// (the overlay redelivers), matches go out as they appear.
// Spilled partitions re-join in recursive passes — triggered by the
// EOS drain marker, or by input going idle for quiet-mode queries —
// re-partitioning each overflow file with a level-salted hash until a
// sub-partition fits, then joining it in memory.
//
// The pass stays byte-identical to the streaming join through the
// joined-flag protocol: a partition's resident tuples had already
// emitted their pairs when it spilled, so they spill marked joined
// and the pass inserts them with emission suppressed; only tuples
// that arrived after the spill (appended unjoined) emit pairs. Joined
// frames always precede unjoined frames in every file (the spill dump
// writes first; the watermark only ever advances), so a suppressed
// build tuple can never miss a pair. After a pass the file's joined
// watermark advances past everything processed, making repeated
// passes of quiesced state emit nothing — the same stability the EOS
// totals test relies on for FinalAgg.
func HybridJoin(arity [2]int, keyCols [2][]int, cfg HybridJoinConfig) OpFunc {
	outArity := arity[0] + arity[1]
	if cfg.Proj != nil {
		outArity = len(cfg.Proj)
	}
	batchSize := cfg.BatchSize
	if batchSize < 1 {
		batchSize = dataflow.DefaultBatchSize
	}
	hold := cfg.IdleHold
	if hold <= 0 {
		hold = defaultSpillHold
	}
	spillOn := cfg.Budget > 0 && cfg.Spill != nil
	return func(c *Counters) dataflow.RunFunc {
		return func(out *dataflow.Out) dataflow.Op {
			windows := make(map[uint64]*hybridWindow)
			var resident int64 // resident build bytes across all windows

			// arena holds the output rows' values. Its blocks are never
			// copied or reused (tuple.Room): a full one stays with the rows
			// cut from it, downstream, and the next is started, so a value
			// is written once however many rows a message matches.
			var arena []tuple.Value
			// pair builds the output row of a matched (left, right) pair in
			// arena: the concatenation, or Proj evaluated over it (ok
			// false: the evaluation failed and the pair is dropped).
			var scratch tuple.Tuple
			pair := func(l, r tuple.Tuple) (tuple.Tuple, bool) {
				arena = tuple.Room(arena, outArity)
				if cfg.Proj == nil {
					var j tuple.Tuple
					j, arena = tuple.ConcatInto(arena, l, r)
					return j, true
				}
				scratch = append(append(scratch[:0], l...), r...)
				lo := len(arena)
				for _, e := range cfg.Proj {
					v, err := e.Eval(scratch)
					if err != nil {
						arena = arena[:lo]
						return nil, false
					}
					arena = append(arena, v)
				}
				hi := len(arena)
				return tuple.Tuple(arena[lo:hi:hi]), true
			}
			// probe appends the output rows of t, arrived on side, against
			// the other side's tuples of its key.
			probe := func(out []tuple.Tuple, side int, t tuple.Tuple, others []tuple.Tuple) []tuple.Tuple {
				for _, o := range others {
					l, r := t, o
					if side == 1 {
						l, r = o, t
					}
					if j, ok := pair(l, r); ok {
						out = append(out, j)
					}
				}
				return out
			}

			part := func(hw *hybridWindow, key []byte) *hybridPart {
				i := partHash(key, 0) % hybridFanout
				p := hw.parts[i]
				if p == nil {
					p = &hybridPart{table: make(map[string]*hybridBucket)}
					hw.parts[i] = p
				}
				return p
			}

			// spillLargest dumps the biggest resident partition of the
			// window to a temp file, joined=true (its pairs are already
			// downstream), freeing its tables.
			spillLargest := func(hw *hybridWindow, seq uint64) error {
				var victim *hybridPart
				vi := -1
				for i, p := range hw.parts {
					if p == nil || p.spilled {
						continue
					}
					if victim == nil || p.bytes > victim.bytes {
						victim, vi = p, i
					}
				}
				if victim == nil {
					return nil // everything already spilled
				}
				if victim.file == nil {
					f, err := cfg.Spill.Create(fmt.Sprintf("%s-w%d-p%d", cfg.Label, seq, vi))
					if err != nil {
						return err
					}
					victim.file = f
				}
				for side := 0; side < 2; side++ {
					var frame []tuple.Tuple
					for _, b := range victim.table {
						for _, t := range b.rows[side] {
							frame = append(frame, t)
							if len(frame) >= spillFrameRows {
								n, err := victim.file.Append(seq, uint8(side), true, frame)
								if err != nil {
									return err
								}
								c.AddSpilled(n)
								frame = frame[:0]
							}
						}
					}
					if len(frame) > 0 {
						n, err := victim.file.Append(seq, uint8(side), true, frame)
						if err != nil {
							return err
						}
						c.AddSpilled(n)
					}
				}
				victim.file.MarkJoined()
				resident -= victim.bytes
				victim.bytes = 0
				victim.table = nil
				victim.spilled = true
				return nil
			}

			// add inserts one tuple into a resident partition: dedup
			// identical retransmits, probe the other side, emit matches.
			add := func(p *hybridPart, side int, key []byte, t tuple.Tuple, out []tuple.Tuple) []tuple.Tuple {
				b := p.table[string(key)]
				if b == nil {
					b = &hybridBucket{}
					p.table[string(key)] = b
				}
				for _, existing := range b.rows[side] {
					if existing.Equal(t) {
						return out // duplicate retransmit
					}
				}
				b.rows[side] = append(b.rows[side], t)
				grew := t.MemSize() + int64(len(key))
				p.bytes += grew
				p.rows++
				resident += grew
				return probe(out, side, t, b.rows[1-side])
			}

			// loadAndJoin replays one overflow file in memory: joined
			// frames build silently, unjoined frames build and emit.
			loadAndJoin := func(f *spill.File, seq uint64) error {
				r, err := f.NewReader()
				if err != nil {
					return err
				}
				defer r.Close()
				table := make(map[string]*hybridBucket)
				var passBytes int64
				var joined []tuple.Tuple
				for {
					fr, err := r.Next()
					if err != nil {
						break // io.EOF or a torn tail frame: stop the replay
					}
					side := int(fr.Side)
					if side > 1 {
						continue
					}
					for _, t := range fr.Rows {
						if len(t) != arity[side] {
							continue
						}
						w := wire.GetWriter()
						t.AppendKey(w, keyCols[side])
						key := w.Bytes()
						b := table[string(key)]
						if b == nil {
							b = &hybridBucket{}
							table[string(key)] = b
						}
						dup := false
						for _, existing := range b.rows[side] {
							if existing.Equal(t) {
								dup = true
								break
							}
						}
						wire.PutWriter(w)
						if dup {
							continue
						}
						b.rows[side] = append(b.rows[side], t)
						passBytes += t.MemSize() + int64(len(key))
						if !fr.Joined {
							joined = probe(joined, side, t, b.rows[1-side])
						}
					}
				}
				c.ObserveMem(resident + passBytes)
				emitBatches(c, out, joined, seq, batchSize)
				return nil
			}

			// passFile re-joins one overflow file: small files load
			// directly; larger ones re-partition into level+1 sub-files
			// first so only one sub-partition is ever resident.
			var passFile func(f *spill.File, level int, seq uint64) error
			passFile = func(f *spill.File, level int, seq uint64) error {
				if level >= maxSpillLevels || f.Size() <= cfg.Budget {
					return loadAndJoin(f, seq)
				}
				r, err := f.NewReader()
				if err != nil {
					return err
				}
				subs := make([]*spill.File, hybridFanout)
				closeSubs := func() {
					for _, s := range subs {
						if s != nil {
							s.Close()
						}
					}
				}
				// Route every frame's rows to sub-files; relative order
				// (hence joined-before-unjoined) is preserved per sub.
				type subBuf struct {
					rows [2][2][]tuple.Tuple // [side][joined]
				}
				bufs := make([]subBuf, hybridFanout)
				flushSub := func(i int) error {
					if subs[i] == nil {
						s, err := cfg.Spill.Create(fmt.Sprintf("%s-l%d-p%d", cfg.Label, level, i))
						if err != nil {
							return err
						}
						subs[i] = s
					}
					// Joined rows first within the flush, matching the
					// file-order invariant.
					for _, joined := range []int{1, 0} {
						for side := 0; side < 2; side++ {
							rows := bufs[i].rows[side][joined]
							if len(rows) == 0 {
								continue
							}
							if _, err := subs[i].Append(seq, uint8(side), joined == 1, rows); err != nil {
								return err
							}
							bufs[i].rows[side][joined] = rows[:0]
						}
					}
					return nil
				}
				for {
					fr, err := r.Next()
					if err != nil {
						break
					}
					side := int(fr.Side)
					if side > 1 {
						continue
					}
					j := 0
					if fr.Joined {
						j = 1
					}
					for _, t := range fr.Rows {
						if len(t) != arity[side] {
							continue
						}
						w := wire.GetWriter()
						t.AppendKey(w, keyCols[side])
						i := int(partHash(w.Bytes(), level) % hybridFanout)
						wire.PutWriter(w)
						bufs[i].rows[side][j] = append(bufs[i].rows[side][j], t)
						if len(bufs[i].rows[side][j]) >= spillFrameRows {
							if err := flushSub(i); err != nil {
								r.Close()
								closeSubs()
								return err
							}
						}
					}
					// A frame boundary is a joined/unjoined boundary in
					// the parent: flush so ordering cannot interleave.
					for i := range bufs {
						if err := flushSub(i); err != nil {
							r.Close()
							closeSubs()
							return err
						}
					}
				}
				r.Close()
				for _, s := range subs {
					if s == nil {
						continue
					}
					if err := passFile(s, level+1, seq); err != nil {
						closeSubs()
						return err
					}
				}
				closeSubs()
				return nil
			}

			// runPasses drains every spilled partition holding unjoined
			// tuples, across all windows.
			runPasses := func() error {
				did := false
				for seq, hw := range windows {
					for _, p := range hw.parts {
						if p == nil || !p.spilled || p.file == nil || !p.file.HasUnjoined() {
							continue
						}
						if err := passFile(p.file, 1, seq); err != nil {
							return err
						}
						p.file.MarkJoined()
						did = true
					}
				}
				if did {
					c.AddSpillPass()
					if cfg.Spill != nil {
						cfg.Spill.Passes.Add(1)
					}
				}
				return nil
			}

			// Pending spill appends accumulated per message, flushed as
			// one frame per (partition, side).
			type pendAppend struct {
				p    *hybridPart
				side int
				rows []tuple.Tuple
			}
			var pends []pendAppend
			appendSpilled := func(p *hybridPart, side int, t tuple.Tuple) {
				for i := range pends {
					if pends[i].p == p && pends[i].side == side {
						pends[i].rows = append(pends[i].rows, t)
						return
					}
				}
				pends = append(pends, pendAppend{p: p, side: side, rows: []tuple.Tuple{t}})
			}
			flushPends := func(seq uint64) error {
				for i := range pends {
					n, err := pends[i].p.file.Append(seq, uint8(pends[i].side), false, pends[i].rows)
					if err != nil {
						return err
					}
					c.AddSpilled(n)
				}
				pends = pends[:0]
				return nil
			}

			spilledPending := false // unjoined spilled tuples awaiting a pass
			// The quiet-mode pass trigger, armed while spilled partitions
			// hold unjoined tuples.
			var idle *time.Timer
			pass := func() {
				if err := runPasses(); err != nil {
					out.Fail(err)
				}
				spilledPending = false
			}
			end := func() {
				if idle != nil {
					idle.Stop()
				}
				for _, hw := range windows {
					for _, p := range hw.parts {
						if p != nil && p.file != nil {
							p.file.Close()
						}
					}
				}
			}
			return dataflow.Op{End: end, Push: func(side int, m dataflow.Msg) {
				if m.Kind != dataflow.Data {
					c.RecvPunct()
					if m.Kind == dataflow.Drain {
						// Pass before forwarding: everything the round
						// covers must be downstream before the sink acks.
						pass()
						if idle != nil {
							idle.Stop()
						}
					}
					out.Emit(m)
					return
				}
				start := time.Now()
				ts := m.Batch
				c.RecvRows(len(ts))
				if side > 1 {
					c.Busy(start)
					return
				}
				hw := windows[m.Seq]
				if hw == nil {
					hw = &hybridWindow{}
					windows[m.Seq] = hw
				}
				// Output leaves in full vectors of batchSize rows as the
				// message is joined (the time downstream is not the
				// join's), then the rest after it.
				joined := dataflow.GetBatch()
				for _, t := range ts {
					if len(t) != arity[side] {
						continue
					}
					w := wire.GetWriter()
					t.AppendKey(w, keyCols[side])
					key := w.Bytes()
					p := part(hw, key)
					if p.spilled {
						appendSpilled(p, side, t)
						wire.PutWriter(w)
						continue
					}
					joined = add(p, side, key, t, joined)
					wire.PutWriter(w)
					if len(joined) >= batchSize {
						c.Busy(start)
						c.EmitBatch(joined)
						out.Emit(dataflow.BatchMsg(joined, m.Seq))
						joined = dataflow.GetBatch()
						start = time.Now()
					}
					// The budget holds per tuple, not per message: a
					// frame's group can be hundreds of tuples. Pairs of
					// the tuples added so far are downstream or in joined,
					// so a victim spills as joined; its later arrivals in this
					// message go to pends, written after that dump.
					if spillOn && resident > cfg.Budget {
						c.ObserveMem(resident)
						for resident > cfg.Budget {
							before := resident
							if err := spillLargest(hw, m.Seq); err != nil {
								out.Fail(err)
								return
							}
							if resident == before {
								break // everything spilled; arrivals go to disk
							}
						}
					}
				}
				if err := flushPends(m.Seq); err != nil {
					out.Fail(err)
					return
				}
				c.ObserveMem(resident)
				dataflow.PutBatch(m.Batch)
				c.Busy(start)
				if len(joined) == 0 {
					dataflow.PutBatch(joined)
				} else {
					c.EmitBatch(joined)
					out.Emit(dataflow.BatchMsg(joined, m.Seq))
				}
				// Arm the quiet-mode pass trigger whenever spilled
				// partitions hold unjoined tuples.
				for _, p := range hw.parts {
					if p != nil && p.spilled && p.file != nil && p.file.HasUnjoined() {
						spilledPending = true
						if idle == nil {
							idle = out.After(hold, func() {
								if spilledPending {
									pass()
								}
							})
						} else {
							idle.Reset(hold)
						}
						break
					}
				}
			}}
		}
	}
}
