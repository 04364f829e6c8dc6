package physical

import (
	"sync/atomic"
	"time"

	"repro/internal/plan"
	"repro/internal/tuple"
)

// Counters instruments one physical operator instance. Operators
// update them from their pipeline's task, or a scan's shards from
// theirs; snapshots may be taken concurrently (the EXPLAIN ANALYZE
// gather runs while collector pipelines are still draining), hence
// the atomics.
type Counters struct {
	Stage string
	Name  string
	// detail enables the byte counters that walk every emitted tuple
	// (EmitBatch). Off for pipelines compiled without Analyze,
	// so the hot path never pays for instrumentation nobody reads;
	// exchange/ship operators report bytes through EmitRows (the
	// payload size they computed anyway) regardless.
	detail bool

	rowsIn   atomic.Uint64
	rowsOut  atomic.Uint64
	bytesOut atomic.Uint64
	puncts   atomic.Uint64
	busy     atomic.Int64

	// Memory-budget observability (hybrid-hash join): high-water mark
	// of resident build bytes, bytes spilled to temp files, and
	// completed re-join passes over spilled partitions.
	peakMem   atomic.Int64
	spilled   atomic.Uint64
	spillPass atomic.Uint64
}

// RecvRows counts n consumed data tuples (one batch receive).
func (c *Counters) RecvRows(n int) { c.rowsIn.Add(uint64(n)) }

// RecvPunct counts one processed punctuation.
func (c *Counters) RecvPunct() { c.puncts.Add(1) }

// EmitRows counts n produced tuples carrying bytes encoded bytes —
// used by ship operators, which know the exact wire payload size.
func (c *Counters) EmitRows(n, bytes int) {
	c.rowsOut.Add(uint64(n))
	c.bytesOut.Add(uint64(bytes))
}

// EmitBatch counts one produced batch; its encoded size
// (Tuple.EncodedLen, nothing encoded) only under detail
// instrumentation.
func (c *Counters) EmitBatch(ts []tuple.Tuple) {
	c.rowsOut.Add(uint64(len(ts)))
	if c.detail {
		n := 0
		for _, t := range ts {
			n += t.EncodedLen()
		}
		c.bytesOut.Add(uint64(n))
	}
}

// Busy accrues processing time since start.
func (c *Counters) Busy(start time.Time) { c.busy.Add(int64(time.Since(start))) }

// ObserveMem raises the resident-memory high-water mark to bytes.
func (c *Counters) ObserveMem(bytes int64) {
	for {
		cur := c.peakMem.Load()
		if bytes <= cur || c.peakMem.CompareAndSwap(cur, bytes) {
			return
		}
	}
}

// AddSpilled counts bytes written to spill files.
func (c *Counters) AddSpilled(bytes int64) { c.spilled.Add(uint64(bytes)) }

// AddSpillPass counts one completed re-join pass over spilled state.
func (c *Counters) AddSpillPass() { c.spillPass.Add(1) }

// Stats snapshots the counters as one plan.OpStats entry.
func (c *Counters) Stats() plan.OpStats {
	return plan.OpStats{
		Stage:     c.Stage,
		Op:        c.Name,
		Nodes:     1,
		RowsIn:    c.rowsIn.Load(),
		RowsOut:   c.rowsOut.Load(),
		BytesOut:  c.bytesOut.Load(),
		Puncts:    c.puncts.Load(),
		BusyNanos: uint64(c.busy.Load()),
		PeakMem:   uint64(c.peakMem.Load()),
		Spilled:   c.spilled.Load(),
		Passes:    c.spillPass.Load(),
	}
}
