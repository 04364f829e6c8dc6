package physical

import (
	"context"
	"time"

	"repro/internal/dataflow"
	"repro/internal/plan"
	"repro/internal/stats"
	"repro/internal/tuple"
)

// The stats-gather role: ANALYZE compiles, on every node, a pipeline
// that scans the table's local partition and folds each tuple into a
// mergeable statistics sketch; the per-partition sketches then ship
// to the coordinator, whose merge pipeline combines them with the
// SketchMerge operator. Same boxes-and-arrows discipline as every
// other role, so the gather inherits parallel partitioned scans and
// operator instrumentation for free.

// SketchBuild folds every tuple into a table sketch.
func SketchBuild(sk *stats.TableSketch) OpFunc {
	return func(c *Counters) dataflow.RunFunc {
		return func(ctx context.Context, ins []<-chan dataflow.Msg, outs []chan<- dataflow.Msg) error {
			for m := range dataflow.Merge(ctx, ins) {
				if m.Kind != dataflow.Data {
					c.RecvPunct()
					continue
				}
				c.RecvRows(len(m.Batch))
				start := time.Now()
				for _, t := range m.Batch {
					sk.Add(t)
				}
				c.Busy(start)
				dataflow.PutBatch(m.Batch)
			}
			return nil
		}
	}
}

// SketchMerge consumes sketch-carrying tuples — (table name, encoded
// sketch) pairs, one per arriving partition — and hands each to the
// merge callback. The coordinator's accumulation runs inside this
// operator's single goroutine, so the callback needs no locking.
func SketchMerge(merge func(table string, enc []byte) error) OpFunc {
	return func(c *Counters) dataflow.RunFunc {
		return func(ctx context.Context, ins []<-chan dataflow.Msg, outs []chan<- dataflow.Msg) error {
			for m := range dataflow.Merge(ctx, ins) {
				if m.Kind != dataflow.Data {
					c.RecvPunct()
					continue
				}
				c.RecvRows(len(m.Batch))
				start := time.Now()
				for _, t := range m.Batch {
					if len(t) != 2 || t[0].Kind != tuple.TString || t[1].Kind != tuple.TBytes {
						continue
					}
					_ = merge(t[0].S, t[1].AsBytes()) // schema conflicts: skip the partition
				}
				c.Busy(start)
				dataflow.PutBatch(m.Batch)
			}
			return nil
		}
	}
}

// CompileStatsGather builds a participant's stats-gather pipeline for
// one table: scan the local partition (parallel partitioned, like any
// scan; every column, as the sketch measures them all) into a
// sketch-build sink.
func CompileStatsGather(ns string, arity int, env *Env, sk *stats.TableSketch) *Pipeline {
	p := env.newPipeline("stats-gather", false)
	src := p.Add("stats-scan", env.scanSource(&plan.ScanSpec{Namespace: ns, Stored: arity, Cols: identityCols(arity)}))
	sb := p.Add("sketch-build", SketchBuild(sk))
	p.Connect(src, sb)
	return p
}

// CompileSketchMerge builds the coordinator's merge pipeline:
// arriving per-partition sketches enter through the returned inlet
// and fold into the accumulator via SketchMerge.
func CompileSketchMerge(env *Env, merge func(table string, enc []byte) error) (*Pipeline, *Inlet) {
	p := env.newPipeline("stats-merge", false)
	in := NewInlet()
	src := p.Add("sketch-src", in.Source)
	sm := p.Add("sketch-merge", SketchMerge(merge))
	p.Connect(src, sm)
	return p, in
}
