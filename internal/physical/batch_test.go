package physical

// Tests for the batch-at-a-time execution contract: the ownership
// rule on dataflow.Msg (recycled containers never corrupt retained
// tuples — run these under -race, as CI does), and the batch-size
// invariance property (any vectorization width produces identical
// window contents and identical EXPLAIN ANALYZE row counts).

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/dataflow"
	"repro/internal/expr"
	"repro/internal/tuple"
)

// TestBatchRecycleDoesNotCorruptRetainedTuples is the regression test
// for the batch-reuse ownership rule: a source that draws containers
// from the pool keeps emitting (and overwriting slots of containers
// the sink has recycled) while HybridJoin retains tuples from earlier
// batches in its hash tables. If any operator retained a *container*
// (or wrote output tuples through into input backing arrays — the
// Concat/Project aliasing hazard), the joined rows would corrupt or
// the race detector would fire.
func TestBatchRecycleDoesNotCorruptRetainedTuples(t *testing.T) {
	const n = 2000
	p := NewPipeline("test")
	mkSource := func(col0 string) OpFunc {
		return func(c *Counters) dataflow.RunFunc {
			return func(out *dataflow.Out) dataflow.Op {
				return dataflow.Op{Source: func() {
					batch := dataflow.GetBatch()
					for i := 0; i < n; i++ {
						batch = append(batch, tuple.Tuple{tuple.String(fmt.Sprintf("%s-%d", col0, i)), tuple.Int(int64(i))})
						if len(batch) >= 16 {
							out.Emit(dataflow.BatchMsg(batch, 0))
							// Deliberately churn the pool: the next
							// container may be one the sink just recycled,
							// and filling it mutates slots that earlier
							// held tuples now retained by the join.
							batch = dataflow.GetBatch()
						}
					}
					if len(batch) > 0 {
						out.Emit(dataflow.BatchMsg(batch, 0))
					} else {
						dataflow.PutBatch(batch)
					}
				}}
			}
		}
	}
	l := p.Add("src-l", mkSource("l"))
	r := p.Add("src-r", mkSource("r"))
	jp := p.Add("hybrid-join", HybridJoin([2]int{2, 2}, [2][]int{{1}, {1}}, HybridJoinConfig{}))
	p.Connect(l, jp)
	p.Connect(r, jp)
	var mu sync.Mutex
	joined := make(map[int64]int)
	bad := 0
	sink := p.Add("sink", FuncSink(func(tp tuple.Tuple) {
		mu.Lock()
		if len(tp) == 4 && tp[1].Equal(tp[3]) {
			joined[tp[1].I]++
		} else {
			bad++
		}
		mu.Unlock()
	}))
	p.Connect(jp, sink)
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if bad != 0 {
		t.Fatalf("%d corrupted joined rows", bad)
	}
	if len(joined) != n {
		t.Fatalf("joined %d distinct keys, want %d", len(joined), n)
	}
	for k, cnt := range joined {
		if cnt != 1 {
			t.Fatalf("key %d joined %d times, want 1", k, cnt)
		}
	}
}

// windowRun drives a deterministic continuous-style pipeline (scripted
// samples + punctuations through WindowBuffer and PartialAgg) at one
// batch size and returns the per-window partial rows plus the
// per-operator row counters.
func windowRun(t *testing.T, batchSize int) (map[uint64][]string, map[string][2]uint64) {
	t.Helper()
	base := time.Unix(1_700_000_000, 0)
	var samples []dataflow.Msg
	// Three tumbling 1s windows; samples for group g0/g1 interleaved,
	// deliberately crossing batch boundaries for every size under test.
	seq := uint64(100)
	for w := 0; w < 3; w++ {
		open := base.Add(time.Duration(w) * time.Second)
		for i := 0; i < 50; i++ {
			at := open.Add(time.Duration(10+i*15) * time.Millisecond)
			g := fmt.Sprintf("g%d", i%2)
			samples = append(samples, sample(tuple.Tuple{tuple.String(g), tuple.Int(int64(w*1000 + i))}, at))
		}
		samples = append(samples, dataflow.PunctMsg(seq+uint64(w), open.Add(time.Second)))
	}

	p := NewPipeline("test")
	src := p.Add("src", script(samples))
	pred := &expr.Cmp{Op: expr.GE, L: &expr.Col{Index: 1}, R: &expr.Lit{V: tuple.Int(0)}}
	f := p.Add("filter", Filter(pred))
	p.Connect(src, f)
	wb := p.Add("window", WindowBuffer(time.Second, batchSize))
	p.Connect(f, wb)
	agg := p.Add("partial-agg", PartialAgg([]int{0}, []agg.AggSpec{{Func: agg.Sum, ArgCol: 1}}, false, false, batchSize))
	p.Connect(wb, agg)
	windows := make(map[uint64][]string)
	sink := p.Add("sink", msgSink(func(m dataflow.Msg) {
		for _, tp := range m.Batch {
			windows[m.Seq] = append(windows[m.Seq], tp.String())
		}
	}))
	p.Connect(agg, sink)
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	counts := make(map[string][2]uint64)
	for _, s := range p.Stats() {
		if s.Op == "sink" {
			continue // sink counters unused above
		}
		counts[s.Op] = [2]uint64{s.RowsIn, s.RowsOut}
	}
	return windows, counts
}

// TestBatchSizeInvariance is the punctuation/batch interleaving
// property test: every vectorization width — one row a message
// included — must produce identical window contents and identical
// EXPLAIN ANALYZE row counts.
func TestBatchSizeInvariance(t *testing.T) {
	wantWindows, wantCounts := windowRun(t, 1)
	if len(wantWindows) != 3 {
		t.Fatalf("width 1 produced %d windows, want 3", len(wantWindows))
	}
	for _, rows := range wantWindows {
		if len(rows) != 2 { // two groups per window
			t.Fatalf("width 1 window has %d partials, want 2: %v", len(rows), rows)
		}
	}
	for _, bs := range []int{7, 64, 1024} {
		gotWindows, gotCounts := windowRun(t, bs)
		if !reflect.DeepEqual(gotWindows, wantWindows) {
			t.Fatalf("batch size %d window contents diverged:\n got %v\nwant %v", bs, gotWindows, wantWindows)
		}
		if !reflect.DeepEqual(gotCounts, wantCounts) {
			t.Fatalf("batch size %d row counters diverged:\n got %v\nwant %v", bs, gotCounts, wantCounts)
		}
	}
}
