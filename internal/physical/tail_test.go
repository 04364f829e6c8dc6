package physical

import (
	"context"
	"fmt"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/agg"
	"repro/internal/dataflow"
	"repro/internal/tuple"
)

// tailWidths are the vectorization widths every coordinator-tail test
// runs at: one row a message, a width that leaves ragged final
// batches, and the default.
var tailWidths = []int{1, 7, dataflow.DefaultBatchSize}

// runTail pushes rows through one operator at the given batch width
// and returns what it emitted. A pipeline still running after ten
// seconds has stalled.
func runTail(t testing.TB, rows []tuple.Tuple, width int, op OpFunc) []tuple.Tuple {
	t.Helper()
	p := NewPipeline("test")
	src := p.Add("src", SliceSource(rows, width))
	node := p.Add("op", op)
	p.Connect(src, node)
	var got []tuple.Tuple
	p.Connect(node, p.Add("sink", Collect(&got)))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := p.Run(ctx); err != nil || ctx.Err() != nil {
		t.Fatalf("pipeline: %v (context: %v)", err, ctx.Err())
	}
	return got
}

// forWidths runs fn as one subtest per batch width.
func forWidths(t *testing.T, fn func(t *testing.T, width int)) {
	for _, w := range tailWidths {
		w := w
		t.Run(fmt.Sprintf("width=%d", w), func(t *testing.T) { fn(t, w) })
	}
}

func ints(vals ...int64) []tuple.Tuple {
	out := make([]tuple.Tuple, len(vals))
	for i, v := range vals {
		out[i] = tuple.Tuple{tuple.Int(v)}
	}
	return out
}

func TestTopK(t *testing.T) {
	rows := []tuple.Tuple{row("a", 5), row("b", 9), row("c", 1), row("d", 7), row("e", 3)}
	forWidths(t, func(t *testing.T, w int) {
		got := runTail(t, rows, w, TopK(3, []int{1}, []bool{true}, w))
		if len(got) != 3 || got[0][0].S != "b" || got[1][0].S != "d" || got[2][0].S != "a" {
			t.Fatalf("top-3 wrong: %v", got)
		}
		// k <= 0 is a full ORDER BY.
		got = runTail(t, ints(3, 1, 2), w, TopK(0, []int{0}, nil, w))
		if len(got) != 3 || got[0][0].I != 1 || got[1][0].I != 2 || got[2][0].I != 3 {
			t.Fatalf("full sort wrong: %v", got)
		}
	})
}

// TestTopKTiesStable: rows that tie on the sort key keep arrival
// order, so a repeated query cuts the same k.
func TestTopKTiesStable(t *testing.T) {
	rows := []tuple.Tuple{row("a", 1), row("b", 1), row("c", 1)}
	forWidths(t, func(t *testing.T, w int) {
		got := runTail(t, rows, w, TopK(2, []int{1}, []bool{true}, w))
		if len(got) != 2 || got[0][0].S != "a" || got[1][0].S != "b" {
			t.Fatalf("ties cut to %v, want a then b", got)
		}
	})
}

// TestPropTopKMatchesSortOracle: for random inputs and random k, TopK
// equals sorting the whole input and taking the first k.
func TestPropTopKMatchesSortOracle(t *testing.T) {
	forWidths(t, func(t *testing.T, w int) {
		f := func(vals []int16, kRaw uint8) bool {
			if len(vals) == 0 {
				return true
			}
			k := int(kRaw)%len(vals) + 1
			rows := make([]tuple.Tuple, len(vals))
			for i, v := range vals {
				rows[i] = tuple.Tuple{tuple.Int(int64(v)), tuple.Int(int64(i))}
			}
			got := runTail(t, rows, w, TopK(k, []int{0}, []bool{true}, w))
			oracle := append([]tuple.Tuple(nil), rows...)
			sort.SliceStable(oracle, func(i, j int) bool { return oracle[i][0].I > oracle[j][0].I })
			oracle = oracle[:k]
			if len(got) != k {
				return false
			}
			for i := range got {
				if !got[i].Equal(oracle[i]) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestDistinct(t *testing.T) {
	forWidths(t, func(t *testing.T, w int) {
		got := runTail(t, ints(1, 2, 1, 3, 2, 1), w, Distinct())
		if len(got) != 3 || got[0][0].I != 1 || got[1][0].I != 2 || got[2][0].I != 3 {
			t.Fatalf("got %v, want first arrivals 1 2 3", got)
		}
	})
}

// TestPropDistinctIdempotent: Distinct twice equals Distinct once, and
// the output has no duplicates.
func TestPropDistinctIdempotent(t *testing.T) {
	forWidths(t, func(t *testing.T, w int) {
		f := func(vals []uint8) bool {
			rows := make([]tuple.Tuple, len(vals))
			for i, v := range vals {
				rows[i] = tuple.Tuple{tuple.Int(int64(v % 8))}
			}
			once := runTail(t, rows, w, Distinct())
			twice := runTail(t, once, w, Distinct())
			if len(once) != len(twice) {
				return false
			}
			seen := map[int64]bool{}
			for _, r := range once {
				if seen[r[0].I] {
					return false
				}
				seen[r[0].I] = true
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestLimit(t *testing.T) {
	forWidths(t, func(t *testing.T, w int) {
		got := runTail(t, ints(1, 2, 3, 4, 5), w, Limit(2))
		if len(got) != 2 || got[0][0].I != 1 || got[1][0].I != 2 {
			t.Fatalf("got %v", got)
		}
	})
}

// TestLimitDrainsUpstream: the producer emits hundreds of batches past
// the limit; Limit must take and drop them all so the graph still
// terminates with the first row alone.
func TestLimitDrainsUpstream(t *testing.T) {
	forWidths(t, func(t *testing.T, w int) {
		rows := make([]tuple.Tuple, 640*w)
		for i := range rows {
			rows[i] = tuple.Tuple{tuple.Int(int64(i))}
		}
		if got := runTail(t, rows, w, Limit(1)); len(got) != 1 {
			t.Fatalf("got %d rows", len(got))
		}
	})
}

// TestPartialAggEmptyInputFormsNoGroup: with no input rows and no
// group columns no group ever forms, so a streaming COUNT(*) emits
// nothing rather than 0 — PIER semantics, documented.
func TestPartialAggEmptyInputFormsNoGroup(t *testing.T) {
	forWidths(t, func(t *testing.T, w int) {
		got := runTail(t, nil, w, PartialAgg(nil, []agg.AggSpec{{Func: agg.Count, ArgCol: -1}}, false, true, w))
		if len(got) != 0 {
			t.Fatalf("got %v", got)
		}
	})
}
