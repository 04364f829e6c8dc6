package physical

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/bloom"
	"repro/internal/dataflow"
	"repro/internal/expr"
	"repro/internal/id"
	"repro/internal/plan"
	"repro/internal/tuple"
)

// runOp executes a single operator over a scripted input stream and
// returns everything it emitted.
func runOp(t *testing.T, op OpFunc, in []dataflow.Msg) []dataflow.Msg {
	t.Helper()
	return runOpN(t, op, [][]dataflow.Msg{in})
}

// runOpN is runOp with one scripted stream per input port.
func runOpN(t *testing.T, op OpFunc, ins [][]dataflow.Msg) []dataflow.Msg {
	t.Helper()
	p := NewPipeline("test")
	srcs := make([]*dataflow.Node, len(ins))
	for i, stream := range ins {
		stream := stream
		srcs[i] = p.Add(fmt.Sprintf("src%d", i), func(c *Counters) dataflow.RunFunc {
			return func(ctx context.Context, _ []<-chan dataflow.Msg, outs []chan<- dataflow.Msg) error {
				for _, m := range stream {
					if !dataflow.EmitAll(ctx, outs, m) {
						return nil
					}
				}
				return nil
			}
		})
	}
	node := p.Add("op", op)
	for _, s := range srcs {
		p.Connect(s, node)
	}
	var mu sync.Mutex
	var got []dataflow.Msg
	sink := p.Add("sink", func(c *Counters) dataflow.RunFunc {
		return func(ctx context.Context, sinkIns []<-chan dataflow.Msg, _ []chan<- dataflow.Msg) error {
			for m := range dataflow.Merge(ctx, sinkIns) {
				mu.Lock()
				got = append(got, m)
				mu.Unlock()
			}
			return nil
		}
	})
	p.Connect(node, sink)
	if err := p.Run(context.Background()); err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	return got
}

func dataMsgs(ms []dataflow.Msg) []tuple.Tuple {
	var out []tuple.Tuple
	for _, m := range ms {
		if m.Kind != dataflow.Data {
			continue
		}
		if m.Batch != nil {
			out = append(out, m.Batch...)
		} else {
			out = append(out, m.T)
		}
	}
	return out
}

// dataSeqs returns one window stamp per data tuple, batch-expanded.
func dataSeqs(ms []dataflow.Msg) []uint64 {
	var out []uint64
	for _, m := range ms {
		if m.Kind != dataflow.Data {
			continue
		}
		for i := 0; i < m.NRows(); i++ {
			out = append(out, m.Seq)
		}
	}
	return out
}

func punctCount(ms []dataflow.Msg) int {
	n := 0
	for _, m := range ms {
		if m.Kind == dataflow.Punct {
			n++
		}
	}
	return n
}

func row(vals ...interface{}) tuple.Tuple {
	t := make(tuple.Tuple, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case int:
			t[i] = tuple.Int(int64(x))
		case string:
			t[i] = tuple.String(x)
		case float64:
			t[i] = tuple.Float(x)
		}
	}
	return t
}

func TestScanSourceSkipsMalformed(t *testing.T) {
	good := row("a", 1).Bytes()
	wrongArity := row("b").Bytes()
	scan := func(ns string, partitions int) [][][]byte {
		if ns != "t" {
			t.Fatalf("scanned %q", ns)
		}
		return [][][]byte{{good, {0xff, 0x01}, wrongArity, good}}
	}
	for _, batchSize := range []int{1, 3, 64} {
		got := runOp(t, ScanSource(scan, "t", 2, []int{0, 1}, batchSize, 1), nil)
		rows := dataMsgs(got)
		if len(rows) != 2 {
			t.Fatalf("batch %d: got %d rows, want 2", batchSize, len(rows))
		}
		for _, r := range rows {
			if !r.Equal(row("a", 1)) {
				t.Fatalf("unexpected row %v", r)
			}
		}
	}
}

// TestScanSourceKeepsPlanColumns: the scan emits the kept columns of
// each stored row, in stored order, then the stored row's identity, and
// still refuses a row of another stored arity — here one that has
// exactly as many values as are kept. Two stored rows that differ only
// in the dropped column leave as two different rows.
func TestScanSourceKeepsPlanColumns(t *testing.T) {
	a1, a2, c := row("a", 1, "pad"), row("a", 1, "other pad"), row("c", 3, "pad")
	scan := func(string, int) [][][]byte {
		return [][][]byte{{a1.Bytes(), row("b", 2).Bytes(), a2.Bytes(), c.Bytes()}}
	}
	cols := []int{0, 1}
	for _, batchSize := range []int{1, 64} {
		rows := dataMsgs(runOp(t, ScanSource(scan, "t", 3, cols, batchSize, 1), nil))
		if len(rows) != 3 || !rows[0].Equal(tuple.Narrow(a1, cols)) || !rows[1].Equal(tuple.Narrow(a2, cols)) ||
			!rows[2].Equal(tuple.Narrow(c, cols)) {
			t.Fatalf("batch %d: got %v", batchSize, rows)
		}
		if !rows[0][:2].Equal(row("a", 1)) || rows[0].Equal(rows[1]) {
			t.Fatalf("batch %d: rows equal in the kept columns: %v, %v", batchSize, rows[0], rows[1])
		}
	}
}

func TestScanSourceParallelPartitions(t *testing.T) {
	const total = 1000
	payloads := make([][]byte, total)
	for i := range payloads {
		payloads[i] = row("n", i).Bytes()
	}
	scan := func(ns string, partitions int) [][][]byte {
		if partitions < 2 {
			t.Fatalf("compiler asked for %d partitions", partitions)
		}
		// Deal into 4 shards like dht.LScanParts would.
		out := make([][][]byte, 4)
		for i, p := range payloads {
			out[i%4] = append(out[i%4], p)
		}
		return out
	}
	got := runOp(t, ScanSource(scan, "t", 2, []int{0, 1}, 16, 4), nil)
	rows := dataMsgs(got)
	if len(rows) != total {
		t.Fatalf("parallel scan emitted %d rows, want %d", len(rows), total)
	}
	seen := make(map[int64]bool)
	for _, r := range rows {
		seen[r[1].I] = true
	}
	if len(seen) != total {
		t.Fatalf("parallel scan lost rows: %d distinct of %d", len(seen), total)
	}
}

func TestFilterDropsAndForwardsPuncts(t *testing.T) {
	pred := &expr.Cmp{Op: expr.GT, L: &expr.Col{Index: 1}, R: &expr.Lit{V: tuple.Int(5)}}
	in := []dataflow.Msg{
		dataflow.DataMsg(row("a", 3)),
		dataflow.DataMsg(row("b", 7)),
		dataflow.PunctMsg(1, time.Now()),
		dataflow.DataMsg(row("c", 9)),
	}
	got := runOp(t, Filter(pred), in)
	rows := dataMsgs(got)
	if len(rows) != 2 || !rows[0].Equal(row("b", 7)) || !rows[1].Equal(row("c", 9)) {
		t.Fatalf("got %v", rows)
	}
	if punctCount(got) != 1 {
		t.Fatalf("punct not forwarded")
	}
}

func TestFilterDropsEvalErrors(t *testing.T) {
	// Column index out of range → eval error → row dropped, not fatal.
	pred := &expr.Cmp{Op: expr.GT, L: &expr.Col{Index: 9}, R: &expr.Lit{V: tuple.Int(5)}}
	got := runOp(t, Filter(pred), []dataflow.Msg{dataflow.DataMsg(row("a", 3))})
	if len(dataMsgs(got)) != 0 {
		t.Fatalf("error row not dropped")
	}
}

func TestProjectComputesColumns(t *testing.T) {
	exprs := []expr.Expr{
		&expr.Col{Index: 1},
		&expr.Arith{Op: expr.Add, L: &expr.Col{Index: 1}, R: &expr.Lit{V: tuple.Int(10)}},
	}
	got := runOp(t, Project(exprs), []dataflow.Msg{dataflow.DataMsg(row("a", 5))})
	rows := dataMsgs(got)
	if len(rows) != 1 || !rows[0].Equal(row(5, 15)) {
		t.Fatalf("got %v", rows)
	}
}

func TestBloomProbeSuppresses(t *testing.T) {
	f := bloom.NewWithBits(1024, 3)
	f.Add(row(1).Bytes())
	in := []dataflow.Msg{
		dataflow.DataMsg(row(1, "keep")),
		dataflow.DataMsg(row(2, "drop")),
	}
	got := runOp(t, BloomProbe(f, []int{0}), in)
	rows := dataMsgs(got)
	if len(rows) != 1 || rows[0][1].S != "keep" {
		t.Fatalf("got %v", rows)
	}
	// Nil filter passes everything.
	got = runOp(t, BloomProbe(nil, []int{0}), in)
	if len(dataMsgs(got)) != 2 {
		t.Fatal("nil filter should pass all")
	}
}

func TestRehashExchangeRoutes(t *testing.T) {
	var mu sync.Mutex
	type shipped struct {
		side   int
		window uint64
		key    string
	}
	var ships []shipped
	ship := func(stage, side int, window uint64, keys [][]byte, ts []tuple.Tuple) int {
		mu.Lock()
		for _, key := range keys {
			ships = append(ships, shipped{side, window, string(key)})
		}
		mu.Unlock()
		if stage != 2 {
			t.Errorf("stage %d, want 2", stage)
		}
		if len(keys) != len(ts) {
			t.Errorf("%d keys for %d tuples", len(keys), len(ts))
		}
		return len(keys)
	}
	in := []dataflow.Msg{
		{Kind: dataflow.Data, T: row("a", 1), Seq: 4},
		dataflow.BatchMsg([]tuple.Tuple{row("b", 2), row("c", 3)}, 4),
	}
	runOp(t, RehashExchange(2, 1, []int{1}, ship, nil, nil), in)
	if len(ships) != 3 {
		t.Fatalf("%d ships", len(ships))
	}
	// Key encodings must be canonical — identical to Project+Bytes —
	// for both the singleton and the batched form.
	if ships[0].side != 1 || ships[0].window != 4 || ships[0].key != string(row(1).Bytes()) {
		t.Fatalf("bad ship %+v", ships[0])
	}
	if ships[2].key != string(row(3).Bytes()) {
		t.Fatalf("bad batched ship key %x", ships[2].key)
	}
}

func TestFetchMatchesProbes(t *testing.T) {
	// Right table: k → (k, info, blurb), published keyed on column 0;
	// the plan reads k and info. A stored row of another arity under the
	// same key is skipped.
	rightRows := map[string][][]byte{}
	for k := 1; k <= 3; k++ {
		rid := row(k).HashKey([]int{0})
		rightRows[string(rid[:])] = [][]byte{
			row(k, fmt.Sprintf("info-%d", k), "blurb").Bytes(),
			row(k, "two columns").Bytes(),
		}
	}
	fetch := func(ctx context.Context, rid id.ID) ([][]byte, error) {
		return rightRows[string(rid[:])], nil
	}
	// Left (node, k) joins right (k, info) on left[1] = right[0].
	in := []dataflow.Msg{
		dataflow.DataMsg(row("a", 2)),
		dataflow.DataMsg(row("b", 9)), // no match
	}
	got := runOp(t, FetchMatches([]int{1}, &plan.ScanSpec{Stored: 3, Cols: []int{0, 1}}, []int{1}, []int{0}, fetch), in)
	rows := dataMsgs(got)
	want := row("a", 2).Concat(tuple.Narrow(row(2, "info-2", "blurb"), []int{0, 1}))
	if len(rows) != 1 || !rows[0].Equal(want) || !rows[0][:4].Equal(row("a", 2, 2, "info-2")) {
		t.Fatalf("got %v, want %v", rows, want)
	}
}

func TestJoinProbeMatchesDedupsAndIsolatesWindows(t *testing.T) {
	lt := row("a", 1)
	rt := row(1, "x")
	left := []dataflow.Msg{
		{Kind: dataflow.Data, T: lt, Seq: 0},
		{Kind: dataflow.Data, T: lt, Seq: 0}, // retransmit: deduped
		{Kind: dataflow.Data, T: lt, Seq: 7}, // other window: no match there
	}
	right := []dataflow.Msg{
		{Kind: dataflow.Data, T: rt, Seq: 0},
	}
	got := runOpN(t, JoinProbe([2]int{2, 2}, [2][]int{{1}, {0}}), [][]dataflow.Msg{left, right})
	rows := dataMsgs(got)
	if len(rows) != 1 {
		t.Fatalf("got %d joined rows, want 1 (dedup + window isolation): %v", len(rows), rows)
	}
	if !rows[0].Equal(row("a", 1, 1, "x")) {
		t.Fatalf("got %v", rows[0])
	}
	if got[0].Seq != 0 {
		t.Fatalf("joined row window %d", got[0].Seq)
	}
}

func TestPartialAggBatchFlushesOnPunctAndEOS(t *testing.T) {
	aggs := []agg.AggSpec{{Func: agg.Sum, ArgCol: 1}}
	in := []dataflow.Msg{
		{Kind: dataflow.Data, T: row("a", 1), Seq: 3},
		{Kind: dataflow.Data, T: row("a", 2), Seq: 3},
		dataflow.PunctMsg(3, time.Now()),
		{Kind: dataflow.Data, T: row("b", 5), Seq: 4},
	}
	got := runOp(t, PartialAgg([]int{0}, aggs, false, true, 1), in)
	rows := dataMsgs(got)
	if len(rows) != 2 {
		t.Fatalf("got %v", rows)
	}
	// Window 3 flushed by the punctuation, stamped with its seq.
	if !rows[0].Equal(row("a", 3)) || got[0].Seq != 3 {
		t.Fatalf("punct flush got %v seq %d", rows[0], got[0].Seq)
	}
	// Residual group flushed at end of stream.
	if !rows[1].Equal(row("b", 5)) {
		t.Fatalf("EOS flush got %v", rows[1])
	}
	if punctCount(got) != 1 {
		t.Fatal("punct not forwarded")
	}
	// Continuous mode: no EOS flush — unclosed windows never ship.
	got = runOp(t, PartialAgg([]int{0}, aggs, false, false, 1), in)
	if len(dataMsgs(got)) != 1 {
		t.Fatalf("continuous mode flushed the open window: %v", dataMsgs(got))
	}
}

func TestPartialAggEagerEmitsPerRow(t *testing.T) {
	aggs := []agg.AggSpec{{Func: agg.Count, ArgCol: -1}}
	in := []dataflow.Msg{
		{Kind: dataflow.Data, T: row("a", 1), Seq: 2},
		{Kind: dataflow.Data, T: row("a", 9), Seq: 2},
	}
	got := runOp(t, PartialAgg([]int{0}, aggs, true, false, 1), in)
	rows := dataMsgs(got)
	if len(rows) != 2 {
		t.Fatalf("eager mode emitted %d partials, want one per row", len(rows))
	}
	for _, r := range rows {
		if !r.Equal(row("a", 1)) {
			t.Fatalf("partial %v", r)
		}
	}
}

func TestFinalAggDebouncedFlushAndRefinement(t *testing.T) {
	aggs := []agg.AggSpec{{Func: agg.Sum, ArgCol: 1}}
	in := NewInlet()
	p := NewPipeline("test")
	src := p.Add("src", in.Source)
	fa := p.Add("final-agg", FinalAgg([]int{0}, aggs, 30*time.Millisecond, 1))
	p.Connect(src, fa)
	var mu sync.Mutex
	var flushes [][]tuple.Tuple
	var cur []tuple.Tuple
	sink := p.Add("sink", func(c *Counters) dataflow.RunFunc {
		return func(ctx context.Context, ins []<-chan dataflow.Msg, _ []chan<- dataflow.Msg) error {
			for m := range dataflow.Merge(ctx, ins) {
				mu.Lock()
				if m.Kind == dataflow.Data {
					cur = append(cur, m.T)
				} else {
					flushes = append(flushes, cur)
					cur = nil
				}
				mu.Unlock()
			}
			return nil
		}
	})
	p.Connect(fa, sink)
	run, err := p.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Two partials for one group (window 5) merge before the hold.
	in.Push(dataflow.Msg{Kind: dataflow.Data, T: row("g", 2), Seq: 5})
	in.Push(dataflow.Msg{Kind: dataflow.Data, T: row("g", 3), Seq: 5})
	time.Sleep(120 * time.Millisecond)
	mu.Lock()
	if len(flushes) != 1 || len(flushes[0]) != 1 || !flushes[0][0].Equal(row("g", 5)) {
		mu.Unlock()
		t.Fatalf("first flush: %v", flushes)
	}
	mu.Unlock()
	// A straggler triggers a refined re-flush of the whole window.
	in.Push(dataflow.Msg{Kind: dataflow.Data, T: row("g", 10), Seq: 5})
	time.Sleep(120 * time.Millisecond)
	mu.Lock()
	if len(flushes) != 2 || len(flushes[1]) != 1 || !flushes[1][0].Equal(row("g", 15)) {
		mu.Unlock()
		t.Fatalf("refined flush: %v", flushes)
	}
	mu.Unlock()
	in.Close()
	if err := run.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestWindowBufferEmitsWindowAndPrunes(t *testing.T) {
	base := time.Now()
	in := []dataflow.Msg{
		{Kind: dataflow.Data, T: row("old", 1), Time: base.Add(-2 * time.Second)},
		{Kind: dataflow.Data, T: row("new", 2), Time: base.Add(-200 * time.Millisecond)},
		{Kind: dataflow.Punct, Seq: 9, Time: base}, // window (base-1s, base]
		{Kind: dataflow.Punct, Seq: 10, Time: base.Add(500 * time.Millisecond)},
	}
	got := runOp(t, WindowBuffer(time.Second, 1), in)
	rows := dataMsgs(got)
	// "new" appears in both overlapping windows; "old" in neither.
	if len(rows) != 2 || !rows[0].Equal(row("new", 2)) || !rows[1].Equal(row("new", 2)) {
		t.Fatalf("got %v", rows)
	}
	var seqs []uint64
	for _, m := range got {
		if m.Kind == dataflow.Data {
			seqs = append(seqs, m.Seq)
		}
	}
	if seqs[0] != 9 || seqs[1] != 10 {
		t.Fatalf("window stamps %v", seqs)
	}
	if punctCount(got) != 2 {
		t.Fatal("punctuations not forwarded")
	}
}

func TestWindowBufferNoDoubleCountAcrossTumblingWindows(t *testing.T) {
	// A sample that arrives just AFTER a window boundary but drains
	// before the punctuation must count only toward the next window.
	base := time.Now()
	in := []dataflow.Msg{
		{Kind: dataflow.Data, T: row("late", 1), Time: base.Add(time.Millisecond)},
		{Kind: dataflow.Punct, Seq: 1, Time: base}, // window (base-1s, base]
		{Kind: dataflow.Punct, Seq: 2, Time: base.Add(time.Second)},
	}
	got := runOp(t, WindowBuffer(time.Second, 1), in)
	rows := dataMsgs(got)
	if len(rows) != 1 {
		t.Fatalf("sample counted in %d windows, want 1: %v", len(rows), got)
	}
	for _, m := range got {
		if m.Kind == dataflow.Data && m.Seq != 2 {
			t.Fatalf("late sample landed in window %d, want 2", m.Seq)
		}
	}
}

func TestWindowTickerPunctuatesAlignedBoundaries(t *testing.T) {
	in := NewInlet()
	in.Push(dataflow.Msg{Kind: dataflow.Data, T: row("s", 1), Time: time.Now()})
	slide := 50 * time.Millisecond
	got := runOp(t, WindowTicker(in, slide, 180*time.Millisecond), nil)
	if len(dataMsgs(got)) != 1 {
		t.Fatalf("sample not forwarded: %v", got)
	}
	var puncts []dataflow.Msg
	for _, m := range got {
		if m.Kind == dataflow.Punct {
			puncts = append(puncts, m)
		}
	}
	if len(puncts) < 2 {
		t.Fatalf("only %d puncts in live horizon", len(puncts))
	}
	for i, p := range puncts {
		// Absolute alignment: seq equals the boundary's slide index.
		if p.Time.UnixNano()%int64(slide) != 0 {
			t.Fatalf("boundary %v not slide-aligned", p.Time)
		}
		if p.Seq != uint64(p.Time.UnixNano()/int64(slide)) {
			t.Fatalf("seq %d does not match boundary %v", p.Seq, p.Time)
		}
		if i > 0 && p.Seq != puncts[i-1].Seq+1 {
			t.Fatalf("non-consecutive seqs %d → %d", puncts[i-1].Seq, p.Seq)
		}
	}
}

func TestShipRowsBatchedAndEager(t *testing.T) {
	type call struct {
		window uint64
		n      int
	}
	var calls []call
	ship := func(window uint64, rows []tuple.Tuple) int {
		calls = append(calls, call{window, len(rows)})
		return len(rows)
	}
	// run drives the operator body directly over one input channel the
	// test owns, so what is ready when the operator looks is the test's
	// choice, not the scheduler's.
	run := func(op OpFunc, in <-chan dataflow.Msg) {
		if err := op(&Counters{})(context.Background(), []<-chan dataflow.Msg{in}, nil); err != nil {
			t.Errorf("ship-rows: %v", err)
		}
	}
	filled := func(ms ...dataflow.Msg) <-chan dataflow.Msg {
		ch := make(chan dataflow.Msg, len(ms))
		for _, m := range ms {
			ch <- m
		}
		close(ch)
		return ch
	}
	check := func(what string, want ...call) {
		t.Helper()
		if fmt.Sprint(calls) != fmt.Sprint(want) {
			t.Fatalf("%s: calls %v, want %v", what, calls, want)
		}
		calls = nil
	}

	script := []dataflow.Msg{
		{Kind: dataflow.Data, T: row(1), Seq: 1},
		{Kind: dataflow.Data, T: row(2), Seq: 1},
		{Kind: dataflow.Data, T: row(3), Seq: 1},
		{Kind: dataflow.Data, T: row(4), Seq: 2}, // seq change flushes
		dataflow.PunctMsg(2, time.Now()),         // punct flushes
	}
	run(ShipRows(ship, 2, false, nil, nil), filled(script...))
	check("batched", call{1, 2}, call{1, 1}, call{2, 1})
	// Eager with the same input already waiting: the same frames.
	run(ShipRows(ship, 2, true, nil, nil), filled(script...))
	check("eager, input ready", call{1, 2}, call{1, 1}, call{2, 1})

	// Eager, a node that is behind: N waiting rows leave in whole
	// frames, at most ceil(N/rowBatch) + 1 calls.
	const n = 200
	backlog := make([]dataflow.Msg, n)
	for i := range backlog {
		backlog[i] = dataflow.DataMsg(row(i))
	}
	run(ShipRows(ship, rowBatch, true, nil, nil), filled(backlog...))
	if len(calls) > (n+rowBatch-1)/rowBatch+1 {
		t.Fatalf("%d waiting rows shipped in %d calls: %v", n, len(calls), calls)
	}
	total := 0
	for _, c := range calls {
		total += c.n
	}
	if total != n {
		t.Fatalf("shipped %d of %d rows: %v", total, n, calls)
	}
	calls = nil

	// Eager, an idle node: each row leaves the moment nothing else is
	// waiting — the feeder sends the next only after the last shipped.
	feed := make(chan dataflow.Msg)
	shipped := make(chan int)
	done := make(chan struct{})
	go func() {
		defer close(done)
		run(ShipRows(func(_ uint64, rows []tuple.Tuple) int {
			shipped <- len(rows)
			return len(rows)
		}, rowBatch, true, nil, nil), feed)
	}()
	for i := 0; i < 5; i++ {
		feed <- dataflow.DataMsg(row(i))
		if got := <-shipped; got != 1 {
			t.Fatalf("row %d shipped in a call of %d rows", i, got)
		}
	}
	close(feed)
	<-done

	// A Drain behind held rows: the rows ship, then routes flush, then
	// the round is acknowledged.
	var order []string
	run(ShipRows(func(_ uint64, rows []tuple.Tuple) int {
		order = append(order, fmt.Sprintf("ship %d", len(rows)))
		return len(rows)
	}, rowBatch, true,
		func() { order = append(order, "flush-routes") },
		func(round uint64) { order = append(order, fmt.Sprintf("ack %d", round)) }),
		filled(dataflow.DataMsg(row(1)), dataflow.DataMsg(row(2)), dataflow.DataMsg(row(3)), dataflow.DrainMsg(7)))
	if want := "[ship 3 flush-routes ack 7]"; fmt.Sprint(order) != want {
		t.Fatalf("drain order %v, want %s", order, want)
	}
}

func TestShipPartialFlushesRoutesOnPunct(t *testing.T) {
	var shipped, flushed int
	var mu sync.Mutex
	ship := func(window uint64, partials []tuple.Tuple) int {
		mu.Lock()
		shipped += len(partials)
		mu.Unlock()
		return len(partials)
	}
	flush := func() {
		mu.Lock()
		flushed++
		mu.Unlock()
	}
	in := []dataflow.Msg{
		{Kind: dataflow.Data, T: row("g", 1), Seq: 1},
		dataflow.BatchMsg([]tuple.Tuple{row("g", 2), row("h", 3)}, 1),
		dataflow.PunctMsg(1, time.Now()),
	}
	runOp(t, ShipPartial(ship, flush, nil), in)
	if shipped != 3 || flushed != 1 {
		t.Fatalf("shipped=%d flushed=%d", shipped, flushed)
	}
}

func TestInletNeverBlocksAndDrainsInOrder(t *testing.T) {
	in := NewInlet()
	const n = 10000
	for i := 0; i < n; i++ {
		in.Push(dataflow.DataMsg(row(i))) // far beyond any channel depth
	}
	in.Close()
	got := runOp(t, in.Source, nil)
	rows := dataMsgs(got)
	if len(rows) != n {
		t.Fatalf("drained %d of %d", len(rows), n)
	}
	for i, r := range rows {
		if r[0].I != int64(i) {
			t.Fatalf("order broken at %d: %v", i, r)
		}
	}
}

func TestPipelineStatsCount(t *testing.T) {
	p := NewPipeline("participant")
	src := p.Add("src", SliceSource([]tuple.Tuple{row("a", 1), row("b", 2)}, 1))
	pred := &expr.Cmp{Op: expr.GT, L: &expr.Col{Index: 1}, R: &expr.Lit{V: tuple.Int(1)}}
	f := p.Add("filter", Filter(pred))
	p.Connect(src, f)
	var out []tuple.Tuple
	sink := p.Add("sink", FuncSink(func(t tuple.Tuple) { out = append(out, t) }))
	p.Connect(f, sink)
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	stats := p.Stats()
	if len(stats) != 3 {
		t.Fatalf("stats %v", stats)
	}
	byOp := map[string]int{}
	for i, s := range stats {
		if s.Stage != "participant" || s.Nodes != 1 {
			t.Fatalf("stat %+v", s)
		}
		byOp[s.Op] = i
	}
	if s := stats[byOp["filter"]]; s.RowsIn != 2 || s.RowsOut != 1 || s.BytesOut == 0 {
		t.Fatalf("filter stats %+v", s)
	}
	if s := stats[byOp["sink"]]; s.RowsIn != 1 {
		t.Fatalf("sink stats %+v", s)
	}
}
