package physical

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/bloom"
	"repro/internal/dataflow"
	"repro/internal/expr"
	"repro/internal/id"
	"repro/internal/plan"
	"repro/internal/spill"
	"repro/internal/tuple"
)

// runOp executes a single operator over a scripted input stream (nil:
// the operator is a source, and gets no input) and returns everything
// it emitted.
func runOp(t *testing.T, op OpFunc, in []dataflow.Msg) []dataflow.Msg {
	t.Helper()
	if in == nil {
		return runOpN(t, op, nil)
	}
	return runOpN(t, op, [][]dataflow.Msg{in})
}

// runOpN is runOp with one scripted stream per input port.
func runOpN(t *testing.T, op OpFunc, ins [][]dataflow.Msg) []dataflow.Msg {
	t.Helper()
	p := NewPipeline("test")
	srcs := make([]*dataflow.Node, len(ins))
	for i, stream := range ins {
		srcs[i] = p.Add(fmt.Sprintf("src%d", i), script(stream))
	}
	node := p.Add("op", op)
	for _, s := range srcs {
		p.Connect(s, node)
	}
	var got []dataflow.Msg
	p.Connect(node, p.Add("sink", msgSink(func(m dataflow.Msg) { got = append(got, m) })))
	if err := p.Run(context.Background()); err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	return got
}

// script is a source emitting the messages of stream in order.
func script(stream []dataflow.Msg) OpFunc {
	return func(c *Counters) dataflow.RunFunc {
		return func(out *dataflow.Out) dataflow.Op {
			return dataflow.Op{Source: func() {
				for _, m := range stream {
					out.Emit(m)
				}
			}}
		}
	}
}

// msgSink is a sink handing every message, marker or data, to f.
func msgSink(f func(m dataflow.Msg)) OpFunc {
	return func(c *Counters) dataflow.RunFunc {
		return func(out *dataflow.Out) dataflow.Op {
			return dataflow.Op{Push: func(_ int, m dataflow.Msg) { f(m) }}
		}
	}
}

// one is a one-row data message in window seq.
func one(t tuple.Tuple, seq uint64) dataflow.Msg {
	return dataflow.BatchMsg([]tuple.Tuple{t}, seq)
}

// sample is one continuous-query sample, as the node admits it.
func sample(t tuple.Tuple, at time.Time) dataflow.Msg {
	return dataflow.Msg{Kind: dataflow.Data, Batch: []tuple.Tuple{t}, Time: at}
}

func dataMsgs(ms []dataflow.Msg) []tuple.Tuple {
	var out []tuple.Tuple
	for _, m := range ms {
		out = append(out, m.Batch...)
	}
	return out
}

// dataSeqs returns one window stamp per data tuple, batch-expanded.
func dataSeqs(ms []dataflow.Msg) []uint64 {
	var out []uint64
	for _, m := range ms {
		for range m.Batch {
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
		one(row("a", 3), 0),
		one(row("b", 7), 0),
		dataflow.PunctMsg(1, time.Now()),
		one(row("c", 9), 0),
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
	got := runOp(t, Filter(pred), []dataflow.Msg{one(row("a", 3), 0)})
	if len(dataMsgs(got)) != 0 {
		t.Fatalf("error row not dropped")
	}
}

func TestProjectComputesColumns(t *testing.T) {
	exprs := []expr.Expr{
		&expr.Col{Index: 1},
		&expr.Arith{Op: expr.Add, L: &expr.Col{Index: 1}, R: &expr.Lit{V: tuple.Int(10)}},
	}
	got := runOp(t, Project(exprs), []dataflow.Msg{one(row("a", 5), 0)})
	rows := dataMsgs(got)
	if len(rows) != 1 || !rows[0].Equal(row(5, 15)) {
		t.Fatalf("got %v", rows)
	}
}

func TestBloomProbeSuppresses(t *testing.T) {
	f := bloom.NewWithBits(1024, 3)
	f.Add(row(1).Bytes())
	// A message's container belongs to whoever receives it: each run
	// gets its own.
	in := func() []dataflow.Msg {
		return []dataflow.Msg{
			one(row(1, "keep"), 0),
			one(row(2, "drop"), 0),
		}
	}
	got := runOp(t, BloomProbe(f, []int{0}), in())
	rows := dataMsgs(got)
	if len(rows) != 1 || rows[0][1].S != "keep" {
		t.Fatalf("got %v", rows)
	}
	// Nil filter passes everything.
	got = runOp(t, BloomProbe(nil, []int{0}), in())
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
		one(row("a", 1), 4),
		dataflow.BatchMsg([]tuple.Tuple{row("b", 2), row("c", 3)}, 4),
	}
	runOp(t, RehashExchange(2, 1, []int{1}, ship, nil, nil), in)
	if len(ships) != 3 {
		t.Fatalf("%d ships", len(ships))
	}
	// Key encodings must be canonical — identical to Project+Bytes —
	// for a one-row message and a wider one.
	if ships[0].side != 1 || ships[0].window != 4 || ships[0].key != string(row(1).Bytes()) {
		t.Fatalf("bad ship %+v", ships[0])
	}
	if ships[2].key != string(row(3).Bytes()) {
		t.Fatalf("bad batched ship key %x", ships[2].key)
	}
}

// fetchFixture is a published right table k → (k, info-k, blurb) for k
// in 1..3, keyed on column 0, of which the plan reads k and info; each
// key also holds a stored row of another arity, which a probe skips.
// Left rows (node, k) join it on left[1] = right[0].
func fetchFixture() (right *plan.ScanSpec, fetch func(context.Context, id.ID) ([][]byte, error), joined func(node string, k int) tuple.Tuple) {
	rightRows := map[id.ID][][]byte{}
	for k := 1; k <= 3; k++ {
		rightRows[row(k).HashKey([]int{0})] = [][]byte{
			row(k, fmt.Sprintf("info-%d", k), "blurb").Bytes(),
			row(k, "two columns").Bytes(),
		}
	}
	right = &plan.ScanSpec{Stored: 3, Cols: []int{0, 1}}
	fetch = func(ctx context.Context, rid id.ID) ([][]byte, error) { return rightRows[rid], nil }
	joined = func(node string, k int) tuple.Tuple {
		return row(node, k).Concat(tuple.Narrow(row(k, fmt.Sprintf("info-%d", k), "blurb"), right.Cols))
	}
	return right, fetch, joined
}

func TestFetchMatchesProbes(t *testing.T) {
	right, fetch, joined := fetchFixture()
	in := []dataflow.Msg{
		one(row("a", 2), 0),
		one(row("b", 9), 0), // no match
	}
	got := runOp(t, FetchMatchesAdaptive([]int{1}, right, []int{1}, []int{0}, fetch, nil), in)
	rows := dataMsgs(got)
	if len(rows) != 1 || !rows[0].Equal(joined("a", 2)) || !rows[0][:4].Equal(row("a", 2, 2, "info-2")) {
		t.Fatalf("got %v, want %v", rows, joined("a", 2))
	}
}

// TestFetchMatchesSwitchPartitionsStream trips the mid-flight switch
// inside a batch: the rows before the threshold are probed and never
// shipped, the rows from it on are shipped (with canonical rehash keys)
// and never probed.
func TestFetchMatchesSwitchPartitionsStream(t *testing.T) {
	right, fetch, joined := fetchFixture()
	var shipped []tuple.Tuple
	var switches []int
	adapt := &FetchAdapt{
		Stage:     4,
		Threshold: 3,
		LeftCols:  []int{1},
		Rehash: func(stage, side int, window uint64, keys [][]byte, ts []tuple.Tuple) int {
			if stage != 4 || side != 0 || window != 6 || len(keys) != len(ts) {
				t.Errorf("rehash(stage %d, side %d, window %d, %d keys, %d rows)", stage, side, window, len(keys), len(ts))
			}
			for i, lt := range ts {
				if string(keys[i]) != string(lt.Project([]int{1}).Bytes()) {
					t.Errorf("rehash key of %v is %x", lt, keys[i])
				}
			}
			shipped = append(shipped, ts...)
			return len(ts)
		},
		OnSwitch: func(stage int) { switches = append(switches, stage) },
	}
	in := []dataflow.Msg{
		dataflow.BatchMsg([]tuple.Tuple{row("a", 1), row("b", 2)}, 6),
		dataflow.BatchMsg([]tuple.Tuple{row("c", 3), row("d", 1), row("e", 2)}, 6),
		one(row("f", 3), 6),
	}
	got := runOp(t, FetchMatchesAdaptive([]int{1}, right, []int{1}, []int{0}, fetch, adapt), in)
	probed := dataMsgs(got)
	if len(probed) != 3 || !probed[0].Equal(joined("a", 1)) || !probed[1].Equal(joined("b", 2)) || !probed[2].Equal(joined("c", 3)) {
		t.Fatalf("probed %v, want the first three rows joined", probed)
	}
	if len(shipped) != 3 || !shipped[0].Equal(row("d", 1)) || !shipped[1].Equal(row("e", 2)) || !shipped[2].Equal(row("f", 3)) {
		t.Fatalf("shipped %v, want the rows from the fourth on", shipped)
	}
	if fmt.Sprint(switches) != "[4]" {
		t.Fatalf("OnSwitch calls %v, want one for stage 4", switches)
	}
}

// runHybridJoin feeds the scripted sides into one HybridJoin through
// inlets, as a collector's arrivals come, follows them with a Drain
// marker once the join has taken every row (the two inlets are not
// ordered against each other), and returns what the join emitted and
// its counters.
func runHybridJoin(t *testing.T, cfg HybridJoinConfig, left, right []dataflow.Msg) ([]dataflow.Msg, plan.OpStats) {
	t.Helper()
	p := NewPipeline("test")
	inlets := [2]*Inlet{NewInlet(), NewInlet()}
	l := p.Add("src.l", inlets[0].Source)
	r := p.Add("src.r", inlets[1].Source)
	jp := p.Add("hybrid-join", HybridJoin([2]int{2, 2}, [2][]int{{1}, {0}}, cfg))
	p.Connect(l, jp)
	p.Connect(r, jp)
	var got []dataflow.Msg
	p.Connect(jp, p.Add("sink", msgSink(func(m dataflow.Msg) { got = append(got, m) })))
	run, err := p.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	fed := 0
	for side, stream := range [][]dataflow.Msg{left, right} {
		for _, m := range stream {
			fed += len(m.Batch)
			inlets[side].Push(m)
		}
	}
	for deadline := time.Now().Add(10 * time.Second); p.Stats()[2].RowsIn < uint64(fed); {
		if time.Now().After(deadline) {
			run.Stop()
			t.Fatalf("join took %d of %d rows", p.Stats()[2].RowsIn, fed)
		}
		time.Sleep(100 * time.Microsecond)
	}
	inlets[0].Push(dataflow.DrainMsg(1))
	inlets[0].Close()
	inlets[1].Close()
	if err := run.Wait(); err != nil {
		t.Fatal(err)
	}
	return got, p.Stats()[2]
}

func TestHybridJoinMatchesDedupsAndIsolatesWindows(t *testing.T) {
	lt := row("a", 1)
	rt := row(1, "x")
	left := []dataflow.Msg{
		one(lt, 0),
		one(lt, 0), // retransmit: deduped
		one(lt, 7), // other window: no match there
	}
	got, _ := runHybridJoin(t, HybridJoinConfig{}, left, []dataflow.Msg{one(rt, 0)})
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

	// The same three properties under a budget the build state outgrows:
	// partitions spill, later arrivals (retransmits among them) land in
	// the spill files unjoined, and the Drain marker's pass re-joins them.
	mgr, err := spill.NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	const nLeft, nRight = 400, 50
	var lefts, rights []tuple.Tuple
	for i := 0; i < nLeft; i++ {
		lefts = append(lefts, row(fmt.Sprintf("node-%d", i), i%nRight))
	}
	for k := 0; k < nRight; k++ {
		rights = append(rights, row(k, fmt.Sprintf("info-%d", k)))
	}
	chunk := func(ts []tuple.Tuple, seq uint64) []dataflow.Msg {
		var out []dataflow.Msg
		for off := 0; off < len(ts); off += 16 {
			end := off + 16
			if end > len(ts) {
				end = len(ts)
			}
			out = append(out, dataflow.BatchMsg(append([]tuple.Tuple(nil), ts[off:end]...), seq))
		}
		return out
	}
	left = append(chunk(lefts, 0), chunk(lefts[:100], 0)...) // the first hundred again
	left = append(left, chunk(lefts[:32], 7)...)             // and some in a window with no right side
	got, st := runHybridJoin(t, HybridJoinConfig{Budget: 4 << 10, Spill: mgr, Label: "t"}, left, chunk(rights, 0))
	if st.Spilled == 0 || st.Passes == 0 {
		t.Fatalf("4 KB budget: spilled %d bytes in %d passes — the join never left memory", st.Spilled, st.Passes)
	}
	seen := map[string]int{}
	seqs := dataSeqs(got)
	for i, r := range dataMsgs(got) {
		if len(r) != 4 || !r[1].Equal(r[2]) || seqs[i] != 0 {
			t.Fatalf("joined row %v in window %d", r, seqs[i])
		}
		seen[r[0].S]++
	}
	if len(seen) != nLeft {
		t.Fatalf("%d of %d left rows joined", len(seen), nLeft)
	}
	for node, n := range seen {
		if n != 1 {
			t.Fatalf("%s joined %d times, want 1", node, n)
		}
	}
}

// TestMarkersCarryNoRows feeds a punctuation and a drain marker, and no
// data, through every operator: none may hand on — downstream or to its
// ship callback — a row it was not given.
func TestMarkersCarryNoRows(t *testing.T) {
	right, fetch, _ := fetchFixture()
	aggs := []agg.AggSpec{{Func: agg.Sum, ArgCol: 1}}
	pred := &expr.Cmp{Op: expr.GT, L: &expr.Col{Index: 1}, R: &expr.Lit{V: tuple.Int(5)}}
	called := 0
	take := func(ts []tuple.Tuple) int { called += len(ts); return 0 }
	rehash := func(_, _ int, _ uint64, _ [][]byte, ts []tuple.Tuple) int { return take(ts) }
	ship := func(_ uint64, ts []tuple.Tuple) int { return take(ts) }
	var collected []tuple.Tuple
	fo := NewFanOut()
	_, windows := fo.Subscribe(4)
	ops := map[string]OpFunc{
		"filter":          Filter(pred),
		"project":         Project([]expr.Expr{&expr.Col{Index: 0}}),
		"bloom-probe":     BloomProbe(nil, []int{0}),
		"window":          WindowBuffer(time.Second, 4),
		"fetch-matches":   FetchMatchesAdaptive([]int{1}, right, []int{1}, []int{0}, fetch, &FetchAdapt{Threshold: 1, LeftCols: []int{1}, Rehash: rehash}),
		"fetch-collector": FetchCollector([]int{1}, right, 2, []int{1}, []int{0}, fetch),
		"hybrid-join":     HybridJoin([2]int{2, 2}, [2][]int{{1}, {0}}, HybridJoinConfig{}),
		"partial-agg":     PartialAgg([]int{0}, aggs, false, true, 4),
		"partial-eager":   PartialAgg([]int{0}, aggs, true, false, 4),
		"final-agg":       FinalAgg([]int{0}, aggs, time.Millisecond, 4),
		"rehash":          RehashExchange(0, 0, []int{0}, rehash, nil, nil),
		"ship-partial":    ShipPartial(ship, nil, nil),
		"ship-rows":       ShipRows(ship, 4, false, nil, nil),
		"ship-rows-eager": ShipRows(ship, 4, true, nil, nil),
		"func-sink":       FuncSink(func(tuple.Tuple) { called++ }),
		"distinct":        Distinct(),
		"top-k":           TopK(3, []int{0}, []bool{false}, 4),
		"limit":           Limit(3),
		"collect":         Collect(&collected),
		"fan-out":         fo.Op(),
	}
	markers := []dataflow.Msg{dataflow.PunctMsg(1, time.Now()), dataflow.DrainMsg(2)}
	for name, op := range ops {
		if rows := dataMsgs(runOp(t, op, markers)); len(rows) != 0 {
			t.Errorf("%s emitted %v", name, rows)
		}
		if called != 0 || len(collected) != 0 {
			t.Errorf("%s handed on %d rows it was never given", name, called+len(collected))
			called, collected = 0, nil
		}
	}
	for w := range windows {
		t.Errorf("fan-out delivered window %+v", w)
	}
}

func TestPartialAggBatchFlushesOnPunctAndEOS(t *testing.T) {
	aggs := []agg.AggSpec{{Func: agg.Sum, ArgCol: 1}}
	in := func() []dataflow.Msg { // the operator recycles what it is sent
		return []dataflow.Msg{
			one(row("a", 1), 3),
			one(row("a", 2), 3),
			dataflow.PunctMsg(3, time.Now()),
			one(row("b", 5), 4),
		}
	}
	got := runOp(t, PartialAgg([]int{0}, aggs, false, true, 1), in())
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
	got = runOp(t, PartialAgg([]int{0}, aggs, false, false, 1), in())
	if len(dataMsgs(got)) != 1 {
		t.Fatalf("continuous mode flushed the open window: %v", dataMsgs(got))
	}
}

func TestPartialAggEagerEmitsPerRow(t *testing.T) {
	aggs := []agg.AggSpec{{Func: agg.Count, ArgCol: -1}}
	in := []dataflow.Msg{
		one(row("a", 1), 2),
		one(row("a", 9), 2),
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
	p.Connect(fa, p.Add("sink", msgSink(func(m dataflow.Msg) {
		mu.Lock()
		if m.Kind == dataflow.Data {
			cur = append(cur, m.Batch...)
		} else {
			flushes = append(flushes, cur)
			cur = nil
		}
		mu.Unlock()
	})))
	run, err := p.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Two partials for one group (window 5) merge before the hold.
	in.Push(one(row("g", 2), 5))
	in.Push(one(row("g", 3), 5))
	time.Sleep(120 * time.Millisecond)
	mu.Lock()
	if len(flushes) != 1 || len(flushes[0]) != 1 || !flushes[0][0].Equal(row("g", 5)) {
		mu.Unlock()
		t.Fatalf("first flush: %v", flushes)
	}
	mu.Unlock()
	// A straggler triggers a refined re-flush of the whole window.
	in.Push(one(row("g", 10), 5))
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
		sample(row("old", 1), base.Add(-2*time.Second)),
		sample(row("new", 2), base.Add(-200*time.Millisecond)),
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
		sample(row("late", 1), base.Add(time.Millisecond)),
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
	in.Push(sample(row("s", 1), time.Now()))
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
	// run pushes ms into an inlet and closes it before the pipeline
	// runs, so the operator finds all of them already waiting.
	run := func(op OpFunc, ms ...dataflow.Msg) {
		p := NewPipeline("test")
		in := NewInlet()
		p.Connect(p.Add("src", in.Source), p.Add("ship-rows", op))
		for _, m := range ms {
			in.Push(m)
		}
		in.Close()
		if err := p.Run(context.Background()); err != nil {
			t.Errorf("ship-rows: %v", err)
		}
	}
	check := func(what string, want ...call) {
		t.Helper()
		if fmt.Sprint(calls) != fmt.Sprint(want) {
			t.Fatalf("%s: calls %v, want %v", what, calls, want)
		}
		calls = nil
	}

	msgs := func() []dataflow.Msg { // the sink recycles what it is sent
		return []dataflow.Msg{
			one(row(1), 1),
			one(row(2), 1),
			one(row(3), 1),
			one(row(4), 2),                   // seq change flushes
			dataflow.PunctMsg(2, time.Now()), // punct flushes
		}
	}
	// row(i) for i < 64 is a 3-byte encoding plus its 1-byte length
	// prefix: an 8-byte budget holds two.
	const two = 8
	run(ShipRows(ship, two, false, nil, nil), msgs()...)
	check("batched", call{1, 2}, call{1, 1}, call{2, 1})
	// Eager with the same input already waiting: the same frames.
	run(ShipRows(ship, two, true, nil, nil), msgs()...)
	check("eager, input ready", call{1, 2}, call{1, 1}, call{2, 1})

	// Eager, a node that is behind: N waiting rows leave in whole
	// frames. A frame closes only when the next record (at most 5 bytes
	// here) would overflow it, so every frame but the last carries more
	// than budget-5 bytes.
	const n, budget = 200, 64
	backlog := make([]dataflow.Msg, n)
	bytes := 0
	for i := range backlog {
		backlog[i] = one(row(i), 0)
		bytes += row(i).EncodedLen() + 1
	}
	run(ShipRows(ship, budget, true, nil, nil), backlog...)
	if len(calls) > bytes/(budget-5)+1 {
		t.Fatalf("%d waiting rows (%d bytes) shipped in %d calls: %v", n, bytes, len(calls), calls)
	}
	total := 0
	for _, c := range calls {
		total += c.n
	}
	if total != n {
		t.Fatalf("shipped %d of %d rows: %v", total, n, calls)
	}
	calls = nil

	// A row larger than the budget ships alone, between whole frames.
	wide := row(strings.Repeat("w", 3*two))
	run(ShipRows(ship, two, false, nil, nil), one(row(1), 4), one(wide, 4), one(row(2), 4), one(row(3), 4))
	check("oversized row", call{4, 1}, call{4, 1}, call{4, 2})

	// Eager, an idle node: each row leaves the moment nothing else is
	// waiting — the feeder pushes the next only after the last shipped.
	p := NewPipeline("test")
	feed := NewInlet()
	shipped := make(chan int)
	p.Connect(p.Add("src", feed.Source), p.Add("ship-rows", ShipRows(func(_ uint64, rows []tuple.Tuple) int {
		shipped <- len(rows)
		return len(rows)
	}, RowFrameBytes, true, nil, nil)))
	running, err := p.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		feed.Push(one(row(i), 0))
		if got := <-shipped; got != 1 {
			t.Fatalf("row %d shipped in a call of %d rows", i, got)
		}
	}
	feed.Close()
	if err := running.Wait(); err != nil {
		t.Fatal(err)
	}

	// A Drain behind held rows: the rows ship, then routes flush, then
	// the round is acknowledged.
	var order []string
	run(ShipRows(func(_ uint64, rows []tuple.Tuple) int {
		order = append(order, fmt.Sprintf("ship %d", len(rows)))
		return len(rows)
	}, RowFrameBytes, true,
		func() { order = append(order, "flush-routes") },
		func(round uint64) { order = append(order, fmt.Sprintf("ack %d", round)) }),
		one(row(1), 0), one(row(2), 0), one(row(3), 0), dataflow.DrainMsg(7))
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
		one(row("g", 1), 1),
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
		in.Push(one(row(i), 0)) // far beyond any channel depth
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
