package physical

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/dataflow"
	"repro/internal/plan"
	"repro/internal/sqlparser"
	"repro/internal/tuple"
)

// compileSQL plans stmt over kv(name, qty) keyed by name and r(k, info)
// keyed by k, with every join forced to the symmetric hash join.
func compileSQL(t testing.TB, stmt string) *plan.Spec {
	t.Helper()
	cat := catalog.New()
	for _, s := range []*tuple.Schema{
		tuple.MustSchema("kv", []tuple.Column{{Name: "name", Type: tuple.TString}, {Name: "qty", Type: tuple.TInt}}, "name"),
		tuple.MustSchema("r", []tuple.Column{{Name: "k", Type: tuple.TInt}, {Name: "info", Type: tuple.TString}}, "k"),
	} {
		if _, err := cat.Define(s, time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	parsed, err := sqlparser.Parse(stmt)
	if err != nil {
		t.Fatal(err)
	}
	sym := plan.SymmetricHash
	spec, err := plan.Compile(parsed, cat, plan.Options{Strategy: &sym})
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// countingEnv is a node's Env over one stored row per table (a single
// scan shard) that counts the tasks the pipelines start and the rows
// they ship, and keeps the partials last shipped.
func countingEnv(spawned, shipped *atomic.Int64, partials *[]tuple.Tuple) *Env {
	return &Env{
		Scan: func(ns string, partitions int) [][][]byte {
			if ns == "table:kv" {
				return [][][]byte{{row("a", 3).Bytes()}}
			}
			return [][][]byte{{row(3, "x").Bytes()}}
		},
		ShipRows: func(_ uint64, rows []tuple.Tuple) int { shipped.Add(int64(len(rows))); return 0 },
		ShipPartial: func(_ uint64, ps []tuple.Tuple) int {
			shipped.Add(int64(len(ps)))
			*partials = append((*partials)[:0], ps...)
			return 0
		},
		Rehash: func(_, _ int, _ uint64, _ [][]byte, ts []tuple.Tuple) int {
			shipped.Add(int64(len(ts)))
			return 0
		},
		FlushRoutes: func() {},
		Go: func(f func()) {
			spawned.Add(1)
			go f()
		},
	}
}

// TestPipelinesStartTasks: a one-shot participant over a single-shard
// scan and a coordinator tail run in their caller and start no task; a
// collector runs on exactly one, however many inlets feed it.
func TestPipelinesStartTasks(t *testing.T) {
	ctx := context.Background()
	var spawned, shipped atomic.Int64
	var partials []tuple.Tuple
	env := countingEnv(&spawned, &shipped, &partials)
	check := func(what string, tasks, rows int64) {
		t.Helper()
		if spawned.Load() != tasks || shipped.Load() != rows {
			t.Fatalf("%s: started %d tasks and shipped %d rows, want %d and %d", what, spawned.Load(), shipped.Load(), tasks, rows)
		}
		spawned.Store(0)
		shipped.Store(0)
	}

	agg := compileSQL(t, "SELECT name, SUM(qty) FROM kv GROUP BY name")
	if err := CompileOneShot(agg, env).Run(ctx); err != nil {
		t.Fatal(err)
	}
	check("aggregate participant", 0, 1)
	join := compileSQL(t, "SELECT a.name, b.info FROM kv a JOIN r b ON a.qty = b.k")
	if err := CompileOneShot(join, env).Run(ctx); err != nil {
		t.Fatal(err)
	}
	check("join participant", 0, 2) // one row rehashed per side

	tail := compileSQL(t, "SELECT DISTINCT name, qty FROM kv ORDER BY qty LIMIT 5")
	var out []tuple.Tuple
	if err := CompileFinalize(tail, []tuple.Tuple{row("b", 2), row("a", 1), row("b", 2)}, &out, env).Run(ctx); err != nil {
		t.Fatal(err)
	}
	check("coordinator tail", 0, 0)
	if fmt.Sprint(out) != fmt.Sprint([]tuple.Tuple{row("a", 1), row("b", 2)}) {
		t.Fatalf("tail answered %v", out)
	}

	// Collectors: rows in, a drain round through, acknowledged once per
	// inlet from the one task.
	acks := make(chan uint64, 2)
	env.DrainAck = func(round uint64) { acks <- round }
	aggPipe, aggIn := CompileAggCollector(agg, env)
	joinPipe, joinIns := CompileJoinCollector(join, 0, env)
	for _, c := range []struct {
		name   string
		pipe   *Pipeline
		inlets []*Inlet
		push   func()
	}{
		{"agg collector", aggPipe, []*Inlet{aggIn}, func() { aggIn.Push(dataflow.BatchMsg(partials, 0)) }},
		{"join collector", joinPipe, joinIns[:], func() {
			joinIns[0].Push(one(row("a", 3), 0))
			joinIns[1].Push(one(row(3, "x"), 0))
		}},
	} {
		run, err := c.pipe.Start(ctx)
		if err != nil {
			t.Fatal(err)
		}
		c.push()
		for _, in := range c.inlets {
			in.Push(dataflow.DrainMsg(1))
		}
		for range c.inlets {
			<-acks
		}
		if err := run.Stop(); err != nil {
			t.Fatal(err)
		}
		check(c.name, 1, 1)
	}
}

// TestServePipelineAllocs bounds what one serve-shaped participant
// query allocates: compiling and running a 1-row scan → project →
// partial-agg → ship-partial pipeline. The engine measured 59 (74 with
// a channel per edge and a goroutine per operator); the bound leaves
// room for the batch containers the race detector's sync.Pool drops.
func TestServePipelineAllocs(t *testing.T) {
	spec := compileSQL(t, "SELECT name, SUM(qty) FROM kv GROUP BY name")
	var spawned, shipped atomic.Int64
	var partials []tuple.Tuple
	env := countingEnv(&spawned, &shipped, &partials)
	ctx := context.Background()
	allocs := testing.AllocsPerRun(200, func() {
		if err := CompileOneShot(spec, env).Run(ctx); err != nil {
			t.Fatal(err)
		}
	})
	if shipped.Load() != 201 || spawned.Load() != 0 {
		t.Fatalf("shipped %d partials over %d tasks, want 201 over none", shipped.Load(), spawned.Load())
	}
	const bound = 62
	t.Logf("%.0f allocations per query (bound %d)", allocs, bound)
	if allocs > bound {
		t.Fatalf("%.0f allocations per serve-shaped query, want at most %d", allocs, bound)
	}
}

// TestInletPushNeverBlocks: Push only queues, whatever the pipeline
// behind it is doing. With the sink blocked, 10 000 pushes still
// return at once; released, the rows arrive in push order. On the
// two-inlet join shape, each drain round is acknowledged only after
// the output of every row pushed on that inlet before its marker has
// left the sink.
func TestInletPushNeverBlocks(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	open := func() { once.Do(func() { close(release) }) }
	defer open()
	// pushAll runs the pushes off the test goroutine, so a Push that
	// blocks fails the test instead of hanging it.
	pushAll := func(push func()) {
		t.Helper()
		done := make(chan struct{})
		go func() {
			defer close(done)
			push()
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("Push blocked behind a blocked sink")
		}
	}

	const n = 10000
	p := NewPipeline("test")
	in := NewInlet()
	entered := make(chan struct{})
	var got []int64
	p.Connect(p.Add("src", in.Source), p.Add("sink", FuncSink(func(t tuple.Tuple) {
		if len(got) == 0 {
			close(entered)
			<-release
		}
		got = append(got, t[0].I)
	})))
	run, err := p.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	pushAll(func() { in.Push(one(row(0), 0)) })
	<-entered // the pipeline's task now sits in the sink
	pushAll(func() {
		for i := 1; i < n; i++ {
			in.Push(one(row(i), 0))
		}
	})
	open()
	in.Close()
	if err := run.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("sink took %d of %d rows", len(got), n)
	}
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("row %d arrived at %d", v, i)
		}
	}

	// The join shape. Every row carries join key 0, and a first row on
	// each side is in the join before the sink blocks, so each later row
	// is joined — and its output owed to the sink — the moment the join
	// takes it. Markers carry distinct rounds: round side*1000+k follows
	// the k*step rows pushed on that side before it.
	const perSide, step = 200, 20
	var mu sync.Mutex
	var events []string // "row <id>" per shipped output row, "ack <round>"
	release = make(chan struct{})
	once = sync.Once{}
	var blocked atomic.Bool
	ship := func(_ uint64, rows []tuple.Tuple) int {
		if blocked.CompareAndSwap(false, true) {
			<-release
		}
		mu.Lock()
		for _, r := range rows {
			events = append(events, "row "+r[0].S, "row "+r[2].S)
		}
		mu.Unlock()
		return 0
	}
	ack := func(round uint64) {
		mu.Lock()
		events = append(events, fmt.Sprintf("ack %d", round))
		mu.Unlock()
	}
	p = NewPipeline("join")
	ins := [2]*Inlet{NewInlet(), NewInlet()}
	l, r := p.Add("src.l", ins[0].Source), p.Add("src.r", ins[1].Source)
	jp := p.Add("hybrid-join", HybridJoin([2]int{2, 2}, [2][]int{{1}, {1}}, HybridJoinConfig{}))
	p.Connect(l, jp)
	p.Connect(r, jp)
	p.Connect(jp, p.Add("ship-rows", ShipRows(ship, RowFrameBytes, true, nil, ack)))
	ins[0].Push(one(row("l0", 0), 0))
	ins[1].Push(one(row("r0", 0), 0))
	if run, err = p.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	for p.Stats()[2].RowsIn < 2 {
		time.Sleep(100 * time.Microsecond)
	}
	pushAll(func() {
		for k := 1; k < perSide; k++ {
			for side, prefix := range []string{"l", "r"} {
				ins[side].Push(one(row(fmt.Sprintf("%s%d", prefix, k), 0), 0))
				if k%step == step-1 {
					ins[side].Push(dataflow.DrainMsg(uint64(side*1000 + k/step)))
				}
			}
		}
	})
	open()
	ins[0].Close()
	ins[1].Close()
	if err := run.Wait(); err != nil {
		t.Fatal(err)
	}
	shipped := map[string]bool{}
	acked := 0
	for _, e := range events {
		var round uint64
		if _, err := fmt.Sscanf(e, "ack %d", &round); err != nil {
			shipped[e[len("row "):]] = true
			continue
		}
		acked++
		side, k := int(round/1000), int(round%1000)
		for i := 0; i < (k+1)*step; i++ {
			if id := fmt.Sprintf("%s%d", []string{"l", "r"}[side], i); !shipped[id] {
				t.Fatalf("round %d acknowledged before the output of %s left the sink", round, id)
			}
		}
	}
	if acked != 2*perSide/step {
		t.Fatalf("%d acks, want one per marker (%d)", acked, 2*perSide/step)
	}
}
