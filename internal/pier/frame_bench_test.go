package pier

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/catalog"
	"repro/internal/dataflow"
	"repro/internal/id"
	"repro/internal/overlay"
	"repro/internal/physical"
	"repro/internal/plan"
	"repro/internal/sqlparser"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// loopRouter is an overlay with two members and no network: a routed
// message goes straight to the other member's delivery upcall, which
// owns every key.
type loopRouter struct {
	self    overlay.Node
	peer    *loopRouter
	deliver overlay.DeliverFunc
}

func (l *loopRouter) Self() overlay.Node { return l.self }
func (l *loopRouter) Lookup(context.Context, id.ID) (overlay.Node, int, error) {
	return l.peer.self, 1, nil
}
func (l *loopRouter) Route(key id.ID, tag string, payload []byte) error {
	l.peer.deliver(l.self, key, tag, payload)
	return nil
}
func (l *loopRouter) Owns(id.ID) bool                    { return true }
func (l *loopRouter) Broadcast(string, []byte) error     { return nil }
func (l *loopRouter) SetDeliver(fn overlay.DeliverFunc)  { l.deliver = fn }
func (l *loopRouter) SetIntercept(overlay.InterceptFunc) {}
func (l *loopRouter) SetBroadcast(overlay.BroadcastFunc) {}
func (l *loopRouter) Neighbors() []overlay.Node          { return nil }
func (l *loopRouter) Predecessor() overlay.Node          { return overlay.Node{} }
func (l *loopRouter) Stop()                              {}
func (l *loopRouter) RouteVia(_ string, key id.ID, tag string, payload []byte) error {
	return l.Route(key, tag, payload)
}

// BenchmarkJoinFrameRoundTrip is the join data path of one collector,
// from rehash to result frame, with no network: each side's tuples are
// encoded by partition into frames of records (rehashShip's encode),
// coalesced into a pending batch frame for their owner, demultiplexed
// there and handed to the frame upcall, decoded a group at a time
// (onJoinRecords), joined by HybridJoin, and the answer rows encoded
// into result frames (sendRows' encode). It reports what a row costs
// on that path: ns/row, B/row and allocs/row over the rows rehashed.
func BenchmarkJoinFrameRoundTrip(b *testing.B) {
	const nOrders, nUsers, parts = 512, 64, 32
	cat := catalog.New()
	for _, s := range []*tuple.Schema{ordersSchema, usersSchema} {
		if _, err := cat.Define(s, time.Minute); err != nil {
			b.Fatal(err)
		}
	}
	stmt, err := sqlparser.Parse("SELECT o.oid, u.name FROM orders o JOIN users u ON o.uid = u.uid")
	if err != nil {
		b.Fatal(err)
	}
	sym := plan.SymmetricHash
	spec, err := plan.Compile(stmt, cat, plan.Options{Strategy: &sym})
	if err != nil {
		b.Fatal(err)
	}
	const qid = 1
	q := &queryState{id: qid, spec: spec}
	j := spec.Joins[0]
	// Each side's rehashed tuples, as the scans narrow them.
	var sides [2][]tuple.Tuple
	for i := 0; i < nOrders; i++ {
		sides[0] = append(sides[0], tuple.Tuple{tuple.Int(int64(i)), tuple.Int(int64(i % nUsers)), tuple.Int(int64(i) * 7919)})
	}
	for u := 0; u < nUsers; u++ {
		sides[1] = append(sides[1], tuple.Tuple{tuple.Int(int64(u)), tuple.String("user-name")})
	}
	arity := physical.JoinArity(spec, 0)
	if len(sides[0][0]) != arity[0] || len(sides[1][0]) != arity[1] {
		b.Fatalf("sides are %d and %d wide, the stage takes %v", len(sides[0][0]), len(sides[1][0]), arity)
	}

	from := &loopRouter{self: overlay.Node{ID: id.HashString("from"), Addr: "from"}}
	to := &loopRouter{self: overlay.Node{ID: id.HashString("to"), Addr: "to"}, peer: from}
	from.peer = to
	send := batch.New(from, batch.Config{MaxDelay: time.Hour, MaxBytes: 48 << 10})
	send.SetDeliver(func(overlay.Node, id.ID, string, []byte) {})
	recv := batch.New(to, batch.Config{MaxDelay: time.Hour})
	recv.SetDeliver(func(overlay.Node, id.ID, string, []byte) {})
	var inlets [2]*physical.Inlet
	recv.SetDeliverFrame(tagJoin, func(recs []batch.Record) {
		var groupBuf [4]joinGroup
		var frameBuf [64]joinFrame
		groups, frames := groupJoinFrames(recs, groupBuf[:0], frameBuf[:0], func(uint64, []byte) *queryState { return q })
		for gi := range groups {
			g := &groups[gi]
			inlets[g.side].Push(dataflow.BatchMsg(g.decode(gi, frames), g.window))
		}
	})
	origin := joinOrigin(0)
	keys := make([]id.ID, parts)
	for p := range keys {
		keys[p] = joinCollectorKey(origin, p, parts)
		_ = send.Route(keys[p], "warm", nil) // the owner, into the cache
	}
	send.Flush()

	// Each side's tuples by routing partition, as rehashShip's counting
	// sort leaves them.
	var byPart [2][parts][]tuple.Tuple
	for side, cols := range [][]int{j.LeftCols, j.RightCols} {
		for _, t := range sides[side] {
			w := wire.GetWriter()
			t.AppendKey(w, cols)
			p := physical.RehashPartition(w.Bytes(), parts)
			wire.PutWriter(w)
			byPart[side][p] = append(byPart[side][p], t)
		}
	}
	// rehash encodes one side's partitions a frame each into one pooled
	// writer and hands the records to the batcher, as rehashShip does.
	recs := make([]batch.Record, 0, parts)
	rehash := func(side int) {
		w := wire.GetWriter()
		var cut [parts]int
		recs = recs[:0]
		for p, rows := range byPart[side] {
			if len(rows) == 0 {
				continue
			}
			appendTupleMsg(w, qid, 0, 0, uint8(side), rows)
			cut[len(recs)] = w.Len()
			recs = append(recs, batch.Record{Key: keys[p], Tag: tagJoin})
		}
		start := 0
		for i := range recs {
			recs[i].Payload = w.Bytes()[start:cut[i]]
			start = cut[i]
		}
		if err := send.RouteMany(recs); err != nil {
			b.Fatal(err)
		}
		send.Flush()
		wire.PutWriter(w)
	}

	shipped := 0
	env := &physical.Env{ShipRows: func(window uint64, rows []tuple.Tuple) int {
		shipped += len(rows)
		return len(encodeTupleMsg(qid, window, 0, 0, rows...))
	}}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pipe, in := physical.CompileJoinCollector(spec, 0, env)
		inlets = in
		run, err := pipe.Start(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		rehash(0)
		rehash(1)
		in[0].Close()
		in[1].Close()
		if err := run.Wait(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	if want := nOrders * b.N; shipped != want {
		b.Fatalf("shipped %d answer rows, want %d", shipped, want)
	}
	rows := float64((nOrders + nUsers) * b.N)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/rows, "ns/row")
	b.ReportMetric(float64(ms1.TotalAlloc-ms0.TotalAlloc)/rows, "B/row")
	b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/rows, "allocs/row")
}
