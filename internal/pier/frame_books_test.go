package pier

import (
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/dataflow"
	"repro/internal/plan"
	"repro/internal/sqlparser"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// booksQuery registers query qid of sql on a one-node cluster, as a
// participant of a query coordinated elsewhere (coord false) or as its
// coordinator.
func booksQuery(t *testing.T, qid uint64, sql string, coord bool) (*Node, *queryState) {
	t.Helper()
	nodes, _ := cluster(t, 1, int64(qid))
	n := nodes[0]
	defineEverywhere(t, nodes, usersSchema, time.Minute)
	defineEverywhere(t, nodes, ordersSchema, time.Minute)
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	sym := plan.SymmetricHash
	spec, err := plan.Compile(stmt, n.cat, plan.Options{Strategy: &sym})
	if err != nil {
		t.Fatal(err)
	}
	q := n.getQuery(qid, func() *queryState {
		addr := "elsewhere"
		if coord {
			addr = n.Addr()
		}
		s := n.newQueryState(qid, spec, addr, 4)
		s.isCoord = coord
		return s
	})
	t.Cleanup(func() { n.dropQuery(qid) })
	return n, q
}

const booksJoinSQL = "SELECT o.oid, u.name FROM orders o JOIN users u ON o.uid = u.uid"

// leftRow is a tuple of the join's left side: orders narrowed to oid,
// uid and the row id.
func leftRow(oid int64) tuple.Tuple {
	return tuple.Tuple{tuple.Int(oid), tuple.Int(oid % 3), tuple.Int(oid * 7919)}
}

func recvOf(q *queryState, k chanKey) uint64 {
	q.eos.mu.Lock()
	defer q.eos.mu.Unlock()
	for _, ch := range q.eos.books {
		if keyOf(&ch) == k {
			return ch.Recv
		}
	}
	return 0
}

// TestWrongWidthJoinTupleNotBooked: a rehashed tuple not of its stage
// side's width is no input of the join, so the collector drops it — and
// must not book it as received, or balanced books would end the query
// eos without it.
func TestWrongWidthJoinTupleNotBooked(t *testing.T) {
	n, q := booksQuery(t, 7101, booksJoinSQL, false)
	if w := q.spec.LeftArity(0); w != len(leftRow(1)) {
		t.Fatalf("left side of stage 0 is %d wide, the test's rows %d", w, len(leftRow(1)))
	}
	left := chanKey{kind: chanJoin}
	q.countSent(left, 3)
	wrong := tuple.Tuple{tuple.Int(2), tuple.Int(2)}
	n.onJoinRecords([]batch.Record{{Tag: tagJoin, Payload: encodeTupleMsg(q.id, 0, 0, 0, leftRow(1), wrong, leftRow(3))}})
	if got := recvOf(q, left); got != 2 {
		t.Fatalf("booked %d tuples received, want the 2 of the right width", got)
	}
	if st := q.eosStatus(0, nil); st.balanced {
		t.Fatalf("books balanced with a tuple dropped: %s", q.booksText())
	}
}

// TestWrongWidthResultRowNotBooked: the coordinator books only the
// result rows it stores.
func TestWrongWidthResultRowNotBooked(t *testing.T) {
	_, q := booksQuery(t, 7102, "SELECT uid, name FROM users", true)
	rows := chanKey{kind: chanRows}
	q.countSent(rows, 3)
	good := func(uid int64) tuple.Tuple { return tuple.Tuple{tuple.Int(uid), tuple.String("u")} }
	q.coordAddRows(0, []tuple.Tuple{good(1), {tuple.Int(2)}, good(3)})
	if got := recvOf(q, rows); got != 2 {
		t.Fatalf("booked %d rows received, want the 2 stored", got)
	}
	if got := q.canonicalRows(0); len(got) != 2 {
		t.Fatalf("stored %d rows, want 2", len(got))
	}
	if st := q.eosStatus(0, nil); st.balanced {
		t.Fatalf("books balanced with a row dropped: %s", q.booksText())
	}
}

// TestCorruptRecordCostsOnlyItsFrame: one malformed record drops the
// rest of its own frame and nothing of the other frame of the same
// delivery, which is pushed and booked whole; the loss shows as books
// one frame short.
func TestCorruptRecordCostsOnlyItsFrame(t *testing.T) {
	n, q := booksQuery(t, 7103, booksJoinSQL, false)
	left := chanKey{kind: chanJoin}
	q.countSent(left, 5)
	whole := encodeTupleMsg(q.id, 0, 0, 0, leftRow(1), leftRow(2), leftRow(3))
	bad := leftRow(4).Bytes()
	bad[len(bad)-1] = 0xee // no value kind: the record does not decode
	w := wire.NewWriter(64)
	(&wire.TupleFrame{Query: q.id}).EncodeHead(w, 2)
	w.BytesLP(leftRow(5).Bytes())
	w.BytesLP(bad)
	torn := w.Bytes()
	pushes := n.Metrics.JoinPushes.Load()
	n.onJoinRecords([]batch.Record{{Tag: tagJoin, Payload: torn}, {Tag: tagJoin, Payload: whole}})
	if got := recvOf(q, left); got != 3 {
		t.Fatalf("booked %d tuples received, want the 3 of the intact frame", got)
	}
	if got := n.Metrics.JoinPushes.Load() - pushes; got != 1 {
		t.Fatalf("%d pushes, want 1", got)
	}
	if st := q.eosStatus(0, nil); st.balanced {
		t.Fatalf("books balanced with a frame lost: %s", q.booksText())
	}
}

// TestJoinGroupDecodeAllocs: a group's frames decode into one arena and
// one row list, plus a string per string value — nothing per record or
// per frame.
func TestJoinGroupDecodeAllocs(t *testing.T) {
	const perFrame = 32
	var frames []joinFrame
	g := joinGroup{width: 3}
	for f := 0; f < 2; f++ {
		rows := make([]tuple.Tuple, perFrame)
		for i := range rows {
			rows[i] = tuple.Tuple{tuple.Int(int64(i)), tuple.String("name"), tuple.Int(int64(f))}
		}
		payload := encodeTupleMsg(1, 0, 0, 0, rows...)
		recs := payload[wire.TupleFrameHeadLen(perFrame):]
		frames = append(frames, joinFrame{n: perFrame, recs: recs})
		g.n += perFrame
		g.size += len(recs)
	}
	var got []tuple.Tuple
	allocs := testing.AllocsPerRun(50, func() {
		got = g.decode(0, frames)
		if len(got) != g.n {
			t.Fatalf("decoded %d rows, want %d", len(got), g.n)
		}
		dataflow.PutBatch(got)
	})
	t.Logf("%d rows in 2 frames: %.0f allocations", g.n, allocs)
	if want := float64(2 + g.n); allocs > want {
		t.Fatalf("decoding a group of %d rows allocates %.0f times, want at most %.0f (arena, row list, strings)", g.n, allocs, want)
	}
}
