package pier

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/physical"
	"repro/internal/plan"
	"repro/internal/sqlparser"
	"repro/internal/tuple"
)

func TestRehashJoinPartitionsRule(t *testing.T) {
	for _, tc := range []struct{ members, want int }{
		{0, 64}, {1, 64}, {8, 64}, {16, 64}, {17, 128}, {32, 128}, {33, 256}, {1024, 4096},
		{1 << 20, maxJoinPartitions},
	} {
		if got := joinPartitions(tc.members); got != tc.want {
			t.Errorf("joinPartitions(%d) = %d, want %d", tc.members, got, tc.want)
		}
	}
}

// TestRehashCollectorKeyFromQueryMessage: two nodes that disagree about
// the cluster size (a membership change in progress) must still send
// one join value of one stage to the same collector key, because the
// partition count comes from the query message and from nowhere else.
func TestRehashCollectorKeyFromQueryMessage(t *testing.T) {
	nodes, _ := cluster(t, 2, 1501)
	for _, s := range []*tuple.Schema{usersSchema, ordersSchema, itemsSchema} {
		defineEverywhere(t, nodes, s, time.Minute)
	}
	nodes[0].SetMembers(8)
	nodes[1].SetMembers(40)
	if joinPartitions(nodes[0].Members()) == joinPartitions(nodes[1].Members()) {
		t.Fatal("test needs two views that would choose different partition counts")
	}
	stmt, err := sqlparser.Parse(multiwaySQL)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := plan.Compile(stmt, nodes[0].cat, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sent := queryMsg{qid: 77, coord: nodes[0].Addr(), joinParts: joinPartitions(nodes[0].Members()), spec: spec}
	var states [2]*queryState
	for i, nd := range nodes {
		m, err := decodeQueryMsg(sent.encode())
		if err != nil {
			t.Fatal(err)
		}
		states[i] = nd.newQueryState(m.qid, m.spec, m.coord, m.joinParts)
		defer states[i].cancel()
	}
	distinct := make(map[string]bool)
	for stage := range spec.Joins {
		for v := int64(0); v < 1000; v++ {
			key := tuple.Tuple{tuple.Int(v)}.Bytes()
			var got [2]string
			for i, q := range states {
				p := physical.RehashPartition(key, q.joinParts)
				got[i] = joinCollectorKey(joinOrigin(q.id, stage), p, q.joinParts).String()
			}
			if got[0] != got[1] {
				t.Fatalf("stage %d value %d: collector %s at node0, %s at node1", stage, v, got[0], got[1])
			}
			distinct[got[0]] = true
		}
	}
	if want := len(spec.Joins) * sent.joinParts; len(distinct) != want {
		t.Fatalf("%d distinct collector keys, want %d (every partition of every stage its own)", len(distinct), want)
	}

	// A message without a usable partition count is refused, not guessed.
	sent.joinParts = 0
	if _, err := decodeQueryMsg(sent.encode()); err == nil {
		t.Fatal("decodeQueryMsg accepted 0 join partitions")
	}
}

// eventFor returns the node's event of one kind for qid.
func eventFor(t *testing.T, n *Node, kind string, qid uint64) obs.Event {
	t.Helper()
	for _, ev := range n.Events().Snapshot() {
		if ev.Kind == kind && ev.Query == qid {
			return ev
		}
	}
	t.Fatalf("no %s event for query %d", kind, qid)
	return obs.Event{}
}

// TestJoinQuietTimeoutReportsBooks: a join whose books never balance
// (here one rehashed tuple is delivered twice, the second copy waiting
// in a node's pending buffer when the query arrives) ends by the Quiet
// fallback — and the coordinator's query-degraded event must say which
// channel was off and by how much, not just that 250 ms passed.
func TestJoinQuietTimeoutReportsBooks(t *testing.T) {
	nodes, _ := cluster(t, 4, 1502)
	setMembers(nodes, len(nodes))
	seedMultiway(t, nodes, 3, 5, 4)
	coord := nodes[0]
	qid := coord.nextQueryID() + 1 // the id the next query will take
	dup := tuple.Tuple{tuple.String("ghost"), tuple.Int(999), tuple.Int(999), tuple.Int(999)}
	nodes[1].bufferPending(qid, tagJoin, encodeTupleMsg(qid, 0, 0, 0, dup))

	sym := plan.SymmetricHash
	res, err := coord.QueryWithOptions(context.Background(), multiwaySQL, plan.Options{Strategy: &sym})
	if err != nil {
		t.Fatal(err)
	}
	if res.QueryID != qid {
		t.Fatalf("query ran as %d, predicted %d", res.QueryID, qid)
	}
	if res.Reason != ReasonQuietTimeout {
		t.Fatalf("reason %q, want %q", res.Reason, ReasonQuietTimeout)
	}
	ev := eventFor(t, coord, obs.EvQueryDegraded, qid)
	// Channel join(2).stage 0.side 0: 12 orders sent, 13 received.
	if !strings.Contains(ev.Msg, "books=") || !strings.Contains(ev.Msg, "2.0.0:12/13;") {
		t.Fatalf("degraded event does not carry the unbalanced books: %q", ev.Msg)
	}
}

// TestJoinRowsUnackedEvent: result rows whose delivery call fails are
// already in the sent books; the sender records the first failure per
// query and only the first.
func TestJoinRowsUnackedEvent(t *testing.T) {
	nodes, _ := cluster(t, 1, 1503)
	defineEverywhere(t, nodes, usersSchema, time.Minute)
	stmt, err := sqlparser.Parse("SELECT uid, name FROM users")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := plan.Compile(stmt, nodes[0].cat, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := nodes[0].newQueryState(42, spec, "no-such-coordinator", joinPartitions(1))
	defer q.cancel()
	rows := make([]tuple.Tuple, rowBatch+1) // two frames, both fail
	for i := range rows {
		rows[i] = tuple.Tuple{tuple.Int(int64(i)), tuple.String("u")}
	}
	q.sendRows(0, rows)
	ev := eventFor(t, nodes[0], obs.EvRowsUnacked, 42)
	if ev.Severity != obs.SevWarn || !strings.Contains(ev.Msg, "coord=no-such-coordinator rows=64") {
		t.Fatalf("unexpected event %+v", ev)
	}
	n := 0
	for _, e := range nodes[0].Events().Snapshot() {
		if e.Kind == obs.EvRowsUnacked {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("%d rows-unacked events, want 1", n)
	}
}
