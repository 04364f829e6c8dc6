package pier

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/id"
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

// TestJoinOriginArcShare: a stage's origin is fixed, so the balance of
// its collectors must not lean on the origin being re-drawn per query.
// Over 100 seeded rings of 5, 8 and 16 nodes (a node owns the arc from
// its predecessor up to itself, as chord assigns keys), every node
// holds its arc's share of each stage's evenly spaced partitions to
// within one — and two stages never share a collector key.
func TestJoinOriginArcShare(t *testing.T) {
	frac := func(a id.ID) float64 { // position on the ring in [0, 1)
		return float64(binary.BigEndian.Uint64(a[:8])) / math.Exp2(64)
	}
	for _, n := range []int{5, 8, 16} {
		parts := joinPartitions(n)
		for seed := int64(0); seed < 100; seed++ {
			rng := rand.New(rand.NewSource(seed))
			ring := make([]id.ID, n)
			for i := range ring {
				rng.Read(ring[i][:])
			}
			sort.Slice(ring, func(i, j int) bool { return ring[i].Less(ring[j]) })
			for stage := 0; stage < 2; stage++ {
				held := make([]int, n)
				for p := 0; p < parts; p++ {
					key := joinCollectorKey(joinOrigin(stage), p, parts)
					owner := sort.Search(n, func(i int) bool { return !ring[i].Less(key) }) % n
					held[owner]++
				}
				for i, got := range held {
					arc := frac(ring[i]) - frac(ring[(i+n-1)%n])
					if arc < 0 {
						arc++
					}
					if share := arc * float64(parts); math.Abs(float64(got)-share) > 1 {
						t.Fatalf("%d nodes, seed %d, stage %d: node %d holds %d of %d partitions, its arc's share is %.2f",
							n, seed, stage, i, got, parts, share)
					}
				}
			}
		}
	}
	seen := make(map[id.ID]int)
	for stage := 0; stage < 2; stage++ {
		for p := 0; p < 64; p++ {
			key := joinCollectorKey(joinOrigin(stage), p, 64)
			if other, dup := seen[key]; dup {
				t.Fatalf("stages %d and %d share collector key %s", other, stage, key)
			}
			seen[key] = stage
		}
	}
}

// TestRehashCollectorKeyFromQueryMessage: two nodes that disagree about
// the cluster size (a membership change in progress) must still send
// one join value of one stage to the same collector key, because the
// partition count follows from the member count of the query message
// and from nowhere else: the sender's count, not the receiver's, sets P.
func TestRehashCollectorKeyFromQueryMessage(t *testing.T) {
	nodes, _ := cluster(t, 2, 1501)
	for _, s := range []*tuple.Schema{usersSchema, ordersSchema, itemsSchema} {
		defineEverywhere(t, nodes, s, time.Minute)
	}
	nodes[0].members.Store(8)
	nodes[1].members.Store(40)
	if joinPartitions(nodes[0].learnedMembers()) == joinPartitions(nodes[1].learnedMembers()) {
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
	sent := queryMsg{qid: 77, coord: nodes[0].Addr(), members: nodes[0].learnedMembers(), spec: spec}
	var states [2]*queryState
	for i, nd := range nodes {
		m, err := decodeQueryMsg(sent.encode())
		if err != nil {
			t.Fatal(err)
		}
		states[i] = nd.newQueryState(m.qid, m.spec, m.coord, m.members)
		defer states[i].cancel()
		if want := joinPartitions(8); states[i].joinParts != want {
			t.Fatalf("node%d rehashes into %d partitions, want the message's %d", i, states[i].joinParts, want)
		}
	}
	distinct := make(map[string]bool)
	for stage := range spec.Joins {
		for v := int64(0); v < 1000; v++ {
			key := tuple.Tuple{tuple.Int(v)}.Bytes()
			var got [2]string
			for i, q := range states {
				p := physical.RehashPartition(key, q.joinParts)
				got[i] = joinCollectorKey(joinOrigin(stage), p, q.joinParts).String()
			}
			if got[0] != got[1] {
				t.Fatalf("stage %d value %d: collector %s at node0, %s at node1", stage, v, got[0], got[1])
			}
			distinct[got[0]] = true
		}
	}
	if want := len(spec.Joins) * states[0].joinParts; len(distinct) != want {
		t.Fatalf("%d distinct collector keys, want %d (every partition of every stage its own)", len(distinct), want)
	}

	// A count past any partition count is refused, not capped.
	sent.members = maxJoinPartitions + 1
	if _, err := decodeQueryMsg(sent.encode()); err == nil {
		t.Fatalf("decodeQueryMsg accepted %d members", sent.members)
	}
}

// TestLearnedMembersSetPartitions: a node learns its member count from
// the first query it coordinates that ends eos, and the next query's
// message carries it: 8 and 16 on 8- and 16-node clusters, where P is
// 64 as it is for any count up to 16.
func TestLearnedMembersSetPartitions(t *testing.T) {
	for _, n := range []int{8, 16} {
		nodes, _ := cluster(t, n, int64(1510+n))
		defineEverywhere(t, nodes, trafficSchema, time.Minute)
		if got := nodes[0].learnedMembers(); got != 0 {
			t.Fatalf("%d nodes: learned %d members before any query", n, got)
		}
		for i := 0; i < 2; i++ {
			res, err := nodes[0].Query(context.Background(), "SELECT COUNT(*) FROM traffic")
			if err != nil {
				t.Fatal(err)
			}
			if res.Reason != ReasonEOS || res.Participants != n {
				t.Fatalf("%d nodes: query %d ended %q with %d participants", n, i, res.Reason, res.Participants)
			}
			if got := nodes[0].learnedMembers(); got != n {
				t.Fatalf("%d nodes: learned %d members after query %d", n, got, i)
			}
		}
		stmt, err := sqlparser.Parse("SELECT rate FROM traffic")
		if err != nil {
			t.Fatal(err)
		}
		spec, err := plan.Compile(stmt, nodes[0].cat, plan.Options{})
		if err != nil {
			t.Fatal(err)
		}
		m, err := decodeQueryMsg(queryMsg{qid: 1, members: nodes[0].learnedMembers(), spec: spec}.encode())
		if err != nil {
			t.Fatal(err)
		}
		q := nodes[1].newQueryState(m.qid, m.spec, m.coord, m.members)
		q.cancel()
		if m.members != n || q.joinParts != 64 {
			t.Fatalf("%d nodes: the message carries %d members, P = %d; want %d and 64", n, m.members, q.joinParts, n)
		}
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
	frame := func(n int) []tuple.Tuple {
		rows := make([]tuple.Tuple, n)
		for i := range rows {
			rows[i] = tuple.Tuple{tuple.Int(int64(i)), tuple.String("u")}
		}
		return rows
	}
	// Two frames, both fail; the event names the first one's rows and size.
	size := q.sendRows(0, frame(3))
	q.sendRows(0, frame(5))
	ev := eventFor(t, nodes[0], obs.EvRowsUnacked, 42)
	want := fmt.Sprintf("coord=no-such-coordinator rows=3 bytes=%d:", size)
	if ev.Severity != obs.SevWarn || !strings.Contains(ev.Msg, want) {
		t.Fatalf("unexpected event %+v, want %q", ev, want)
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
