package pier

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/plan"
	"repro/internal/simnet"
	"repro/internal/sqlparser"
	"repro/internal/wire"
)

// Tests for the node's ledger outbox: one goroutine, one settle timer
// and one heartbeat ticker ship every live query's ledgers.

// countSpec compiles SELECT COUNT(*) FROM traffic on n.
func countSpec(tb testing.TB, n *Node) *plan.Spec {
	tb.Helper()
	stmt, err := sqlparser.Parse("SELECT COUNT(*) FROM traffic")
	if err != nil {
		tb.Fatal(err)
	}
	spec, err := plan.Compile(stmt, n.cat, plan.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return spec
}

// ledgerDatagrams reads how many ledger datagrams n has sent.
func ledgerDatagrams(n *Node) float64 {
	return n.Obs().SnapshotMap()[fmt.Sprintf("rpc_oneways_total{method=%q}", methEos)]
}

// TestOutboxOneDatagramPerCoordinator: the frames of queries pending at
// one wake leave in one datagram per coordinator, and still count one
// frame per query. The heartbeat is an hour, so every frame is one the
// books asked for; a stall between two enlistments can only split a
// wake, so each case is the least of three tries.
func TestOutboxOneDatagramPerCoordinator(t *testing.T) {
	cfg := testNodeConfig()
	cfg.HeartbeatEvery = time.Hour
	nodes, _ := clusterWithConfig(t, 3, 82, cfg)
	defineEverywhere(t, nodes, trafficSchema, time.Minute)
	n := nodes[0]
	spec := countSpec(t, n)
	qid := uint64(7000)
	for _, c := range []struct {
		coords    []*Node
		datagrams float64
	}{
		{[]*Node{nodes[1]}, 1},
		{[]*Node{nodes[1], nodes[2]}, 2},
	} {
		least := 1e9
		for try := 0; try < 3 && least != c.datagrams; try++ {
			frames, sent := n.hbSent.Load(), ledgerDatagrams(n)
			var qs []*queryState
			for i := 0; i < 8; i++ {
				qid++
				qs = append(qs, n.newQueryState(qid, spec, c.coords[i%len(c.coords)].Addr(), 64))
			}
			for _, q := range qs {
				q.eosEnlist()
			}
			deadline := time.Now().Add(5 * time.Second)
			for n.hbSent.Load()-frames < 8 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			time.Sleep(10 * time.Millisecond) // ten settle pauses: nothing more follows
			if got := n.hbSent.Load() - frames; got != 8 {
				t.Fatalf("%d coordinators: %d ledger frames counted, want 8", len(c.coords), got)
			}
			least = min(least, ledgerDatagrams(n)-sent)
			for _, q := range qs {
				q.cancel()
			}
		}
		if least != c.datagrams {
			t.Errorf("8 queries for %d coordinators left in %v datagrams, want %v", len(c.coords), least, c.datagrams)
		}
	}
}

// TestOutboxSplitsBelowMaxDatagram: a wake whose frames for one
// coordinator do not fit one datagram sends them in several, each
// under transport.MaxDatagram, and every frame arrives.
func TestOutboxSplitsBelowMaxDatagram(t *testing.T) {
	cfg := testNodeConfig()
	cfg.HeartbeatEvery = time.Hour
	nodes, _ := clusterWithConfig(t, 2, 87, cfg)
	defineEverywhere(t, nodes, trafficSchema, time.Minute)
	n, coord := nodes[0], nodes[1]
	spec := countSpec(t, n)
	const queries = 3000 // ≈31 bytes a frame: more than one datagram's worth
	var qs, coords []*queryState
	for i := 0; i < queries; i++ {
		qid := uint64(9000 + i)
		c := coord.getQuery(qid, func() *queryState {
			s := coord.newQueryState(qid, spec, coord.Addr(), 2)
			s.isCoord = true
			return s
		})
		coords = append(coords, c)
		qs = append(qs, n.newQueryState(qid, spec, coord.Addr(), 2))
	}
	defer func() {
		for i := range qs {
			qs[i].cancel()
			coord.dropQuery(coords[i].id)
		}
	}()
	sent := ledgerDatagrams(n)
	for _, q := range qs {
		q.eosEnlist()
	}
	arrived := func() int {
		got := 0
		for _, c := range coords {
			c.coMu.Lock()
			got += len(c.ledgers)
			c.coMu.Unlock()
		}
		return got
	}
	for deadline := time.Now().Add(10 * time.Second); arrived() < queries && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	if got := arrived(); got != queries {
		t.Fatalf("%d of %d ledgers arrived", got, queries)
	}
	if d := ledgerDatagrams(n) - sent; d < 2 {
		t.Errorf("%d frames of ≈31 bytes left in %v datagram(s): not split", queries, d)
	}
}

// TestOutboxGoroutinesFlat: a node's live participant states share its
// outbox — enlisting 200 of them starts no goroutine, and every one of
// them still ships its ledger.
func TestOutboxGoroutinesFlat(t *testing.T) {
	cfg := testNodeConfig()
	cfg.HeartbeatEvery = time.Hour
	nodes, _ := clusterWithConfig(t, 1, 83, cfg)
	defineEverywhere(t, nodes, trafficSchema, time.Minute)
	n := nodes[0]
	spec := countSpec(t, n)
	before := runtime.NumGoroutine()
	frames := n.hbSent.Load()
	qs := make([]*queryState, 200)
	for i := range qs {
		qs[i] = n.newQueryState(uint64(8000+i), spec, "elsewhere", 64)
		qs[i].eosEnlist()
	}
	defer func() {
		for _, q := range qs {
			q.cancel()
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for n.hbSent.Load()-frames < 200 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := n.hbSent.Load() - frames; got != 200 {
		t.Fatalf("%d ledger frames from 200 live states, want 200", got)
	}
	n.outbox.mu.Lock()
	live := len(n.outbox.live)
	n.outbox.mu.Unlock()
	if live != 200 {
		t.Fatalf("outbox holds %d live states, want 200", live)
	}
	// The slack is for the node's own upkeep (rpc workers come and go);
	// a goroutine per query would add 200.
	if grew := runtime.NumGoroutine() - before; grew > 10 {
		t.Errorf("200 live participant states added %d goroutines, want none", grew)
	}
}

// TestOutboxDropsOrphanedQuery: a coordinator that goes down right after
// disseminating its query sends no stop broadcast, and nothing else
// would free the survivors' states. The outbox drops each one
// MaxQueryLife after it arrived.
func TestOutboxDropsOrphanedQuery(t *testing.T) {
	cfg := testNodeConfig()
	cfg.MaxQueryLife = 500 * time.Millisecond
	nodes, net := clusterWithConfig(t, 4, 84, cfg)
	defineEverywhere(t, nodes, trafficSchema, time.Minute)
	for _, nd := range nodes {
		if err := nd.PublishLocal("traffic", tuple32(nd.Addr(), 1)); err != nil {
			t.Fatal(err)
		}
	}
	coord, survivors := nodes[0], nodes[1:]
	msg := queryMsg{qid: coord.nextQueryID(), coord: coord.Addr(), members: len(nodes), spec: countSpec(t, coord)}
	if err := coord.router.Broadcast(tagQuery, msg.encode()); err != nil {
		t.Fatal(err)
	}
	held := func(nd *Node) int {
		nd.mu.Lock()
		defer nd.mu.Unlock()
		return len(nd.queries)
	}
	deadline := time.Now().Add(5 * time.Second)
	for _, nd := range survivors {
		for held(nd) == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("the query never reached %s", nd.Addr())
			}
			time.Sleep(time.Millisecond)
		}
	}
	net.SetDown(coord.Addr(), true)
	deadline = time.Now().Add(cfg.MaxQueryLife + 5*time.Second)
	for _, nd := range survivors {
		for held(nd) != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("%s still holds %d query states %v after MaxQueryLife", nd.Addr(), held(nd), cfg.MaxQueryLife)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// TestOutboxHeartbeatsLongScan: a member whose scan outlasts
// SuspectAfter × HeartbeatEvery moves no books while it scans, so only
// the node's ticker speaks for it. It beats, is never suspected, and
// the query ends eos.
func TestOutboxHeartbeatsLongScan(t *testing.T) {
	cfg := testNodeConfig()
	cfg.HeartbeatEvery = 40 * time.Millisecond
	cfg.SuspectAfter = 4
	// Beats do not reset the quiescence clock, so a scan that moves no
	// books for Quiet ends the query quiet-timeout; under -race on a
	// busy box this one has run for 3.5 s.
	cfg.Quiet = 30 * time.Second
	cfg.MaxQueryLife = time.Minute
	nodes, _ := clusterWithNet(t, 2, simnet.Config{Seed: 85}, cfg)
	defineEverywhere(t, nodes, trafficSchema, time.Minute)
	coord, member := nodes[0], nodes[1]
	const rows = 100000
	for i := 0; i < rows; i++ {
		if err := member.PublishLocal("traffic", tuple32(member.Addr(), float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// A filter of many terms makes the scan slow: about 300 ms on an
	// idle 2-vCPU box, near twice the suspicion window, which is wide
	// enough that a stall under -race on a busy box does not reach it.
	const terms = "rate * 3 + rate * 5 + rate * 7 + rate * 11 + rate * 13 > rate * 2 + 1" +
		" AND rate * 17 + rate * 19 + rate * 23 >= 0 AND node <> 'x' AND node <> 'y' AND node <> 'z'"
	const sql = "SELECT COUNT(*) FROM traffic WHERE " + terms + " AND " + terms + " AND " + terms
	suspicions := coord.Obs().SnapshotMap()["pier_suspicions_total"]
	frames := member.hbSent.Load()
	start := time.Now()
	res, err := coord.Query(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	took := time.Since(start)
	if window := time.Duration(cfg.SuspectAfter) * cfg.HeartbeatEvery; took < window {
		t.Skipf("the query took %v, inside the %v suspicion window: nothing to check", took, window)
	}
	t.Logf("a %v query: %d ledger frames from the scanning member", took, member.hbSent.Load()-frames)
	if res.Reason != ReasonEOS || len(res.Rows) != 1 || res.Rows[0][0].I != rows-1 {
		t.Fatalf("ended %q with %v, want eos with COUNT %d", res.Reason, res.Rows, rows-1)
	}
	if got := coord.Obs().SnapshotMap()["pier_suspicions_total"] - suspicions; got != 0 {
		t.Fatalf("the scanning member was suspected %v times", got)
	}
	// Books move at participation start and at scan end; while the
	// scan runs, a beat leaves on every tick (the member is silent for a
	// whole beat each time), and half of them is a safe floor.
	want := 2 + uint64(took/(2*cfg.HeartbeatEvery))
	if got := member.hbSent.Load() - frames; got < want {
		t.Errorf("%d ledger frames over a %v query at %v beats, want at least %d", got, took, cfg.HeartbeatEvery, want)
	}
}

// ledgerRound is the EOS ledger path of a 16-member query with no
// network: a coordinator state and 16 participant states on one node,
// each participant's ledger sent under an address of its own.
type ledgerRound struct {
	coord *queryState
	parts []*queryState
	addrs []string
	frame wire.EosFrame
	batch wire.EosBatch
	buf   []byte
}

func newLedgerRound(tb testing.TB) *ledgerRound {
	const members = 16
	net := simnet.New(simnet.Config{Seed: 86})
	tb.Cleanup(net.Close)
	ep, err := net.Endpoint("coord")
	if err != nil {
		tb.Fatal(err)
	}
	n, err := NewNode(ep, testNodeConfig())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(n.Stop)
	if err := n.DefineTable(trafficSchema, time.Minute); err != nil {
		tb.Fatal(err)
	}
	spec := countSpec(tb, n)
	r := &ledgerRound{coord: n.newQueryState(1, spec, n.Addr(), members)}
	r.coord.isCoord = true
	tb.Cleanup(r.coord.cancel)
	r.coord.coMu.Lock()
	r.coord.countMember(0, members)
	r.coord.coMu.Unlock()
	for i := 0; i < members; i++ {
		q := n.newQueryState(1, spec, n.Addr(), members)
		q.depth = 1
		r.parts = append(r.parts, q)
		r.addrs = append(r.addrs, fmt.Sprintf("member%d", i))
	}
	return r
}

// run is one round: every member's books move, its ledger is built,
// encoded as its node's datagram, decoded and applied, and the
// coordinator, whose own books balance the members' result rows,
// evaluates once.
func (r *ledgerRound) run(tb testing.TB) eosStatus {
	for m, q := range r.parts {
		q.countSent(chanKey{kind: chanAgg}, 1)
		q.countRecv(chanKey{kind: chanAgg}, 1)
		q.countSent(chanKey{kind: chanRows}, 1)
		q.fillFrame(&r.frame)
		r.frame.Addr = r.addrs[m]
		r.batch.Reset()
		r.batch.Add(&r.frame)
		head, body := r.batch.Parts()
		r.buf = append(append(r.buf[:0], head...), body...)
		frames, err := wire.DecodeEosFrames(r.buf)
		if err != nil {
			tb.Fatal(err)
		}
		for i := range frames {
			r.coord.applyEosLedger(&frames[i])
		}
	}
	r.coord.countRecv(chanKey{kind: chanRows}, len(r.parts))
	st := r.coord.eosStatus(0, nil)
	if !st.balanced || st.live != len(r.parts)+1 {
		tb.Fatalf("balanced %v over %d live members, want balanced over %d", st.balanced, st.live, len(r.parts)+1)
	}
	return st
}

// TestEosStatusAllocatesNothing: a completion evaluation folds the
// running totals the arriving ledgers keep and the coordinator's own
// books; it builds nothing.
func TestEosStatusAllocatesNothing(t *testing.T) {
	r := newLedgerRound(t)
	r.run(t)
	if allocs := testing.AllocsPerRun(100, func() { r.coord.eosStatus(1, nil) }); allocs != 0 {
		t.Errorf("eosStatus over 16 ledgers made %v allocations, want 0", allocs)
	}
}

// BenchmarkEosLedgerRound is one round of the EOS ledger path on a
// 16-member query, with no network (ledgerRound.run). It reports what a
// round costs: ns, B and allocs per round.
func BenchmarkEosLedgerRound(b *testing.B) {
	r := newLedgerRound(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.run(b)
	}
}
