package pier

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/physical"
	"repro/internal/plan"
	"repro/internal/simnet"
	"repro/internal/sqlparser"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// Tests for deterministic query completion: distributed EOS tracking
// (per-channel sent/received ledgers plus coordinator-issued drain
// rounds), with the quiescence timer only as the loss/churn fallback.

func tuple32(addr string, rate float64) tuple.Tuple {
	return tuple.Tuple{tuple.String(addr), tuple.Float(rate)}
}

func tupleAlert(addr string, rule, hits int64) tuple.Tuple {
	return tuple.Tuple{tuple.String(addr), tuple.Int(rule), tuple.Int(hits)}
}

// simnetReorderCfg randomizes per-message latency so frames routinely
// overtake each other in flight.
func simnetReorderCfg(seed int64) simnet.Config {
	return simnet.Config{
		Seed:       seed,
		MinLatency: 0,
		MaxLatency: 25 * time.Millisecond,
	}
}

// TestEOSCompletion32Nodes is the tentpole's acceptance: a one-shot
// query on an idle 32-node overlay completes the moment every ledger
// balances — reason "eos", well before the quiet timer could fire.
func TestEOSCompletion32Nodes(t *testing.T) {
	if testing.Short() {
		t.Skip("32-node cluster")
	}
	nodes, _ := cluster(t, 32, 77)
	defineEverywhere(t, nodes, trafficSchema, time.Minute)
	for i, nd := range nodes {
		if err := nd.PublishLocal("traffic", tuple32(nd.Addr(), float64(i+1))); err != nil {
			t.Fatal(err)
		}
	}

	res, err := nodes[5].Query(context.Background(), "SELECT node, rate FROM traffic")
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != ReasonEOS {
		t.Fatalf("scan completion reason = %q, want %q", res.Reason, ReasonEOS)
	}
	if len(res.Rows) != 32 {
		t.Fatalf("scan returned %d rows, want 32", len(res.Rows))
	}
	if res.Participants != 32 {
		t.Fatalf("Participants = %d, want 32", res.Participants)
	}

	// Aggregates route partials through collectors and relays; the
	// books must still balance (after the drain flushes held state).
	agg, err := nodes[9].Query(context.Background(), "SELECT SUM(rate) FROM traffic")
	if err != nil {
		t.Fatal(err)
	}
	if agg.Reason != ReasonEOS {
		t.Fatalf("aggregate completion reason = %q, want %q", agg.Reason, ReasonEOS)
	}
	if want := float64(32*33) / 2; len(agg.Rows) != 1 || agg.Rows[0][0].F != want {
		t.Fatalf("SUM = %v, want %v", agg.Rows, want)
	}
}

// TestEOSFasterThanQuiet: on an idle cluster a scan ends eos well
// inside Quiet — the timer is the fallback for loss and churn, and a
// query that neither touches never waits on it.
func TestEOSFasterThanQuiet(t *testing.T) {
	nodes, _ := cluster(t, 8, 78)
	defineEverywhere(t, nodes, trafficSchema, time.Minute)
	for _, nd := range nodes {
		nd.PublishLocal("traffic", tuple32(nd.Addr(), 1))
	}
	start := time.Now()
	res, err := nodes[0].Query(context.Background(), "SELECT node FROM traffic")
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != ReasonEOS {
		t.Fatalf("reason = %q, want %q", res.Reason, ReasonEOS)
	}
	if el, quiet := time.Since(start), nodes[0].cfg.Quiet; el >= quiet/2 {
		t.Fatalf("EOS completion took %v, not well inside Quiet (%v)", el, quiet)
	}
}

// TestEOSReorderingAndLoss runs EOS completion on a hostile simnet.
// Phase one randomizes per-message latency so done frames routinely
// overtake (and are overtaken by) the data they account for: the
// books must still balance only after every row lands, so completion
// stays "eos" and exact. Phase two adds background loss to exercise
// the drain re-broadcast and quiet-fallback paths; there the pinned
// invariant is reason-conditional — "eos" certifies the exact result
// set, while "quiet-timeout" marks the result visibly partial (and
// the rows it does return are genuine). Run under -race in CI.
func TestEOSReorderingAndLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("lossy network, slow")
	}
	cfg := testNodeConfig()
	// No node dies in this test, so suspicion must never trigger: under
	// -race on a loaded single-core host the default ~90ms window can
	// misread scheduler stalls as crashes and close a loss-only run
	// churn-degraded. Widen it past MaxQueryLife so the only reachable
	// completions are the two reasons this test pins down.
	cfg.SuspectAfter = 1000
	nodes, net := clusterWithNet(t, 8, simnetReorderCfg(91), cfg)
	defineEverywhere(t, nodes, alertsSchema, time.Minute)
	want := map[string]bool{}
	for i, nd := range nodes {
		for r := 1; r <= 3; r++ {
			tup := tupleAlert(nd.Addr(), int64(r), int64(i+r))
			nd.PublishLocal("alerts", tup)
			want[fmt.Sprintf("%v", []tuple.Value(tup))] = true
		}
	}
	check := func(trial int, res *Result, allowDup bool) {
		t.Helper()
		seen := map[string]bool{}
		for _, row := range res.Rows {
			key := fmt.Sprintf("%v", []tuple.Value(row))
			if !want[key] {
				t.Fatalf("trial %d: fabricated row %v (reason %s)", trial, row, res.Reason)
			}
			// Row shipping is at-least-once (retransmits re-execute the
			// handler, per the soft-state discipline), so a lossy run may
			// duplicate a row; a lossless one must not.
			if seen[key] && !allowDup {
				t.Fatalf("trial %d: duplicated row %v (reason %s)", trial, row, res.Reason)
			}
			seen[key] = true
		}
		if res.Reason == ReasonEOS && len(seen) != len(want) {
			// The deterministic claim: an "eos" completion certifies
			// nothing was cut off.
			t.Fatalf("trial %d: reason eos but %d/%d distinct rows", trial, len(seen), len(want))
		}
	}

	// Reordering alone (lossless): always eos, always exact.
	for trial := 0; trial < 3; trial++ {
		res, err := nodes[trial].Query(context.Background(),
			"SELECT node, rule, hits FROM alerts")
		if err != nil {
			t.Fatal(err)
		}
		if res.Reason != ReasonEOS {
			t.Fatalf("lossless trial %d: reason %q, want %q", trial, res.Reason, ReasonEOS)
		}
		if len(res.Rows) != len(want) {
			t.Fatalf("lossless trial %d: %d rows, want %d", trial, len(res.Rows), len(want))
		}
		check(trial, res, false)
	}

	// With loss the fallback may close a query partial — but then the
	// reason says so, and an eos completion still certifies the set.
	net.SetLossRate(0.02)
	for trial := 0; trial < 3; trial++ {
		res, err := nodes[3+trial].Query(context.Background(),
			"SELECT node, rule, hits FROM alerts")
		if err != nil {
			t.Fatal(err)
		}
		if res.Reason != ReasonEOS && res.Reason != ReasonQuietTimeout {
			t.Fatalf("lossy trial %d: unexpected completion reason %q", trial, res.Reason)
		}
		check(trial, res, true)
	}
}

// TestEosTupleBufferedAfterReplay: a routed tuple whose handler found no
// query, was held off the CPU while the announcement registered the
// query and replayed the (still empty) pending buffer, and only then
// buffered, must still reach the query — stranded, it is a record sent
// and never received, and the query waits out Quiet with its books one
// short.
func TestEosTupleBufferedAfterReplay(t *testing.T) {
	nodes, _ := cluster(t, 1, 79)
	defineEverywhere(t, nodes, trafficSchema, time.Minute)
	n := nodes[0]
	stmt, err := sqlparser.Parse("SELECT COUNT(*) FROM traffic")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := plan.Compile(stmt, n.cat, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const qid = 4242
	q := n.getQuery(qid, func() *queryState { return n.newQueryState(qid, spec, "elsewhere", 64) })
	defer n.dropQuery(qid)
	n.replayPending(q) // the announcement's replay: nothing buffered yet

	partial := agg.NewAccumulator(spec.Aggs).StateValues()
	n.bufferPending(qid, tagAgg, encodeTupleMsg(qid, 0, 0, 0, partial))

	n.pendMu.Lock()
	stranded := len(n.pending[qid])
	n.pendMu.Unlock()
	if stranded != 0 {
		t.Fatalf("%d tuple(s) left in the pending buffer of a registered query", stranded)
	}
	if recv := recvOf(q, chanKey{kind: chanAgg}); recv != 1 {
		t.Fatalf("partials received = %d, want 1", recv)
	}
}

// TestEosLedgerShipsWhen: what a member's outbox puts on the wire,
// counted in frames. The heartbeat is an hour, so every frame is one the
// books asked for. A stall of this goroutine can only add a frame (a
// settle pause runs out between two calls), so each case is the least
// of three tries.
func TestEosLedgerShipsWhen(t *testing.T) {
	cfg := testNodeConfig()
	cfg.HeartbeatEvery = time.Hour
	nodes, _ := clusterWithConfig(t, 1, 80, cfg)
	defineEverywhere(t, nodes, trafficSchema, time.Minute)
	n := nodes[0]
	stmt, err := sqlparser.Parse("SELECT COUNT(*) FROM traffic")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := plan.Compile(stmt, n.cat, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	partials := chanKey{kind: chanAgg}
	cases := []struct {
		name string
		do   func(q *queryState)
	}{
		{"participation start and the end of a short scan", func(q *queryState) {
			q.eosEnlist()
			q.eosMarkScanDone()
		}},
		{"a burst of count movements", func(q *queryState) {
			q.eosEnlist()
			for i := 0; i < 200; i++ {
				q.countSent(partials, 1)
			}
		}},
		{"a drain acknowledgement behind a count movement", func(q *queryState) {
			q.eosEnlist()
			q.countSent(partials, 1)
			q.drainLocal(1)
		}},
	}
	for _, c := range cases {
		least := uint64(1 << 62)
		for try := 0; try < 3 && least != 1; try++ {
			q := n.newQueryState(uint64(5000+try), spec, "elsewhere", 64)
			before := n.hbSent.Load()
			c.do(q)
			deadline := time.Now().Add(5 * time.Second)
			for n.hbSent.Load() == before && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			time.Sleep(10 * time.Millisecond) // ten settle pauses: nothing more follows
			least = min(least, n.hbSent.Load()-before)
			q.cancel()
		}
		if least != 1 {
			t.Errorf("%s: %d ledger frames, want 1", c.name, least)
		}
	}
}

// TestExplainAnalyzeEndsWithLastSnapshot: an EXPLAIN ANALYZE coordinator
// returns once every member's counters are in, not analyzeGrace later —
// which it silently would if the stats RPC's peer address and the
// ledger's Addr ever named one member two ways. The fastest of five
// runs is held to half the cap; an idle COUNT(*) itself takes a few ms.
func TestExplainAnalyzeEndsWithLastSnapshot(t *testing.T) {
	nodes, _ := cluster(t, 8, 81)
	defineEverywhere(t, nodes, trafficSchema, time.Minute)
	for _, nd := range nodes {
		if err := nd.PublishLocal("traffic", tuple.Tuple{tuple.String(nd.Addr()), tuple.Float(1)}); err != nil {
			t.Fatal(err)
		}
	}
	fastest := time.Hour
	for i := 0; i < 5; i++ {
		start := time.Now()
		res, err := nodes[2].QueryWithOptions(context.Background(), "SELECT COUNT(*) FROM traffic", plan.Options{Analyze: true})
		fastest = min(fastest, time.Since(start))
		if err != nil {
			t.Fatal(err)
		}
		if res.Reason != ReasonEOS {
			t.Fatalf("reason %q, want eos", res.Reason)
		}
		for _, op := range res.Analysis.Ops {
			if op.Stage == "participant" && op.Op == "scan" && op.Nodes != uint64(len(nodes)) {
				t.Fatalf("scan counters of %d nodes, want %d:\n%s", op.Nodes, len(nodes), res.AnalyzeReport)
			}
		}
	}
	if fastest >= analyzeGrace/2 {
		t.Errorf("fastest EXPLAIN ANALYZE took %v: the coordinator waited out analyzeGrace (%v)", fastest, analyzeGrace)
	}
}

// TestEosSettledFollowsCounts: a ledger's Settled bit is read from the
// books the frame carries, against the cut of the round the node last
// acknowledged — never remembered from the acknowledgement. A join or
// aggregation record received after that cut unsettles every later
// frame; a result row does not (rows end at the coordinator); and
// while the next round drains, frames still report the last one.
func TestEosSettledFollowsCounts(t *testing.T) {
	nodes, _ := clusterWithConfig(t, 1, 81, testNodeConfig())
	defineEverywhere(t, nodes, trafficSchema, time.Minute)
	n := nodes[0]
	stmt, err := sqlparser.Parse("SELECT COUNT(*) FROM traffic")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := plan.Compile(stmt, n.cat, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := n.newQueryState(6000, spec, "elsewhere", 64)
	defer q.cancel()
	settled := func(when string, round uint64, want bool) {
		t.Helper()
		var f wire.EosFrame
		if q.fillFrame(&f); f.DrainRound != round || f.Settled != want {
			t.Errorf("%s: frame says round %d settled=%v, want round %d settled=%v",
				when, f.DrainRound, f.Settled, round, want)
		}
	}
	partials := chanKey{kind: chanAgg}
	join := chanKey{kind: chanJoin, side: 1}

	q.countRecv(partials, 3)
	settled("before any round", 0, false)
	q.drainLocal(1)
	settled("round 1, nothing received since its cut", 1, true)
	q.countRecv(chanKey{kind: chanRows}, 5)
	settled("result rows received after the cut", 1, true)
	q.countRecv(join, 1)
	settled("a join tuple received after the cut", 1, false)
	settled("the frame after that", 1, false)
	q.drainLocal(2)
	settled("round 2, whose cut covers the join tuple", 2, true)
	q.countRecv(partials, 1)
	settled("a partial received after round 2's cut", 2, false)

	// Round 3 takes its cut, which covers that partial, then waits on a
	// marker no pipeline will acknowledge.
	q.pipeMu.Lock()
	q.aggIn = physical.NewInlet()
	q.pipeMu.Unlock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		q.drainLocal(3)
	}()
	for deadline := time.Now().Add(5 * time.Second); ; {
		q.eos.mu.Lock()
		waiting := q.eos.gate != nil
		q.eos.mu.Unlock()
		if waiting {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("round 3 never reached its markers")
		}
		time.Sleep(time.Millisecond)
	}
	settled("round 3 still draining", 2, false)
	q.cancel()
	<-done
}

// TestMembershipCountsEveryDepth: the member count is complete only
// when every depth of the broadcast tree reached what the depth above
// delegated. A member whose ledger is late while its child's is in
// balances the totals (1 + fan-outs = reporters), and must not pass.
func TestMembershipCountsEveryDepth(t *testing.T) {
	q := &queryState{}
	q.countMember(0, 2) // the coordinator delegates to a and b
	q.countMember(1, 0) // a, a leaf
	if n, complete := q.membership(); n != 3 || complete {
		t.Fatalf("b missing: %d expected, complete %v; want 3, false", n, complete)
	}
	q.countMember(2, 0) // c, whom b delegated to, reports before b
	if n, complete := q.membership(); n != 3 || complete {
		t.Fatalf("b late, its child in: %d expected, complete %v; want 3, false", n, complete)
	}
	q.countMember(1, 1) // b
	if n, complete := q.membership(); n != 4 || !complete {
		t.Fatalf("every member in: %d expected, complete %v; want 4, true", n, complete)
	}
}
