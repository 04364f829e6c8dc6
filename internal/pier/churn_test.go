package pier

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/simnet"
	"repro/internal/tuple"
)

// Churn-tolerant execution: queries over a cluster losing members must
// complete without waiting out the quiescence timer, and the result
// must say exactly which fraction of the table partitions it reflects.

// TestCrashBeforeQueryEndsEosOverSurvivors kills one member and waits for
// the survivors' ring to close around it. A node the ring no longer
// reaches is no longer a member: the query ends eos over the survivors
// with full coverage, and the dead node's local row is absent.
func TestCrashBeforeQueryEndsEosOverSurvivors(t *testing.T) {
	const n = 8
	nodes, net := cluster(t, n, 901)
	defineEverywhere(t, nodes, trafficSchema, time.Minute)
	for i, nd := range nodes {
		if err := nd.PublishLocal("traffic", tuple32(nd.Addr(), float64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	net.SetDown(nodes[6].Addr(), true)
	waitOverlay(t, append(nodes[:6:6], nodes[7]))

	res, err := nodes[0].Query(context.Background(), "SELECT node, rate FROM traffic")
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != ReasonEOS || res.Coverage != 1 {
		t.Fatalf("ended %q with coverage %v, want %q and 1", res.Reason, res.Coverage, ReasonEOS)
	}
	if len(res.Rows) != n-1 {
		t.Fatalf("%d rows, want one per survivor (%d)", len(res.Rows), n-1)
	}
	for _, row := range res.Rows {
		if row[0].S == nodes[6].Addr() {
			t.Fatalf("result contains the dead node's row: %v", row)
		}
	}
}

// TestMembersLeave: a node that leaves stops being a member once the
// survivors' ring closes without it. Its DHT rows live on in replicas,
// so every query from then on ends eos with full coverage and every
// row, without waiting out a suspicion grace for the departed node.
func TestMembersLeave(t *testing.T) {
	const n, rows = 8, 40
	// No republish round runs: the survivors answer for the departed
	// node's rows from the replicas they hold, with nothing promoted.
	cfg := testNodeConfig()
	cfg.DHT.RepublishEvery = time.Hour
	nodes, _ := clusterWithConfig(t, n, 906, cfg)
	kv := tuple.MustSchema("kv", []tuple.Column{{Name: "k", Type: tuple.TInt}}, "k")
	defineEverywhere(t, nodes, kv, time.Minute)
	for i := 0; i < rows; i++ {
		if err := nodes[i%n].Publish("kv", tuple.Tuple{tuple.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	tbl, _ := nodes[0].cat.Lookup("kv")
	ns := tbl.Namespace
	// stored waits until the nodes hold every row once, at its owner.
	stored := func() {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			held := 0
			for _, nd := range nodes {
				held += nd.store.Count(ns)
			}
			if held == rows {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("the nodes own %d of %d rows", held, rows)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	query := func(what string) {
		t.Helper()
		res, err := nodes[0].Query(context.Background(), "SELECT k FROM kv")
		if err != nil {
			t.Fatal(err)
		}
		if res.Reason != ReasonEOS || res.Coverage != 1 || len(res.Rows) != rows {
			t.Fatalf("%s: ended %q, coverage %v, %d rows; want %q, 1, %d rows",
				what, res.Reason, res.Coverage, len(res.Rows), ReasonEOS, rows)
		}
		seen := make(map[int64]bool, rows)
		for _, r := range res.Rows {
			seen[r[0].I] = true
		}
		if len(seen) != rows {
			t.Fatalf("%s: %d distinct keys in %d rows", what, len(seen), rows)
		}
	}
	stored()
	query("before the departure")
	nodes[5].Stop()
	waitOverlay(t, append(nodes[:5:5], nodes[6:]...))
	// The departed node's rows are now the replicas its successor holds,
	// which it scans because it owns their keys.
	for i := 0; i < 10; i++ {
		query(fmt.Sprintf("query %d after the departure", i))
	}
}

// TestMembersGrow: nodes that join are members of the next query once
// the ring has closed around them — no node is told the cluster grew.
func TestMembersGrow(t *testing.T) {
	nodes, net := cluster(t, 6, 907)
	cfg := testNodeConfig()
	for i := len(nodes); i < 9; i++ {
		ep, err := net.Endpoint(fmt.Sprintf("node%d", i))
		if err != nil {
			t.Fatal(err)
		}
		nd, err := NewNode(ep, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(nd.Stop)
		if err := nd.Join(context.Background(), nodes[0].Addr()); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, nd)
	}
	waitOverlay(t, nodes)
	defineEverywhere(t, nodes, trafficSchema, time.Minute)
	for i, nd := range nodes {
		if err := nd.PublishLocal("traffic", tuple32(nd.Addr(), float64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	res, err := nodes[0].Query(context.Background(), "SELECT node, rate FROM traffic")
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != ReasonEOS || res.Coverage != 1 || len(res.Rows) != len(nodes) {
		t.Fatalf("ended %q, coverage %v, %d rows; want %q, 1, %d rows",
			res.Reason, res.Coverage, len(res.Rows), ReasonEOS, len(nodes))
	}
}

// TestMembersCrashMidQuery: a member that crashes once the query has
// reached it leaves the query short, and the query says so: it ends
// churn-degraded with at most (n-1)/n of the partitions. The victim is
// the coordinator's successor, which the broadcast always reaches
// directly and which delegates to nobody (its interval ends at the next
// successor), so no survivor depends on it for a drain round either.
func TestMembersCrashMidQuery(t *testing.T) {
	const n = 8
	nodes, net := clusterWithNet(t, n, slowNet(908), testNodeConfig())
	defineEverywhere(t, nodes, trafficSchema, time.Minute)
	for i, nd := range nodes {
		if err := nd.PublishLocal("traffic", tuple32(nd.Addr(), float64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	const sql = "SELECT node, rate FROM traffic"
	if res, err := nodes[0].Query(context.Background(), sql); err != nil || res.Reason != ReasonEOS {
		t.Fatalf("warm-up: %v, %+v", err, res)
	}
	var victim *Node
	for _, nd := range nodes {
		if nd.Addr() == nodes[0].Router().Successor().Addr {
			victim = nd
		}
	}
	reached := victim.Metrics.QueriesParticipated.Load()
	crashed := make(chan struct{})
	go func() {
		defer close(crashed)
		for victim.Metrics.QueriesParticipated.Load() == reached {
			time.Sleep(100 * time.Microsecond)
		}
		net.SetDown(victim.Addr(), true)
	}()
	res, err := nodes[0].Query(context.Background(), sql)
	<-crashed
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != ReasonChurnDegraded || res.Coverage > float64(n-1)/n {
		t.Fatalf("ended %q with coverage %v, want %q and at most %v",
			res.Reason, res.Coverage, ReasonChurnDegraded, float64(n-1)/n)
	}
}

// TestNoChurnFullCoverage: on a stable cluster the EOS proof completes
// the query and coverage is exactly 1.0 — the honesty tag never
// underclaims a provably complete result.
func TestNoChurnFullCoverage(t *testing.T) {
	nodes, _ := cluster(t, 6, 902)
	defineEverywhere(t, nodes, trafficSchema, time.Minute)
	for i, nd := range nodes {
		if err := nd.PublishLocal("traffic", tuple32(nd.Addr(), float64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	res, err := nodes[2].Query(context.Background(), "SELECT node, rate FROM traffic")
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != ReasonEOS {
		t.Fatalf("completion reason %q, want %q", res.Reason, ReasonEOS)
	}
	if res.Coverage != 1 {
		t.Fatalf("coverage %v, want exactly 1", res.Coverage)
	}
	if cov := res.CoverageByTable["traffic"]; cov != 1 {
		t.Fatalf("per-table coverage %v, want 1", cov)
	}
}

// TestCrashMidQueryCompletes crashes a member while the query is in
// flight. The exact completion depends on how far the victim got, but
// the query must always terminate promptly, and the reason must match
// the coverage: a claimed-complete result has coverage 1, a degraded
// one strictly less.
func TestCrashMidQueryCompletes(t *testing.T) {
	const n = 8
	nodes, net := cluster(t, n, 904)
	defineEverywhere(t, nodes, trafficSchema, time.Minute)
	for i, nd := range nodes {
		if err := nd.PublishLocal("traffic", tuple32(nd.Addr(), float64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	victim := nodes[5].Addr()
	timer := time.AfterFunc(20*time.Millisecond, func() { net.SetDown(victim, true) })
	defer timer.Stop()
	res, err := nodes[0].Query(context.Background(), "SELECT node, rate FROM traffic")
	if err != nil {
		t.Fatal(err)
	}
	switch res.Reason {
	case ReasonEOS:
		if res.Coverage != 1 {
			t.Fatalf("eos completion with coverage %v", res.Coverage)
		}
	case ReasonChurnDegraded:
		if res.Coverage <= 0 || res.Coverage >= 1 {
			t.Fatalf("degraded completion with coverage %v, want in (0, 1)", res.Coverage)
		}
	case ReasonQuietTimeout:
		// The fallback may still win the race; it equally marks the
		// result potentially partial.
	default:
		t.Fatalf("unexpected completion reason %q", res.Reason)
	}
	if res.Duration > nodes[0].cfg.MaxQueryLife/2 {
		t.Fatalf("completion took %v under a single crash", res.Duration)
	}
}

// TestRecursiveCrashedMemberSaysSo: a recursive query over a cluster
// that lost a member closes only the links it could reach. Both
// distributed queries underneath it (the base block and the step
// table's materialization) end degraded, and the recursive result must
// carry that, not present a silent partial closure as complete.
func TestRecursiveCrashedMemberSaysSo(t *testing.T) {
	const n = 8
	nodes, net := cluster(t, n, 906)
	defineEverywhere(t, nodes, linkSchema, time.Minute)
	// A chain v0 -> v1 -> ... -> v8, one link per node's partition (the
	// coordinator holds two).
	for i := 0; i <= n; i++ {
		link := tuple.Tuple{tuple.String(fmt.Sprintf("v%d", i)), tuple.String(fmt.Sprintf("v%d", i+1))}
		if err := nodes[i%n].PublishLocal("link", link); err != nil {
			t.Fatal(err)
		}
	}
	// Queried at once, while the ring still delegates to the dead node.
	net.SetDown(nodes[6].Addr(), true)

	res, err := nodes[0].Query(context.Background(), `
		WITH RECURSIVE reach AS (
			SELECT src, dst FROM link
			UNION
			SELECT reach.src, l.dst FROM link l JOIN reach ON reach.dst = l.src
		) SELECT src, dst FROM reach`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason == ReasonEOS || res.Reason == "" {
		t.Fatalf("closure over a crashed member ended %q", res.Reason)
	}
	if res.Coverage <= 0 || res.Coverage >= 1 || res.CoverageByTable["link"] != res.Coverage {
		t.Fatalf("coverage %v %v, want in (0, 1) on the one table", res.Coverage, res.CoverageByTable)
	}
	// The dead node held v6 -> v7, the only way into v7.
	for _, row := range res.Rows {
		if row[1].S == "v7" {
			t.Fatalf("closure reaches v7 over the dead node's link: %v", row)
		}
	}
	if len(res.Rows) == 0 {
		t.Fatal("surviving links produced no closure")
	}
}

// TestAnalyzeMemberDownInstallsNothing: ANALYZE with a member down is
// a query with a member down. It ends churn-degraded with coverage
// (n-1)/n and installs nothing, because the survivors' count is not
// the table's size. Once the member is back, ANALYZE ends eos with the
// exact count.
func TestAnalyzeMemberDownInstallsNothing(t *testing.T) {
	const n = 6
	nodes, net := cluster(t, n, 905)
	defineEverywhere(t, nodes, trafficSchema, time.Minute)
	for i, nd := range nodes {
		if err := nd.PublishLocal("traffic", tuple32(nd.Addr(), float64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	// Queried at once, while the ring still delegates to the dead node.
	dead := nodes[4].Addr()
	net.SetDown(dead, true)

	res, err := nodes[0].Query(context.Background(), "ANALYZE traffic")
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != ReasonChurnDegraded || res.Coverage != float64(n-1)/n {
		t.Fatalf("analyze with %s down ended %q, coverage %v; want %q, %v",
			dead, res.Reason, res.Coverage, ReasonChurnDegraded, float64(n-1)/n)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("analyze reported %v from a partial count", res.Rows)
	}
	if _, src, _ := nodes[0].Catalog().StatsInfo("traffic"); src != catalog.StatsDefault {
		t.Fatalf("a partial count installed stats of source %v", src)
	}

	net.SetDown(dead, false)
	// Once the ring has closed around the returned member, ANALYZE
	// reaches every node and measures every row.
	waitOverlay(t, nodes)
	// The partial count was not broadcast either: by the time the ring
	// has closed, a broadcast would have reached every node.
	for _, nd := range nodes {
		if _, src, _ := nd.Catalog().StatsInfo("traffic"); src != catalog.StatsDefault {
			t.Fatalf("a partial count installed stats of source %v at %s", src, nd.Addr())
		}
	}
	ar, err := nodes[0].Analyze(context.Background(), "traffic")
	if err != nil {
		t.Fatal(err)
	}
	if ar.Reason != ReasonEOS || len(ar.Tables) != 1 || ar.Tables[0].Rows != n {
		t.Fatalf("analyze after rejoin ended %q, measuring %+v; want eos with %d rows", ar.Reason, ar.Tables, n)
	}
	waitMeasured(t, nodes, "traffic", n)
}

// TestQueriesUnderScriptedChurn runs one-shot scans on a 16-node
// cluster while a seeded simnet.GenerateScript crashes, partitions and
// slows every node but the coordinator (a dead coordinator is a failed
// client, not a degraded query). Every cell completes queries, and
// with no churn every query ends eos with full coverage. A cell lasts
// seconds, not the minutes the rates are quoted in, so the rates are
// high enough to fire events inside it.
func TestQueriesUnderScriptedChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulated deployment")
	}
	const n, queries, every, seed = 16, 8, 500 * time.Millisecond, 7
	cells := []struct {
		name  string
		rates simnet.ChurnRates
	}{
		{name: "none"},
		{name: "low", rates: simnet.ChurnRates{
			CrashPerMin: 2, DownForMin: time.Second, DownForMax: 3 * time.Second,
		}},
		{name: "high", rates: simnet.ChurnRates{
			CrashPerMin: 6, DownForMin: time.Second, DownForMax: 3 * time.Second,
			PartitionPerMin: 15, HealAfter: time.Second,
			StormPerMin: 15, StormFactor: 4, StormFor: 500 * time.Millisecond,
		}},
	}
	for _, cell := range cells {
		t.Run(cell.name, func(t *testing.T) {
			cfg := testNodeConfig()
			cfg.HeartbeatEvery = 50 * time.Millisecond
			nodes, net := clusterWithConfig(t, n, seed, cfg)
			defineEverywhere(t, nodes, trafficSchema, 10*time.Minute)
			for i, nd := range nodes {
				if err := nd.PublishLocal("traffic", tuple32(nd.Addr(), float64(i+1))); err != nil {
					t.Fatal(err)
				}
			}
			churned := cell.rates != simnet.ChurnRates{}
			if churned {
				targets := make([]string, 0, n-1)
				for _, nd := range nodes[1:] {
					targets = append(targets, nd.Addr())
				}
				script := simnet.GenerateScript(targets, queries*every, cell.rates, seed)
				if len(script) == 0 {
					t.Fatal("the script fires no event while the queries run")
				}
				churner := simnet.NewChurner(net, script)
				churner.Start()
				t.Cleanup(func() {
					churner.Stop()
					net.Heal()
					net.SetLatencyFactor(1)
				})
			}
			start := time.Now()
			succeeded, reasons := 0, map[string]int{}
			for q := 0; q < queries; q++ {
				if churned {
					time.Sleep(time.Until(start.Add(time.Duration(q) * every)))
				}
				res, err := nodes[0].Query(context.Background(), "SELECT node, rate FROM traffic")
				if err != nil {
					if !churned {
						t.Fatalf("query %d: %v", q, err)
					}
					continue // a broadcast lost to churn fails the query
				}
				succeeded++
				reasons[res.Reason]++
				if !churned && (res.Reason != ReasonEOS || res.Coverage != 1) {
					t.Fatalf("query %d ended %q with coverage %v, want eos and 1", q, res.Reason, res.Coverage)
				}
			}
			if succeeded == 0 {
				t.Fatal("no query completed")
			}
			t.Logf("%d of %d queries completed: %v", succeeded, queries, reasons)
		})
	}
}
