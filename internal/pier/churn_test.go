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

// TestCrashBeforeQueryDegradesCoverage kills one member, lets the ring
// heal, and runs a scan: the coordinator must complete churn-degraded
// on the survivors' ledgers (not the quiet fallback), with coverage
// accounting for exactly the served partitions.
func TestCrashBeforeQueryDegradesCoverage(t *testing.T) {
	const n = 8
	nodes, net := cluster(t, n, 901)
	defineEverywhere(t, nodes, trafficSchema, time.Minute)
	for i, nd := range nodes {
		if err := nd.PublishLocal("traffic", tuple32(nd.Addr(), float64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	// Crash a non-coordinator member and let chord route around it so
	// the query broadcast reaches every survivor.
	net.SetDown(nodes[6].Addr(), true)
	time.Sleep(300 * time.Millisecond)

	res, err := nodes[0].Query(context.Background(), "SELECT node, rate FROM traffic")
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != ReasonChurnDegraded {
		t.Fatalf("completion reason %q, want %q", res.Reason, ReasonChurnDegraded)
	}
	if res.Coverage <= 0 || res.Coverage >= 1 {
		t.Fatalf("coverage %v, want in (0, 1)", res.Coverage)
	}
	// Served partitions and delivered rows are the same nodes: one row
	// per surviving member that got the broadcast, none fabricated.
	served := int(res.Coverage*n + 0.5)
	if len(res.Rows) != served {
		t.Fatalf("%d rows but coverage says %d/%d partitions", len(res.Rows), served, n)
	}
	if cov := res.CoverageByTable["traffic"]; cov != res.Coverage {
		t.Fatalf("per-table coverage %v != overall %v (single scan)", cov, res.Coverage)
	}
	for _, row := range res.Rows {
		if row[0].S == nodes[6].Addr() {
			t.Fatalf("result contains the dead node's row: %v", row)
		}
	}
	if res.Duration > nodes[0].cfg.MaxQueryLife/2 {
		t.Fatalf("degraded completion took %v — churn path did not engage", res.Duration)
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

// TestNewNodeRequiresMembers: the member count is the denominator of
// EOS completion and of coverage, so a node without one is refused
// rather than left to end every query on a timer.
func TestNewNodeRequiresMembers(t *testing.T) {
	net := simnet.New(simnet.Config{Seed: 903})
	defer net.Close()
	ep, err := net.Endpoint("node0")
	if err != nil {
		t.Fatal(err)
	}
	if nd, err := NewNode(ep, testNodeConfig()); err == nil {
		nd.Stop()
		t.Fatal("NewNode accepted Members 0")
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
	net.SetDown(nodes[6].Addr(), true)
	time.Sleep(300 * time.Millisecond) // let chord route around the body

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
	dead := nodes[4].Addr()
	net.SetDown(dead, true)
	time.Sleep(300 * time.Millisecond) // let chord route around the body

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
	deadline := time.Now().Add(10 * time.Second)
	for {
		ar, err := nodes[0].Analyze(context.Background(), "traffic")
		if err != nil {
			t.Fatal(err)
		}
		if ar.Reason == ReasonEOS {
			if len(ar.Tables) != 1 || ar.Tables[0].Rows != n {
				t.Fatalf("analyze after rejoin measured %+v, want %d rows", ar.Tables, n)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("analyze after rejoin still ends %q", ar.Reason)
		}
	}
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
