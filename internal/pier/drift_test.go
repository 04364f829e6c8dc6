package pier

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/tuple"
)

// rewindDrift clears every node's rate-limit stamp for table, as if
// statsDriftMinInterval had passed since the stats were installed.
func rewindDrift(nodes []*Node, table string) {
	for _, nd := range nodes {
		nd.driftMu.Lock()
		m := nd.drift[table]
		m.last = time.Time{}
		nd.drift[table] = m
		nd.driftMu.Unlock()
	}
}

// autoAnalyzes sums Metrics.AutoAnalyzes over nodes.
func autoAnalyzes(nodes []*Node) uint64 {
	var sum uint64
	for _, nd := range nodes {
		sum += nd.Metrics.AutoAnalyzes.Load()
	}
	return sum
}

// waitMeasured waits until every node plans table from measured stats
// of rows rows.
func waitMeasured(t *testing.T, nodes []*Node, table string, rows int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for _, nd := range nodes {
		for {
			st, src, _ := nd.Catalog().StatsInfo(table)
			if src == catalog.StatsMeasured && st.Rows == rows {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s at %s: %v stats of %d rows, want measured %d (auto re-ANALYZEs %d)",
					table, nd.Addr(), src, st.Rows, rows, autoAnalyzes(nodes))
			}
			time.Sleep(25 * time.Millisecond)
		}
	}
}

// TestDriftAutoReanalyze: after an ANALYZE baselines a node's live row
// count, growing its partition past statsDriftFactor × baseline must
// trigger an automatic re-ANALYZE that refreshes the catalog's measured
// row count. The test rewinds the rate-limit stamps rather than wait
// out statsDriftMinInterval.
func TestDriftAutoReanalyze(t *testing.T) {
	nodes, _ := cluster(t, 3, 951)
	defineEverywhere(t, nodes, trafficSchema, time.Minute)
	publish := func(from, to int) {
		for i := from; i < to; i++ {
			if err := nodes[0].PublishLocal("traffic", tuple32(fmt.Sprintf("n%d", i), 1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	publish(0, 10)
	if _, err := nodes[0].Analyze(context.Background(), "traffic"); err != nil {
		t.Fatal(err)
	}
	waitMeasured(t, nodes, "traffic", 10)
	rewindDrift(nodes, "traffic")
	publish(10, 100)
	waitMeasured(t, nodes, "traffic", 100)
	if got := autoAnalyzes(nodes); got != 1 {
		t.Fatalf("%d auto re-ANALYZEs over the nodes, want 1", got)
	}
}

// driftCluster builds n nodes holding 10 rows of l each, runs one
// ANALYZE at node 0 and waits for every node to install it, and
// rewinds the rate-limit stamps so drift may trigger at once.
func driftCluster(t *testing.T, n int) []*Node {
	t.Helper()
	nodes, _ := cluster(t, n, 4242)
	defineEverywhere(t, nodes, driftSchema, 5*time.Minute)
	for i := range nodes {
		growPartition(t, nodes, i, 0, 10)
	}
	res, err := nodes[0].Analyze(context.Background(), "l")
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != ReasonEOS {
		t.Fatalf("ANALYZE ended %q", res.Reason)
	}
	waitMeasured(t, nodes, "l", int64(10*n))
	rewindDrift(nodes, "l")
	return nodes
}

var driftSchema = tuple.MustSchema("l", []tuple.Column{
	{Name: "node", Type: tuple.TString},
	{Name: "k", Type: tuple.TInt},
}, "node", "k")

// growPartition adds rows [from, to) to node i's local partition of l.
func growPartition(t *testing.T, nodes []*Node, i, from, to int) {
	t.Helper()
	for k := from; k < to; k++ {
		row := tuple.Tuple{tuple.String(nodes[i].Addr()), tuple.Int(int64(k))}
		if err := nodes[i].PublishLocal("l", row); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDriftReanalyzesOncePerTable: when every node's partition of a
// table grows 5×, every node sees the drift, yet the network runs one
// re-ANALYZE: each node sends its notice to the node whose ANALYZE is
// installed, and that node's rate limit drops all notices but the
// first.
func TestDriftReanalyzesOncePerTable(t *testing.T) {
	const n = 16
	nodes := driftCluster(t, n)
	for i := range nodes {
		growPartition(t, nodes, i, 10, 50)
	}
	waitMeasured(t, nodes, "l", 50*n)
	time.Sleep(3 * statsDriftCheckEvery) // room for a second trigger to show
	if got := autoAnalyzes(nodes); got != 1 {
		t.Fatalf("%d auto re-ANALYZEs over %d nodes, want 1", got, n)
	}
}

// TestDriftAtAnotherNodeReanalyzesAtMeasurer: growth at a node that
// did not run the last ANALYZE triggers one re-ANALYZE, run by the
// node that did.
func TestDriftAtAnotherNodeReanalyzesAtMeasurer(t *testing.T) {
	const n = 16
	nodes := driftCluster(t, n)
	growPartition(t, nodes, 5, 10, 50)
	waitMeasured(t, nodes, "l", 10*n+40)
	time.Sleep(3 * statsDriftCheckEvery)
	if got, at0 := autoAnalyzes(nodes), nodes[0].Metrics.AutoAnalyzes.Load(); got != 1 || at0 != 1 {
		t.Fatalf("%d auto re-ANALYZEs over %d nodes, %d at the measurer; want 1 there", got, n, at0)
	}
}
