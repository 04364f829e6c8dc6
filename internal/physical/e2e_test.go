package physical_test

// End-to-end: S3's three join strategies, executed through the
// physical operator pipelines on a full simulated cluster, must
// return byte-identical result rows. Lives in the external test
// package so it can drive piertest (which imports pier, which imports
// physical). Run it under -race: the pipelines span the transport
// dispatch goroutine, inlet pumps, and per-operator goroutines.

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/piertest"
	"repro/internal/plan"
	"repro/internal/tuple"
)

func TestJoinStrategiesByteIdenticalThroughPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-cluster simulated deployment")
	}
	const n, perNode, rightTotal, matched = 12, 6, 60, 12
	leftSchema := tuple.MustSchema("l", []tuple.Column{
		{Name: "node", Type: tuple.TString},
		{Name: "k", Type: tuple.TInt},
	}, "node", "k")
	rightSchema := tuple.MustSchema("r", []tuple.Column{
		{Name: "k", Type: tuple.TInt},
		{Name: "info", Type: tuple.TString},
	}, "k")

	run := func(strategy plan.JoinStrategy) (string, int) {
		cluster, err := piertest.New(piertest.Options{N: n, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		defer cluster.Close()
		for _, nd := range cluster.Nodes {
			if err := nd.DefineTable(leftSchema, time.Minute); err != nil {
				t.Fatal(err)
			}
			if err := nd.DefineTable(rightSchema, time.Minute); err != nil {
				t.Fatal(err)
			}
		}
		for i, nd := range cluster.Nodes {
			for j := 0; j < perNode; j++ {
				k := int64((i*perNode + j) % matched)
				if err := nd.PublishLocal("l", tuple.Tuple{tuple.String(nd.Addr()), tuple.Int(k)}); err != nil {
					t.Fatal(err)
				}
			}
		}
		for k := 0; k < rightTotal; k++ {
			nd := cluster.Nodes[k%n]
			if err := nd.Publish("r", tuple.Tuple{tuple.Int(int64(k)), tuple.String(fmt.Sprintf("info-%d", k))}); err != nil {
				t.Fatal(err)
			}
		}
		time.Sleep(400 * time.Millisecond) // let right-table puts land
		res, err := cluster.Nodes[0].QueryWithOptions(context.Background(),
			"SELECT a.node, b.info FROM l a JOIN r b ON a.k = b.k",
			plan.Options{Strategy: &strategy})
		if err != nil {
			t.Fatalf("strategy %v: %v", strategy, err)
		}
		enc := make([]string, len(res.Rows))
		for i, r := range res.Rows {
			enc[i] = string(r.Bytes())
		}
		sort.Strings(enc)
		var sb strings.Builder
		for _, e := range enc {
			fmt.Fprintf(&sb, "%d:%s", len(e), e)
		}
		return sb.String(), len(res.Rows)
	}

	wantRows := n * perNode // every left tuple joins exactly once
	digests := map[plan.JoinStrategy]string{}
	for _, s := range []plan.JoinStrategy{plan.SymmetricHash, plan.FetchMatches, plan.BloomJoin} {
		digest, rows := run(s)
		if rows != wantRows {
			t.Fatalf("strategy %v returned %d rows, want %d", s, rows, wantRows)
		}
		digests[s] = digest
	}
	if digests[plan.SymmetricHash] != digests[plan.FetchMatches] {
		t.Fatal("symmetric-hash and fetch-matches rows differ")
	}
	if digests[plan.SymmetricHash] != digests[plan.BloomJoin] {
		t.Fatal("symmetric-hash and bloom rows differ")
	}
}

// TestExplainAnalyzeGathersAllStages checks the distributed EXPLAIN
// ANALYZE: a join + aggregation query must come back with counters
// from every pipeline stage and a participant scan total matching the
// published data.
func TestExplainAnalyzeGathersAllStages(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated deployment")
	}
	const n, perNode = 8, 5
	schema := tuple.MustSchema("v", []tuple.Column{
		{Name: "node", Type: tuple.TString},
		{Name: "i", Type: tuple.TInt},
		{Name: "val", Type: tuple.TFloat},
	}, "node", "i")
	cluster, err := piertest.New(piertest.Options{N: n, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	for _, nd := range cluster.Nodes {
		if err := nd.DefineTable(schema, time.Minute); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < perNode; i++ {
			if err := nd.PublishLocal("v", tuple.Tuple{
				tuple.String(nd.Addr()), tuple.Int(int64(i)), tuple.Float(2.5),
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	res, err := cluster.Nodes[0].QueryWithOptions(context.Background(),
		"SELECT SUM(val) FROM v", plan.Options{Analyze: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].F != float64(n*perNode)*2.5 {
		t.Fatalf("wrong result %v", res.Rows)
	}
	if res.Analysis == nil {
		t.Fatal("no analysis gathered")
	}
	stats := map[string]plan.OpStats{}
	for _, o := range res.Analysis.Ops {
		stats[o.Stage+"/"+o.Op] = o
	}
	scan, ok := stats["participant/scan"]
	if !ok {
		t.Fatalf("no participant scan counters in %v", res.Analysis.Ops)
	}
	// The stop broadcast is best effort, but on the loss-free simnet
	// every node's counters should arrive.
	if scan.Nodes != n || scan.RowsOut != n*perNode {
		t.Fatalf("scan counters %+v", scan)
	}
	if _, ok := stats["agg-collector/final-agg"]; !ok {
		t.Fatal("no agg-collector counters")
	}
	if _, ok := stats["coordinator/collect"]; !ok {
		t.Fatal("no coordinator counters")
	}
	if !strings.Contains(res.AnalyzeReport, "EXPLAIN ANALYZE") ||
		!strings.Contains(res.AnalyzeReport, "partial-agg") {
		t.Fatalf("report:\n%s", res.AnalyzeReport)
	}
}

// TestExplainAnalyzeBloomPhaseCounters checks that the Bloom-join
// phase-1 scan (a query of its own, run before the main query is
// announced) contributes every node's counters to the main query's
// analysis.
func TestExplainAnalyzeBloomPhaseCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated deployment")
	}
	const n = 8
	cluster, err := piertest.New(piertest.Options{N: n, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	leftSchema := tuple.MustSchema("l", []tuple.Column{
		{Name: "node", Type: tuple.TString},
		{Name: "k", Type: tuple.TInt},
	}, "node", "k")
	rightSchema := tuple.MustSchema("r", []tuple.Column{
		{Name: "k", Type: tuple.TInt},
		{Name: "info", Type: tuple.TString},
	}, "k")
	for _, nd := range cluster.Nodes {
		if err := nd.DefineTable(leftSchema, time.Minute); err != nil {
			t.Fatal(err)
		}
		if err := nd.DefineTable(rightSchema, time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	for i, nd := range cluster.Nodes {
		if err := nd.PublishLocal("l", tuple.Tuple{tuple.String(nd.Addr()), tuple.Int(int64(i % 3))}); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < 20; k++ {
		if err := cluster.Nodes[k%n].Publish("r", tuple.Tuple{tuple.Int(int64(k)), tuple.String(fmt.Sprintf("i%d", k))}); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(400 * time.Millisecond)
	strat := plan.BloomJoin
	res, err := cluster.Nodes[0].QueryWithOptions(context.Background(),
		"SELECT a.node, b.info FROM l a JOIN r b ON a.k = b.k",
		plan.Options{Strategy: &strat, Analyze: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != n {
		t.Fatalf("%d rows, want %d", len(res.Rows), n)
	}
	if res.Analysis == nil {
		t.Fatal("no analysis")
	}
	var bloomScan *plan.OpStats
	for i := range res.Analysis.Ops {
		if res.Analysis.Ops[i].Op == "bloom-scan" {
			bloomScan = &res.Analysis.Ops[i]
		}
	}
	if bloomScan == nil {
		t.Fatalf("no bloom-scan counters in %v", res.Analysis.Ops)
	}
	if bloomScan.Nodes != n || bloomScan.RowsOut != n {
		t.Fatalf("bloom-scan counters %+v", bloomScan)
	}
}
