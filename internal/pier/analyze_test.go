package pier_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/piertest"
	"repro/internal/tuple"
)

var analyzeLeftSchema = tuple.MustSchema("l", []tuple.Column{
	{Name: "node", Type: tuple.TString},
	{Name: "k", Type: tuple.TInt},
}, "node", "k")

var analyzeRightSchema = tuple.MustSchema("r", []tuple.Column{
	{Name: "k", Type: tuple.TInt},
	{Name: "info", Type: tuple.TString},
}, "k")

func seedAnalyzeTables(t *testing.T, cluster *piertest.Cluster, perNode, rightRows int) {
	t.Helper()
	for _, nd := range cluster.Nodes {
		if err := nd.DefineTable(analyzeLeftSchema, 5*time.Minute); err != nil {
			t.Fatal(err)
		}
		if err := nd.DefineTable(analyzeRightSchema, 5*time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	for i, nd := range cluster.Nodes {
		for j := 0; j < perNode; j++ {
			k := int64((i*perNode + j) % 20)
			if err := nd.PublishLocal("l", tuple.Tuple{tuple.String(nd.Addr()), tuple.Int(k)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for k := 0; k < rightRows; k++ {
		nd := cluster.Nodes[k%len(cluster.Nodes)]
		if err := nd.Publish("r", tuple.Tuple{tuple.Int(int64(k)), tuple.String("info")}); err != nil {
			t.Fatal(err)
		}
	}
	// Wait for the DHT puts to land on their owners.
	deadline := time.Now().Add(10 * time.Second)
	for {
		total := 0
		for _, nd := range cluster.Nodes {
			total += nd.Store().Count("table:r")
		}
		if total >= rightRows {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("right-table puts landed %d/%d", total, rightRows)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestAnalyzeMeasuresAndGossips: ANALYZE measures network-wide
// rows/distincts from the DHT, installs them as measured soft state,
// annotates EXPLAIN, and gossip converges other nodes to the same
// estimates without them issuing ANALYZE.
func TestAnalyzeMeasuresAndGossips(t *testing.T) {
	cluster, err := piertest.New(piertest.Options{N: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	const perNode, rightRows = 20, 60
	seedAnalyzeTables(t, cluster, perNode, rightRows)
	wantLeft := int64(perNode * len(cluster.Nodes))

	coord := cluster.Nodes[0]
	res, err := coord.Analyze(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Participants < len(cluster.Nodes)/2 {
		t.Fatalf("only %d participants", res.Participants)
	}
	byTable := map[string]int64{}
	for _, tb := range res.Tables {
		byTable[tb.Table] = tb.Rows
		if tb.SampleRows == 0 {
			t.Fatalf("%s: empty row sample", tb.Table)
		}
	}
	within2x := func(got, want int64) bool {
		return got > 0 && got <= 2*want && want <= 2*got
	}
	if !within2x(byTable["l"], wantLeft) {
		t.Fatalf("l rows %d, true %d", byTable["l"], wantLeft)
	}
	if !within2x(byTable["r"], rightRows) {
		t.Fatalf("r rows %d, true %d", byTable["r"], rightRows)
	}
	for _, tb := range res.Tables {
		if tb.Table == "l" {
			if d := tb.Distinct["k"]; d < 15 || d > 25 { // true distinct: 20
				t.Fatalf("distinct(l.k)=%d, want ~20", d)
			}
		}
	}

	// Measured provenance at the coordinator, annotated in EXPLAIN.
	if _, src, _ := coord.Catalog().StatsInfo("l"); src != catalog.StatsMeasured {
		t.Fatalf("coordinator source %v, want measured", src)
	}
	plan, err := coord.Explain("SELECT a.node, b.info FROM l a JOIN r b ON a.k = b.k")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "stats=analyzed") {
		t.Fatalf("EXPLAIN missing measured annotation:\n%s", plan)
	}

	// Gossip converges a node that never ran ANALYZE.
	other := cluster.Nodes[5]
	deadline := time.Now().Add(15 * time.Second)
	for {
		st, src, _ := other.Catalog().StatsInfo("l")
		if src == catalog.StatsGossiped && within2x(st.Rows, wantLeft) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("gossip did not reach node5 (src=%v rows=%d)", src, st.Rows)
		}
		time.Sleep(25 * time.Millisecond)
	}
	plan, err = other.Explain("SELECT a.node, b.info FROM l a JOIN r b ON a.k = b.k")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "stats=gossiped") {
		t.Fatalf("EXPLAIN missing gossip annotation:\n%s", plan)
	}
	// Declared stats still win over gossip on the node that sets them.
	if err := other.SetTableStats("l", catalog.TableStats{Rows: 7}); err != nil {
		t.Fatal(err)
	}
	if st, src, _ := other.Catalog().StatsInfo("l"); src != catalog.StatsDeclared || st.Rows != 7 {
		t.Fatalf("declared did not win: %v %d", src, st.Rows)
	}
}

// TestAnalyzeSQLStatement: `ANALYZE l` through the SQL front end
// returns the measured stats as rows.
func TestAnalyzeSQLStatement(t *testing.T) {
	cluster, err := piertest.New(piertest.Options{N: 6, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	seedAnalyzeTables(t, cluster, 10, 30)

	res, err := cluster.Nodes[2].Query(context.Background(), "ANALYZE l")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 4 || res.Columns[0] != "table" {
		t.Fatalf("columns %v", res.Columns)
	}
	if res.Reason != "eos" || res.Coverage != 1 || res.CoverageByTable["l"] != 1 {
		t.Fatalf("reason %q coverage %v %v, want eos and full coverage", res.Reason, res.Coverage, res.CoverageByTable)
	}
	found := false
	for _, row := range res.Rows {
		if row[0].S == "l" && row[2].S == "k" {
			found = true
			if rows := row[1].I; rows != int64(10*len(cluster.Nodes)) {
				t.Fatalf("ANALYZE l measured %d rows", rows)
			}
		}
	}
	if !found {
		t.Fatalf("no (l, k) row in %v", res.Rows)
	}
	if _, err := cluster.Nodes[2].Query(context.Background(), "ANALYZE nosuch"); err == nil {
		t.Fatal("ANALYZE of unknown table succeeded")
	}
}
