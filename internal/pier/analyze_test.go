package pier_test

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/pier"
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
	waitStored(t, cluster, "table:r", rightRows)
}

// waitStored waits for the DHT puts into ns to land on their owners.
func waitStored(t *testing.T, cluster *piertest.Cluster, ns string, want int) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		total := 0
		for _, nd := range cluster.Nodes {
			total += nd.Store().Count(ns)
		}
		if total >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s puts landed %d/%d", ns, total, want)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestAnalyzeInstallsOnEveryNode: ANALYZE measures network-wide
// rows/distincts from the DHT — the exact row count, as it ends eos —
// installs them as measured soft state, annotates EXPLAIN, and its
// broadcast installs the same rows, distincts and sample on every
// other node, none of which issued ANALYZE.
func TestAnalyzeInstallsOnEveryNode(t *testing.T) {
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
	if res.Reason != pier.ReasonEOS || res.Participants != len(cluster.Nodes) {
		t.Fatalf("analyze ended %q with %d participants, want eos with %d", res.Reason, res.Participants, len(cluster.Nodes))
	}
	byTable := map[string]int64{}
	for _, tb := range res.Tables {
		byTable[tb.Table] = tb.Rows
		if tb.SampleRows == 0 {
			t.Fatalf("%s: empty row sample", tb.Table)
		}
	}
	if byTable["l"] != wantLeft || byTable["r"] != rightRows {
		t.Fatalf("rows l %d r %d, true %d and %d", byTable["l"], byTable["r"], wantLeft, rightRows)
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

	// Every other node holds what the coordinator installed.
	waitInstalled(t, cluster.Nodes, coord, "l", "r")
	for _, tbl := range []string{"l", "r"} {
		want := coord.Catalog().Stats(tbl)
		for _, nd := range cluster.Nodes[1:] {
			got := nd.Catalog().Stats(tbl)
			if got.Rows != want.Rows || !reflect.DeepEqual(got.Distinct, want.Distinct) || !reflect.DeepEqual(got.Sample, want.Sample) {
				t.Fatalf("%s at %s: rows %d distinct %v sample of %d, coordinator rows %d distinct %v sample of %d",
					tbl, nd.Addr(), got.Rows, got.Distinct, len(got.Sample.Items), want.Rows, want.Distinct, len(want.Sample.Items))
			}
		}
	}
	// Declared stats still win over a received measurement on the node
	// that sets them.
	other := cluster.Nodes[5]
	if err := other.SetTableStats("l", catalog.TableStats{Rows: 7}); err != nil {
		t.Fatal(err)
	}
	if st, src, _ := other.Catalog().StatsInfo("l"); src != catalog.StatsDeclared || st.Rows != 7 {
		t.Fatalf("declared did not win: %v %d", src, st.Rows)
	}
}

// waitInstalled waits until every node holds the measurement of each
// table that coord installed: the one its ANALYZE broadcast carries.
func waitInstalled(t *testing.T, nodes []*pier.Node, coord *pier.Node, tables ...string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for _, tbl := range tables {
		want := coord.Catalog().Stats(tbl).MeasuredAt
		for _, nd := range nodes {
			for {
				st, src, _ := nd.Catalog().StatsInfo(tbl)
				if src == catalog.StatsMeasured && st.MeasuredAt.Equal(want) {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("%s at %s: %v stats measured at %v, want the coordinator's of %v", tbl, nd.Addr(), src, st.MeasuredAt, want)
				}
				time.Sleep(10 * time.Millisecond)
			}
		}
	}
}

// TestExplainSameOnEveryNode: after one ANALYZE, a node that never ran
// it plans a statement exactly as the node that did — the same
// estimates, from the same rows, distincts and sample — so their
// EXPLAIN texts are byte-identical.
func TestExplainSameOnEveryNode(t *testing.T) {
	c, err := piertest.New(piertest.Options{N: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	seedAnalyzeTables(t, c, 20, 60)
	analyzer, other := c.Nodes[0], c.Nodes[5]
	res, err := analyzer.Analyze(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != pier.ReasonEOS {
		t.Fatalf("analyze ended %q", res.Reason)
	}
	waitInstalled(t, c.Nodes, analyzer, "l", "r")
	explain := func(nd *pier.Node, sql string) string {
		t.Helper()
		out, err := nd.Explain(sql)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, sql := range []string{
		"SELECT a.node, b.info FROM l a JOIN r b ON a.k = b.k WHERE b.k < 5",
		"SELECT a.node, b.info FROM l a JOIN r b ON a.k = b.k WHERE a.k = 3",
	} {
		// EXPLAIN renders the statistics' age in whole seconds: compare
		// only across an interval in which the analyzer's own text held.
		for try := 0; ; try++ {
			before, got, after := explain(analyzer, sql), explain(other, sql), explain(analyzer, sql)
			if before != after && try < 3 {
				continue
			}
			if got != before {
				t.Fatalf("%s\nat the analyzing node:\n%s\nat %s:\n%s", sql, before, other.Addr(), got)
			}
			break
		}
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

// TestAnalyzeWideTableNeverInstallsPartial: every node's sketch of a
// 32-column table travels as an aggregate state. ANALYZE either ends
// eos with the exact count, 20, or ends otherwise and leaves the
// catalog as it was: it never installs the count of the partitions it
// happened to hear from.
func TestAnalyzeWideTableNeverInstallsPartial(t *testing.T) {
	cols := make([]tuple.Column, 32)
	for i := range cols {
		cols[i] = tuple.Column{Name: fmt.Sprintf("c%d", i), Type: tuple.TInt}
	}
	wide := tuple.MustSchema("wide", cols, "c0")
	cluster, err := piertest.New(piertest.Options{N: 4, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	for _, nd := range cluster.Nodes {
		if err := nd.DefineTable(wide, 5*time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	for i, nd := range cluster.Nodes {
		for j := 0; j < 5; j++ {
			row := make(tuple.Tuple, len(cols))
			for c := range row {
				row[c] = tuple.Int(int64((i*5+j)*len(cols) + c))
			}
			if err := nd.PublishLocal("wide", row); err != nil {
				t.Fatal(err)
			}
		}
	}
	coord := cluster.Nodes[0]
	res, err := coord.Analyze(context.Background(), "wide")
	if err != nil {
		t.Fatal(err)
	}
	st, src, _ := coord.Catalog().StatsInfo("wide")
	t.Logf("analyze ended %q with %d participants; catalog %v rows=%d", res.Reason, res.Participants, src, st.Rows)
	if res.Reason != pier.ReasonEOS {
		if src != catalog.StatsDefault || len(res.Tables) != 0 {
			t.Fatalf("analyze ended %q yet installed %v stats of %d rows", res.Reason, src, st.Rows)
		}
		return
	}
	if len(res.Tables) != 1 || res.Tables[0].Rows != 20 || src != catalog.StatsMeasured || st.Rows != 20 {
		t.Fatalf("analyze ended eos with %+v, catalog %v rows=%d; want 20 rows measured", res.Tables, src, st.Rows)
	}
	if d := res.Tables[0].Distinct["c31"]; d != 20 {
		t.Fatalf("distinct(c31)=%d, want 20", d)
	}
}

// planShape keeps an EXPLAIN's join order and per-stage strategies and
// drops its statistics annotations, which differ by provenance.
func planShape(explain string) string {
	var shape []string
	for _, line := range strings.Split(explain, "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) >= 2 && f[0] == "Scan":
			shape = append(shape, f[1])
		case len(f) >= 2 && strings.HasPrefix(f[0], "Join#"):
			shape = append(shape, f[0]+f[1])
		}
	}
	return strings.Join(shape, " ")
}

// TestAnalyzeSteersOptimizer: with no hand-declared statistics
// anywhere, ANALYZE and its broadcast (1) count every table exactly, each
// ANALYZE ending eos, (2) steer the optimizer at a node that never ran ANALYZE
// to the join order hand-declared statistics pick, a different one
// from what defaults pick, and (3) every statistics regime returns the
// centralized baseline's rows.
func TestAnalyzeSteersOptimizer(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulated deployment")
	}
	const n, ordersPerNode, nUIDs, nItems = 12, 8, 50, 1200
	// Republishing a thousand DHT items twice a second would swamp the
	// cluster; the items live five minutes.
	cl := spillCluster(t, n, 1, func(c *pier.Config) { c.DHT.RepublishEvery = 5 * time.Second })
	users := tuple.MustSchema("users", []tuple.Column{
		{Name: "uid", Type: tuple.TInt},
		{Name: "name", Type: tuple.TString},
	}, "uid")
	orders := tuple.MustSchema("orders", []tuple.Column{
		{Name: "node", Type: tuple.TString},
		{Name: "oid", Type: tuple.TInt},
		{Name: "uid", Type: tuple.TInt},
		{Name: "item", Type: tuple.TInt},
	}, "node", "oid")
	items := tuple.MustSchema("items", []tuple.Column{
		{Name: "item", Type: tuple.TInt},
		{Name: "price", Type: tuple.TFloat},
	}, "item")
	for _, nd := range cl.Nodes {
		for _, s := range []*tuple.Schema{users, orders, items} {
			if err := nd.DefineTable(s, 5*time.Minute); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Two user rows per uid, so the users join expands; items large.
	for u := 0; u < nUIDs; u++ {
		for c := 0; c < 2; c++ {
			if err := cl.Nodes[(2*u+c)%n].Publish("users", tuple.Tuple{
				tuple.Int(int64(u)), tuple.String(fmt.Sprintf("user-%d-%d", u, c)),
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for it := 0; it < nItems; it++ {
		if err := cl.Nodes[it%n].Publish("items", tuple.Tuple{
			tuple.Int(int64(it)), tuple.Float(float64(it) + 0.5),
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i, nd := range cl.Nodes {
		for j := 0; j < ordersPerNode; j++ {
			oid := i*ordersPerNode + j
			if err := nd.PublishLocal("orders", tuple.Tuple{
				tuple.String(nd.Addr()), tuple.Int(int64(oid)),
				tuple.Int(int64(oid % nUIDs)), tuple.Int(int64(oid % nItems)),
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	trueRows := map[string]int64{"orders": n * ordersPerNode, "users": 2 * nUIDs, "items": nItems}
	waitStored(t, cl, "table:users", 2*nUIDs)
	waitStored(t, cl, "table:items", nItems)

	const sql = "SELECT o.oid, u.name, i.price FROM orders o JOIN users u ON o.uid = u.uid JOIN items i ON o.item = i.item"
	ref, err := centralizedBaseline(cl.Nodes).QuerySQL(context.Background(), sql, 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	want := encodeSorted(ref.Rows)
	// run plans sql at nd, checks its answer against the baseline and
	// returns the plan's shape.
	run := func(nd *pier.Node, regime string) string {
		t.Helper()
		explain, err := nd.Explain(sql)
		if err != nil {
			t.Fatal(err)
		}
		res, err := nd.Query(context.Background(), sql)
		if err != nil {
			t.Fatalf("%s: %v", regime, err)
		}
		if got := encodeSorted(res.Rows); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %d rows differ from the baseline's %d", regime, len(got), len(want))
		}
		return planShape(explain)
	}
	declaredAt, analyzeAt, otherAt := cl.Nodes[0], cl.Nodes[1], cl.Nodes[2]

	defaultsPlan := run(otherAt, "defaults")

	// The truth, hand-declared on one node only.
	for tbl, st := range map[string]catalog.TableStats{
		"orders": {Rows: trueRows["orders"], Distinct: map[string]int64{
			"node": n, "oid": trueRows["orders"], "uid": nUIDs, "item": trueRows["orders"]}},
		"users": {Rows: trueRows["users"], Distinct: map[string]int64{"uid": nUIDs, "name": trueRows["users"]}},
		"items": {Rows: nItems, Distinct: map[string]int64{"item": nItems, "price": nItems}},
	} {
		if err := declaredAt.SetTableStats(tbl, st); err != nil {
			t.Fatal(err)
		}
	}
	declaredPlan := run(declaredAt, "declared")

	for _, tbl := range []string{"orders", "users", "items"} {
		res, err := analyzeAt.Analyze(context.Background(), tbl)
		if err != nil {
			t.Fatal(err)
		}
		if res.Reason != pier.ReasonEOS || len(res.Tables) != 1 {
			t.Fatalf("ANALYZE %s ended %q with %d tables", tbl, res.Reason, len(res.Tables))
		}
		if got, truth := res.Tables[0].Rows, trueRows[tbl]; got != truth {
			t.Fatalf("ANALYZE %s counted %d rows, true %d", tbl, got, truth)
		}
	}
	waitInstalled(t, []*pier.Node{otherAt}, analyzeAt, "orders", "users", "items")
	measuredPlan := run(otherAt, "measured")

	if measuredPlan != declaredPlan {
		t.Fatalf("measured plan %q, declared plan %q", measuredPlan, declaredPlan)
	}
	if measuredPlan == defaultsPlan {
		t.Fatalf("the workload does not separate the regimes: defaults and measured both plan %q", defaultsPlan)
	}
	t.Logf("defaults plan %q, measured and declared plan %q", defaultsPlan, measuredPlan)
}
