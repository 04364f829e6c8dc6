package pier

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/plan"
	"repro/internal/sqlparser"
	"repro/internal/tuple"
)

// TestAvgMinMaxDistributed exercises the remaining aggregate functions
// through the full distributed path (partial states for AVG carry two
// columns, the merge must stay exact).
func TestAvgMinMaxDistributed(t *testing.T) {
	nodes, _ := cluster(t, 6, 61)
	defineEverywhere(t, nodes, trafficSchema, time.Minute)
	for i, nd := range nodes {
		nd.PublishLocal("traffic", tuple.Tuple{tuple.String(nd.Addr()), tuple.Float(float64(i + 1))})
	}
	res, err := nodes[0].Query(context.Background(),
		"SELECT AVG(rate) AS a, MIN(rate) AS lo, MAX(rate) AS hi FROM traffic")
	if err != nil {
		t.Fatal(err)
	}
	row := res.Rows[0]
	if row[0].F != 3.5 || row[1].F != 1 || row[2].F != 6 {
		t.Fatalf("avg/min/max: %v", row)
	}
}

// TestContinuousNonAggregate streams raw rows per window (a continuous
// selection, no aggregation).
func TestContinuousNonAggregate(t *testing.T) {
	nodes, _ := cluster(t, 4, 62)
	defineEverywhere(t, nodes, trafficSchema, time.Minute)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, nd := range nodes {
		nd := nd
		go func() {
			seq := 0
			for ctx.Err() == nil {
				time.Sleep(80 * time.Millisecond)
				seq++
				nd.PublishLocal("traffic", tuple.Tuple{
					tuple.String(nd.Addr() + "-" + time.Now().String()), tuple.Float(9),
				})
			}
		}()
	}
	cont, err := nodes[1].QueryContinuous(context.Background(),
		"SELECT node, rate FROM traffic WHERE rate > 5 WINDOW 400 ms SLIDE 400 ms")
	if err != nil {
		t.Fatal(err)
	}
	defer cont.Stop()
	deadline := time.After(10 * time.Second)
	for windows := 0; windows < 3; {
		select {
		case wr, ok := <-cont.Results():
			if !ok {
				t.Fatal("closed early")
			}
			if len(wr.Rows) > 0 {
				windows++
				for _, r := range wr.Rows {
					if r[1].F != 9 {
						t.Fatalf("bad row %v", r)
					}
				}
			}
		case <-deadline:
			t.Fatal("no populated windows in 10s")
		}
	}
}

// TestContinuousLiveExpires checks the LIVE clause auto-stops the
// query and closes the stream.
func TestContinuousLiveExpires(t *testing.T) {
	nodes, _ := cluster(t, 3, 63)
	defineEverywhere(t, nodes, trafficSchema, time.Minute)
	cont, err := nodes[0].QueryContinuous(context.Background(),
		"SELECT COUNT(*) FROM traffic WINDOW 200 ms SLIDE 200 ms LIVE 1 s")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.After(15 * time.Second)
	for {
		select {
		case _, ok := <-cont.Results():
			if !ok {
				return // closed by LIVE expiry
			}
		case <-deadline:
			t.Fatal("LIVE query never stopped")
		}
	}
}

// TestExecuteSpecAlgebraic drives the engine through the algebraic
// interface: a hand-built Spec, no SQL involved.
func TestExecuteSpecAlgebraic(t *testing.T) {
	nodes, _ := cluster(t, 4, 64)
	defineEverywhere(t, nodes, alertsSchema, time.Minute)
	for _, nd := range nodes {
		nd.PublishLocal("alerts", tuple.Tuple{tuple.String(nd.Addr()), tuple.Int(9), tuple.Int(3)})
	}
	// Build the spec by compiling a statement but then mutating it —
	// proving specs are plain data.
	stmt, err := sqlparser.Parse("SELECT rule, SUM(hits) FROM alerts GROUP BY rule")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := plan.Compile(stmt, nodes[0].Catalog(), plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec.Limit = 1 // algebraic tweak
	res, err := nodes[0].ExecuteSpec(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][1].I != 12 {
		t.Fatalf("algebraic result %v", res.Rows)
	}
}

// TestConcurrentQueries runs several one-shot queries at once from
// different coordinators.
func TestConcurrentQueries(t *testing.T) {
	nodes, _ := cluster(t, 6, 65)
	defineEverywhere(t, nodes, trafficSchema, time.Minute)
	for _, nd := range nodes {
		nd.PublishLocal("traffic", tuple.Tuple{tuple.String(nd.Addr()), tuple.Float(2)})
	}
	errs := make(chan error, 3)
	for i := 0; i < 3; i++ {
		go func(i int) {
			res, err := nodes[i].Query(context.Background(), "SELECT SUM(rate) FROM traffic")
			if err == nil && (len(res.Rows) != 1 || res.Rows[0][0].F != 12) {
				err = context.DeadlineExceeded
			}
			errs <- err
		}(i)
	}
	for i := 0; i < 3; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("concurrent query %d: %v", i, err)
		}
	}
}

// TestQueryCancelledContext stops the wait and tears the query down.
func TestQueryCancelledContext(t *testing.T) {
	nodes, _ := clusterWithNet(t, 3, slowNet(66), testNodeConfig())
	defineEverywhere(t, nodes, trafficSchema, time.Minute)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	_, err := nodes[0].Query(ctx, "SELECT SUM(rate) FROM traffic")
	if err == nil {
		t.Fatal("cancelled query returned a result")
	}
}

// TestStopDuringContinuousQuery verifies a node can shut down with a
// live continuous query without deadlocking.
func TestStopDuringContinuousQuery(t *testing.T) {
	nodes, _ := cluster(t, 3, 67)
	defineEverywhere(t, nodes, trafficSchema, time.Minute)
	_, err := nodes[0].QueryContinuous(context.Background(),
		"SELECT COUNT(*) FROM traffic WINDOW 200 ms SLIDE 200 ms")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		nodes[0].Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("Stop deadlocked with live continuous query")
	}
}

// TestGroupByTwoColumns exercises composite group keys end to end
// (the Table 1 query groups by rule AND descr).
func TestGroupByTwoColumns(t *testing.T) {
	nodes, _ := cluster(t, 4, 68)
	defineEverywhere(t, nodes, alertsSchema, time.Minute)
	for _, nd := range nodes {
		nd.PublishLocal("alerts", tuple.Tuple{tuple.String(nd.Addr()), tuple.Int(1), tuple.Int(2)})
		nd.PublishLocal("alerts", tuple.Tuple{tuple.String(nd.Addr()), tuple.Int(2), tuple.Int(5)})
	}
	res, err := nodes[0].Query(context.Background(),
		"SELECT rule, node, SUM(hits) FROM alerts GROUP BY rule, node ORDER BY rule, node")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 8 {
		t.Fatalf("%d groups, want 8", len(res.Rows))
	}
}

// TestEmptyTableAggregate: aggregates over empty tables return no
// groups (streaming semantics, documented).
func TestEmptyTableAggregate(t *testing.T) {
	nodes, _ := cluster(t, 3, 69)
	defineEverywhere(t, nodes, trafficSchema, time.Minute)
	res, err := nodes[0].Query(context.Background(), "SELECT SUM(rate) FROM traffic")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("empty-table aggregate returned %v", res.Rows)
	}
}

// TestLossyNetworkQueryStillAnswers: with 10% message loss, the
// best-effort query still returns (possibly partial) results.
func TestLossyNetworkQueryStillAnswers(t *testing.T) {
	cfg := testNodeConfig()
	nodes, _ := clusterWithLoss(t, 5, 70, cfg, 0.05)
	defineEverywhere(t, nodes, trafficSchema, time.Minute)
	for _, nd := range nodes {
		nd.PublishLocal("traffic", tuple.Tuple{tuple.String(nd.Addr()), tuple.Float(1)})
	}
	res, err := nodes[0].Query(context.Background(), "SELECT COUNT(*) FROM traffic")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("no result under loss: %v", res.Rows)
	}
	if res.Rows[0][0].I < 3 {
		t.Fatalf("count %d too degraded for 5%% loss", res.Rows[0][0].I)
	}
}

// TestExplainSurface exercises the EXPLAIN entry point.
func TestExplainSurface(t *testing.T) {
	nodes, _ := cluster(t, 1, 72)
	nodes[0].DefineTable(trafficSchema, time.Minute)
	out, err := nodes[0].Explain("SELECT node, SUM(rate) FROM traffic GROUP BY node LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"FinalAggregate", "Scan traffic", "Limit 5"} {
		if !contains(out, want) {
			t.Fatalf("explain missing %q:\n%s", want, out)
		}
	}
	if _, err := nodes[0].Explain("SELECT nope FROM missing"); err == nil {
		t.Fatal("explain of bad query succeeded")
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && strings.Contains(s, sub)
}
