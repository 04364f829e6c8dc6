package pier

import (
	"context"
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/plan"
	"repro/internal/tuple"
)

// runBatchJoin executes the same symmetric-hash join over a fresh
// cluster with the given batching mode and returns the result rows in
// canonical (sorted-encoding) order, the multi-record frames shipped,
// and the overlay route forwards the query cost.
func runBatchJoin(t *testing.T, disabled bool, seed int64) ([]string, uint64, uint64) {
	t.Helper()
	cfg := testNodeConfig()
	cfg.Batch.Disabled = disabled
	// Tuple-at-a-time pipelines: the vectorized ship path groups
	// same-destination records into frames of its own, which would hand
	// the unbatched run most of the route batcher's win.
	cfg.BatchSize = 1
	// Let frames fill for a whole local scan: the Flush barrier at scan
	// completion bounds the latency.
	cfg.Batch.MaxDelay = 25 * time.Millisecond
	nodes, _ := clusterWithConfig(t, 12, seed, cfg)

	leftSchema := tuple.MustSchema("el", []tuple.Column{
		{Name: "node", Type: tuple.TString},
		{Name: "i", Type: tuple.TInt},
		{Name: "k", Type: tuple.TInt},
	}, "node", "i")
	rightSchema := tuple.MustSchema("er", []tuple.Column{
		{Name: "k", Type: tuple.TInt},
		{Name: "info", Type: tuple.TString},
	}, "k", "info")
	for _, nd := range nodes {
		if err := nd.DefineTable(leftSchema, time.Minute); err != nil {
			t.Fatal(err)
		}
		if err := nd.DefineTable(rightSchema, time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	const perSide, keys = 120, 4
	for i := 0; i < perSide; i++ {
		nd := nodes[i%len(nodes)]
		if err := nd.PublishLocal("el", tuple.Tuple{
			tuple.String(nd.Addr()), tuple.Int(int64(i)), tuple.Int(int64(i % keys)),
		}); err != nil {
			t.Fatal(err)
		}
		rk, info := int64(keys+i%keys), fmt.Sprintf("miss-%d", i)
		if i < keys {
			rk, info = int64(i), fmt.Sprintf("match-%d", i)
		}
		if err := nd.PublishLocal("er", tuple.Tuple{tuple.Int(rk), tuple.String(info)}); err != nil {
			t.Fatal(err)
		}
	}

	routeForwards := func() (total uint64) {
		for _, nd := range nodes {
			_, _, fwd, _ := nd.Router().MetricsSnapshot()
			total += fwd
		}
		return total
	}
	fwdBefore := routeForwards()
	strat := plan.SymmetricHash
	res, err := nodes[0].QueryWithOptions(context.Background(),
		"SELECT a.node, a.i, b.info FROM el a JOIN er b ON a.k = b.k",
		plan.Options{Strategy: &strat})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		rows[i] = string(r.Bytes())
	}
	sort.Strings(rows)
	var frames uint64
	for _, nd := range nodes {
		frames += nd.Batcher().MetricsRef().FramesOut.Load()
	}
	return rows, frames, routeForwards() - fwdBefore
}

// TestBatchingPreservesJoinResults is S7, the end-to-end batching
// check: a symmetric-hash join over a simulated cluster returns
// byte-identical rows with route batching on and off, the batched run
// ships multi-record frames, and it routes at least 5x fewer messages.
func TestBatchingPreservesJoinResults(t *testing.T) {
	batched, frames, batchedRouted := runBatchJoin(t, false, 7)
	unbatched, _, unbatchedRouted := runBatchJoin(t, true, 7)
	if len(batched) == 0 {
		t.Fatal("join returned no rows")
	}
	if len(batched) != len(unbatched) {
		t.Fatalf("row counts differ: batched %d, unbatched %d", len(batched), len(unbatched))
	}
	for i := range batched {
		if batched[i] != unbatched[i] {
			t.Fatalf("row %d differs between batching modes", i)
		}
	}
	if frames == 0 {
		t.Fatal("batched run shipped no multi-record frames")
	}
	if unbatchedRouted < 5*batchedRouted {
		t.Fatalf("route batching cut routed messages only %.1fx (batched %d, unbatched %d), want >= 5x",
			float64(unbatchedRouted)/float64(batchedRouted), batchedRouted, unbatchedRouted)
	}
	t.Logf("routed messages: batched %d, unbatched %d", batchedRouted, unbatchedRouted)
}

// TestBatchingAggregationEquivalence checks the partial-aggregation
// hot path: the same grouped aggregate computes identical values with
// batching on and off.
func TestBatchingAggregationEquivalence(t *testing.T) {
	run := func(disabled bool) []string {
		cfg := testNodeConfig()
		cfg.Batch.Disabled = disabled
		nodes, _ := clusterWithConfig(t, 8, 11, cfg)
		schema := tuple.MustSchema("ag", []tuple.Column{
			{Name: "node", Type: tuple.TString},
			{Name: "i", Type: tuple.TInt},
			{Name: "g", Type: tuple.TInt},
			{Name: "v", Type: tuple.TFloat},
		}, "node", "i")
		for _, nd := range nodes {
			if err := nd.DefineTable(schema, time.Minute); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 160; i++ {
			nd := nodes[i%len(nodes)]
			if err := nd.PublishLocal("ag", tuple.Tuple{
				tuple.String(nd.Addr()), tuple.Int(int64(i)),
				tuple.Int(int64(i % 5)), tuple.Float(float64(i)),
			}); err != nil {
				t.Fatal(err)
			}
		}
		res, err := nodes[0].Query(context.Background(),
			"SELECT g, COUNT(*), SUM(v) FROM ag GROUP BY g")
		if err != nil {
			t.Fatal(err)
		}
		rows := make([]string, len(res.Rows))
		for i, r := range res.Rows {
			rows[i] = string(r.Bytes())
		}
		sort.Strings(rows)
		// Nothing else routes here (local partitions, no measured
		// statistics), and one-shot partials bypass the batcher: no
		// node uses a collector key twice, so no lookup is ever repaid.
		for _, nd := range nodes {
			if m := nd.Batcher().MetricsRef(); m.OwnerMisses.Load() != 0 || m.RecordsIn.Load() != 0 {
				t.Fatalf("%s resolved %d owners for %d batched records", nd.Addr(), m.OwnerMisses.Load(), m.RecordsIn.Load())
			}
		}
		return rows
	}
	batched, unbatched := run(false), run(true)
	if len(batched) != 5 {
		t.Fatalf("expected 5 groups, got %d", len(batched))
	}
	for i := range batched {
		if batched[i] != unbatched[i] {
			t.Fatalf("group row %d differs between batching modes", i)
		}
	}
}

// TestOneShotPartialsSkipOwnerResolution: a one-shot GROUP BY's
// partials go hop by hop through the raw overlay, so the route batcher
// takes none of them and resolves no owner for pier.agg; a continuous
// GROUP BY meets its collector keys again every window and keeps the
// batcher.
func TestOneShotPartialsSkipOwnerResolution(t *testing.T) {
	nodes, _ := cluster(t, 6, 1602)
	defineEverywhere(t, nodes, alertsSchema, time.Minute)
	publish := func(round int) {
		t.Helper()
		for i, nd := range nodes {
			for rule := 0; rule < 4; rule++ {
				if err := nd.PublishLocal("alerts", tupleAlert(fmt.Sprintf("%s-%d", nd.Addr(), round), int64(rule), int64(i))); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	batched := func() (records, lookups, partials uint64) {
		for _, nd := range nodes {
			m := nd.Batcher().MetricsRef()
			records += m.RecordsIn.Load()
			lookups += m.OwnerMisses.Load() + m.OwnerHits.Load()
			partials += nd.Metrics.PartialsSent.Load()
		}
		return records, lookups, partials
	}
	publish(0)
	res, err := nodes[0].Query(context.Background(), "SELECT rule, SUM(hits) FROM alerts GROUP BY rule")
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != ReasonEOS || len(res.Rows) != 4 {
		t.Fatalf("one-shot ended %q with %d groups, want eos and 4", res.Reason, len(res.Rows))
	}
	records, lookups, partials := batched()
	if partials == 0 || records != 0 || lookups != 0 {
		t.Fatalf("one-shot: %d partials sent, %d batched records, %d owner resolutions; want some partials and no batcher use",
			partials, records, lookups)
	}

	cont, err := nodes[0].QueryContinuous(context.Background(),
		"SELECT rule, COUNT(*) FROM alerts GROUP BY rule WINDOW 300 ms SLIDE 300 ms")
	if err != nil {
		t.Fatal(err)
	}
	defer cont.Stop()
	deadline := time.Now().Add(10 * time.Second)
	for round := 1; ; round++ {
		publish(round)
		if records, lookups, _ := batched(); records > 0 && lookups > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the continuous query's partials never went through the batcher")
		}
		time.Sleep(50 * time.Millisecond)
	}
}
