package pier_test

// Partitioned rehash, end to end: a join over many distinct join
// values must return the centralized baseline's rows byte for byte
// while every node resolves at most one collector owner per routing
// partition per join stage — not one per join value.

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/pier"
	"repro/internal/plan"
	"repro/internal/tuple"
)

var (
	// Every table is keyed on (node, …) and loaded with PublishLocal, so
	// no DHT put or republish shares the route batcher's owner-miss
	// counter with the queries under test.
	rehashUsers = tuple.MustSchema("users", []tuple.Column{
		{Name: "node", Type: tuple.TString},
		{Name: "uid", Type: tuple.TInt},
		{Name: "name", Type: tuple.TString},
	}, "node", "uid")
	rehashItems = tuple.MustSchema("items", []tuple.Column{
		{Name: "node", Type: tuple.TString},
		{Name: "item", Type: tuple.TInt},
		{Name: "price", Type: tuple.TFloat},
	}, "node", "item")
	rehashOrders = tuple.MustSchema("orders", []tuple.Column{
		{Name: "node", Type: tuple.TString},
		{Name: "oid", Type: tuple.TInt},
		{Name: "uid", Type: tuple.TInt},
		{Name: "item", Type: tuple.TInt},
		{Name: "pad", Type: tuple.TString},
	}, "node", "oid")
)

func seedRehashJoin(t *testing.T, nodes []*pier.Node, nOrders, nUsers, nItems int) {
	t.Helper()
	for _, nd := range nodes {
		for _, s := range []*tuple.Schema{rehashUsers, rehashItems, rehashOrders} {
			if err := nd.DefineTable(s, time.Minute); err != nil {
				t.Fatal(err)
			}
		}
	}
	pad := strings.Repeat("x", 64)
	for i := 0; i < nOrders || i < nUsers || i < nItems; i++ {
		nd := nodes[i%len(nodes)]
		var err error
		if i < nUsers {
			err = nd.PublishLocal("users", tuple.Tuple{
				tuple.String(nd.Addr()), tuple.Int(int64(i)), tuple.String(fmt.Sprintf("user-%d", i))})
		}
		if err == nil && i < nItems {
			err = nd.PublishLocal("items", tuple.Tuple{
				tuple.String(nd.Addr()), tuple.Int(int64(i)), tuple.Float(float64(i) + 0.5)})
		}
		if err == nil && i < nOrders {
			err = nd.PublishLocal("orders", tuple.Tuple{
				tuple.String(nd.Addr()), tuple.Int(int64(i)),
				tuple.Int(int64(i % nUsers)), tuple.Int(int64(i % nItems)), tuple.String(pad)})
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestRehashPartitionedJoinOwnerLookups: 8 nodes, 1000 distinct join
// values. The coordinator picks 64 routing partitions for 8 members, so
// a node may miss the owner cache at most 64 times per join stage (a
// stage's keys are the same for every query, so a later query on a warm
// cluster misses fewer) where routing by join value missed about once
// per value — and the rows stay byte-identical
// to the centralized baseline, for one stage, for two, and with the
// collectors spilling under a 64 KB budget.
func TestRehashPartitionedJoinOwnerLookups(t *testing.T) {
	const (
		parts   = 64 // joinPartitions(8)
		nOrders = 4000
		nUsers  = 1000
		nItems  = 40
	)
	queries := []struct {
		name   string
		sql    string
		stages uint64
	}{
		{"two-table", "SELECT o.oid, u.name FROM orders o JOIN users u ON o.uid = u.uid", 1},
		{"three-table", "SELECT o.oid, u.name, i.price FROM orders o JOIN users u ON o.uid = u.uid JOIN items i ON o.item = i.item", 2},
	}
	want := make(map[string][]string)
	seed := int64(1700)
	for _, budget := range []int64{0, 64 * 1024} {
		seed++
		cl := spillCluster(t, 8, seed, func(cfg *pier.Config) {
			cfg.JoinMemBudget = budget
			cfg.SpillDir = t.TempDir()
		})
		seedRehashJoin(t, cl.Nodes, nOrders, nUsers, nItems)
		for _, qc := range queries {
			if want[qc.name] == nil {
				res, err := centralizedBaseline(cl.Nodes).QuerySQL(context.Background(), qc.sql, 500*time.Millisecond)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Rows) != nOrders {
					t.Fatalf("%s: baseline produced %d rows, want %d", qc.name, len(res.Rows), nOrders)
				}
				want[qc.name] = encodeSorted(res.Rows)
			}
			t.Run(fmt.Sprintf("%s/budget=%d", qc.name, budget), func(t *testing.T) {
				type counts struct{ misses, alone, coalesced uint64 }
				read := func(nd *pier.Node) counts {
					m := nd.Batcher().MetricsRef()
					return counts{m.OwnerMisses.Load(), m.Passthrough.Load(), m.RecordsIn.Load()}
				}
				before := make([]counts, len(cl.Nodes))
				for i, nd := range cl.Nodes {
					before[i] = read(nd)
				}
				sym := plan.SymmetricHash
				res, err := cl.Nodes[0].QueryWithOptions(context.Background(), qc.sql,
					plan.Options{Strategy: &sym, Analyze: budget > 0})
				if err != nil {
					t.Fatal(err)
				}
				got := encodeSorted(res.Rows)
				if len(got) != len(want[qc.name]) {
					t.Fatalf("%d rows, want %d (reason %s)", len(got), len(want[qc.name]), res.Reason)
				}
				for i := range got {
					if got[i] != want[qc.name][i] {
						t.Fatalf("row %d differs from the centralized baseline", i)
					}
				}
				for i, nd := range cl.Nodes {
					after := read(nd)
					if misses := after.misses - before[i].misses; misses > parts*qc.stages {
						t.Errorf("node %d: %d owner misses, want ≤ %d (%d partitions × %d stages)",
							i, misses, parts*qc.stages, parts, qc.stages)
					}
					// Past the batcher's lookup cap a record is routed alone,
					// hop by hop: one key per join value sent most that way.
					alone, coalesced := after.alone-before[i].alone, after.coalesced-before[i].coalesced
					if alone > coalesced {
						t.Errorf("node %d: %d records routed alone, %d coalesced into frames", i, alone, coalesced)
					}
				}
				if budget > 0 {
					var spilled uint64
					for _, op := range res.Analysis.Ops {
						spilled += op.Spilled
					}
					if spilled == 0 {
						t.Fatalf("64 KB budget did not spill:\n%s", res.AnalyzeReport)
					}
				}
			})
		}
	}
}

// TestJoinResultRowsFullFrames: the benchmark's join at test scale — 8
// nodes, 8000 orders over 1000 users. A collector under this load is
// behind its input, so its ship-rows fills whole result frames instead
// of one call per arriving rehash frame; the answer must stay the
// centralized baseline's byte for byte and end `eos` (every shipped row
// booked before its call and acknowledged), in memory and spilling
// under 64 KB. How many `pier.rows` calls that takes is a reading of
// the box, not asserted (benchmark: rpc.calls_per_query).
func TestJoinResultRowsFullFrames(t *testing.T) {
	const nOrders, nUsers = 8000, 1000
	sql := "SELECT o.oid, u.name FROM orders o JOIN users u ON o.uid = u.uid"
	var want []string
	for i, budget := range []int64{0, 64 * 1024} {
		cl := spillCluster(t, 8, int64(1900+i), func(cfg *pier.Config) {
			cfg.JoinMemBudget = budget
			cfg.SpillDir = t.TempDir()
			// A loaded `go test ./...` can hold a goroutine off the CPU
			// past FastConfig's 250 ms; a query that balances its books
			// never waits for this.
			cfg.Quiet = 4 * time.Second
		})
		seedRehashJoin(t, cl.Nodes, nOrders, nUsers, 1)
		if want == nil {
			res, err := centralizedBaseline(cl.Nodes).QuerySQL(context.Background(), sql, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != nOrders {
				t.Fatalf("baseline produced %d rows, want %d", len(res.Rows), nOrders)
			}
			want = encodeSorted(res.Rows)
		}
		sym := plan.SymmetricHash
		res, err := cl.Nodes[0].QueryWithOptions(context.Background(), sql, plan.Options{Strategy: &sym})
		if err != nil {
			t.Fatal(err)
		}
		if res.Reason != pier.ReasonEOS {
			t.Errorf("budget %d: ended %q, want %q", budget, res.Reason, pier.ReasonEOS)
		}
		got := encodeSorted(res.Rows)
		if len(got) != len(want) {
			t.Fatalf("budget %d: %d rows, want %d (reason %s)", budget, len(got), len(want), res.Reason)
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("budget %d: row %d differs from the centralized baseline", budget, j)
			}
		}
	}
}

// TestJoinPushesPerFrame: a node takes the join records of an arriving
// frame as one delivery and pushes each (query, stage, side, window)
// group of it into its collector once — on the benchmark's join at test
// scale, 8 nodes and 8000 orders over 1000 users, a handful of pushes
// per frame instead of one per rehashed record (≈2 600 per query when
// every record was delivered alone). The answer stays the centralized
// baseline's byte for byte at every vectorization width, in memory and
// spilling under 64 KB.
func TestJoinPushesPerFrame(t *testing.T) {
	const nOrders, nUsers = 8000, 1000
	sql := "SELECT o.oid, u.name FROM orders o JOIN users u ON o.uid = u.uid"
	var want []string
	seed := int64(2100)
	for _, budget := range []int64{0, 64 * 1024} {
		for _, width := range []int{1, 7, 256} {
			seed++
			cl := spillCluster(t, 8, seed, func(cfg *pier.Config) {
				cfg.JoinMemBudget = budget
				cfg.SpillDir = t.TempDir()
				cfg.BatchSize = width
				cfg.Quiet = 4 * time.Second // see TestJoinResultRowsFullFrames
			})
			seedRehashJoin(t, cl.Nodes, nOrders, nUsers, 1)
			if want == nil {
				res, err := centralizedBaseline(cl.Nodes).QuerySQL(context.Background(), sql, time.Second)
				if err != nil {
					t.Fatal(err)
				}
				want = encodeSorted(res.Rows)
			}
			type counts struct{ pushes, arrivals, frames, records uint64 }
			sum := func() (c counts) {
				for _, nd := range cl.Nodes {
					c.pushes += nd.Metrics.JoinPushes.Load()
					c.arrivals += nd.Metrics.JoinArrivals.Load()
					c.frames += nd.Batcher().MetricsRef().FramesIn.Load()
					c.records += nd.Metrics.JoinTuplesRehashed.Load()
				}
				return c
			}
			before := sum()
			sym := plan.SymmetricHash
			res, err := cl.Nodes[0].QueryWithOptions(context.Background(), sql, plan.Options{Strategy: &sym})
			if err != nil {
				t.Fatal(err)
			}
			after := sum()
			pushes, arrivals := after.pushes-before.pushes, after.arrivals-before.arrivals
			frames, tuples := after.frames-before.frames, after.records-before.records
			t.Logf("budget %d width %d: %d pushes, %d arrivals (%d frames in), %d tuples rehashed", budget, width, pushes, arrivals, frames, tuples)
			// An arrival holds at most one group per side of the stage.
			if pushes > 2*arrivals {
				t.Errorf("budget %d width %d: %d pushes for %d arrivals", budget, width, pushes, arrivals)
			}
			// One push per record was at least one per tuple at width 1
			// and ≈2 600 (64 partitions × 5 scan batches × 8 nodes) at 256.
			if pushes*4 > tuples {
				t.Errorf("budget %d width %d: %d pushes for %d rehashed tuples, want ≤ 1 per 4", budget, width, pushes, tuples)
			}
			if res.Reason != pier.ReasonEOS {
				t.Errorf("budget %d width %d: ended %q, want %q", budget, width, res.Reason, pier.ReasonEOS)
			}
			got := encodeSorted(res.Rows)
			if len(got) != len(want) {
				t.Fatalf("budget %d width %d: %d rows, want %d", budget, width, len(got), len(want))
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("budget %d width %d: row %d differs from the centralized baseline", budget, width, j)
				}
			}
		}
	}
}

// TestJoinCachedOwnerLeavesMidQuery: a join frame goes straight to the
// collector owner its sender's batcher cached, so a warm cluster whose
// cached owner leaves mid-query sends frames into a dead address until
// chord marks it dead. That may lose rows, never silently: with a
// member gone the query ends churn-degraded, and an eos ending is the
// centralized baseline's answer byte for byte. The query after the
// departure, with caches still naming the dead owner, is held to the
// same rule.
func TestJoinCachedOwnerLeavesMidQuery(t *testing.T) {
	const nOrders, nUsers = 4000, 500
	sql := "SELECT o.oid, u.name FROM orders o JOIN users u ON o.uid = u.uid"
	cl := spillCluster(t, 8, 2300, func(cfg *pier.Config) { cfg.Quiet = 4 * time.Second })
	seedRehashJoin(t, cl.Nodes, nOrders, nUsers, 1)
	base, err := centralizedBaseline(cl.Nodes).QuerySQL(context.Background(), sql, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	want := encodeSorted(base.Rows)
	sym := plan.SymmetricHash
	query := func() *pier.Result {
		t.Helper()
		res, err := cl.Nodes[0].QueryWithOptions(context.Background(), sql, plan.Options{Strategy: &sym})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	check := func(what string, res *pier.Result) {
		t.Helper()
		t.Logf("%s: %q, %d rows, coverage %.3f, %v", what, res.Reason, len(res.Rows), res.Coverage, res.Duration)
		switch res.Reason {
		case pier.ReasonChurnDegraded:
		case pier.ReasonEOS:
			got := encodeSorted(res.Rows)
			if len(got) != len(want) {
				t.Fatalf("%s: eos with %d rows, want %d", what, len(got), len(want))
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("%s: eos with row %d differing from the centralized baseline", what, j)
				}
			}
		default:
			t.Fatalf("%s: ended %q, want eos or %q", what, res.Reason, pier.ReasonChurnDegraded)
		}
	}
	// The warm-up fills every batcher's owner cache with the stage's
	// collector owners; it must be whole.
	warm := query()
	if warm.Reason != pier.ReasonEOS {
		t.Fatalf("warm-up ended %q", warm.Reason)
	}
	check("warm-up", warm)
	// The victim is a collector other nodes' frames reached: an owner in
	// their caches. It is not the coordinator.
	var victim *pier.Node
	for _, nd := range cl.Nodes[1:] {
		if nd.Metrics.JoinArrivals.Load() > 0 {
			victim = nd
			break
		}
	}
	if victim == nil {
		t.Fatal("no collector but the coordinator took join records")
	}
	leave := time.AfterFunc(warm.Duration/3, func() { cl.Net.SetDown(victim.Addr(), true) })
	defer leave.Stop()
	check("owner leaves mid-query", query())
	check("after the departure", query())
}
