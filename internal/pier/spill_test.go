package pier_test

// Memory-bounded join tests: the hybrid-hash collectors must produce
// byte-identical results under any memory budget and vectorization
// width (spilling is an execution detail, never a semantics change),
// their spill temp files must never outlive the query, and the
// mid-flight fetch-matches → rehash switch must preserve results
// while registering in the metrics.

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/catalog"
	"repro/internal/pier"
	"repro/internal/piertest"
	"repro/internal/plan"
	"repro/internal/tuple"
)

var (
	spillUsers = tuple.MustSchema("users", []tuple.Column{
		{Name: "uid", Type: tuple.TInt},
		{Name: "name", Type: tuple.TString},
	}, "uid")
	spillOrders = tuple.MustSchema("orders", []tuple.Column{
		{Name: "node", Type: tuple.TString},
		{Name: "oid", Type: tuple.TInt},
		{Name: "uid", Type: tuple.TInt},
		{Name: "pad", Type: tuple.TString},
	}, "node", "oid")
)

const spillJoinSQL = "SELECT o.oid, u.name FROM orders o JOIN users u ON o.uid = u.uid"

// spillCluster builds a converged cluster whose nodes run with the
// given config mutation applied on top of the fast test timers.
func spillCluster(t *testing.T, n int, seed int64, mut func(*pier.Config)) *piertest.Cluster {
	t.Helper()
	cfg := piertest.FastConfig()
	if mut != nil {
		mut(&cfg)
	}
	cl, err := piertest.New(piertest.Options{N: n, Seed: seed, NodeCfg: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

// seedSpillJoin loads nUsers into the DHT and nOrders local rows
// spread across the nodes, padded so the join build state comfortably
// exceeds small memory budgets.
func seedSpillJoin(t *testing.T, nodes []*pier.Node, nOrders, nUsers int) {
	t.Helper()
	pad := strings.Repeat("x", 64)
	for _, nd := range nodes {
		if err := nd.DefineTable(spillUsers, time.Minute); err != nil {
			t.Fatal(err)
		}
		if err := nd.DefineTable(spillOrders, time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	for u := 0; u < nUsers; u++ {
		if err := nodes[u%len(nodes)].Publish("users",
			tuple.Tuple{tuple.Int(int64(u)), tuple.String(fmt.Sprintf("user-%d", u))}); err != nil {
			t.Fatal(err)
		}
	}
	for o := 0; o < nOrders; o++ {
		nd := nodes[o%len(nodes)]
		if err := nd.PublishLocal("orders", tuple.Tuple{
			tuple.String(nd.Addr()), tuple.Int(int64(o)),
			tuple.Int(int64(o % nUsers)), tuple.String(pad),
		}); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(400 * time.Millisecond) // let DHT puts land
}

// centralizedBaseline attaches the ship-all-data baseline to every
// node (they all answer pulls) and returns the cluster-head instance.
func centralizedBaseline(nodes []*pier.Node) *baseline.Centralized {
	head := baseline.NewCentralized(nodes[0])
	for _, nd := range nodes[1:] {
		baseline.NewCentralized(nd)
	}
	return head
}

func encodeSorted(rows []tuple.Tuple) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = string(r.Bytes())
	}
	sort.Strings(out)
	return out
}

// TestSpillBudgetsByteIdentical is the spill property test: the same
// join under budgets {64KB, 1MB, unlimited} × batch widths {1, 7,
// 256} always returns the centralized baseline's rows byte for byte.
// The 64KB runs must actually spill (visible in EXPLAIN ANALYZE) and
// keep every operator's resident high-water mark near the budget;
// unlimited runs must never spill.
func TestSpillBudgetsByteIdentical(t *testing.T) {
	const kb = int64(1024)
	budgets := []struct {
		name   string
		budget int64
	}{
		{"64kb", 64 * kb},
		{"1mb", 1024 * kb},
		{"unlimited", 0},
	}
	batchSizes := []int{1, 7, 256}
	seed := int64(910)
	var want []string
	for _, b := range budgets {
		for _, bs := range batchSizes {
			b, bs := b, bs
			seed++
			t.Run(fmt.Sprintf("budget=%s/batch=%d", b.name, bs), func(t *testing.T) {
				cl := spillCluster(t, 4, seed, func(cfg *pier.Config) {
					cfg.JoinMemBudget = b.budget
					cfg.SpillDir = t.TempDir()
					cfg.BatchSize = bs
				})
				// 3000 orders: the query reads three ints and a short
				// string of each (pad is pruned at the scan), and the
				// busiest collector must still hold well over 64KB.
				seedSpillJoin(t, cl.Nodes, 3000, 40)
				if want == nil {
					bl := centralizedBaseline(cl.Nodes)
					res, err := bl.QuerySQL(context.Background(), spillJoinSQL, 500*time.Millisecond)
					if err != nil {
						t.Fatal(err)
					}
					want = encodeSorted(res.Rows)
					if len(want) != 3000 {
						t.Fatalf("baseline produced %d rows, want 3000", len(want))
					}
				}
				sym := plan.SymmetricHash
				res, err := cl.Nodes[0].QueryWithOptions(context.Background(), spillJoinSQL,
					plan.Options{Strategy: &sym, Analyze: true})
				if err != nil {
					t.Fatal(err)
				}
				got := encodeSorted(res.Rows)
				if len(got) != len(want) {
					t.Fatalf("%d rows, want %d", len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("row %d differs from the centralized baseline", i)
					}
				}
				var spilled, passes, peak uint64
				for _, op := range res.Analysis.Ops {
					spilled += op.Spilled
					passes += op.Passes
					if op.PeakMem > peak {
						peak = op.PeakMem
					}
				}
				switch {
				case b.budget == 64*kb:
					if spilled == 0 || passes == 0 {
						t.Fatalf("64KB budget did not spill (spilled=%d passes=%d):\n%s",
							spilled, passes, res.AnalyzeReport)
					}
					if !strings.Contains(res.AnalyzeReport, "spilled_bytes=") {
						t.Fatalf("spill missing from EXPLAIN ANALYZE:\n%s", res.AnalyzeReport)
					}
					// Resident state may overshoot by one batch before the
					// spill reacts, and a recursive pass holds one
					// budget-sized partition file alongside the residents.
					if limit := uint64(4 * b.budget); peak > limit {
						t.Fatalf("peak_mem %d exceeds %d (budget %d)", peak, limit, b.budget)
					}
				case b.budget == 0:
					if spilled != 0 || passes != 0 {
						t.Fatalf("unlimited budget spilled (spilled=%d passes=%d)", spilled, passes)
					}
				}
			})
		}
	}
}

// TestSpillTempFileCleanup: spill temp files are query-scoped — none
// survive a completed query, a canceled query, or node Stop (which
// must remove the whole per-node spill directory).
func TestSpillTempFileCleanup(t *testing.T) {
	dir := t.TempDir()
	cl := spillCluster(t, 4, 931, func(cfg *pier.Config) {
		cfg.JoinMemBudget = 32 * 1024
		cfg.SpillDir = dir
	})
	seedSpillJoin(t, cl.Nodes, 1800, 30)

	sym := plan.SymmetricHash
	if _, err := cl.Nodes[0].QueryWithOptions(context.Background(), spillJoinSQL,
		plan.Options{Strategy: &sym}); err != nil {
		t.Fatal(err)
	}
	assertNoLiveSpill(t, cl.Nodes, "after completed query")

	// Cancel mid-flight: files opened before the cancel must still be
	// released when the pipelines unwind.
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	_, _ = cl.Nodes[0].QueryWithOptions(ctx, spillJoinSQL, plan.Options{Strategy: &sym})
	assertNoLiveSpill(t, cl.Nodes, "after canceled query")

	for _, nd := range cl.Nodes {
		nd.Stop()
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Fatalf("spill directory entry %q survived node Stop", e.Name())
	}
}

// assertNoLiveSpill polls until every node reports zero live spill
// files (collector pipelines unwind asynchronously after the
// coordinator returns).
func assertNoLiveSpill(t *testing.T, nodes []*pier.Node, label string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		live, written := 0, int64(0)
		for _, nd := range nodes {
			w, l := nd.SpillStats()
			live += l
			written += w
		}
		if live == 0 {
			if written == 0 {
				t.Logf("%s: query did not spill (written=0)", label)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d spill files still live", label, live)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestFetchSwitchMidFlight under-declares the left cardinality so a
// forced fetch-matches stage trips the adaptive threshold: the
// participants must switch to rehashing mid-flight (visible in the
// metrics) and the result must stay byte-identical to the baseline.
// Run under -race in CI: the switch exercises the participant/
// collector handoff concurrently on every node.
func TestFetchSwitchMidFlight(t *testing.T) {
	cl := spillCluster(t, 4, 941, nil)
	seedSpillJoin(t, cl.Nodes, 800, 25)
	// The optimizer believes orders has 10 rows; every node then
	// observes ~200 — far past the switch factor × estimate.
	if err := cl.Nodes[0].SetTableStats("orders", catalog.TableStats{
		Rows: 10, Distinct: map[string]int64{"uid": 10},
	}); err != nil {
		t.Fatal(err)
	}
	bl := centralizedBaseline(cl.Nodes)
	bres, err := bl.QuerySQL(context.Background(), spillJoinSQL, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	want := encodeSorted(bres.Rows)

	fetch := plan.FetchMatches
	res, err := cl.Nodes[0].QueryWithOptions(context.Background(), spillJoinSQL,
		plan.Options{Strategy: &fetch})
	if err != nil {
		t.Fatal(err)
	}
	got := encodeSorted(res.Rows)
	if len(got) != len(want) {
		t.Fatalf("%d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("row %d differs from the centralized baseline", i)
		}
	}
	var switches uint64
	for _, nd := range cl.Nodes {
		switches += nd.Metrics.StrategySwitches.Load()
	}
	if switches == 0 {
		t.Fatal("no participant switched strategy mid-flight")
	}
}
