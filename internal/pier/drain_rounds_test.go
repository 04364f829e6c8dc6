package pier_test

// What a one-shot query's completion costs in coordination: drain
// rounds per query (from the histogram recordCompletion feeds) and EOS
// ledger frames per member (the hbSent counter), with every answer
// held to the centralized baseline.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/pier"
	"repro/internal/piertest"
	"repro/internal/simnet"
	"repro/internal/tuple"
)

var (
	drainTraffic = tuple.MustSchema("traffic", []tuple.Column{
		{Name: "node", Type: tuple.TString},
		{Name: "rate", Type: tuple.TFloat},
	}, "node")
	drainAlerts = tuple.MustSchema("alerts", []tuple.Column{
		{Name: "node", Type: tuple.TString},
		{Name: "rule", Type: tuple.TInt},
		{Name: "hits", Type: tuple.TInt},
	}, "node", "rule")
)

const drainRules = 12 // groups of the GROUP BY statement

// seedDrainTables gives every node one traffic row and alertsPerNode
// alerts rows spread over drainRules rules, all local partitions.
func seedDrainTables(t *testing.T, nodes []*pier.Node, alertsPerNode int) {
	t.Helper()
	for i, nd := range nodes {
		for _, s := range []*tuple.Schema{drainTraffic, drainAlerts} {
			if err := nd.DefineTable(s, time.Minute); err != nil {
				t.Fatal(err)
			}
		}
		err := nd.PublishLocal("traffic", tuple.Tuple{tuple.String(nd.Addr()), tuple.Float(float64(i) + 0.25)})
		for a := 0; err == nil && a < alertsPerNode; a++ {
			err = nd.PublishLocal("alerts", tuple.Tuple{
				tuple.String(fmt.Sprintf("%s/%d", nd.Addr(), a)), tuple.Int(int64((i + a) % drainRules)), tuple.Int(int64(a + 1))})
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// sumMetric adds one registry series over every node of a cluster.
func sumMetric(nodes []*pier.Node, name string) float64 {
	total := 0.0
	for _, nd := range nodes {
		total += nd.Obs().SnapshotMap()[name]
	}
	return total
}

// readings runs measure n times and returns the readings in ascending
// order. A busy box only ever adds to one query's drain rounds and
// ledger frames — a flushed partial that lands behind the next round's
// marker, a scan that outlasts the settle pause — so the lowest reading
// is what the protocol itself costs.
func readings(n int, measure func() float64) []float64 {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = measure()
	}
	sort.Float64s(vals)
	return vals
}

// eosQuery runs sql at coord, requires an eos completion and the wanted
// rows, and returns the drain rounds the query took.
func eosQuery(t *testing.T, coord *pier.Node, sql string, want []string) float64 {
	t.Helper()
	before := coord.Obs().SnapshotMap()["pier_drain_rounds_sum"]
	res, err := coord.Query(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != pier.ReasonEOS {
		t.Fatalf("%s: reason %q, want eos", sql, res.Reason)
	}
	got := encodeSorted(res.Rows)
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", sql, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: row %d differs from the centralized baseline", sql, i)
		}
	}
	return coord.Obs().SnapshotMap()["pier_drain_rounds_sum"] - before
}

// TestDrainRoundsPerStatement: on 16 nodes an aggregate needs the round
// that flushes the relays and the round that flushes the collectors —
// two: the collectors' ledgers of round 2 say settled, so no round is
// spent confirming that nothing moved, and none is spent per overlay
// hop a flushed partial still has to travel — and a plain row query
// needs one. Every answer is the centralized baseline's, byte for
// byte, at each vectorization width.
func TestDrainRoundsPerStatement(t *testing.T) {
	if testing.Short() {
		t.Skip("three 16-node clusters")
	}
	statements := []struct {
		sql       string
		maxRounds float64
	}{
		{"SELECT COUNT(*) FROM traffic", 2},
		{"SELECT SUM(rate) FROM traffic", 2},
		{"SELECT rule, COUNT(*), SUM(hits) FROM alerts GROUP BY rule", 2},
		{"SELECT node, rate FROM traffic", 1},
	}
	for i, bs := range []int{1, 7, 256} {
		bs := bs
		seed := int64(1800 + i)
		t.Run(fmt.Sprintf("batch=%d", bs), func(t *testing.T) {
			cl := spillCluster(t, 16, seed, func(cfg *pier.Config) { cfg.BatchSize = bs })
			seedDrainTables(t, cl.Nodes, 8)
			bl := centralizedBaseline(cl.Nodes)
			for _, st := range statements {
				ref, err := bl.QuerySQL(context.Background(), st.sql, 300*time.Millisecond)
				if err != nil {
					t.Fatal(err)
				}
				want := encodeSorted(ref.Rows)
				all := readings(5, func() float64 { return eosQuery(t, cl.Nodes[3], st.sql, want) })
				t.Logf("%s: drain rounds %v", st.sql, all)
				rounds := all[0]
				if rounds > st.maxRounds {
					t.Errorf("%s: %v drain rounds (least of 5), want ≤ %v", st.sql, rounds, st.maxRounds)
				}
			}
		})
	}
}

// TestEOSMatchesQuietBaseline is the property test: for every
// vectorization width, results completed by EOS must be byte-identical
// to the centralized baseline's on the same data — deterministic
// completion may be early, never lossy. The distributed queries run
// concurrently to exercise per-query ledger isolation.
func TestEOSMatchesQuietBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("one cluster per batch size")
	}
	queries := []string{
		"SELECT node, rate FROM traffic",
		"SELECT rate * 2 AS d FROM traffic WHERE rate > 3",
		"SELECT COUNT(*) FROM traffic",
		"SELECT rule, SUM(hits) AS total, COUNT(*) AS n FROM alerts GROUP BY rule",
		// Not traffic ⋈ alerts: traffic's key is the join column, so the
		// planner would probe it by key in the DHT, where rows published
		// to local partitions are not placed.
		"SELECT a.node, b.hits FROM alerts a JOIN alerts b ON a.node = b.node WHERE a.rule = 1 AND b.rule = 2",
	}
	for _, bs := range []int{1, 7, 256} {
		bs := bs
		t.Run(fmt.Sprintf("batch=%d", bs), func(t *testing.T) {
			cl := spillCluster(t, 6, 21, func(cfg *pier.Config) { cfg.BatchSize = bs })
			nodes := cl.Nodes
			for i, nd := range nodes {
				for _, s := range []*tuple.Schema{drainTraffic, drainAlerts} {
					if err := nd.DefineTable(s, time.Minute); err != nil {
						t.Fatal(err)
					}
				}
				addr := tuple.String(nd.Addr())
				err := nd.PublishLocal("traffic", tuple.Tuple{addr, tuple.Float(float64(i + 1))})
				if err == nil {
					err = nd.PublishLocal("alerts", tuple.Tuple{addr, tuple.Int(1), tuple.Int(int64(i + 1))})
				}
				if err == nil {
					err = nd.PublishLocal("alerts", tuple.Tuple{addr, tuple.Int(2), tuple.Int(10)})
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			bl := centralizedBaseline(nodes)
			want := make([][]string, len(queries))
			for i, q := range queries {
				ref, err := bl.QuerySQL(context.Background(), q, 300*time.Millisecond)
				if err != nil {
					t.Fatalf("baseline %q: %v", q, err)
				}
				want[i] = encodeSorted(ref.Rows)
			}
			results := make([]*pier.Result, len(queries))
			errs := make([]error, len(queries))
			var wg sync.WaitGroup
			for i, q := range queries {
				wg.Add(1)
				go func(i int, q string) {
					defer wg.Done()
					results[i], errs[i] = nodes[i%len(nodes)].Query(context.Background(), q)
				}(i, q)
			}
			wg.Wait()
			for i, q := range queries {
				if errs[i] != nil {
					t.Fatalf("%q: %v", q, errs[i])
				}
				if results[i].Reason != pier.ReasonEOS {
					t.Errorf("%q completed by %q, want %q", q, results[i].Reason, pier.ReasonEOS)
				}
				if got := encodeSorted(results[i].Rows); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("%q: %d rows differ from the centralized baseline's %d", q, len(got), len(want[i]))
				}
			}
		})
	}
}

// TestLedgerFramesIdleCount: an idle COUNT(*) on 16 nodes costs a member
// one ledger frame for "I am a member, my scan is done" and one per
// drain round it acknowledges. A participation-start ledger that is a
// frame of its own makes it rounds + 2 for every member of every query.
// A member whose scan outlasts the settle pause on a busy box pays that
// second frame too, so the reading is the cheapest member of 9 queries.
func TestLedgerFramesIdleCount(t *testing.T) {
	cl := spillCluster(t, 16, 1810, nil)
	seedDrainTables(t, cl.Nodes, 0)
	want := encodeSorted([]tuple.Tuple{{tuple.Int(16)}})
	coord := cl.Nodes[5]
	const series = "pier_eos_ledgers_sent_total"
	beyondRounds := readings(9, func() float64 {
		before := make([]float64, len(cl.Nodes))
		for i, nd := range cl.Nodes {
			before[i] = nd.Obs().SnapshotMap()[series]
		}
		rounds := eosQuery(t, coord, "SELECT COUNT(*) FROM traffic", want)
		least := math.Inf(1)
		for i, nd := range cl.Nodes {
			if nd != coord {
				least = min(least, nd.Obs().SnapshotMap()[series]-before[i]-rounds)
			}
		}
		return least
	})[0]
	if beyondRounds > 1 {
		t.Errorf("%v ledger frames beyond one per drain round (cheapest member of 9 queries), want 1", beyondRounds)
	}
}

// TestRelayCombineBeforeFirstRound: relays stop holding once a drain
// round has reached them, and must not stop before. With scans long
// enough that partials cross the overlay while other nodes still scan,
// in-network combining happens, and the answer is the baseline's.
func TestRelayCombineBeforeFirstRound(t *testing.T) {
	cl := spillCluster(t, 16, 1811, nil)
	seedDrainTables(t, cl.Nodes, 1500)
	const sql = "SELECT rule, COUNT(*), SUM(hits) FROM alerts GROUP BY rule"
	ref, err := centralizedBaseline(cl.Nodes).QuerySQL(context.Background(), sql, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	before := sumMetric(cl.Nodes, "pier_partials_combined_total")
	eosQuery(t, cl.Nodes[0], sql, encodeSorted(ref.Rows))
	if combined := sumMetric(cl.Nodes, "pier_partials_combined_total") - before; combined == 0 {
		t.Error("no partial was combined at a relay")
	}
}

// TestSettledRoundUnderReordering: every message is delayed 0–3 ms at
// random — a quarter of them straggle the full 3 ms, the rest arrive
// within 50 µs — so a drain round's broadcast and ledgers overtake
// data frames, and records reach collectors after those collectors
// acknowledged a round. (Delays uniform over 0–3 ms rarely let a round
// pass with nothing else moving, so they would not catch a Settled bit
// that is remembered from the acknowledgement instead of read from the
// books; stragglers do.) Over 40 runs each of an 8000×1000 join and a
// GROUP BY on 8 nodes, every answer that ends eos is the centralized
// baseline's, byte for byte, and some query needs a second round — the
// path where a late receipt leaves a ledger unsettled ran.
func TestSettledRoundUnderReordering(t *testing.T) {
	if testing.Short() {
		t.Skip("80 queries on a reordering network")
	}
	cfg := piertest.FastConfig()
	// No node dies here: a scheduler stall under -race must not be read
	// as a crash and end a query churn-degraded.
	cfg.SuspectAfter = 1000
	cl, err := piertest.New(piertest.Options{N: 8, Seed: 3601, NodeCfg: &cfg, NetCfg: &simnet.Config{
		LatencyFn: func(_, _ string, rng *rand.Rand) time.Duration {
			if rng.Intn(4) == 0 {
				return 3 * time.Millisecond
			}
			return time.Duration(rng.Int63n(int64(50 * time.Microsecond)))
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	seedRehashJoin(t, cl.Nodes, 8000, 1000, 40)
	seedDrainTables(t, cl.Nodes, 200)
	statements := []string{
		"SELECT o.oid, u.name FROM orders o JOIN users u ON o.uid = u.uid",
		"SELECT rule, COUNT(*), SUM(hits) FROM alerts GROUP BY rule",
	}
	bl := centralizedBaseline(cl.Nodes)
	want := make([][]string, len(statements))
	for i, sql := range statements {
		ref, err := bl.QuerySQL(context.Background(), sql, 500*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = encodeSorted(ref.Rows)
	}
	if len(want[0]) != 8000 || len(want[1]) != drainRules {
		t.Fatalf("baseline rows: join %d, want 8000; GROUP BY %d, want %d", len(want[0]), len(want[1]), drainRules)
	}
	const runs = 40
	maxRounds, notEOS := 0.0, 0
	for r := 0; r < runs; r++ {
		for i, sql := range statements {
			coord := cl.Nodes[(r+i)%len(cl.Nodes)]
			before := coord.Obs().SnapshotMap()["pier_drain_rounds_sum"]
			res, err := coord.Query(context.Background(), sql)
			if err != nil {
				t.Fatal(err)
			}
			if res.Reason != pier.ReasonEOS {
				notEOS++
				t.Logf("run %d, %s: ended %s", r, sql, res.Reason)
				continue
			}
			maxRounds = max(maxRounds, coord.Obs().SnapshotMap()["pier_drain_rounds_sum"]-before)
			if got := encodeSorted(res.Rows); !reflect.DeepEqual(got, want[i]) {
				t.Errorf("run %d, %s: eos with %d rows that differ from the baseline's %d", r, sql, len(got), len(want[i]))
			}
		}
	}
	t.Logf("most drain rounds of one query: %v; %d of %d queries not eos", maxRounds, notEOS, runs*len(statements))
	if maxRounds < 2 {
		t.Errorf("no query took a second drain round (most: %v): the unsettled path never ran", maxRounds)
	}
}
