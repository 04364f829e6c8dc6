package pier

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/chord"
	"repro/internal/plan"
	"repro/internal/simnet"
	"repro/internal/tuple"
)

func testNodeConfig() Config {
	cfg := Config{
		Chord: chord.Config{
			SuccessorListLen: 4,
			StabilizeEvery:   10 * time.Millisecond,
			FixFingersEvery:  2 * time.Millisecond,
			CheckPredEvery:   25 * time.Millisecond,
		},
		CombineHold:   15 * time.Millisecond,
		CollectorHold: 80 * time.Millisecond,
		Quiet:         250 * time.Millisecond,
		MaxQueryLife:  10 * time.Second,
	}
	cfg.DHT.SweepEvery = 100 * time.Millisecond
	cfg.DHT.RepublishEvery = 500 * time.Millisecond
	return cfg
}

// cluster builds n joined PIER nodes over a fresh simnet.
func cluster(t *testing.T, n int, seed int64) ([]*Node, *simnet.Network) {
	t.Helper()
	return clusterWithConfig(t, n, seed, testNodeConfig())
}

func clusterWithConfig(t *testing.T, n int, seed int64, cfg Config) ([]*Node, *simnet.Network) {
	t.Helper()
	return clusterWithNet(t, n, simnet.Config{Seed: seed}, cfg)
}

// clusterWithLoss builds the cluster loss-free, converges it, then
// turns on the requested loss rate (joining under loss is possible
// but slow; the paper's churn results also start from a stable ring).
func clusterWithLoss(t *testing.T, n int, seed int64, cfg Config, loss float64) ([]*Node, *simnet.Network) {
	t.Helper()
	nodes, net := clusterWithNet(t, n, simnet.Config{Seed: seed}, cfg)
	net.SetLossRate(loss)
	return nodes, net
}

// slowNet delays every message 40ms: a one-shot query over a few nodes
// then runs for hundreds of milliseconds, long enough to cancel or stop
// it mid-flight.
func slowNet(seed int64) simnet.Config {
	return simnet.Config{Seed: seed, MinLatency: 40 * time.Millisecond}
}

func clusterWithNet(t *testing.T, n int, netCfg simnet.Config, cfg Config) ([]*Node, *simnet.Network) {
	t.Helper()
	net := simnet.New(netCfg)
	t.Cleanup(net.Close)
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		ep, err := net.Endpoint(fmt.Sprintf("node%d", i))
		if err != nil {
			t.Fatal(err)
		}
		nd, err := NewNode(ep, cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = nd
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.Stop()
		}
	})
	for i := 1; i < n; i++ {
		if err := nodes[i].Join(context.Background(), nodes[0].Addr()); err != nil {
			t.Fatal(err)
		}
	}
	waitOverlay(t, nodes)
	return nodes, net
}

// waitOverlay waits for the chord ring to converge.
func waitOverlay(t *testing.T, nodes []*Node) {
	t.Helper()
	chords := make([]*chord.Node, len(nodes))
	for i, nd := range nodes {
		chords[i] = nd.Router()
	}
	if err := chord.WaitConverged(chords, 30*time.Second); err != nil {
		t.Fatal(err)
	}
}

var trafficSchema = tuple.MustSchema("traffic", []tuple.Column{
	{Name: "node", Type: tuple.TString},
	{Name: "rate", Type: tuple.TFloat},
}, "node")

var alertsSchema = tuple.MustSchema("alerts", []tuple.Column{
	{Name: "node", Type: tuple.TString},
	{Name: "rule", Type: tuple.TInt},
	{Name: "hits", Type: tuple.TInt},
}, "node", "rule")

var rulesSchema = tuple.MustSchema("rules", []tuple.Column{
	{Name: "rule", Type: tuple.TInt},
	{Name: "descr", Type: tuple.TString},
}, "rule")

func defineEverywhere(t *testing.T, nodes []*Node, schema *tuple.Schema, ttl time.Duration) {
	t.Helper()
	for _, nd := range nodes {
		if err := nd.DefineTable(schema, ttl); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDistributedScan(t *testing.T) {
	nodes, _ := cluster(t, 6, 1)
	defineEverywhere(t, nodes, trafficSchema, time.Minute)
	for i, nd := range nodes {
		err := nd.PublishLocal("traffic", tuple.Tuple{
			tuple.String(nd.Addr()), tuple.Float(float64(10 * (i + 1))),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	res, err := nodes[2].Query(context.Background(), "SELECT node, rate FROM traffic")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("scan returned %d rows, want 6: %v", len(res.Rows), res.Rows)
	}
	if res.Columns[0] != "node" || res.Columns[1] != "rate" {
		t.Fatalf("columns %v", res.Columns)
	}
	if res.Participants < 6 {
		t.Fatalf("only %d participants reported done", res.Participants)
	}
}

func TestScanWithFilterAndProjection(t *testing.T) {
	nodes, _ := cluster(t, 5, 2)
	defineEverywhere(t, nodes, trafficSchema, time.Minute)
	for i, nd := range nodes {
		nd.PublishLocal("traffic", tuple.Tuple{
			tuple.String(nd.Addr()), tuple.Float(float64(i + 1)), // 1..5
		})
	}
	res, err := nodes[0].Query(context.Background(),
		"SELECT rate * 2 AS doubled FROM traffic WHERE rate > 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("got %d rows: %v", len(res.Rows), res.Rows)
	}
	for _, r := range res.Rows {
		if r[0].F != 8 && r[0].F != 10 {
			t.Fatalf("unexpected value %v", r[0])
		}
	}
}

func TestDistributedSum(t *testing.T) {
	nodes, _ := cluster(t, 8, 3)
	defineEverywhere(t, nodes, trafficSchema, time.Minute)
	var want float64
	for i, nd := range nodes {
		rate := float64((i + 1) * 5)
		want += rate
		nd.PublishLocal("traffic", tuple.Tuple{tuple.String(nd.Addr()), tuple.Float(rate)})
	}
	res, err := nodes[3].Query(context.Background(), "SELECT SUM(rate) FROM traffic")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("grand aggregate returned %d rows", len(res.Rows))
	}
	if got := res.Rows[0][0].F; got != want {
		t.Fatalf("SUM = %v, want %v", got, want)
	}
}

func TestGroupByAcrossNodes(t *testing.T) {
	nodes, _ := cluster(t, 6, 4)
	defineEverywhere(t, nodes, alertsSchema, time.Minute)
	// Every node reports hits for rules 1 and 2.
	for i, nd := range nodes {
		nd.PublishLocal("alerts", tuple.Tuple{tuple.String(nd.Addr()), tuple.Int(1), tuple.Int(int64(i + 1))})
		nd.PublishLocal("alerts", tuple.Tuple{tuple.String(nd.Addr()), tuple.Int(2), tuple.Int(10)})
	}
	res, err := nodes[0].Query(context.Background(),
		"SELECT rule, SUM(hits) AS total, COUNT(*) AS n FROM alerts GROUP BY rule ORDER BY rule")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("got %d groups: %v", len(res.Rows), res.Rows)
	}
	// rule 1: sum 1+2+..+6 = 21, count 6. rule 2: 60, 6.
	r1, r2 := res.Rows[0], res.Rows[1]
	if r1[0].I != 1 || r1[1].I != 21 || r1[2].I != 6 {
		t.Fatalf("rule 1 row %v", r1)
	}
	if r2[0].I != 2 || r2[1].I != 60 || r2[2].I != 6 {
		t.Fatalf("rule 2 row %v", r2)
	}
}

func TestTopKOrderLimit(t *testing.T) {
	nodes, _ := cluster(t, 6, 5)
	defineEverywhere(t, nodes, alertsSchema, time.Minute)
	// Rule r gets r hits on every node; top-3 of 10 rules = 10, 9, 8.
	for _, nd := range nodes {
		for rule := 1; rule <= 10; rule++ {
			nd.PublishLocal("alerts", tuple.Tuple{
				tuple.String(nd.Addr()), tuple.Int(int64(rule)), tuple.Int(int64(rule)),
			})
		}
	}
	res, err := nodes[1].Query(context.Background(),
		"SELECT rule, SUM(hits) AS total FROM alerts GROUP BY rule ORDER BY total DESC LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("got %d rows", len(res.Rows))
	}
	for i, wantRule := range []int64{10, 9, 8} {
		if res.Rows[i][0].I != wantRule || res.Rows[i][1].I != wantRule*6 {
			t.Fatalf("row %d = %v", i, res.Rows[i])
		}
	}
}

func TestHavingFilter(t *testing.T) {
	nodes, _ := cluster(t, 4, 6)
	defineEverywhere(t, nodes, alertsSchema, time.Minute)
	for _, nd := range nodes {
		nd.PublishLocal("alerts", tuple.Tuple{tuple.String(nd.Addr()), tuple.Int(1), tuple.Int(100)})
		nd.PublishLocal("alerts", tuple.Tuple{tuple.String(nd.Addr()), tuple.Int(2), tuple.Int(1)})
	}
	res, err := nodes[0].Query(context.Background(),
		"SELECT rule, SUM(hits) FROM alerts GROUP BY rule HAVING SUM(hits) > 50")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I != 1 {
		t.Fatalf("having result %v", res.Rows)
	}
}

func TestDistinct(t *testing.T) {
	nodes, _ := cluster(t, 4, 7)
	defineEverywhere(t, nodes, alertsSchema, time.Minute)
	for _, nd := range nodes {
		nd.PublishLocal("alerts", tuple.Tuple{tuple.String(nd.Addr()), tuple.Int(7), tuple.Int(1)})
	}
	res, err := nodes[0].Query(context.Background(), "SELECT DISTINCT rule FROM alerts")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I != 7 {
		t.Fatalf("distinct result %v", res.Rows)
	}
}

func TestSymmetricHashJoin(t *testing.T) {
	nodes, _ := cluster(t, 6, 8)
	defineEverywhere(t, nodes, alertsSchema, time.Minute)
	defineEverywhere(t, nodes, rulesSchema, time.Minute)
	// Alerts stay at the edges; rule descriptions live on node 0's
	// partition only (still found via rehashing).
	for i, nd := range nodes {
		nd.PublishLocal("alerts", tuple.Tuple{tuple.String(nd.Addr()), tuple.Int(int64(i%2 + 1)), tuple.Int(5)})
	}
	nodes[0].PublishLocal("rules", tuple.Tuple{tuple.Int(1), tuple.String("BAD-TRAFFIC")})
	nodes[0].PublishLocal("rules", tuple.Tuple{tuple.Int(2), tuple.String("TFTP Get")})
	sym := plan.SymmetricHash
	res, err := nodes[2].QueryWithOptions(context.Background(),
		"SELECT a.node, r.descr FROM alerts a JOIN rules r ON a.rule = r.rule",
		plan.Options{Strategy: &sym})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("join returned %d rows: %v", len(res.Rows), res.Rows)
	}
	for _, r := range res.Rows {
		if r[1].S != "BAD-TRAFFIC" && r[1].S != "TFTP Get" {
			t.Fatalf("bad join row %v", r)
		}
	}
}

func TestFetchMatchesJoin(t *testing.T) {
	nodes, _ := cluster(t, 6, 9)
	defineEverywhere(t, nodes, alertsSchema, time.Minute)
	defineEverywhere(t, nodes, rulesSchema, time.Minute)
	for i, nd := range nodes {
		nd.PublishLocal("alerts", tuple.Tuple{tuple.String(nd.Addr()), tuple.Int(int64(i%2 + 1)), tuple.Int(5)})
	}
	// rules published INTO the DHT (keyed by rule) — the premise of
	// fetch-matches.
	if err := nodes[0].Publish("rules", tuple.Tuple{tuple.Int(1), tuple.String("BAD-TRAFFIC")}); err != nil {
		t.Fatal(err)
	}
	if err := nodes[0].Publish("rules", tuple.Tuple{tuple.Int(2), tuple.String("TFTP Get")}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond) // let puts land
	fm := plan.FetchMatches
	res, err := nodes[1].QueryWithOptions(context.Background(),
		"SELECT a.node, r.descr FROM alerts a JOIN rules r ON a.rule = r.rule",
		plan.Options{Strategy: &fm})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("fetch-matches returned %d rows: %v", len(res.Rows), res.Rows)
	}
}

// TestBloomJoinMatchesSymmetric is S3: the Bloom rewrite returns the
// symmetric-hash join's rows, and rehashes fewer tuples doing it (most
// rules match no alert, and the filter keeps them home).
func TestBloomJoinMatchesSymmetric(t *testing.T) {
	nodes, net := cluster(t, 6, 10)
	defineEverywhere(t, nodes, alertsSchema, time.Minute)
	defineEverywhere(t, nodes, rulesSchema, time.Minute)
	for i, nd := range nodes {
		nd.PublishLocal("alerts", tuple.Tuple{tuple.String(nd.Addr()), tuple.Int(int64(i%3 + 1)), tuple.Int(1)})
	}
	// Many rules, few of which join (bloom suppresses the rest).
	for rule := 1; rule <= 50; rule++ {
		nodes[rule%6].PublishLocal("rules", tuple.Tuple{tuple.Int(int64(rule)), tuple.String(fmt.Sprintf("rule-%d", rule))})
	}
	// The centralized answer: each alert meets its one rule.
	var want []tuple.Tuple
	for i, nd := range nodes {
		want = append(want, tuple.Tuple{tuple.String(nd.Addr()), tuple.String(fmt.Sprintf("rule-%d", i%3+1))})
	}
	rehashed := func() (total uint64) {
		for _, nd := range nodes {
			total += nd.Metrics.JoinTuplesRehashed.Load()
		}
		return total
	}
	run := func(strat plan.JoinStrategy) ([]string, uint64, uint64) {
		before, bytesBefore := rehashed(), net.Stats().BytesSent
		res, err := nodes[0].QueryWithOptions(context.Background(),
			"SELECT a.node, r.descr FROM alerts a JOIN rules r ON a.rule = r.rule",
			plan.Options{Strategy: &strat})
		if err != nil {
			t.Fatal(err)
		}
		return sortedRowEncodings(res.Rows), rehashed() - before, net.Stats().BytesSent - bytesBefore
	}
	bloomRows, bloomRehashed, bloomBytes := run(plan.BloomJoin)
	symRows, symRehashed, symBytes := run(plan.SymmetricHash)
	if !reflect.DeepEqual(bloomRows, sortedRowEncodings(want)) {
		t.Fatalf("bloom join returned %d rows, not the %d the centralized join does", len(bloomRows), len(want))
	}
	if !reflect.DeepEqual(bloomRows, symRows) {
		t.Fatalf("bloom rows differ from symmetric hash's (%d vs %d rows)", len(bloomRows), len(symRows))
	}
	if bloomRehashed >= symRehashed {
		t.Fatalf("bloom join rehashed %d tuples, symmetric hash %d", bloomRehashed, symRehashed)
	}
	t.Logf("tuples rehashed: bloom %d, symmetric %d; bytes sent: bloom %d, symmetric %d", bloomRehashed, symRehashed, bloomBytes, symBytes)
}

func TestContinuousSum(t *testing.T) {
	nodes, _ := cluster(t, 5, 11)
	defineEverywhere(t, nodes, trafficSchema, time.Minute)
	// Sensors: every node publishes rate=2.0 samples every 100ms.
	sensorCtx, stopSensors := context.WithCancel(context.Background())
	defer stopSensors()
	for _, nd := range nodes {
		nd := nd
		go func() {
			seq := 0
			for {
				select {
				case <-sensorCtx.Done():
					return
				case <-time.After(100 * time.Millisecond):
				}
				seq++
				nd.PublishLocal("traffic", tuple.Tuple{
					tuple.String(fmt.Sprintf("%s-%d", nd.Addr(), seq)), tuple.Float(2.0),
				})
			}
		}()
	}
	cont, err := nodes[0].QueryContinuous(context.Background(),
		"SELECT SUM(rate) FROM traffic WINDOW 600 ms SLIDE 300 ms")
	if err != nil {
		t.Fatal(err)
	}
	defer cont.Stop()
	// Collect a few windows; later windows should show all 5 nodes'
	// samples: 5 nodes * ~6 samples/window * 2.0 = ~60.
	var sums []float64
	deadline := time.After(10 * time.Second)
	for len(sums) < 6 {
		select {
		case wr, ok := <-cont.Results():
			if !ok {
				t.Fatal("results channel closed early")
			}
			if len(wr.Rows) == 1 {
				sums = append(sums, wr.Rows[0][0].F)
			}
		case <-deadline:
			t.Fatalf("only %d windows in 10s: %v", len(sums), sums)
		}
	}
	// The last windows must be near steady state.
	last := sums[len(sums)-1]
	if last < 30 || last > 90 {
		t.Fatalf("steady-state window sum %v out of range (want ~60): %v", last, sums)
	}
}

func TestContinuousTracksFailures(t *testing.T) {
	nodes, net := cluster(t, 5, 12)
	defineEverywhere(t, nodes, trafficSchema, time.Minute)
	sensorCtx, stopSensors := context.WithCancel(context.Background())
	defer stopSensors()
	for _, nd := range nodes {
		nd := nd
		go func() {
			seq := 0
			for {
				select {
				case <-sensorCtx.Done():
					return
				case <-time.After(80 * time.Millisecond):
				}
				seq++
				nd.PublishLocal("traffic", tuple.Tuple{
					tuple.String(fmt.Sprintf("%s-%d", nd.Addr(), seq)), tuple.Float(1.0),
				})
			}
		}()
	}
	cont, err := nodes[0].QueryContinuous(context.Background(),
		"SELECT COUNT(*) FROM traffic WINDOW 400 ms SLIDE 400 ms")
	if err != nil {
		t.Fatal(err)
	}
	defer cont.Stop()

	readWindow := func() float64 {
		deadline := time.After(10 * time.Second)
		for {
			select {
			case wr, ok := <-cont.Results():
				if !ok {
					t.Fatal("closed")
				}
				if len(wr.Rows) == 1 {
					return float64(wr.Rows[0][0].I)
				}
			case <-deadline:
				t.Fatal("no window in 10s")
			}
		}
	}
	// Steady state first.
	var before float64
	for i := 0; i < 4; i++ {
		before = readWindow()
	}
	if before < 10 {
		t.Fatalf("steady state too small: %v", before)
	}
	// Kill two non-coordinator nodes: the count must drop but windows
	// keep flowing — Figure 1's "responding nodes" behaviour.
	net.SetDown(nodes[3].Addr(), true)
	net.SetDown(nodes[4].Addr(), true)
	var after float64
	for i := 0; i < 5; i++ {
		after = readWindow()
	}
	if after >= before {
		t.Fatalf("count did not drop after failures: before=%v after=%v", before, after)
	}
	if after == 0 {
		t.Fatal("query stopped answering after failures")
	}
}

var linkSchema = tuple.MustSchema("link", []tuple.Column{
	{Name: "src", Type: tuple.TString},
	{Name: "dst", Type: tuple.TString},
}, "src", "dst")

func TestRecursiveReachability(t *testing.T) {
	nodes, _ := cluster(t, 5, 13)
	defineEverywhere(t, nodes, linkSchema, time.Minute)
	// Chain a->b->c->d spread across different nodes' partitions.
	links := [][2]string{{"a", "b"}, {"b", "c"}, {"c", "d"}}
	for i, l := range links {
		nodes[i%5].PublishLocal("link", tuple.Tuple{tuple.String(l[0]), tuple.String(l[1])})
	}
	res, err := nodes[0].Query(context.Background(), `
		WITH RECURSIVE reach AS (
			SELECT src, dst FROM link
			UNION
			SELECT l.src, reach.dst FROM link l JOIN reach ON l.dst = reach.src
		) SELECT src, dst FROM reach ORDER BY src, dst`)
	if err != nil {
		t.Fatal(err)
	}
	// Closure: ab ac ad bc bd cd = 6.
	if len(res.Rows) != 6 {
		t.Fatalf("closure has %d facts: %v", len(res.Rows), res.Rows)
	}
	if res.Rows[0][0].S != "a" || res.Rows[0][1].S != "b" {
		t.Fatalf("first fact %v", res.Rows[0])
	}
	// A healthy run says so: proven complete, every partition covered,
	// traceable under the base query's ID.
	if res.Reason != ReasonEOS || res.Coverage != 1 || res.CoverageByTable["link"] != 1 {
		t.Fatalf("healthy closure ended %q, coverage %v %v", res.Reason, res.Coverage, res.CoverageByTable)
	}
	if res.QueryID == 0 || res.Participants != 5 {
		t.Fatalf("query ID %d, %d participants", res.QueryID, res.Participants)
	}
}

func TestQueryErrors(t *testing.T) {
	nodes, _ := cluster(t, 1, 15)
	if _, err := nodes[0].Query(context.Background(), "SELECT x FROM missing"); err == nil {
		t.Fatal("unknown table accepted")
	}
	if _, err := nodes[0].Query(context.Background(), "NOT SQL AT ALL"); err == nil {
		t.Fatal("garbage accepted")
	}
	nodes[0].DefineTable(trafficSchema, time.Minute)
	if _, err := nodes[0].Query(context.Background(),
		"SELECT SUM(rate) FROM traffic WINDOW 1 s"); err == nil {
		t.Fatal("continuous query accepted by Query")
	}
	if _, err := nodes[0].QueryContinuous(context.Background(),
		"SELECT SUM(rate) FROM traffic"); err == nil {
		t.Fatal("one-shot accepted by QueryContinuous")
	}
}

func TestPublishValidates(t *testing.T) {
	nodes, _ := cluster(t, 1, 16)
	nodes[0].DefineTable(trafficSchema, time.Minute)
	if err := nodes[0].PublishLocal("traffic", tuple.Tuple{tuple.Int(1)}); err == nil {
		t.Fatal("bad arity accepted")
	}
	if err := nodes[0].Publish("nope", tuple.Tuple{}); err == nil {
		t.Fatal("unknown table accepted")
	}
}

func TestSingleNodeQuery(t *testing.T) {
	nodes, _ := cluster(t, 1, 17)
	nodes[0].DefineTable(trafficSchema, time.Minute)
	nodes[0].PublishLocal("traffic", tuple.Tuple{tuple.String("n"), tuple.Float(4)})
	res, err := nodes[0].Query(context.Background(), "SELECT SUM(rate) FROM traffic")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].F != 4 {
		t.Fatalf("single-node result %v", res.Rows)
	}
}
