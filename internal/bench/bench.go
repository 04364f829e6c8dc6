// Package bench implements the experiment harness that regenerates
// the paper's evaluation artifacts (Figure 1 and Table 1) and the
// supporting shape results DESIGN.md indexes (routing scalability,
// in-network aggregation vs. centralized collection, join-strategy
// costs, churn survival, search vs. flooding, and recursive closure).
// cmd/pierbench prints these as tables; bench_test.go wraps them as
// testing.B benchmarks.
package bench

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/baseline"
	"repro/internal/catalog"
	"repro/internal/id"
	"repro/internal/monitor"
	"repro/internal/pier"
	"repro/internal/piertest"
	"repro/internal/plan"
	"repro/internal/search"
	"repro/internal/simnet"
	"repro/internal/topology"
	"repro/internal/tuple"
)

// ---------------------------------------------------------------------------
// Figure 1

// Figure1Point is one window of the continuous sum.
type Figure1Point struct {
	T          time.Duration // time since query start
	Sum        float64       // SUM(rate) over responding nodes
	Responding int           // nodes with live sensors at window close
	// Expected is the sensor model's predicted SUM(rate) for this
	// window had every node responded. Sum/Expected is the
	// diurnal-corrected response fraction: the sensors carry a
	// wall-clock-phased sine component (±DiurnalAmplitude), so raw
	// sums from different windows are not comparable — the shape
	// checks compare fractions instead.
	Expected float64
}

// Fraction is the diurnal-corrected response fraction (0 when the
// model expectation is unavailable).
func (p Figure1Point) Fraction() float64 {
	if p.Expected <= 0 {
		return 0
	}
	return p.Sum / p.Expected
}

// Figure1Config parameterizes the Figure 1 run.
type Figure1Config struct {
	N         int           // nodes (paper: ~300 PlanetLab machines)
	Window    time.Duration // aggregation window
	Slide     time.Duration // window slide
	Run       time.Duration // total experiment duration
	FailAt    time.Duration // when the failure group goes down
	RecoverAt time.Duration // when it comes back (0 = never)
	FailCount int           // how many nodes fail
	Seed      int64
}

// Figure1 regenerates the demo's continuous SUM of per-node outbound
// data rates while part of the network fails and recovers — the
// series whose shape (steady sum, drop at failure, recovery ramp)
// matches the paper's Figure 1.
func Figure1(cfg Figure1Config) ([]Figure1Point, error) {
	if cfg.N == 0 {
		cfg.N = 24
	}
	if cfg.Window == 0 {
		cfg.Window = time.Second
	}
	if cfg.Slide == 0 {
		cfg.Slide = 500 * time.Millisecond
	}
	if cfg.Run == 0 {
		cfg.Run = 10 * time.Second
	}
	cluster, err := piertest.New(piertest.Options{N: cfg.N, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	defer cluster.Close()
	sensorPeriod := 100 * time.Millisecond
	var model *monitor.Sensor // rate model (shared by every sensor)
	for i, nd := range cluster.Nodes {
		s, err := monitor.NewSensor(nd, monitor.SensorConfig{
			Period:   sensorPeriod,
			BaseRate: 10,
			TTL:      2 * cfg.Window,
			Seed:     int64(i),
		})
		if err != nil {
			return nil, err
		}
		defer s.Stop()
		if model == nil {
			model = s
		}
	}
	// expectedSum predicts the full-network SUM(rate) of the window
	// closing at closeAt: one model-rate sample per sensor period per
	// node (sample noise is mean-zero).
	expectedSum := func(closeAt time.Time) float64 {
		perNode := 0.0
		for k := 1; k <= int(cfg.Window/sensorPeriod); k++ {
			perNode += model.Rate(closeAt.Add(-cfg.Window + time.Duration(k)*sensorPeriod))
		}
		return perNode * float64(cfg.N)
	}
	cont, err := cluster.Nodes[0].QueryContinuous(context.Background(),
		monitor.Figure1Query(cfg.Window, cfg.Slide))
	if err != nil {
		return nil, err
	}
	defer cont.Stop()

	start := time.Now()
	down := false
	recovered := false
	var series []Figure1Point
	for time.Since(start) < cfg.Run {
		if cfg.FailCount > 0 && !down && cfg.FailAt > 0 && time.Since(start) >= cfg.FailAt {
			down = true
			for i := 1; i <= cfg.FailCount && i < cfg.N; i++ {
				cluster.Net.SetDown(cluster.Nodes[i].Addr(), true)
			}
		}
		if down && !recovered && cfg.RecoverAt > 0 && time.Since(start) >= cfg.RecoverAt {
			recovered = true
			for i := 1; i <= cfg.FailCount && i < cfg.N; i++ {
				cluster.Net.SetDown(cluster.Nodes[i].Addr(), false)
			}
		}
		select {
		case wr, ok := <-cont.Results():
			if !ok {
				return series, nil
			}
			if len(wr.Rows) != 1 || wr.Rows[0][0].IsNull() {
				continue
			}
			responding := cfg.N
			if down && !recovered {
				responding -= cfg.FailCount
			}
			series = append(series, Figure1Point{
				T:          time.Since(start),
				Sum:        wr.Rows[0][0].F,
				Responding: responding,
				Expected:   expectedSum(wr.Time),
			})
		case <-time.After(cfg.Run):
			return series, fmt.Errorf("bench: figure1 produced no windows")
		}
	}
	return series, nil
}

// Figure1Dip summarizes the failure-dip shape of a Figure 1 series:
// the median diurnal-corrected response fraction over the pre-failure
// plateau window and over the post-failure trough window (by receipt
// time since query start). ok is false when either bucket is empty —
// the shape cannot be judged (e.g. the aggregation collector itself
// was in the failure group and no trough windows arrived).
func Figure1Dip(series []Figure1Point, preLo, preHi, troughLo, troughHi time.Duration) (pre, trough float64, ok bool) {
	var preF, troughF []float64
	for _, p := range series {
		f := p.Fraction()
		if f <= 0 {
			continue
		}
		switch {
		case p.T > preLo && p.T < preHi:
			preF = append(preF, f)
		case p.T > troughLo && p.T < troughHi:
			troughF = append(troughF, f)
		}
	}
	if len(preF) == 0 || len(troughF) == 0 {
		return 0, 0, false
	}
	return median(preF), median(troughF), true
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ---------------------------------------------------------------------------
// Table 1

// Table1Row is one reported rule.
type Table1Row struct {
	Rule  int64
	Descr string
	Hits  int64
}

// Table1Result carries the reproduced table plus run metadata.
type Table1Result struct {
	Rows     []Table1Row
	Duration time.Duration
	Msgs     uint64 // network messages for the query (post-seeding)
}

// Table1 seeds every node's Snort table with shares of the paper's
// published counts and runs the demo's top-ten query.
func Table1(n int, seed int64) (*Table1Result, error) {
	if n == 0 {
		n = 24
	}
	cluster, err := piertest.New(piertest.Options{N: n, Seed: seed})
	if err != nil {
		return nil, err
	}
	defer cluster.Close()
	rules := append(append([]monitor.Rule(nil), monitor.Table1Rules...), monitor.BackgroundRules...)
	if err := monitor.SeedAlerts(cluster.Nodes, rules, time.Minute, seed+1); err != nil {
		return nil, err
	}
	cluster.Net.ResetStats()
	res, err := cluster.Nodes[0].Query(context.Background(), monitor.Table1SQL)
	if err != nil {
		return nil, err
	}
	out := &Table1Result{Duration: res.Duration, Msgs: cluster.Net.Stats().Sent}
	for _, r := range res.Rows {
		out.Rows = append(out.Rows, Table1Row{Rule: r[0].I, Descr: r[1].S, Hits: r[2].I})
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// S1: routing scalability

// HopsPoint is one network size's lookup cost.
type HopsPoint struct {
	N        int
	MeanHops float64
}

// ScalingHops measures mean Chord lookup hops across network sizes —
// the O(log n) routing behaviour PIER's scalability claim rests on.
func ScalingHops(sizes []int, lookups int, seed int64) ([]HopsPoint, error) {
	if len(sizes) == 0 {
		sizes = []int{16, 32, 64, 128}
	}
	if lookups == 0 {
		lookups = 50
	}
	var out []HopsPoint
	for _, n := range sizes {
		cluster, err := piertest.New(piertest.Options{N: n, Seed: seed})
		if err != nil {
			return nil, err
		}
		// Let fingers converge enough for log-n routing.
		time.Sleep(time.Duration(n) * 12 * time.Millisecond)
		total := 0
		for i := 0; i < lookups; i++ {
			key := id.HashString(fmt.Sprintf("probe-%d-%d", n, i))
			src := cluster.Nodes[i%n]
			_, hops, err := src.Router().Lookup(context.Background(), key)
			if err != nil {
				continue
			}
			total += hops
		}
		cluster.Close()
		out = append(out, HopsPoint{N: n, MeanHops: float64(total) / float64(lookups)})
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// S2: in-network aggregation vs centralized collection

// AggResult is one strategy's cost for the same grand aggregate.
type AggResult struct {
	Mode        string
	Msgs        uint64 // total network messages
	Bytes       uint64 // total network bytes
	RootInMsgs  uint64 // messages arriving at the collection point
	RootInBytes uint64 // bytes arriving at the collection point
	Value       float64
}

// AggregationComparison computes SUM(v) over n nodes three ways:
// in-network aggregation with relay combining, without combining, and
// centralized ship-all-tuples — the bandwidth argument at the heart
// of the paper.
func AggregationComparison(n, rowsPerNode int, seed int64) ([]AggResult, error) {
	if n == 0 {
		n = 24
	}
	if rowsPerNode == 0 {
		rowsPerNode = 20
	}
	schema := tuple.MustSchema("v", []tuple.Column{
		{Name: "node", Type: tuple.TString},
		{Name: "i", Type: tuple.TInt},
		{Name: "val", Type: tuple.TFloat},
	}, "node", "i")
	want := float64(n*rowsPerNode) * 2.5

	run := func(mode string, disableCombiner bool, centralized bool) (AggResult, error) {
		cfg := piertest.FastConfig()
		cfg.DisableCombiner = disableCombiner
		cluster, err := piertest.New(piertest.Options{N: n, Seed: seed, NodeCfg: &cfg})
		if err != nil {
			return AggResult{}, err
		}
		defer cluster.Close()
		var bases []*baseline.Centralized
		for _, nd := range cluster.Nodes {
			bases = append(bases, baseline.NewCentralized(nd))
			if err := nd.DefineTable(schema, time.Minute); err != nil {
				return AggResult{}, err
			}
			for i := 0; i < rowsPerNode; i++ {
				nd.PublishLocal("v", tuple.Tuple{
					tuple.String(nd.Addr()), tuple.Int(int64(i)), tuple.Float(2.5),
				})
			}
		}
		coord := cluster.Nodes[0].Addr()
		cluster.Net.ResetStats()
		var value float64
		if centralized {
			rows, err := bases[0].CollectAll(context.Background(), "v", 300*time.Millisecond)
			if err != nil {
				return AggResult{}, err
			}
			for _, r := range rows {
				value += r[2].F
			}
		} else {
			res, err := cluster.Nodes[0].Query(context.Background(), "SELECT SUM(val) FROM v")
			if err != nil {
				return AggResult{}, err
			}
			if len(res.Rows) == 1 {
				value = res.Rows[0][0].F
			}
		}
		stats := cluster.Net.Stats()
		root := cluster.Net.PerNode(coord)
		if value != want {
			return AggResult{}, fmt.Errorf("bench: %s computed %v, want %v", mode, value, want)
		}
		return AggResult{
			Mode: mode, Msgs: stats.Sent, Bytes: stats.BytesSent,
			RootInMsgs: root.MsgsIn, RootInBytes: root.BytesIn, Value: value,
		}, nil
	}

	var out []AggResult
	for _, c := range []struct {
		mode        string
		noCombine   bool
		centralized bool
	}{
		{"in-network+combine", false, false},
		{"in-network", true, false},
		{"centralized", false, true},
	} {
		r, err := run(c.mode, c.noCombine, c.centralized)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// S3: join strategies

// JoinResult is one strategy's cost for the same join.
type JoinResult struct {
	Strategy string
	Msgs     uint64
	Bytes    uint64
	// Rehashed sums Metrics.JoinTuplesRehashed over the cluster.
	Rehashed uint64
	Rows     int
}

// JoinStrategies runs the same equi-join under symmetric-hash,
// fetch-matches, and Bloom rewrites. leftPerNode tuples per node
// reference matchFrac of rightTotal DHT-published right tuples.
func JoinStrategies(n, leftPerNode, rightTotal int, matchFrac float64, seed int64) ([]JoinResult, error) {
	if n == 0 {
		n = 16
	}
	leftSchema := tuple.MustSchema("l", []tuple.Column{
		{Name: "node", Type: tuple.TString},
		{Name: "k", Type: tuple.TInt},
	}, "node", "k")
	rightSchema := tuple.MustSchema("r", []tuple.Column{
		{Name: "k", Type: tuple.TInt},
		{Name: "info", Type: tuple.TString},
	}, "k")

	matched := int(matchFrac * float64(rightTotal))
	if matched < 1 {
		matched = 1
	}

	run := func(strategy string) (JoinResult, error) {
		cfg := piertest.FastConfig()
		// Size the Bloom filters to the workload: oversized filters
		// would drown the rehash savings they buy (the bit-budget
		// trade-off the S3 ablation sweeps).
		cfg.BloomBits = 2048
		cluster, err := piertest.New(piertest.Options{N: n, Seed: seed, NodeCfg: &cfg})
		if err != nil {
			return JoinResult{}, err
		}
		defer cluster.Close()
		for _, nd := range cluster.Nodes {
			if err := nd.DefineTable(leftSchema, time.Minute); err != nil {
				return JoinResult{}, err
			}
			if err := nd.DefineTable(rightSchema, time.Minute); err != nil {
				return JoinResult{}, err
			}
		}
		// Left tuples reference keys 0..matched-1 round-robin (all
		// join); right table holds rightTotal keys, mostly unmatched.
		for i, nd := range cluster.Nodes {
			for j := 0; j < leftPerNode; j++ {
				k := int64((i*leftPerNode + j) % matched)
				nd.PublishLocal("l", tuple.Tuple{tuple.String(nd.Addr()), tuple.Int(k)})
			}
		}
		for k := 0; k < rightTotal; k++ {
			nd := cluster.Nodes[k%n]
			if err := nd.Publish("r", tuple.Tuple{tuple.Int(int64(k)), tuple.String(fmt.Sprintf("info-%d", k))}); err != nil {
				return JoinResult{}, err
			}
		}
		time.Sleep(500 * time.Millisecond) // let right-table puts land
		cluster.Net.ResetStats()

		sql := "SELECT a.node, b.info FROM l a JOIN r b ON a.k = b.k"
		strat := map[string]plan.JoinStrategy{
			"symmetric": plan.SymmetricHash,
			"fetch":     plan.FetchMatches,
			"bloom":     plan.BloomJoin,
		}[strategy]
		res, err := cluster.Nodes[0].QueryWithOptions(context.Background(), sql,
			plan.Options{Strategy: &strat})
		if err != nil {
			return JoinResult{}, err
		}
		stats := cluster.Net.Stats()
		out := JoinResult{Strategy: strategy, Msgs: stats.Sent, Bytes: stats.BytesSent, Rows: len(res.Rows)}
		for _, nd := range cluster.Nodes {
			out.Rehashed += nd.Metrics.JoinTuplesRehashed.Load()
		}
		return out, nil
	}

	var out []JoinResult
	for _, s := range []string{"symmetric", "fetch", "bloom"} {
		r, err := run(s)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// EXPLAIN ANALYZE

// ExplainAnalyze runs a representative join + aggregation query with
// per-operator instrumentation on and returns the result row count
// plus the network-wide EXPLAIN ANALYZE report — every pipeline stage
// (participant scans and rehash, join collectors, aggregation
// collectors, coordinator tail) with its rows/bytes/latency counters.
func ExplainAnalyze(n int, seed int64) (int, string, error) {
	if n == 0 {
		n = 16
	}
	cluster, err := piertest.New(piertest.Options{N: n, Seed: seed})
	if err != nil {
		return 0, "", err
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
			return 0, "", err
		}
		if err := nd.DefineTable(rightSchema, time.Minute); err != nil {
			return 0, "", err
		}
	}
	const perNode, distinctKeys = 10, 8
	for i, nd := range cluster.Nodes {
		for j := 0; j < perNode; j++ {
			k := int64((i*perNode + j) % distinctKeys)
			nd.PublishLocal("l", tuple.Tuple{tuple.String(nd.Addr()), tuple.Int(k)})
		}
	}
	for k := 0; k < distinctKeys; k++ {
		nd := cluster.Nodes[k%n]
		if err := nd.Publish("r", tuple.Tuple{tuple.Int(int64(k)), tuple.String(fmt.Sprintf("info-%d", k))}); err != nil {
			return 0, "", err
		}
	}
	time.Sleep(400 * time.Millisecond) // let right-table puts land
	strat := plan.SymmetricHash
	res, err := cluster.Nodes[0].QueryWithOptions(context.Background(),
		"SELECT b.info, COUNT(a.node) AS hits FROM l a JOIN r b ON a.k = b.k GROUP BY b.info ORDER BY hits DESC",
		plan.Options{Strategy: &strat, Analyze: true})
	if err != nil {
		return 0, "", err
	}
	return len(res.Rows), res.AnalyzeReport, nil
}

// ---------------------------------------------------------------------------
// S4: churn survival vs replication factor

// ChurnResult is one replication factor's data-survival outcome.
type ChurnResult struct {
	Replicas     int
	Survived     int
	Total        int
	SurvivedFrac float64
}

// ChurnSurvival publishes items into the DHT, kills a fraction of the
// nodes, waits for republish repair, and measures how many items
// remain readable — the successor-list replication ablation.
func ChurnSurvival(n, items, kills int, replicas []int, seed int64) ([]ChurnResult, error) {
	if n == 0 {
		n = 16
	}
	if items == 0 {
		items = 60
	}
	if kills == 0 {
		kills = n / 4
	}
	if len(replicas) == 0 {
		replicas = []int{0, 1, 2, 4}
	}
	schema := tuple.MustSchema("data", []tuple.Column{
		{Name: "k", Type: tuple.TString},
		{Name: "v", Type: tuple.TInt},
	}, "k")

	var out []ChurnResult
	for _, r := range replicas {
		cfg := piertest.FastConfig()
		cfg.DHT.Replicas = r
		if r == 0 {
			cfg.DHT.Replicas = -1 // sentinel: dht treats 0 as default
		}
		cluster, err := piertest.New(piertest.Options{N: n, Seed: seed, NodeCfg: &cfg})
		if err != nil {
			return nil, err
		}
		for _, nd := range cluster.Nodes {
			if err := nd.DefineTable(schema, 5*time.Minute); err != nil {
				cluster.Close()
				return nil, err
			}
		}
		for i := 0; i < items; i++ {
			nd := cluster.Nodes[i%n]
			if err := nd.Publish("data", tuple.Tuple{
				tuple.String(fmt.Sprintf("item-%d", i)), tuple.Int(int64(i)),
			}); err != nil {
				cluster.Close()
				return nil, err
			}
		}
		time.Sleep(600 * time.Millisecond) // placement + replication
		// Kill nodes 1..kills (never the prober, node 0).
		for i := 1; i <= kills && i < n; i++ {
			cluster.Net.SetDown(cluster.Nodes[i].Addr(), true)
		}
		// Allow failure detection + republish repair.
		time.Sleep(2 * time.Second)
		survived := 0
		for i := 0; i < items; i++ {
			rid := tuple.Tuple{tuple.String(fmt.Sprintf("item-%d", i))}.HashKey([]int{0})
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
			got, err := cluster.Nodes[0].Store().Get(ctx, "table:data", rid)
			cancel()
			if err == nil && len(got) > 0 {
				survived++
			}
		}
		cluster.Close()
		out = append(out, ChurnResult{
			Replicas: r, Survived: survived, Total: items,
			SurvivedFrac: float64(survived) / float64(items),
		})
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// S5: search vs flooding

// SearchResult is one strategy's cost for the same keyword query.
type SearchResult struct {
	Strategy string
	Msgs     uint64
	Files    int
}

// SearchComparison indexes the same corpus in the DHT and in
// node-local tables, then answers one keyword query by DHT gets and
// by bounded flooding, reporting message costs.
func SearchComparison(n, files int, seed int64) ([]SearchResult, error) {
	if n == 0 {
		n = 24
	}
	if files == 0 {
		files = 40
	}
	cluster, err := piertest.New(piertest.Options{N: n, Seed: seed})
	if err != nil {
		return nil, err
	}
	defer cluster.Close()
	indexes := make([]*search.Index, n)
	floods := make([]*baseline.Flood, n)
	for i, nd := range cluster.Nodes {
		if indexes[i], err = search.New(nd, time.Minute); err != nil {
			return nil, err
		}
		if floods[i], err = baseline.NewFlood(nd); err != nil {
			return nil, err
		}
	}
	hitEvery := 4 // every 4th file matches the query word
	for f := 0; f < files; f++ {
		words := []string{fmt.Sprintf("w%d", f%7)}
		if f%hitEvery == 0 {
			words = append(words, "target")
		}
		name := fmt.Sprintf("file-%03d", f)
		if err := indexes[f%n].PublishFile(name, words); err != nil {
			return nil, err
		}
		if err := floods[f%n].ShareFile(name, words); err != nil {
			return nil, err
		}
	}
	time.Sleep(600 * time.Millisecond)

	cluster.Net.ResetStats()
	viaGet, err := indexes[0].SearchGet(context.Background(), "target")
	if err != nil {
		return nil, err
	}
	dhtMsgs := cluster.Net.Stats().Sent

	cluster.Net.ResetStats()
	// Hop budget 10: with successor-list fan-out 4, depth 6 only just
	// covers 24 nodes; extra slack keeps recall complete so the
	// comparison is fair (full recall on both sides).
	viaFlood, err := floods[0].Search(context.Background(), "target", 10, 400*time.Millisecond)
	if err != nil {
		return nil, err
	}
	floodMsgs := cluster.Net.Stats().Sent
	return []SearchResult{
		{Strategy: "dht-get", Msgs: dhtMsgs, Files: len(viaGet)},
		{Strategy: "flooding", Msgs: floodMsgs, Files: len(viaFlood)},
	}, nil
}

// ---------------------------------------------------------------------------
// S6: recursive topology closure

// RecursiveResult is the cost of one reachability query.
type RecursiveResult struct {
	Facts int
	Msgs  uint64
	Wall  time.Duration
}

// RecursiveTopology publishes a chain graph across the cluster and
// asks topology.Reachable for the closure of its head. Anything short
// of every chain vertex, ended eos, is an error.
func RecursiveTopology(n, chainLen int, seed int64) (*RecursiveResult, error) {
	if n == 0 {
		n = 12
	}
	if chainLen == 0 {
		chainLen = 8
	}
	cluster, err := piertest.New(piertest.Options{N: n, Seed: seed})
	if err != nil {
		return nil, err
	}
	defer cluster.Close()
	for _, nd := range cluster.Nodes {
		if err := topology.Define(nd, time.Minute); err != nil {
			return nil, err
		}
	}
	for i := 0; i < chainLen; i++ {
		src := fmt.Sprintf("v%d", i)
		dst := fmt.Sprintf("v%d", i+1)
		if err := topology.PublishLink(cluster.Nodes[i%n], src, dst); err != nil {
			return nil, err
		}
	}
	cluster.Net.ResetStats()
	start := time.Now()
	res, err := topology.Reachable(context.Background(), cluster.Nodes[0], "v0")
	if err != nil {
		return nil, err
	}
	out := &RecursiveResult{Facts: len(res.Rows), Msgs: cluster.Net.Stats().Sent, Wall: time.Since(start)}
	if out.Facts != chainLen || res.Reason != pier.ReasonEOS {
		return nil, fmt.Errorf("reach(v0) found %d facts (want %d), ended %q", out.Facts, chainLen, res.Reason)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// S7: route batching on the symmetric-hash rehash path

// BatchJoinResult is one batching mode's cost for the same
// symmetric-hash join.
type BatchJoinResult struct {
	Mode          string  // "batched" or "unbatched"
	Rows          int     // result rows
	RoutedMsgs    uint64  // overlay route forwards across the cluster
	Msgs          uint64  // total simulated network messages
	Bytes         uint64  // total simulated network bytes
	BytesPerTuple float64 // network bytes per rehashed tuple
	Frames        uint64  // multi-record frames shipped (batched mode)
	FrameRecords  uint64  // records carried inside frames
	rowsDigest    string  // canonical (sorted) encoding of the result rows
}

// SameRows reports whether two runs returned byte-identical result
// sets (order-insensitive; the engine does not promise arrival order).
func (r BatchJoinResult) SameRows(o BatchJoinResult) bool {
	return r.rowsDigest == o.rowsDigest
}

// RouteBatchingJoin runs the same symmetric-hash equi-join with route
// batching on and off and reports the message-count/byte costs — the
// per-destination coalescing win on the paper's dominant cost metric.
// perSide tuples per side are spread round-robin over n nodes; left
// join keys cycle through distinctKeys values, and the right side
// holds one matching tuple per key plus non-matching bulk, so every
// left tuple joins exactly once and both sides are fully rehashed.
func RouteBatchingJoin(n, perSide, distinctKeys int, seed int64) ([]BatchJoinResult, error) {
	if n == 0 {
		n = 32
	}
	if perSide == 0 {
		perSide = 1000
	}
	if distinctKeys == 0 {
		distinctKeys = 5
	}
	leftSchema := tuple.MustSchema("bl", []tuple.Column{
		{Name: "node", Type: tuple.TString},
		{Name: "i", Type: tuple.TInt},
		{Name: "k", Type: tuple.TInt},
	}, "node", "i")
	rightSchema := tuple.MustSchema("br", []tuple.Column{
		{Name: "k", Type: tuple.TInt},
		{Name: "info", Type: tuple.TString},
	}, "k", "info")

	routeForwards := func(cluster *piertest.Cluster) uint64 {
		var total uint64
		for _, nd := range cluster.Nodes {
			_, _, fwd, _ := nd.Router().MetricsSnapshot()
			total += fwd
		}
		return total
	}

	run := func(mode string, disabled bool) (BatchJoinResult, error) {
		cfg := piertest.FastConfig()
		cfg.Batch.Disabled = disabled
		// Let frames accumulate for a whole local scan; the explicit
		// Flush barrier at scan completion bounds latency, so the
		// delay knob can sit well above the scan duration.
		cfg.Batch.MaxDelay = 25 * time.Millisecond
		// S7 isolates the route-batching layer, so pin the execution
		// pipelines to tuple-at-a-time: the vectorized ship path
		// pre-groups same-destination tuples into multi-record frames
		// on its own, which would hand the "unbatched" run most of the
		// coalescing win and hide what this experiment measures.
		cfg.BatchSize = 1
		cluster, err := piertest.New(piertest.Options{N: n, Seed: seed, NodeCfg: &cfg})
		if err != nil {
			return BatchJoinResult{}, err
		}
		defer cluster.Close()
		for _, nd := range cluster.Nodes {
			if err := nd.DefineTable(leftSchema, time.Minute); err != nil {
				return BatchJoinResult{}, err
			}
			if err := nd.DefineTable(rightSchema, time.Minute); err != nil {
				return BatchJoinResult{}, err
			}
		}
		for i := 0; i < perSide; i++ {
			nd := cluster.Nodes[i%n]
			if err := nd.PublishLocal("bl", tuple.Tuple{
				tuple.String(nd.Addr()), tuple.Int(int64(i)), tuple.Int(int64(i % distinctKeys)),
			}); err != nil {
				return BatchJoinResult{}, err
			}
			rk, info := int64(distinctKeys+i%distinctKeys), fmt.Sprintf("miss-%d", i)
			if i < distinctKeys {
				rk, info = int64(i), fmt.Sprintf("match-%d", i)
			}
			if err := nd.PublishLocal("br", tuple.Tuple{tuple.Int(rk), tuple.String(info)}); err != nil {
				return BatchJoinResult{}, err
			}
		}
		fwdBefore := routeForwards(cluster)
		cluster.Net.ResetStats()
		strat := plan.SymmetricHash
		res, err := cluster.Nodes[0].QueryWithOptions(context.Background(),
			"SELECT a.node, a.i, b.info FROM bl a JOIN br b ON a.k = b.k",
			plan.Options{Strategy: &strat})
		if err != nil {
			return BatchJoinResult{}, err
		}
		stats := cluster.Net.Stats()
		out := BatchJoinResult{
			Mode:          mode,
			Rows:          len(res.Rows),
			RoutedMsgs:    routeForwards(cluster) - fwdBefore,
			Msgs:          stats.Sent,
			Bytes:         stats.BytesSent,
			BytesPerTuple: float64(stats.BytesSent) / float64(2*perSide),
			rowsDigest:    rowsDigest(res.Rows),
		}
		for _, nd := range cluster.Nodes {
			if b := nd.Batcher(); b != nil {
				m := b.MetricsRef()
				out.Frames += m.FramesOut.Load()
				out.FrameRecords += m.FrameRecords.Load()
			}
		}
		return out, nil
	}

	var out []BatchJoinResult
	for _, c := range []struct {
		mode     string
		disabled bool
	}{{"batched", false}, {"unbatched", true}} {
		r, err := run(c.mode, c.disabled)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// rowsDigest canonicalizes a result set: encoded rows, sorted, then
// length-prefixed before joining so row boundaries stay unambiguous
// (the raw encodings are binary and may contain any separator byte).
func rowsDigest(rows []tuple.Tuple) string {
	enc := make([]string, len(rows))
	for i, t := range rows {
		enc[i] = string(t.Bytes())
	}
	sort.Strings(enc)
	var sb strings.Builder
	for _, e := range enc {
		fmt.Fprintf(&sb, "%d:%s", len(e), e)
	}
	return sb.String()
}

// ---------------------------------------------------------------------------
// Multiway joins: logical join trees + cost-based strategy choice

// MultiwayResult is one execution mode's outcome for the same 3-table
// equi-join.
type MultiwayResult struct {
	// Mode is "auto" (cost-based optimizer), "symmetric", or "fetch"
	// (forced strategies).
	Mode string
	// Plan is the EXPLAIN of the executed plan (join order and
	// per-stage strategies).
	Plan string
	// Rows is the distributed result-row count.
	Rows int
	// Msgs / Bytes are the network totals of the distributed run.
	Msgs  uint64
	Bytes uint64
	// MatchesBaseline reports byte-identical rows
	// (order-insensitive) versus the single-node reference executor.
	MatchesBaseline bool
}

// MultiwayJoin runs a 3-table equi-join (orders ⋈ users ⋈ items) over
// an n-node simulated network three ways — optimizer-chosen
// strategies from declared catalog stats, forced symmetric-hash
// (stacking two rehash/collector stages), and a forced fetch-matches
// chain — and verifies each result set byte-identical against the
// single-node baseline executor. The declared stats describe a
// production-shaped workload (small users, large items), so the
// optimizer picks a mixed plan: symmetric-hash into stage-0
// collectors, then fetch-matches probes in place at those collectors.
func MultiwayJoin(n, ordersPerNode int, seed int64) ([]MultiwayResult, error) {
	if n == 0 {
		n = 32
	}
	if ordersPerNode == 0 {
		ordersPerNode = 8
	}
	usersSchema := tuple.MustSchema("users", []tuple.Column{
		{Name: "uid", Type: tuple.TInt},
		{Name: "name", Type: tuple.TString},
	}, "uid")
	ordersSchema := tuple.MustSchema("orders", []tuple.Column{
		{Name: "node", Type: tuple.TString},
		{Name: "oid", Type: tuple.TInt},
		{Name: "uid", Type: tuple.TInt},
		{Name: "item", Type: tuple.TInt},
	}, "node", "oid")
	itemsSchema := tuple.MustSchema("items", []tuple.Column{
		{Name: "item", Type: tuple.TInt},
		{Name: "price", Type: tuple.TFloat},
	}, "item")
	const nUsers, nItems = 40, 30

	cluster, err := piertest.New(piertest.Options{N: n, Seed: seed})
	if err != nil {
		return nil, err
	}
	defer cluster.Close()
	var bases []*baseline.Centralized
	for _, nd := range cluster.Nodes {
		bases = append(bases, baseline.NewCentralized(nd))
		for _, s := range []*tuple.Schema{usersSchema, ordersSchema, itemsSchema} {
			if err := nd.DefineTable(s, time.Minute); err != nil {
				return nil, err
			}
		}
	}
	// users and items publish into the DHT (keyed on the join
	// columns, so fetch-matches is legal); orders stay in each node's
	// local partition.
	for u := 0; u < nUsers; u++ {
		nd := cluster.Nodes[u%n]
		if err := nd.Publish("users", tuple.Tuple{tuple.Int(int64(u)), tuple.String(fmt.Sprintf("user-%d", u))}); err != nil {
			return nil, err
		}
	}
	for it := 0; it < nItems; it++ {
		nd := cluster.Nodes[it%n]
		if err := nd.Publish("items", tuple.Tuple{tuple.Int(int64(it)), tuple.Float(float64(it) + 0.5)}); err != nil {
			return nil, err
		}
	}
	for i, nd := range cluster.Nodes {
		for j := 0; j < ordersPerNode; j++ {
			oid := i*ordersPerNode + j
			if err := nd.PublishLocal("orders", tuple.Tuple{
				tuple.String(nd.Addr()), tuple.Int(int64(oid)),
				tuple.Int(int64(oid % nUsers)), tuple.Int(int64(oid % nItems)),
			}); err != nil {
				return nil, err
			}
		}
	}
	// Declared stats shape the optimizer's choice (they are planner
	// hints, deliberately describing a larger production workload).
	coord := cluster.Nodes[0]
	for tbl, st := range map[string]catalog.TableStats{
		"users":  {Rows: 100, Distinct: map[string]int64{"uid": 100}},
		"orders": {Rows: 500, Distinct: map[string]int64{"uid": 80, "item": 50}},
		"items":  {Rows: 10000, Distinct: map[string]int64{"item": 10000}},
	} {
		if err := coord.SetTableStats(tbl, st); err != nil {
			return nil, err
		}
	}
	time.Sleep(500 * time.Millisecond) // let DHT puts land

	const sql = "SELECT o.oid, u.name, i.price FROM orders o JOIN users u ON o.uid = u.uid JOIN items i ON o.item = i.item"
	ref, err := bases[0].QuerySQL(context.Background(), sql, 300*time.Millisecond)
	if err != nil {
		return nil, fmt.Errorf("bench: baseline executor: %w", err)
	}
	refDigest := rowsDigest(ref.Rows)

	modes := []struct {
		mode  string
		strat *plan.JoinStrategy
	}{
		{"auto", nil},
		{"symmetric", strategyPtr(plan.SymmetricHash)},
		{"fetch", strategyPtr(plan.FetchMatches)},
	}
	var out []MultiwayResult
	for _, m := range modes {
		cluster.Net.ResetStats()
		res, err := coord.QueryWithOptions(context.Background(), sql, plan.Options{Strategy: m.strat})
		if err != nil {
			return nil, fmt.Errorf("bench: multiway %s: %w", m.mode, err)
		}
		planText := ""
		if m.strat == nil {
			if planText, err = coord.Explain(sql); err != nil {
				return nil, err
			}
		}
		stats := cluster.Net.Stats()
		out = append(out, MultiwayResult{
			Mode: m.mode, Plan: planText, Rows: len(res.Rows),
			Msgs: stats.Sent, Bytes: stats.BytesSent,
			MatchesBaseline: rowsDigest(res.Rows) == refDigest,
		})
	}
	return out, nil
}

func strategyPtr(s plan.JoinStrategy) *plan.JoinStrategy { return &s }

// ---------------------------------------------------------------------------
// Helpers shared with cmd/pierbench

// NetStats re-exports the simulated network's counters for printing.
type NetStats = simnet.Stats
