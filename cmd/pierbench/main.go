// Command pierbench regenerates the paper's evaluation artifacts and
// the supporting shape experiments over the simulated testbed.
//
// Usage:
//
//	pierbench -experiment figure1 [-n 24] [-seed 1]
//	pierbench -experiment table1
//	pierbench -experiment hops
//	pierbench -experiment aggtree
//	pierbench -experiment joins
//	pierbench -experiment survival
//	pierbench -experiment churn
//	pierbench -experiment search
//	pierbench -experiment recursive
//	pierbench -experiment batching
//	pierbench -experiment multiway
//	pierbench -experiment analyze
//	pierbench -experiment explain
//	pierbench -experiment localpipe
//	pierbench -experiment obs
//	pierbench -experiment serve
//	pierbench -experiment all
//
// With -json out.json every experiment additionally records
// machine-readable results (wall ns, rows/sec where meaningful,
// routed messages, allocs) — the format BENCH_PR4.json snapshots so
// the perf trajectory has committed data points.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/pier"
)

// expResult is one experiment's machine-readable record.
type expResult struct {
	Name string `json:"name"`
	// WallNS is the experiment's wall time (whole run, including
	// cluster setup — deployment-scale, not a microbenchmark).
	WallNS int64 `json:"wall_ns"`
	// Allocs is the heap allocation count over the run.
	Allocs uint64 `json:"allocs"`
	// Metrics carries the experiment's own numbers: ns/op, rows/sec,
	// routed messages, allocs/op, per-mode counters.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// recorder accumulates experiment records for -json output.
type recorder struct {
	results []*expResult
	cur     *expResult
}

// metric records one named value on the current experiment.
func (r *recorder) metric(name string, v float64) {
	if r == nil || r.cur == nil {
		return
	}
	if r.cur.Metrics == nil {
		r.cur.Metrics = make(map[string]float64)
	}
	r.cur.Metrics[name] = v
}

func main() {
	log.SetFlags(0)
	experiment := flag.String("experiment", "all", "which experiment(s) to run (comma-separated, or \"all\")")
	n := flag.Int("n", 0, "cluster size (0 = experiment default)")
	seed := flag.Int64("seed", 1, "simulation seed")
	jsonOut := flag.String("json", "", "write machine-readable results to this file")
	flag.Parse()

	rec := &recorder{}
	run := func(name string, fn func() error) {
		fmt.Printf("\n===== %s =====\n", name)
		rec.cur = &expResult{Name: name}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		if err := fn(); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		wall := time.Since(start)
		runtime.ReadMemStats(&m1)
		rec.cur.WallNS = wall.Nanoseconds()
		rec.cur.Allocs = m1.Mallocs - m0.Mallocs
		rec.results = append(rec.results, rec.cur)
		rec.cur = nil
		fmt.Printf("(experiment wall time %v)\n", wall.Round(time.Millisecond))
	}

	selected := make(map[string]bool)
	for _, name := range strings.Split(*experiment, ",") {
		if name = strings.TrimSpace(name); name != "" {
			selected[name] = true
		}
	}
	all := selected["all"]
	want := func(name string) bool { return all || selected[name] }
	if want("figure1") {
		run("figure1", func() error {
			return figure1(*n, *seed)
		})
	}
	if want("table1") {
		run("table1", func() error {
			return table1(*n, *seed, rec)
		})
	}
	if want("hops") {
		run("hops", func() error {
			return hops(*seed, rec)
		})
	}
	if want("aggtree") {
		run("aggtree", func() error {
			return aggtree(*n, *seed, rec)
		})
	}
	if want("joins") {
		run("joins", func() error {
			return joins(*n, *seed, rec)
		})
	}
	if want("survival") {
		run("survival", func() error {
			return survival(*n, *seed)
		})
	}
	if want("churn") {
		run("churn", func() error {
			return churn(*n, *seed, rec)
		})
	}
	if want("search") {
		run("search", func() error {
			return searchCmp(*n, *seed, rec)
		})
	}
	if want("recursive") {
		run("recursive", func() error {
			return recursive(*n, *seed, rec)
		})
	}
	if want("batching") {
		run("batching", func() error {
			return batching(*n, *seed, rec)
		})
	}
	if want("multiway") {
		run("multiway", func() error {
			return multiway(*n, *seed, rec)
		})
	}
	if want("analyze") {
		run("analyze", func() error {
			return analyze(*n, *seed, rec)
		})
	}
	if want("explain") {
		run("explain", func() error {
			return explainAnalyze(*n, *seed)
		})
	}
	if want("localpipe") {
		run("localpipe", func() error {
			return localpipe(rec)
		})
	}
	if want("obs") {
		run("obs", func() error {
			return obsOverhead(rec)
		})
	}
	if want("serve") {
		run("serve", func() error {
			return serve(*n, *seed, rec)
		})
	}

	if *jsonOut != "" {
		payload := struct {
			GoVersion  string       `json:"go_version"`
			GOMAXPROCS int          `json:"gomaxprocs"`
			When       string       `json:"when"`
			Results    []*expResult `json:"results"`
		}{
			GoVersion:  runtime.Version(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			When:       time.Now().UTC().Format(time.RFC3339),
			Results:    rec.results,
		}
		buf, err := json.MarshalIndent(payload, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*jsonOut, buf, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nwrote %s (%d experiments)\n", *jsonOut, len(rec.results))
	}
}

// localpipe measures the local-execution join hot path (no network):
// ns/op, rows/sec, and allocs/op, under the "vectorized" names
// BENCH_PR4.json recorded them (beside the tuple-at-a-time path's,
// since deleted).
func localpipe(rec *recorder) error {
	const nLeft, nRight = 20000, 1000
	wl := bench.NewLocalJoinWorkload(nLeft, nRight)
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := wl.Run(256, 4); err != nil {
				b.Fatal(err)
			}
		}
	})
	rowsPerSec := float64(nLeft+nRight) / (float64(r.NsPerOp()) / 1e9)
	fmt.Printf("%14s %14s %12s %12s\n", "ns/op", "rows/sec", "allocs/op", "B/op")
	fmt.Printf("%14d %14.0f %12d %12d\n", r.NsPerOp(), rowsPerSec, r.AllocsPerOp(), r.AllocedBytesPerOp())
	rec.metric("vectorized.ns/op", float64(r.NsPerOp()))
	rec.metric("vectorized.rows/sec", rowsPerSec)
	rec.metric("vectorized.allocs/op", float64(r.AllocsPerOp()))
	rec.metric("vectorized.bytes/op", float64(r.AllocedBytesPerOp()))
	return nil
}

// obsOverhead measures the cost of the obs hot-path instrumentation
// (registry-backed counters and histograms at every ship batch and
// result row) on the local join hot path: the same workload runs bare
// and instrumented, and the delta is the overhead budget DESIGN.md
// promises (≤3%; the experiment errors only past 10% to leave noise
// headroom on loaded CI machines).
func obsOverhead(rec *recorder) error {
	const nLeft, nRight = 20000, 1000
	wl := bench.NewLocalJoinWorkload(nLeft, nRight)
	reg := obs.New()
	measure := func(fn func() (int, error)) (*testing.BenchmarkResult, error) {
		var inner error
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := fn(); err != nil {
					inner = err
					b.Fatal(err)
				}
			}
		})
		return &r, inner
	}
	// Interleave-free A/B: warm both paths once, then time each.
	if _, err := wl.Run(256, 4); err != nil {
		return err
	}
	if _, err := wl.RunInstrumented(256, 4, reg); err != nil {
		return err
	}
	base, err := measure(func() (int, error) { return wl.Run(256, 4) })
	if err != nil {
		return err
	}
	inst, err := measure(func() (int, error) { return wl.RunInstrumented(256, 4, reg) })
	if err != nil {
		return err
	}
	overhead := (float64(inst.NsPerOp()) - float64(base.NsPerOp())) / float64(base.NsPerOp()) * 100
	fmt.Printf("%-14s %14s\n", "mode", "ns/op")
	fmt.Printf("%-14s %14d\n", "bare", base.NsPerOp())
	fmt.Printf("%-14s %14d\n", "instrumented", inst.NsPerOp())
	fmt.Printf("instrumentation overhead: %.2f%% (budget ≤3%%)\n", overhead)
	rec.metric("base_ns_op", float64(base.NsPerOp()))
	rec.metric("obs_ns_op", float64(inst.NsPerOp()))
	rec.metric("overhead_pct", overhead)
	if series := len(reg.Names()); series == 0 {
		return fmt.Errorf("instrumented run registered no series")
	}
	if overhead > 10 {
		return fmt.Errorf("instrumentation overhead %.2f%% exceeds even the 10%% noise ceiling", overhead)
	}
	return nil
}

func explainAnalyze(n int, seed int64) error {
	rows, report, err := bench.ExplainAnalyze(n, seed)
	if err != nil {
		return err
	}
	fmt.Print(report)
	fmt.Printf("(%d result rows)\n", rows)
	return nil
}

func multiway(n int, seed int64, rec *recorder) error {
	results, err := bench.MultiwayJoin(n, 8, seed)
	if err != nil {
		return err
	}
	for _, r := range results {
		if r.Plan != "" {
			fmt.Printf("optimizer plan:\n%s", r.Plan)
		}
	}
	fmt.Printf("%-12s %8s %10s %12s %18s\n", "mode", "rows", "msgs", "bytes", "matches baseline")
	for _, r := range results {
		fmt.Printf("%-12s %8d %10d %12d %18v\n", r.Mode, r.Rows, r.Msgs, r.Bytes, r.MatchesBaseline)
		if !r.MatchesBaseline {
			return fmt.Errorf("mode %s diverged from the single-node baseline executor", r.Mode)
		}
		rec.metric("rows."+r.Mode, float64(r.Rows))
		rec.metric("msgs."+r.Mode, float64(r.Msgs))
	}
	return nil
}

// analyze runs the distributed-ANALYZE experiment: per-table
// measurement cost (latency + messages vs table size), estimate
// accuracy against the known truth, and optimizer steering — the
// measured/gossiped statistics must pick the hand-declared baseline's
// join order (byte-identical rows) where coarse defaults pick a
// costlier one.
func analyze(n int, seed int64, rec *recorder) error {
	out, err := bench.AnalyzeStats(n, 0, 0, 0, seed)
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %10s %10s %8s %12s %10s %12s\n",
		"table", "true rows", "est rows", "factor", "latency", "msgs", "bytes")
	for _, c := range out.Costs {
		fmt.Printf("%-8s %10d %10d %8.3f %12v %10d %12d\n",
			c.Table, c.TrueRows, c.EstRows, c.WithinFactor(),
			c.Latency.Round(time.Millisecond), c.Msgs, c.Bytes)
		rec.metric("analyze-ms."+c.Table, float64(c.Latency.Milliseconds()))
		rec.metric("analyze-msgs."+c.Table, float64(c.Msgs))
		rec.metric("est-rows."+c.Table, float64(c.EstRows))
		rec.metric("true-rows."+c.Table, float64(c.TrueRows))
		if c.WithinFactor() > 2 {
			return fmt.Errorf("%s estimate %d vs true %d beyond 2x", c.Table, c.EstRows, c.TrueRows)
		}
	}
	fmt.Printf("\nplan under defaults:  %s  (%d tuples moved)\n", out.DefaultsPlan, out.DefaultsWork)
	fmt.Printf("plan under declared:  %s  (%d tuples moved)\n", out.DeclaredPlan, out.DeclaredWork)
	fmt.Printf("plan under measured:  %s  (%d tuples moved, stats %s)\n", out.MeasuredPlan, out.MeasuredWork, out.GossipSource)
	fmt.Printf("plans match: %v; rows byte-identical across regimes: %v (%d rows)\n",
		out.PlansMatch, out.RowsMatch, out.Rows)
	rec.metric("query-work.defaults", float64(out.DefaultsWork))
	rec.metric("query-work.declared", float64(out.DeclaredWork))
	rec.metric("query-work.measured", float64(out.MeasuredWork))
	rec.metric("query-msgs.defaults", float64(out.DefaultsMsgs))
	rec.metric("query-msgs.declared", float64(out.DeclaredMsgs))
	rec.metric("query-msgs.measured", float64(out.MeasuredMsgs))
	if !out.PlansMatch {
		return fmt.Errorf("measured plan %q != declared plan %q", out.MeasuredPlan, out.DeclaredPlan)
	}
	if !out.RowsMatch {
		return fmt.Errorf("result rows diverged across statistics regimes")
	}
	return nil
}

func batching(n int, seed int64, rec *recorder) error {
	results, err := bench.RouteBatchingJoin(n, 1000, 5, seed)
	if err != nil {
		return err
	}
	fmt.Printf("%-10s %8s %12s %10s %12s %10s %14s\n",
		"mode", "rows", "routed msgs", "msgs", "bytes", "frames", "bytes/tuple")
	for _, r := range results {
		fmt.Printf("%-10s %8d %12d %10d %12d %10d %14.1f\n",
			r.Mode, r.Rows, r.RoutedMsgs, r.Msgs, r.Bytes, r.Frames, r.BytesPerTuple)
		rec.metric("routed-msgs."+r.Mode, float64(r.RoutedMsgs))
		rec.metric("rows."+r.Mode, float64(r.Rows))
	}
	if !results[0].SameRows(results[1]) {
		return fmt.Errorf("batched and unbatched runs returned different rows")
	}
	reduction := float64(results[1].RoutedMsgs) / float64(results[0].RoutedMsgs)
	fmt.Printf("routed-message reduction: %.1fx\n", reduction)
	rec.metric("routed-msg-reduction", reduction)
	return nil
}

func figure1(n int, seed int64) error {
	series, err := bench.Figure1(bench.Figure1Config{
		N: n, Seed: seed,
		Window: time.Second, Slide: 500 * time.Millisecond,
		Run: 12 * time.Second, FailAt: 4 * time.Second,
		RecoverAt: 8 * time.Second, FailCount: maxInt(n, 24) / 4,
	})
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %12s %12s %12s\n", "t", "SUM(rate)", "responding", "fraction")
	for _, p := range series {
		fmt.Printf("%-8v %12.1f %12d %12.3f\n",
			p.T.Round(100*time.Millisecond), p.Sum, p.Responding, p.Fraction())
	}
	return nil
}

func table1(n int, seed int64, rec *recorder) error {
	res, err := bench.Table1(n, seed)
	if err != nil {
		return err
	}
	fmt.Printf("%-6s %-40s %10s %10s\n", "Rule", "Rule Description", "Hits", "Paper")
	for i, row := range res.Rows {
		paper := int64(-1)
		if i < len(monitor.Table1Rules) {
			paper = monitor.Table1Rules[i].Hits
		}
		fmt.Printf("%-6d %-40s %10d %10d\n", row.Rule, row.Descr, row.Hits, paper)
	}
	fmt.Printf("query time %v, %d network messages\n", res.Duration.Round(time.Millisecond), res.Msgs)
	rec.metric("query-ms", float64(res.Duration.Milliseconds()))
	rec.metric("msgs", float64(res.Msgs))
	return nil
}

func hops(seed int64, rec *recorder) error {
	points, err := bench.ScalingHops([]int{16, 32, 64, 128}, 50, seed)
	if err != nil {
		return err
	}
	fmt.Printf("%-6s %10s %10s\n", "N", "mean hops", "log2(N)")
	for _, p := range points {
		fmt.Printf("%-6d %10.2f %10.2f\n", p.N, p.MeanHops, math.Log2(float64(p.N)))
		rec.metric(fmt.Sprintf("hops.n%d", p.N), p.MeanHops)
	}
	return nil
}

func aggtree(n int, seed int64, rec *recorder) error {
	results, err := bench.AggregationComparison(n, 20, seed)
	if err != nil {
		return err
	}
	fmt.Printf("%-20s %10s %12s %12s %14s\n", "mode", "msgs", "bytes", "root-in-msgs", "root-in-bytes")
	for _, r := range results {
		fmt.Printf("%-20s %10d %12d %12d %14d\n", r.Mode, r.Msgs, r.Bytes, r.RootInMsgs, r.RootInBytes)
		rec.metric("root-in-bytes."+r.Mode, float64(r.RootInBytes))
	}
	return nil
}

func joins(n int, seed int64, rec *recorder) error {
	results, err := bench.JoinStrategies(n, 10, 200, 0.1, seed)
	if err != nil {
		return err
	}
	fmt.Printf("%-12s %10s %12s %8s\n", "strategy", "msgs", "bytes", "rows")
	for _, r := range results {
		fmt.Printf("%-12s %10d %12d %8d\n", r.Strategy, r.Msgs, r.Bytes, r.Rows)
		rec.metric("msgs."+r.Strategy, float64(r.Msgs))
		rec.metric("rows."+r.Strategy, float64(r.Rows))
	}
	return nil
}

// survival is the DHT data-survival experiment (items alive after a
// mass crash, by replica count).
func survival(n int, seed int64) error {
	results, err := bench.ChurnSurvival(n, 60, 0, []int{-1, 1, 2, 4}, seed)
	if err != nil {
		return err
	}
	fmt.Printf("%-10s %10s %10s\n", "replicas", "survived", "fraction")
	for _, r := range results {
		reps := r.Replicas
		if reps < 0 {
			reps = 0
		}
		fmt.Printf("%-10d %10d %9.0f%%\n", reps, r.Survived, 100*r.SurvivedFrac)
	}
	return nil
}

// churn is the query-under-churn experiment: one-shot queries against
// clusters flapping at scripted rates, recording success rate,
// coverage distribution, and completion latency against the
// zero-churn baseline cell of the same size.
func churn(n int, seed int64, rec *recorder) error {
	out, err := bench.ChurnQuery(bench.ChurnQueryConfig{N: n, Seed: seed})
	if err != nil {
		return err
	}
	fmt.Printf("%-6s %-6s %10s %10s %10s %10s %10s %10s   %s\n",
		"nodes", "churn", "queries", "ok", "cov mean", "cov min", "p50", "p95", "reasons")
	for _, cell := range out.Cells {
		fmt.Printf("%-6d %-6s %10d %10d %10.3f %10.3f %10v %10v   %s\n",
			cell.N, cell.Level, cell.Queries, cell.Succeeded,
			cell.CoverageMean, cell.CoverageMin,
			cell.P50.Round(time.Millisecond), cell.P95.Round(time.Millisecond),
			bench.ReasonHistogram(cell.Reasons))
		tag := fmt.Sprintf(".%d.%s", cell.N, cell.Level)
		rec.metric("churn-ok"+tag, float64(cell.Succeeded))
		rec.metric("churn-queries"+tag, float64(cell.Queries))
		rec.metric("churn-cov-mean"+tag, cell.CoverageMean)
		rec.metric("churn-cov-min"+tag, cell.CoverageMin)
		rec.metric("churn-p50-ms"+tag, float64(cell.P50.Milliseconds()))
		rec.metric("churn-p95-ms"+tag, float64(cell.P95.Milliseconds()))
		rec.metric("churn-eos"+tag, float64(cell.Reasons[pier.ReasonEOS]))
		rec.metric("churn-degraded"+tag, float64(cell.Reasons[pier.ReasonChurnDegraded]))
		if cell.Succeeded == 0 {
			return fmt.Errorf("n=%d level=%s: no query succeeded", cell.N, cell.Level)
		}
		if cell.Level == "none" {
			if cell.CoverageMin != 1 {
				return fmt.Errorf("n=%d zero-churn coverage dipped to %v", cell.N, cell.CoverageMin)
			}
			if got := cell.Reasons[pier.ReasonEOS]; got != cell.Succeeded {
				return fmt.Errorf("n=%d zero-churn: only %d/%d queries completed via eos: %v",
					cell.N, got, cell.Succeeded, cell.Reasons)
			}
		}
	}
	return nil
}

func searchCmp(n int, seed int64, rec *recorder) error {
	results, err := bench.SearchComparison(n, 40, seed)
	if err != nil {
		return err
	}
	fmt.Printf("%-10s %10s %8s\n", "strategy", "msgs", "files")
	for _, r := range results {
		fmt.Printf("%-10s %10d %8d\n", r.Strategy, r.Msgs, r.Files)
		rec.metric("msgs."+r.Strategy, float64(r.Msgs))
	}
	return nil
}

func recursive(n int, seed int64, rec *recorder) error {
	res, err := bench.RecursiveTopology(n, 8, seed)
	if err != nil {
		return err
	}
	fmt.Printf("closure facts %d, ended eos, %d messages, %v wall\n", res.Facts, res.Msgs, res.Wall)
	rec.metric("msgs", float64(res.Msgs))
	rec.metric("wall_ms", float64(res.Wall.Microseconds())/1000)
	return nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// serve runs the query-service benchmark: concurrent TCP clients
// against one pierd front door, then the shared-scan on/off
// comparison for concurrent continuous queries.
func serve(n int, seed int64, rec *recorder) error {
	out, err := bench.Serve(bench.ServeConfig{N: n, Seed: seed})
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %10s %10s %10s %10s %10s %10s\n",
		"clients", "queries", "rejected", "qps", "p50", "p95", "p99")
	for _, tier := range out.Tiers {
		fmt.Printf("%-8d %10d %10d %10.1f %10v %10v %10v\n",
			tier.Clients, tier.Queries, tier.Rejected, tier.QPS,
			tier.P50.Round(time.Millisecond), tier.P95.Round(time.Millisecond),
			tier.P99.Round(time.Millisecond))
		tag := fmt.Sprintf(".%d", tier.Clients)
		rec.metric("serve-qps"+tag, tier.QPS)
		rec.metric("serve-p50-ms"+tag, float64(tier.P50.Milliseconds()))
		rec.metric("serve-p95-ms"+tag, float64(tier.P95.Milliseconds()))
		rec.metric("serve-p99-ms"+tag, float64(tier.P99.Milliseconds()))
		rec.metric("serve-rejected"+tag, float64(tier.Rejected))
		if tier.Queries == 0 {
			return fmt.Errorf("tier %d completed no queries", tier.Clients)
		}
	}
	st := out.CacheStats
	fmt.Printf("\nplan cache: %d hits, %d misses (hit rate %.0f%%)\n",
		st.Hits, st.Misses, st.HitRate()*100)
	rec.metric("serve-cache-hit-rate", st.HitRate())
	if st.HitRate() <= 0.9 {
		return fmt.Errorf("plan cache hit rate %.2f under the repeated workload, want > 0.90", st.HitRate())
	}

	fmt.Printf("\n%-10s %12s %12s %12s %12s\n",
		"sharing", "subscribers", "queries", "attach", "2 windows")
	for _, m := range []bench.ServeSharedMode{out.SharedOn, out.SharedOff} {
		name := "dedicated"
		if m.Shared {
			name = "shared"
		}
		fmt.Printf("%-10s %12d %12d %12v %12v  (%d/%d delivered)\n",
			name, m.Subscribers, m.Coordinated,
			m.AttachWall.Round(time.Millisecond), m.DeliverWall.Round(time.Millisecond),
			m.Delivered, m.Subscribers)
		rec.metric("serve-"+name+"-coordinated", float64(m.Coordinated))
		rec.metric("serve-"+name+"-attach-ms", float64(m.AttachWall.Milliseconds()))
		rec.metric("serve-"+name+"-delivered", float64(m.Delivered))
	}
	if out.SharedOn.Coordinated != 1 {
		return fmt.Errorf("shared mode coordinated %d underlying queries, want 1", out.SharedOn.Coordinated)
	}
	if out.SharedOn.Delivered < out.SharedOn.Subscribers {
		return fmt.Errorf("shared mode delivered to %d/%d subscribers",
			out.SharedOn.Delivered, out.SharedOn.Subscribers)
	}
	return nil
}
