package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/engine"
)

// sizes are the fixed op counts of a run's untimed and traced parts.
// The smoke test shrinks them; the driver's runs use defaultSizes.
type sizes struct {
	setups   int // timed set-ups per --trace 0 run; setup_s is their median
	warmOps  int // requests sent through the front door before timing
	ladderN  int // sequential calls per entry-point rung
	analyzeN int // queries run with analyze on
	leafN    int // calls per isolated leaf measurement
}

func defaultSizes(w *workload) sizes {
	if w.join {
		// A join query is ~220 ms (~450 ms with analyze), so counts
		// stay small; the serve statements are ~11 ms (~215 ms).
		return sizes{setups: 3, warmOps: 6, ladderN: 4, analyzeN: 4, leafN: 1000}
	}
	return sizes{setups: 3, warmOps: 300, ladderN: 60, analyzeN: 10, leafN: 1000}
}

// maxFailuresShown bounds the failed ops a run describes one by one.
const maxFailuresShown = 10

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output, with exactly these keys.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// counters is a snapshot of every surface the program already
// exports, taken before and after the measured window.
type counters struct {
	obs     map[string]float64 // obs registries summed over nodes
	cache   engine.CacheStats
	netMsgs uint64
	netByte uint64
	netDrop uint64   // simnet messages dropped; the benchmark injects no loss, so any is an inbox overflow
	bytesIn []uint64 // simnet bytes in, per node
	cpu     time.Duration
	mem     runtime.MemStats
}

func (e *env) snapshot() counters {
	c := counters{obs: make(map[string]float64), cache: e.svc.Cache().Stats()}
	for _, nd := range e.cluster.Nodes {
		for k, v := range nd.Obs().SnapshotMap() {
			c.obs[k] += v
		}
		c.bytesIn = append(c.bytesIn, e.cluster.Net.PerNode(nd.Addr()).BytesIn)
	}
	st := e.cluster.Net.Stats()
	c.netMsgs, c.netByte, c.netDrop = st.Sent, st.BytesSent, st.Dropped
	c.cpu, _ = rusage()
	runtime.ReadMemStats(&c.mem)
	return c
}

// rusage is the process's user+system CPU time so far and its
// resident-set high-water mark.
func rusage() (cpu time.Duration, peakRSSMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runOutput is everything one run of one workload measured.
type runOutput struct {
	// res carries the metrics the driver asked for: end-to-end with
	// tracing off, per-layer with the traced pass.
	res      result
	endToEnd map[string]metric
	perLayer map[string]metric // nil with tracing off
	spanFile string
	info     []string // human-readable lines printed before the result
	// problems are the ops that failed, in warm-up and in the window
	// (the first maxFailuresShown), one line each: printed after info
	// and kept in the -out record, so a set of runs says what failed.
	problems []string
}

// runWorkload is one driver run: set up (sz.setups times with tracing
// off, tearing all but the last down again, so setup_s is a median),
// check the plan and the expected answers, measure the closed-loop
// window, and with trace on run the traced pass on the same cluster.
// Everything it starts is stopped before it returns.
func runWorkload(w *workload, seed int64, window time.Duration, trace bool, sz sizes) (*runOutput, error) {
	goroutinesBefore := runtime.NumGoroutine()
	tmpRoot := scratchDir()
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	ds := newDataset(w, seed)
	out := &runOutput{}

	setups := sz.setups
	if trace {
		setups = 1 // setup_s is an end-to-end metric, reported with tracing off
	}
	var e *env
	defer func() { e.Close() }()
	var setupS []float64
	for i := 0; i < setups; i++ {
		e.Close()
		start := time.Now()
		var err error
		if e, err = setUp(w, ds, seed, tmpRoot, sz.warmOps); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
		if e.warmFailure != "" {
			out.problems = append(out.problems, fmt.Sprintf("set-up %d: warm-up: %s", i+1, e.warmFailure))
		}
	}
	planHash, err := e.verify(ds)
	if err != nil {
		return nil, err
	}

	before := e.snapshot()
	deadline := time.Now().Add(window)
	load, err := runLoad(e.addr, ds, seed, func(int) bool { return !time.Now().Before(deadline) })
	if err != nil {
		return nil, fmt.Errorf("measured window: %w", err)
	}
	after := e.snapshot()

	out.res.Attempted = len(load.ops)
	out.res.Failed = load.failed()
	out.res.Correct = true
	rows := 0
	for i := range load.ops {
		if load.ops[i].wrong {
			out.res.Correct = false
		}
		if load.ops[i].failure == "" {
			rows += load.ops[i].rows
		}
	}
	queryMS := load.latencies(isQuery)
	secs := load.elapsed.Seconds()
	out.info = []string{
		fmt.Sprintf("workload=%s seed=%d window=%.2fs trace=%t gomaxprocs=%d conns=%d depth=%d config=%s plan=%s",
			w.name, seed, secs, trace, runtime.GOMAXPROCS(0), w.conns, w.depth, configHash(w), planHash),
		fmt.Sprintf("ops attempted=%d failed=%d queries_ok=%d inserts_ok=%d set-ups=%d simnet_dropped=%d",
			out.res.Attempted, out.res.Failed, len(queryMS), len(load.latencies(isInsert)), len(setupS), after.netDrop-before.netDrop),
	}
	for i, f := range load.failures() {
		if i == maxFailuresShown {
			break
		}
		out.problems = append(out.problems, "failed: "+f)
	}
	out.endToEnd = map[string]metric{
		"setup_s":       {median(setupS), "s"},
		"query_p50_ms":  {percentile(queryMS, 0.50), "ms"},
		"query_tail_ms": {percentile(queryMS, w.tail), "ms"},
		"queries_per_s": {ratio(float64(len(queryMS)), secs), "1/s"},
		"rows_per_s":    {ratio(float64(rows), secs), "1/s"},
	}
	out.res.Metrics = out.endToEnd
	if !trace {
		return out, nil
	}

	m := windowLayerMetrics(load, before, after)
	spans, err := tracedPass(e, ds, sz, m)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	e.Close()
	_, peakRSS := rusage()
	m["proc.peak_rss_mb"] = metric{peakRSS, "MB"}
	m["proc.goroutines_leaked"] = metric{float64(leakedGoroutines(goroutinesBefore)), "count"}
	out.perLayer, out.res.Metrics = m, m
	if out.spanFile, err = spans.write(tmpRoot, w.name); err != nil {
		return nil, err
	}
	return out, nil
}

// leakedGoroutines waits briefly for stopped goroutines to unwind
// (Close returns before the last of them has) and reports how many
// more exist than before set-up.
func leakedGoroutines(before int) int {
	deadline := time.Now().Add(3 * time.Second)
	for {
		n := runtime.NumGoroutine() - before
		if n <= 0 || time.Now().After(deadline) {
			if n < 0 {
				n = 0
			}
			return n
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// windowLayerMetrics are the per-layer numbers that are deltas over
// the measured window.
func windowLayerMetrics(load *loadResult, before, after counters) map[string]metric {
	ops := float64(len(load.ops))
	queryMS := load.latencies(isQuery)
	queries := float64(len(queryMS))
	inserts := float64(len(load.latencies(isInsert)))
	d := func(name string) float64 { return after.obs[name] - before.obs[name] }
	// Labelled series fold the label into the name: sum every series
	// of a family, optionally only those carrying a label value.
	family := func(prefix, label string) float64 {
		var sum float64
		for name := range after.obs {
			if strings.HasPrefix(name, prefix) && strings.Contains(name, label) {
				sum += d(name)
			}
		}
		return sum
	}

	var decodeMS, respBytes []float64
	for i := range load.ops {
		if o := &load.ops[i]; o.failure == "" && isQuery(o.kind) {
			decodeMS = append(decodeMS, ms(o.decode))
			respBytes = append(respBytes, float64(o.bytes))
		}
	}
	var inMax, inSum float64
	for i := range after.bytesIn {
		v := float64(after.bytesIn[i] - before.bytesIn[i])
		inSum += v
		if v > inMax {
			inMax = v
		}
	}
	completions := family("pier_completions_total", "")
	eos := family("pier_completions_total", `reason="eos"`)
	flushes := family("batch_flushes_total", "")
	hits := float64(after.cache.Hits - before.cache.Hits)
	misses := float64(after.cache.Misses - before.cache.Misses)

	return map[string]metric{
		"client.query_p80_ms":  {percentile(queryMS, 0.80), "ms"},
		"client.query_p95_ms":  {percentile(queryMS, 0.95), "ms"},
		"client.query_p99_ms":  {percentile(queryMS, 0.99), "ms"},
		"client.insert_p50_ms": {median(load.latencies(isInsert)), "ms"},
		"client.decode_ms":     {median(decodeMS), "ms"},
		"client.failed_frac":   {ratio(float64(load.failed()), ops), "ratio"},

		"server.resp_bytes_per_query": {ratio(sum(respBytes), queries), "B"},
		"engine.cache_hit_frac":       {ratio(hits, hits+misses), "ratio"},
		"engine.queued_frac":          {ratio(d("engine_queued_total"), d("engine_admitted_total")), "ratio"},

		"pier.drain_rounds_per_query": {ratio(d("pier_drain_rounds_sum"), d("pier_drain_rounds_count")), "count"},
		"pier.eos_ledgers_per_query":  {ratio(d("pier_eos_ledgers_sent_total"), queries), "count"},
		"pier.non_eos_frac":           {ratio(completions-eos, completions), "ratio"},

		"rpc.calls_per_query":    {ratio(family("rpc_calls_total", ""), queries), "count"},
		"rpc.retries_per_query":  {ratio(family("rpc_retries_total", ""), queries), "count"},
		"simnet.msgs_per_query":  {ratio(float64(after.netMsgs-before.netMsgs), queries), "count"},
		"simnet.bytes_per_query": {ratio(float64(after.netByte-before.netByte), queries), "B"},
		"simnet.bytes_in_skew":   {ratio(inMax, inSum/float64(len(after.bytesIn))), "ratio"},

		"batch.coalesce_ratio":   {ratio(d("batch_records_in_total"), d("batch_frames_out_total")), "ratio"},
		"batch.timer_flush_frac": {ratio(family("batch_flushes_total", `reason="timer"`), flushes), "ratio"},
		"dht.puts_per_insert":    {ratio(d("dht_puts_total"), inserts), "count"},

		"proc.cpu_ms_per_op": {ratio(ms(after.cpu-before.cpu), ops), "ms"},
		"proc.allocs_per_op": {ratio(float64(after.mem.Mallocs-before.mem.Mallocs), ops), "count"},
		"proc.gc_pause_ms":   {ms(time.Duration(after.mem.PauseTotalNs - before.mem.PauseTotalNs)), "ms"},
	}
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// sortedNames lists a metric map's keys in a stable order for printing.
func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
