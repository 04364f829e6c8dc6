package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/server"
	"repro/internal/tuple"
)

// workload is one set of inputs: a cluster shape, the tables loaded
// into it, a statement mix and how hard the generator drives it.
type workload struct {
	name  string
	join  bool // join_* family (one big statement) vs serve_* (many small)
	nodes int
	// Closed loop: conns TCP connections, one goroutine each, every
	// connection keeps depth requests outstanding.
	conns, depth int
	// Shares of the op mix; the rest are the hot (cache-hit) statements.
	missFrac, insertFrac float64
	joinMemBudget        int64
	// tail is the percentile reported as query_tail_ms: the highest
	// with at least ten samples beyond it in one run of this workload.
	tail float64
}

var workloads = []workload{
	{name: "serve_light", nodes: 16, conns: 2, depth: 1, missFrac: 0.10, tail: 0.95},
	{name: "serve_saturated", nodes: 16, conns: 2, depth: 4, missFrac: 0.10, insertFrac: 0.10, tail: 0.95},
	{name: "join_resident", join: true, nodes: 8, conns: 1, depth: 1, tail: 0.80},
	{name: "join_spill", join: true, nodes: 8, conns: 1, depth: 1, joinMemBudget: 64 << 10, tail: 0.80},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// Table sizes. The join is sized well inside what the program completes
// cleanly on the 2-core reference box. In probing, at 8x6000 orders
// every query ended quiet-timeout with rows missing; at 8x2000, while
// the box was in one of its slow phases, 2-9% of join_spill queries
// ended quiet-timeout with one to five duplicate rows (a retransmitted
// batch re-joined by a spill pass), enough to fail whole runs; at
// 8x1000 it was 1 query in ~800.
const (
	alertsPerNode = 8
	alertRules    = 12
	kvRows        = 64
	rateSpace     = 1000000 // traffic.rate and the miss literal k are drawn from [0, rateSpace)
	ordersPerNode = 1000
	joinUsers     = 1000
	joinSQL       = "SELECT o.oid, u.name FROM orders o JOIN users u ON o.uid = u.uid"
	tableTTL      = 10 * time.Minute // soft state must outlive a run
)

var (
	trafficSchema = tuple.MustSchema("traffic", []tuple.Column{
		{Name: "node", Type: tuple.TString},
		{Name: "rate", Type: tuple.TFloat},
	}, "node")
	alertsSchema = tuple.MustSchema("alerts", []tuple.Column{
		{Name: "node", Type: tuple.TString},
		{Name: "rule", Type: tuple.TInt},
		{Name: "hits", Type: tuple.TInt},
	}, "node", "rule")
	kvSchema = tuple.MustSchema("kv", []tuple.Column{
		{Name: "name", Type: tuple.TString},
		{Name: "qty", Type: tuple.TInt},
	}, "name")
	ordersSchema = tuple.MustSchema("orders", []tuple.Column{
		{Name: "node", Type: tuple.TString},
		{Name: "oid", Type: tuple.TInt},
		{Name: "uid", Type: tuple.TInt},
		{Name: "pad", Type: tuple.TString},
	}, "node", "oid")
	// users is keyed on (node, uid) on purpose: keyed on uid alone the
	// optimizer picks fetch-matches and HybridJoin never runs.
	usersSchema = tuple.MustSchema("users", []tuple.Column{
		{Name: "node", Type: tuple.TString},
		{Name: "uid", Type: tuple.TInt},
		{Name: "name", Type: tuple.TString},
	}, "node", "uid")
)

// statement is a query with the generator's own expected answer.
type statement struct {
	sql  string
	want answer
}

// dataset is the generator's copy of what it loads: the system under
// test never supplies an expected answer.
type dataset struct {
	w       *workload
	schemas []*tuple.Schema
	// local[i] are the rows node i publishes into its own partition;
	// published go into the DHT by key.
	local     [][]tableRow
	published []tableRow
	// hot are the repeated, plan-cache-hit statements.
	hot   []statement
	rates []float64 // traffic.rate by node index (serve only)
}

type tableRow struct {
	table string
	t     tuple.Tuple
}

// nodeName is the simnet address piertest gives node i.
func nodeName(i int) string { return fmt.Sprintf("node%d", i) }

func newDataset(w *workload, seed int64) *dataset {
	rng := rand.New(rand.NewSource(seed))
	ds := &dataset{w: w, local: make([][]tableRow, w.nodes)}
	if w.join {
		ds.genJoin(rng)
	} else {
		ds.genServe(rng)
	}
	return ds
}

func (ds *dataset) genServe(rng *rand.Rand) {
	ds.schemas = []*tuple.Schema{trafficSchema, alertsSchema, kvSchema}
	n := ds.w.nodes
	// Distinct rates, so ORDER BY rate has one right answer.
	seen := make(map[int]bool)
	var sum float64
	ruleCount := make(map[int]int)
	for i := 0; i < n; i++ {
		r := rng.Intn(rateSpace)
		for seen[r] {
			r = rng.Intn(rateSpace)
		}
		seen[r] = true
		ds.rates = append(ds.rates, float64(r))
		sum += float64(r)
		ds.local[i] = append(ds.local[i], tableRow{"traffic", tuple.Tuple{
			tuple.String(nodeName(i)), tuple.Float(float64(r)),
		}})
		for _, rule := range rng.Perm(alertRules)[:alertsPerNode] {
			ruleCount[rule]++
			ds.local[i] = append(ds.local[i], tableRow{"alerts", tuple.Tuple{
				tuple.String(nodeName(i)), tuple.Int(int64(rule)), tuple.Int(int64(rng.Intn(1000))),
			}})
		}
	}
	for k := 0; k < kvRows; k++ {
		ds.published = append(ds.published, tableRow{"kv", tuple.Tuple{
			tuple.String(fmt.Sprintf("key-%02d", k)), tuple.Int(int64(rng.Intn(1000))),
		}})
	}

	var byRule [][]interface{}
	for rule, c := range ruleCount {
		byRule = append(byRule, []interface{}{float64(rule), float64(c)})
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return ds.rates[order[a]] > ds.rates[order[b]] })
	var top [][]interface{}
	for _, i := range order[:5] {
		top = append(top, []interface{}{nodeName(i), ds.rates[i]})
	}
	ds.hot = []statement{
		{"SELECT COUNT(*) FROM traffic", rowsAnswer([][]interface{}{{float64(n)}})},
		{"SELECT SUM(rate) FROM traffic", rowsAnswer([][]interface{}{{sum}})},
		{"SELECT rule, COUNT(*) FROM alerts GROUP BY rule ORDER BY rule", rowsAnswer(byRule)},
		{"SELECT node, rate FROM traffic ORDER BY rate DESC LIMIT 5", rowsAnswer(top)},
		{"SELECT COUNT(*) FROM kv", rowsAnswer([][]interface{}{{float64(kvRows)}})},
	}
}

// missStatement is the plan-cache-miss query for literal k: literals
// are part of the cache key, and k ranges over far more values than
// the 128-entry cache holds.
func (ds *dataset) missStatement(k int) statement {
	var rows [][]interface{}
	for i, r := range ds.rates {
		if r > float64(k) {
			rows = append(rows, []interface{}{nodeName(i), r})
		}
	}
	return statement{
		sql:  fmt.Sprintf("SELECT node, rate FROM traffic WHERE rate > %d", k),
		want: rowsAnswer(rows),
	}
}

func (ds *dataset) genJoin(rng *rand.Rand) {
	ds.schemas = []*tuple.Schema{ordersSchema, usersSchema}
	n := ds.w.nodes
	perm := rng.Perm(joinUsers)
	names := make([]string, joinUsers)
	for u := range names {
		names[u] = fmt.Sprintf("user-%d-%04x", u, rng.Intn(1<<16))
		ds.local[u%n] = append(ds.local[u%n], tableRow{"users", tuple.Tuple{
			tuple.String(nodeName(u % n)), tuple.Int(int64(u)), tuple.String(names[u]),
		}})
	}
	pad := make([]byte, 64)
	want := make([][]interface{}, 0, n*ordersPerNode)
	for i := 0; i < n; i++ {
		for j := 0; j < ordersPerNode; j++ {
			oid := i*ordersPerNode + j
			uid := perm[oid%joinUsers]
			for b := range pad {
				pad[b] = byte('a' + rng.Intn(26))
			}
			ds.local[i] = append(ds.local[i], tableRow{"orders", tuple.Tuple{
				tuple.String(nodeName(i)), tuple.Int(int64(oid)), tuple.Int(int64(uid)), tuple.String(string(pad)),
			}})
			want = append(want, []interface{}{float64(oid), names[uid]})
		}
	}
	ds.hot = []statement{{joinSQL, rowsAnswer(want)}}
}

// rows lists every tuple of the data set (the codec leaf measurements
// run over them).
func (ds *dataset) rows() []tableRow {
	var out []tableRow
	for _, l := range ds.local {
		out = append(out, l...)
	}
	return append(out, ds.published...)
}

// op is one client request with what the generator expects back.
type op struct {
	kind string // "hot", "miss" or "insert"
	req  server.Request
	want answer
}

// nextOp draws the next request of the workload's mix.
func (ds *dataset) nextOp(rng *rand.Rand) op {
	w := ds.w
	r := rng.Float64()
	switch {
	case r < w.insertFrac:
		// A renewal: an existing key with its existing value, so
		// every read's answer stays what it was.
		row := ds.published[rng.Intn(len(ds.published))]
		return op{kind: "insert", req: server.Request{
			Op: "insert", Table: row.table, Values: []interface{}{row.t[0].S, row.t[1].I},
		}}
	case r < w.insertFrac+w.missFrac:
		st := ds.missStatement(rng.Intn(rateSpace))
		return op{kind: "miss", req: server.Request{Op: "query", SQL: st.sql}, want: st.want}
	default:
		st := ds.hot[rng.Intn(len(ds.hot))]
		return op{kind: "hot", req: server.Request{Op: "query", SQL: st.sql}, want: st.want}
	}
}
