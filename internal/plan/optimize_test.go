package plan

import (
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/sqlparser"
	"repro/internal/stats"
	"repro/internal/tuple"
)

// multiwayCatalog defines the 3-table workload the optimizer tests
// exercise: orders (local facts), users and items (DHT tables keyed
// on the join columns, so fetch-matches is legal against them).
func multiwayCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	for _, s := range []*tuple.Schema{
		tuple.MustSchema("users", []tuple.Column{
			{Name: "uid", Type: tuple.TInt},
			{Name: "name", Type: tuple.TString},
		}, "uid"),
		tuple.MustSchema("orders", []tuple.Column{
			{Name: "oid", Type: tuple.TInt},
			{Name: "uid", Type: tuple.TInt},
			{Name: "item", Type: tuple.TInt},
		}, "oid"),
		tuple.MustSchema("items", []tuple.Column{
			{Name: "item", Type: tuple.TInt},
			{Name: "price", Type: tuple.TFloat},
		}, "item"),
	} {
		if _, err := cat.Define(s, time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

const threeWaySQL = "SELECT o.oid, u.name, i.price FROM orders o JOIN users u ON o.uid = u.uid JOIN items i ON o.item = i.item"

func compileWith(t *testing.T, cat *catalog.Catalog, sql string, opts Options) *Spec {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := Compile(stmt, cat, opts)
	if err != nil {
		t.Fatalf("Compile(%q): %v", sql, err)
	}
	return spec
}

func joinOrder(spec *Spec) []string {
	out := make([]string, len(spec.Scans))
	for i, sc := range spec.Scans {
		out[i] = sc.Table
	}
	return out
}

// TestOptimizerThreeWayShape checks the basic multiway compile: three
// scans, two stages, each consuming one equi-join predicate.
func TestOptimizerThreeWayShape(t *testing.T) {
	spec := compileWith(t, multiwayCatalog(t), threeWaySQL, Options{})
	if len(spec.Scans) != 3 || len(spec.Joins) != 2 {
		t.Fatalf("scans=%d joins=%d", len(spec.Scans), len(spec.Joins))
	}
	for k, j := range spec.Joins {
		if len(j.LeftCols) != 1 || len(j.RightCols) != 1 {
			t.Fatalf("stage %d cols %v/%v", k, j.LeftCols, j.RightCols)
		}
		if j.LeftCols[0] >= spec.LeftArity(k) || j.RightCols[0] >= spec.Scans[k+1].Schema.Arity() {
			t.Fatalf("stage %d cols out of range: %v/%v", k, j.LeftCols, j.RightCols)
		}
		if j.EstRows <= 0 {
			t.Fatalf("stage %d missing cardinality estimate", k)
		}
	}
}

// TestOptimizerStatsDriveStrategies: a production-shaped stats
// declaration (small users, huge items) must flip the second stage to
// fetch-matches while the first stays symmetric.
func TestOptimizerStatsDriveStrategies(t *testing.T) {
	cat := multiwayCatalog(t)
	mustStats := func(tbl string, st catalog.TableStats) {
		t.Helper()
		if err := cat.SetStats(tbl, st); err != nil {
			t.Fatal(err)
		}
	}
	mustStats("users", catalog.TableStats{Rows: 100, Distinct: map[string]int64{"uid": 100}})
	mustStats("orders", catalog.TableStats{Rows: 500, Distinct: map[string]int64{"uid": 80, "item": 50}})
	mustStats("items", catalog.TableStats{Rows: 10000, Distinct: map[string]int64{"item": 10000}})
	spec := compileWith(t, cat, threeWaySQL, Options{})
	if got := joinOrder(spec); got[0] != "orders" {
		t.Fatalf("join order %v, want orders first", got)
	}
	if spec.Joins[0].Strategy != SymmetricHash {
		t.Fatalf("stage 0 strategy %v, want symmetric-hash", spec.Joins[0].Strategy)
	}
	if spec.Joins[1].Strategy != FetchMatches {
		t.Fatalf("stage 1 strategy %v, want fetch-matches", spec.Joins[1].Strategy)
	}
}

// TestOptimizerPrefersBloomAtLowMatchRate: when stats say few right
// tuples can match (tiny left key domain vs a huge unkeyed-right
// table), the first stage should pick the Bloom rewrite.
func TestOptimizerPrefersBloomAtLowMatchRate(t *testing.T) {
	cat := catalog.New()
	for _, s := range []*tuple.Schema{
		tuple.MustSchema("l", []tuple.Column{
			{Name: "node", Type: tuple.TString},
			{Name: "k", Type: tuple.TInt},
		}, "node", "k"),
		// Right keyed off the join column: fetch-matches illegal.
		tuple.MustSchema("r", []tuple.Column{
			{Name: "k", Type: tuple.TInt},
			{Name: "info", Type: tuple.TString},
		}, "info"),
	} {
		if _, err := cat.Define(s, time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.SetStats("l", catalog.TableStats{Rows: 100, Distinct: map[string]int64{"k": 10}}); err != nil {
		t.Fatal(err)
	}
	if err := cat.SetStats("r", catalog.TableStats{Rows: 10000, Distinct: map[string]int64{"k": 10000}}); err != nil {
		t.Fatal(err)
	}
	spec := compileWith(t, cat, "SELECT a.node, b.info FROM l a JOIN r b ON a.k = b.k", Options{})
	if spec.Joins[0].Strategy != BloomJoin {
		t.Fatalf("strategy %v, want bloom", spec.Joins[0].Strategy)
	}
	if spec.Scans[0].Table != "l" {
		t.Fatalf("bloom plan must scan the small side first, got %v", joinOrder(spec))
	}
}

// TestOptimizerRejectsDisconnectedGraph: a table with no equality
// predicate linking it to the rest is a cross product — rejected.
func TestOptimizerRejectsDisconnectedGraph(t *testing.T) {
	cat := multiwayCatalog(t)
	stmt, err := sqlparser.Parse("SELECT o.oid FROM orders o, users u, items i WHERE o.uid = u.uid")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(stmt, cat, Options{}); err == nil {
		t.Fatal("disconnected join graph accepted")
	}
}

// TestOptimizerForcedBloomBeyondStageZero: Bloom is legal at any
// stage (later stages build the filter over the right base table and
// prune the accumulated left stream); forcing it on a 3-table plan
// pins every stage.
func TestOptimizerForcedBloomBeyondStageZero(t *testing.T) {
	cat := multiwayCatalog(t)
	stmt, err := sqlparser.Parse(threeWaySQL)
	if err != nil {
		t.Fatal(err)
	}
	bl := BloomJoin
	spec, err := Compile(stmt, cat, Options{Strategy: &bl})
	if err != nil {
		t.Fatalf("forced bloom on a 3-table plan: %v", err)
	}
	if len(spec.Joins) != 2 {
		t.Fatalf("got %d join stages, want 2", len(spec.Joins))
	}
	for i, j := range spec.Joins {
		if j.Strategy != BloomJoin {
			t.Fatalf("stage %d strategy %v, want BloomJoin", i, j.Strategy)
		}
	}
}

// TestOptimizerTableLimit: more than MaxTables inputs are rejected
// (the enumeration is exponential).
func TestOptimizerTableLimit(t *testing.T) {
	cat := multiwayCatalog(t)
	var sb strings.Builder
	sb.WriteString("SELECT t0.oid FROM orders t0")
	for i := 1; i <= MaxTables; i++ {
		// MaxTables+1 references in total.
		sb.WriteString(", orders t")
		sb.WriteString(string(rune('0' + i)))
	}
	stmt, err := sqlparser.Parse(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(stmt, cat, Options{}); err == nil {
		t.Fatal("oversized FROM accepted")
	}
}

// TestSampleSelectivity: with a measured row sample, the optimizer
// prices a pushed-down filter by evaluating it against the sampled
// rows instead of the textbook constants — including correlated
// conjuncts, which independence-based guesses misprice.
func TestSampleSelectivity(t *testing.T) {
	sch := tuple.MustSchema("t", []tuple.Column{
		{Name: "a", Type: tuple.TInt},
		{Name: "b", Type: tuple.TInt},
	})
	// 16 sampled rows; a < 4 matches 4 of them. b mirrors a exactly,
	// so `a < 4 AND b < 4` also matches 4 — an independence estimate
	// would square the fraction.
	sample := stats.NewSample(16)
	for i := 0; i < 16; i++ {
		row := tuple.Tuple{tuple.Int(int64(i)), tuple.Int(int64(i))}
		sample.Add(uint64(i+1), row.Bytes())
	}
	lt4 := func(col int, name string) expr.Expr {
		return &expr.Cmp{Op: expr.LT,
			L: &expr.Col{Name: name, Index: col},
			R: expr.NewLit(tuple.Int(4))}
	}
	in := &joinInput{
		ScanSpec: ScanSpec{Stored: 2, Cols: []int{0, 1}, Schema: sch,
			Where: lt4(0, "a"), StatsSource: catalog.StatsMeasured},
		stats: catalog.TableStats{Rows: 1600, Sample: sample, Source: catalog.StatsMeasured},
	}
	if sel, ok := sampleSelectivity(in); !ok || sel != 0.25 {
		t.Fatalf("sampled selectivity = %v (ok=%v), want 0.25", sel, ok)
	}
	in.Where = &expr.And{L: lt4(0, "a"), R: lt4(1, "b")}
	if sel, ok := sampleSelectivity(in); !ok || sel != 0.25 {
		t.Fatalf("correlated conjuncts = %v (ok=%v), want 0.25", sel, ok)
	}
	if rows := scanRows(in); rows != 400 {
		t.Fatalf("scanRows = %v, want 400", rows)
	}
	// A filter matching no sampled row is rare, not impossible: floor
	// at half a sample row.
	in.Where = &expr.Cmp{Op: expr.GT,
		L: &expr.Col{Name: "a", Index: 0}, R: expr.NewLit(tuple.Int(100))}
	if sel, ok := sampleSelectivity(in); !ok || sel != 0.5/16 {
		t.Fatalf("zero-match selectivity = %v (ok=%v), want %v", sel, ok, 0.5/16)
	}
	// Below minSampleRows the sample proves nothing — fall back to the
	// per-conjunct constants.
	in.stats.Sample = stats.NewSample(4)
	for i := 0; i < 4; i++ {
		row := tuple.Tuple{tuple.Int(int64(i)), tuple.Int(int64(i))}
		in.stats.Sample.Add(uint64(i+1), row.Bytes())
	}
	if _, ok := sampleSelectivity(in); ok {
		t.Fatal("a 4-row sample should not drive selectivity")
	}
	// Rows of a stale arity (schema changed since the measurement) are
	// skipped rather than misevaluated.
	in.stats.Sample = stats.NewSample(32)
	for i := 0; i < 16; i++ {
		row := tuple.Tuple{tuple.Int(int64(i))}
		in.stats.Sample.Add(uint64(i+1), row.Bytes())
	}
	if _, ok := sampleSelectivity(in); ok {
		t.Fatal("wrong-arity sample rows should not drive selectivity")
	}
}

// TestExplainMultiwayTree: the EXPLAIN tree shows both stages nested
// with order, strategies, and estimates.
func TestExplainMultiwayTree(t *testing.T) {
	spec := compileWith(t, multiwayCatalog(t), threeWaySQL, Options{})
	out := spec.Explain()
	for _, want := range []string{"Join#0", "Join#1", "est_rows=", "Scan orders", "Scan users", "Scan items"} {
		if !strings.Contains(out, want) {
			t.Fatalf("explain missing %q:\n%s", want, out)
		}
	}
}

// TestMeasuredEmptyTableIsKnown: an ANALYZE that measured zero rows
// is information, not an absent stat — the optimizer costs the table
// at the one-row floor instead of the 1000-row default, so the
// EXPLAIN stats= annotation always names the numbers actually used.
func TestMeasuredEmptyTableIsKnown(t *testing.T) {
	in := &joinInput{
		ScanSpec: ScanSpec{Stored: 1, Cols: []int{0}, StatsSource: catalog.StatsMeasured,
			Schema: tuple.MustSchema("t", []tuple.Column{{Name: "k", Type: tuple.TInt}})},
		stats: catalog.TableStats{Rows: 0, Source: catalog.StatsMeasured},
	}
	if rows := scanRows(in); rows != 1 {
		t.Fatalf("measured-empty table costed at %v rows, want 1", rows)
	}
	in.StatsSource = catalog.StatsDefault
	in.stats = catalog.TableStats{}
	if rows := scanRows(in); rows != 1000 {
		t.Fatalf("stat-less table costed at %v rows, want the 1000 default", rows)
	}
}
