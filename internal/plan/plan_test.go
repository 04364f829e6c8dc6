package plan

import (
	"strings"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/catalog"
	"repro/internal/sqlparser"
	"repro/internal/tuple"
)

func testCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	mustDefine := func(s *tuple.Schema) {
		if _, err := cat.Define(s, time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	mustDefine(tuple.MustSchema("traffic", []tuple.Column{
		{Name: "node", Type: tuple.TString},
		{Name: "rate", Type: tuple.TFloat},
	}, "node"))
	mustDefine(tuple.MustSchema("alerts", []tuple.Column{
		{Name: "node", Type: tuple.TString},
		{Name: "rule", Type: tuple.TInt},
		{Name: "descr", Type: tuple.TString},
		{Name: "hits", Type: tuple.TInt},
	}, "node", "rule"))
	mustDefine(tuple.MustSchema("rules", []tuple.Column{
		{Name: "rule", Type: tuple.TInt},
		{Name: "descr", Type: tuple.TString},
	}, "rule"))
	mustDefine(tuple.MustSchema("files", []tuple.Column{
		{Name: "word", Type: tuple.TString},
		{Name: "file", Type: tuple.TString},
	}, "word"))
	return cat
}

func compile(t *testing.T, sql string, opts Options) *Spec {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := Compile(stmt, testCatalog(t), opts)
	if err != nil {
		t.Fatalf("Compile(%q): %v", sql, err)
	}
	return spec
}

func TestSimpleScanPlan(t *testing.T) {
	spec := compile(t, "SELECT node, rate FROM traffic WHERE rate > 10", Options{})
	if len(spec.Scans) != 1 || spec.Scans[0].Table != "traffic" {
		t.Fatalf("%+v", spec.Scans)
	}
	if spec.Scans[0].Where == nil {
		t.Fatal("predicate not pushed into scan")
	}
	if spec.PostFilter != nil {
		t.Fatal("pushed predicate also left in post filter")
	}
	if spec.IsAggregate() || len(spec.Proj) != 2 {
		t.Fatalf("%+v", spec)
	}
	if spec.OutNames[0] != "node" || spec.OutNames[1] != "rate" {
		t.Fatalf("out names %v", spec.OutNames)
	}
}

func TestStarPlan(t *testing.T) {
	spec := compile(t, "SELECT * FROM traffic", Options{})
	if len(spec.Proj) != 2 || len(spec.OutNames) != 2 {
		t.Fatalf("%+v", spec)
	}
}

func TestAggregatePlanTable1(t *testing.T) {
	spec := compile(t,
		"SELECT rule, SUM(hits) AS total FROM alerts GROUP BY rule ORDER BY SUM(hits) DESC LIMIT 10",
		Options{})
	if !spec.IsAggregate() {
		t.Fatal("not aggregate")
	}
	if len(spec.GroupCols) != 1 || len(spec.Aggs) != 1 {
		t.Fatalf("groups=%v aggs=%v", spec.GroupCols, spec.Aggs)
	}
	if spec.Aggs[0].Func != agg.Sum {
		t.Fatalf("agg func %v", spec.Aggs[0].Func)
	}
	if len(spec.OrderCols) != 1 || spec.OrderCols[0] != 1 || !spec.OrderDesc[0] {
		t.Fatalf("order %v %v", spec.OrderCols, spec.OrderDesc)
	}
	if spec.Limit != 10 {
		t.Fatalf("limit %d", spec.Limit)
	}
	if spec.OutNames[1] != "total" {
		t.Fatalf("alias lost: %v", spec.OutNames)
	}
}

func TestOrderByAlias(t *testing.T) {
	spec := compile(t, "SELECT rule, SUM(hits) AS total FROM alerts GROUP BY rule ORDER BY total DESC", Options{})
	if len(spec.OrderCols) != 1 || spec.OrderCols[0] != 1 {
		t.Fatalf("order by alias: %v", spec.OrderCols)
	}
}

func TestCountStarPlan(t *testing.T) {
	spec := compile(t, "SELECT COUNT(*) FROM traffic", Options{})
	if len(spec.Aggs) != 1 || spec.Aggs[0].Func != agg.Count || spec.Aggs[0].ArgCol != -1 {
		t.Fatalf("%+v", spec.Aggs)
	}
	if len(spec.GroupCols) != 0 {
		t.Fatal("grand aggregate has group cols")
	}
}

func TestDuplicateAggregateShared(t *testing.T) {
	spec := compile(t, "SELECT rule, SUM(hits), SUM(hits) FROM alerts GROUP BY rule", Options{})
	if len(spec.Aggs) != 1 {
		t.Fatalf("duplicate aggregate not shared: %v", spec.Aggs)
	}
	if len(spec.OutPerm) != 3 || spec.OutPerm[1] != spec.OutPerm[2] {
		t.Fatalf("perm %v", spec.OutPerm)
	}
}

func TestSelectItemNotGrouped(t *testing.T) {
	stmt, _ := sqlparser.Parse("SELECT node, SUM(hits) FROM alerts GROUP BY rule")
	if _, err := Compile(stmt, testCatalog(t), Options{}); err == nil {
		t.Fatal("ungrouped select item accepted")
	}
}

func TestJoinPlanExtractsKeys(t *testing.T) {
	spec := compile(t,
		"SELECT a.node, r.descr FROM alerts AS a JOIN rules AS r ON a.rule = r.rule WHERE a.hits > 5",
		Options{})
	if len(spec.Scans) != 2 || len(spec.Joins) != 1 {
		t.Fatalf("%d scans, %d joins", len(spec.Scans), len(spec.Joins))
	}
	if spec.Scans[0].Table != "alerts" || spec.Scans[1].Table != "rules" {
		t.Fatalf("join order %s, %s", spec.Scans[0].Table, spec.Scans[1].Table)
	}
	j := spec.Joins[0]
	if len(j.LeftCols) != 1 || len(j.RightCols) != 1 {
		t.Fatalf("join cols %v %v", j.LeftCols, j.RightCols)
	}
	// a.rule is column 1 of alerts; r.rule is column 0 of rules.
	if j.LeftCols[0] != 1 || j.RightCols[0] != 0 {
		t.Fatalf("join col indexes %v %v", j.LeftCols, j.RightCols)
	}
	// hits > 5 pushed into the alerts scan.
	if spec.Scans[0].Where == nil {
		t.Fatal("single-table predicate not pushed")
	}
	// rules keyed on rule --> fetch-matches is the cheapest strategy.
	if j.Strategy != FetchMatches {
		t.Fatalf("strategy %v", j.Strategy)
	}
}

func TestJoinReversedPredicate(t *testing.T) {
	spec := compile(t, "SELECT a.node FROM alerts a JOIN rules r ON r.rule = a.rule", Options{})
	if spec.Scans[0].Table != "alerts" {
		t.Fatalf("join order %s, %s", spec.Scans[0].Table, spec.Scans[1].Table)
	}
	j := spec.Joins[0]
	if j.LeftCols[0] != 1 || j.RightCols[0] != 0 {
		t.Fatalf("reversed equi-join: %v %v", j.LeftCols, j.RightCols)
	}
}

func TestJoinWithoutEquality(t *testing.T) {
	stmt, _ := sqlparser.Parse("SELECT a.node FROM alerts a, rules r WHERE a.hits > r.rule")
	if _, err := Compile(stmt, testCatalog(t), Options{}); err == nil {
		t.Fatal("non-equi join accepted")
	}
}

func TestForcedStrategy(t *testing.T) {
	sym := SymmetricHash
	spec := compile(t, "SELECT a.node FROM alerts a JOIN rules r ON a.rule = r.rule",
		Options{Strategy: &sym})
	if spec.Joins[0].Strategy != SymmetricHash {
		t.Fatalf("forced strategy ignored: %v", spec.Joins[0].Strategy)
	}
	bl := BloomJoin
	spec2 := compile(t, "SELECT a.node FROM alerts a JOIN rules r ON a.rule = r.rule",
		Options{Strategy: &bl})
	if spec2.Joins[0].Strategy != BloomJoin {
		t.Fatalf("bloom not forced: %v", spec2.Joins[0].Strategy)
	}
	// Forcing keeps the FROM order (the ablation knob must not let
	// the optimizer reorder underneath a benchmark).
	if spec.Scans[0].Table != "alerts" || spec.Scans[1].Table != "rules" {
		t.Fatalf("forced plan reordered: %s, %s", spec.Scans[0].Table, spec.Scans[1].Table)
	}
}

func TestFetchMatchesIllegalWhenKeyMismatch(t *testing.T) {
	// files is keyed on word; joining on file must not use fetch.
	fm := FetchMatches
	stmt, _ := sqlparser.Parse("SELECT a.word FROM files a JOIN files b ON a.file = b.file")
	if _, err := Compile(stmt, testCatalog(t), Options{Strategy: &fm}); err == nil {
		t.Fatal("illegal fetch-matches accepted")
	}
}

func TestCrossTablePostFilter(t *testing.T) {
	spec := compile(t,
		"SELECT a.node FROM alerts a JOIN rules r ON a.rule = r.rule WHERE a.hits > r.rule",
		Options{})
	if spec.PostFilter == nil {
		t.Fatal("cross-table residual predicate lost")
	}
}

func TestHavingRewrite(t *testing.T) {
	spec := compile(t,
		"SELECT rule, SUM(hits) FROM alerts GROUP BY rule HAVING SUM(hits) > 100",
		Options{})
	if spec.Having == nil {
		t.Fatal("no having")
	}
	// The rewritten tree must evaluate against a canonical row
	// (group, sum): (5, 150) passes, (5, 50) fails.
	v, err := spec.Having.Eval(tuple.Tuple{tuple.Int(5), tuple.Int(150)})
	if err != nil || !v.B {
		t.Fatalf("having eval: %v %v", v, err)
	}
	v, _ = spec.Having.Eval(tuple.Tuple{tuple.Int(5), tuple.Int(50)})
	if v.B {
		t.Fatal("having passed a failing row")
	}
}

func TestHavingUnlistedAggregateRejected(t *testing.T) {
	stmt, _ := sqlparser.Parse("SELECT rule FROM alerts GROUP BY rule HAVING MAX(hits) > 1")
	if _, err := Compile(stmt, testCatalog(t), Options{}); err == nil {
		t.Fatal("HAVING with unlisted aggregate accepted")
	}
}

func TestContinuousClauses(t *testing.T) {
	spec := compile(t, "SELECT SUM(rate) FROM traffic WINDOW 5 s SLIDE 1 s LIVE 30 s", Options{})
	if !spec.IsContinuous() {
		t.Fatal("not continuous")
	}
	if spec.Window != int64(5*time.Second) || spec.Slide != int64(time.Second) || spec.Live != int64(30*time.Second) {
		t.Fatalf("window=%d slide=%d live=%d", spec.Window, spec.Slide, spec.Live)
	}
}

func TestUnknownTable(t *testing.T) {
	stmt, _ := sqlparser.Parse("SELECT x FROM nope")
	if _, err := Compile(stmt, testCatalog(t), Options{}); err == nil {
		t.Fatal("unknown table accepted")
	}
}

func TestUnknownColumn(t *testing.T) {
	stmt, _ := sqlparser.Parse("SELECT zzz FROM traffic")
	if _, err := Compile(stmt, testCatalog(t), Options{}); err == nil {
		t.Fatal("unknown column accepted")
	}
}

func TestWithRecursiveRejectedHere(t *testing.T) {
	stmt, _ := sqlparser.Parse("WITH RECURSIVE r AS (SELECT node FROM traffic UNION SELECT node FROM traffic) SELECT * FROM r")
	if _, err := Compile(stmt, testCatalog(t), Options{}); err == nil {
		t.Fatal("recursive statement compiled directly")
	}
}

func TestSpecCodecRoundTrip(t *testing.T) {
	queries := []string{
		"SELECT node, rate FROM traffic WHERE rate > 10",
		"SELECT rule, SUM(hits) AS total FROM alerts GROUP BY rule HAVING SUM(hits) > 10 ORDER BY total DESC LIMIT 10",
		"SELECT a.node, r.descr FROM alerts a JOIN rules r ON a.rule = r.rule WHERE a.hits > 5",
		"SELECT SUM(rate) FROM traffic WINDOW 5 s SLIDE 1 s",
		"SELECT DISTINCT node FROM traffic",
	}
	for _, q := range queries {
		spec := compile(t, q, Options{})
		decoded, err := FromBytes(spec.Bytes())
		if err != nil {
			t.Fatalf("%q: decode: %v", q, err)
		}
		if string(decoded.Bytes()) != string(spec.Bytes()) {
			t.Fatalf("%q: codec not idempotent", q)
		}
		if decoded.CanonicalWidth() != spec.CanonicalWidth() ||
			decoded.IsAggregate() != spec.IsAggregate() ||
			len(decoded.Joins) != len(spec.Joins) ||
			len(decoded.Scans) != len(spec.Scans) {
			t.Fatalf("%q: structure changed across codec", q)
		}
		for i := range spec.Joins {
			if decoded.Joins[i].Strategy != spec.Joins[i].Strategy {
				t.Fatalf("%q: stage %d strategy changed across codec", q, i)
			}
		}
	}
}

func TestFromBytesRejectsGarbage(t *testing.T) {
	if _, err := FromBytes([]byte{0xff, 0x3}); err == nil {
		t.Fatal("garbage spec accepted")
	}
	spec := compile(t, "SELECT node FROM traffic", Options{})
	if _, err := FromBytes(append(spec.Bytes(), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestOutputSchema(t *testing.T) {
	spec := compile(t, "SELECT rule, SUM(hits) AS total FROM alerts GROUP BY rule", Options{})
	sch := spec.OutputSchema()
	if sch.Arity() != 2 || sch.Columns[1].Name != "total" {
		t.Fatalf("%+v", sch)
	}
}

func TestProjExpressionPlan(t *testing.T) {
	spec := compile(t, "SELECT rate * 8 AS bits FROM traffic", Options{})
	if len(spec.Proj) != 1 || spec.OutNames[0] != "bits" {
		t.Fatalf("%+v", spec)
	}
	// Resolved against what the scan keeps of a traffic row:
	// evaluating against a narrowed row works.
	row, ok := spec.Scans[0].Narrow(tuple.Tuple{tuple.String("n"), tuple.Float(2)})
	if !ok {
		t.Fatal("a traffic row refused")
	}
	v, err := spec.Proj[0].Eval(row)
	if err != nil || v.F != 16 {
		t.Fatalf("proj eval: %v %v", v, err)
	}
}

func TestStrategyStrings(t *testing.T) {
	for _, s := range []JoinStrategy{SymmetricHash, FetchMatches, BloomJoin} {
		if s.String() == "" || strings.Contains(s.String(), "%") {
			t.Fatalf("bad string for %d", s)
		}
	}
}
