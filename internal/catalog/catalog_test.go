package catalog

import (
	"testing"
	"time"

	"repro/internal/tuple"
)

func schema(name string) *tuple.Schema {
	return tuple.MustSchema(name, []tuple.Column{
		{Name: "k", Type: tuple.TString},
		{Name: "v", Type: tuple.TInt},
	}, "k")
}

func TestDefineAndLookup(t *testing.T) {
	c := New()
	tbl, err := c.Define(schema("t1"), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Namespace != "table:t1" || tbl.TTL != time.Minute {
		t.Fatalf("%+v", tbl)
	}
	got, ok := c.Lookup("t1")
	if !ok || got != tbl {
		t.Fatal("lookup failed")
	}
	if _, ok := c.Lookup("missing"); ok {
		t.Fatal("phantom table")
	}
}

func TestRedefineIdempotent(t *testing.T) {
	c := New()
	a, _ := c.Define(schema("t"), time.Minute)
	b, err := c.Define(schema("t"), time.Hour) // same schema, ttl ignored
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("idempotent redefinition returned a new table")
	}
}

func TestConflictingRedefinitionRejected(t *testing.T) {
	c := New()
	c.Define(schema("t"), time.Minute)
	other := tuple.MustSchema("t", []tuple.Column{{Name: "x", Type: tuple.TFloat}})
	if _, err := c.Define(other, time.Minute); err == nil {
		t.Fatal("conflicting schema accepted")
	}
}

func TestDefaultTTL(t *testing.T) {
	c := New()
	tbl, err := c.Define(schema("t"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.TTL <= 0 {
		t.Fatal("no default ttl")
	}
}

func TestNilSchemaRejected(t *testing.T) {
	c := New()
	if _, err := c.Define(nil, time.Minute); err == nil {
		t.Fatal("nil schema accepted")
	}
	if _, err := c.Define(&tuple.Schema{}, time.Minute); err == nil {
		t.Fatal("anonymous schema accepted")
	}
}

func TestDropAndNames(t *testing.T) {
	c := New()
	c.Define(schema("b"), time.Minute)
	c.Define(schema("a"), time.Minute)
	names := c.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("names %v", names)
	}
	c.Drop("a")
	if _, ok := c.Lookup("a"); ok {
		t.Fatal("dropped table still visible")
	}
	if len(c.Names()) != 1 {
		t.Fatal("names not updated")
	}
}

func TestNamespaceConvention(t *testing.T) {
	if Namespace("x") != "table:x" {
		t.Fatalf("namespace %q", Namespace("x"))
	}
}

// ---------------------------------------------------------------------------
// Statistics: provenance, freshness, qualified-name normalization

func TestSetStatsNormalizesQualifiedNames(t *testing.T) {
	c := New()
	c.Define(schema("t"), time.Minute)
	// Qualified by the table name: accepted and normalized to base.
	err := c.SetStats("t", TableStats{Rows: 10, Distinct: map[string]int64{"t.k": 5}})
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stats("t")
	if st.Distinct["k"] != 5 {
		t.Fatalf("qualified key not normalized: %+v", st.Distinct)
	}
	if _, qualified := st.Distinct["t.k"]; qualified {
		t.Fatal("qualified key stored verbatim")
	}
	// Unknown columns (and foreign qualifiers) still rejected.
	if err := c.SetStats("t", TableStats{Distinct: map[string]int64{"nope": 1}}); err == nil {
		t.Fatal("unknown column accepted")
	}
	if err := c.SetStats("t", TableStats{Distinct: map[string]int64{"u.k": 1}}); err == nil {
		t.Fatal("foreign qualifier accepted")
	}
	// Two spellings of one column collide.
	if err := c.SetStats("t", TableStats{Distinct: map[string]int64{"k": 1, "t.k": 2}}); err == nil {
		t.Fatal("colliding keys accepted")
	}
}

func TestStatsPrecedence(t *testing.T) {
	c := New()
	c.Define(schema("t"), time.Minute)
	now := time.Now()

	if _, err := c.InstallMeasured("t", TableStats{Rows: 200, Source: StatsMeasured, MeasuredAt: now, TTL: time.Minute}); err != nil {
		t.Fatal(err)
	}
	if st, src, _ := c.StatsInfo("t"); src != StatsMeasured || st.Rows != 200 {
		t.Fatalf("measured not installed: %v %v", st.Rows, src)
	}
	// A measurement of the same age, another node's copy of it, installs nothing.
	if ok, _ := c.InstallMeasured("t", TableStats{Rows: 300, Source: StatsMeasured, MeasuredAt: now, TTL: time.Minute}); ok {
		t.Fatal("a measurement of equal age displaced the live one")
	}
	// A newer measurement replaces an older one; an older one does not.
	c.InstallMeasured("t", TableStats{Rows: 400, Source: StatsMeasured, MeasuredAt: now.Add(2 * time.Second), TTL: time.Minute})
	if st, _, _ := c.StatsInfo("t"); st.Rows != 400 {
		t.Fatalf("newer measurement ignored: %v", st.Rows)
	}
	c.InstallMeasured("t", TableStats{Rows: 500, Source: StatsMeasured, MeasuredAt: now.Add(-time.Second), TTL: time.Minute})
	if st, _, _ := c.StatsInfo("t"); st.Rows != 400 {
		t.Fatalf("stale measurement accepted: %v", st.Rows)
	}
	// Declared wins over everything.
	if err := c.SetStats("t", TableStats{Rows: 7}); err != nil {
		t.Fatal(err)
	}
	if st, src, age := c.StatsInfo("t"); src != StatsDeclared || st.Rows != 7 || age != 0 {
		t.Fatalf("declared not preferred: %v %v %v", st.Rows, src, age)
	}
}

func TestMeasuredStatsExpire(t *testing.T) {
	c := New()
	c.Define(schema("t"), time.Minute)
	old := time.Now().Add(-time.Hour)
	// Expired on arrival: dropped.
	c.InstallMeasured("t", TableStats{Rows: 1, Source: StatsMeasured, MeasuredAt: old, TTL: time.Minute})
	if _, src, _ := c.StatsInfo("t"); src != StatsDefault {
		t.Fatalf("expired stats visible: %v", src)
	}
	// Live install, then judged expired at read time.
	c.InstallMeasured("t", TableStats{Rows: 2, Source: StatsMeasured, MeasuredAt: time.Now(), TTL: 250 * time.Millisecond})
	if st, src, _ := c.StatsInfo("t"); src != StatsMeasured || st.Rows != 2 {
		t.Fatalf("live stats invisible: %v %v", st.Rows, src)
	}
	time.Sleep(300 * time.Millisecond)
	if _, src, _ := c.StatsInfo("t"); src != StatsDefault {
		t.Fatal("stats survived their TTL")
	}
	// An expired entry yields to any newcomer.
	if _, err := c.InstallMeasured("t", TableStats{Rows: 3, Source: StatsMeasured, MeasuredAt: time.Now(), TTL: time.Minute}); err != nil {
		t.Fatal(err)
	}
	if st, src, _ := c.StatsInfo("t"); src != StatsMeasured || st.Rows != 3 {
		t.Fatalf("expired entry blocked a new measurement: %v %v", st.Rows, src)
	}
}

func TestInstallMeasuredValidation(t *testing.T) {
	c := New()
	c.Define(schema("t"), time.Minute)
	if _, err := c.InstallMeasured("missing", TableStats{Source: StatsMeasured, MeasuredAt: time.Now()}); err == nil {
		t.Fatal("unknown table accepted")
	}
	if _, err := c.InstallMeasured("t", TableStats{Source: StatsDeclared}); err == nil {
		t.Fatal("declared source accepted by InstallMeasured")
	}
	if _, err := c.InstallMeasured("t", TableStats{Source: StatsMeasured, MeasuredAt: time.Now(), Distinct: map[string]int64{"zzz": 1}}); err == nil {
		t.Fatal("unknown column accepted")
	}
}
