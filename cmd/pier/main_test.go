package main

import (
	"testing"
	"time"

	"repro/internal/pier"
	"repro/internal/simnet"
	"repro/internal/tuple"
)

func testNode(t *testing.T) *pier.Node {
	t.Helper()
	net := simnet.New(simnet.Config{Seed: 1})
	t.Cleanup(net.Close)
	ep, err := net.Endpoint("shell")
	if err != nil {
		t.Fatal(err)
	}
	node, err := pier.NewNode(ep, pier.Config{Members: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Stop)
	return node
}

func TestDoCreate(t *testing.T) {
	node := testNode(t)
	err := doCreate(node, "sensors name:string,temp:float,count:int key name ttl 30s")
	if err != nil {
		t.Fatal(err)
	}
	tbl, ok := node.Catalog().Lookup("sensors")
	if !ok {
		t.Fatal("table not defined")
	}
	if tbl.Schema.Arity() != 3 || tbl.TTL != 30*time.Second {
		t.Fatalf("%+v", tbl)
	}
	if len(tbl.Schema.Key) != 1 || tbl.Schema.Key[0] != 0 {
		t.Fatalf("key %v", tbl.Schema.Key)
	}
}

func TestDoCreateErrors(t *testing.T) {
	node := testNode(t)
	bad := []string{
		"",
		"t",
		"t col-without-type",
		"t a:quux",
		"t a:int key missing_col",
		"t a:int ttl notaduration",
	}
	for _, args := range bad {
		if err := doCreate(node, args); err == nil {
			t.Fatalf("doCreate(%q) succeeded", args)
		}
	}
}

func TestDoInsert(t *testing.T) {
	node := testNode(t)
	if err := doCreate(node, "kv k:string,v:int,f:float,b:bool key k"); err != nil {
		t.Fatal(err)
	}
	if err := doInsert(node, "kv hello, 42, 2.5, true", false); err != nil {
		t.Fatal(err)
	}
	items := node.Store().LScan("table:kv")
	if len(items) != 1 {
		t.Fatalf("%d items", len(items))
	}
	tp, err := tuple.FromBytes(items[0].Payload)
	if err != nil {
		t.Fatal(err)
	}
	if tp[0].S != "hello" || tp[1].I != 42 || tp[2].F != 2.5 || !tp[3].B {
		t.Fatalf("row %v", tp)
	}
}

func TestDoInsertErrors(t *testing.T) {
	node := testNode(t)
	doCreate(node, "kv k:string,v:int key k")
	bad := []string{
		"missingtable a,1",
		"kv onlyonevalue",
		"kv a,notanint",
		"kv",
	}
	for _, args := range bad {
		if err := doInsert(node, args, false); err == nil {
			t.Fatalf("doInsert(%q) succeeded", args)
		}
	}
}

// TestCoverageNote: anything short of full coverage is tagged, down to
// a result that covered no partition at all.
func TestCoverageNote(t *testing.T) {
	for cov, want := range map[float64]string{
		1:    "",
		0.75: ", COVERAGE 75%",
		0:    ", COVERAGE 0%",
	} {
		if got := coverageNote(&pier.Result{Coverage: cov}); got != want {
			t.Errorf("coverage %v: note %q, want %q", cov, got, want)
		}
	}
}

func TestStatsDisplayAndQualifiedNames(t *testing.T) {
	node := testNode(t)
	if err := doCreate(node, "t k:string,v:int key k"); err != nil {
		t.Fatal(err)
	}
	// The satellite bugfix: qualified column names normalize instead
	// of erroring, so "\stats t t.v=..." and measured stats agree.
	if err := doStats(node, "t 100 t.v=40"); err != nil {
		t.Fatal(err)
	}
	st := node.Catalog().Stats("t")
	if st.Rows != 100 || st.Distinct["v"] != 40 {
		t.Fatalf("declared stats %+v", st)
	}
	// Bare "\stats t" prints instead of erroring.
	if err := doStats(node, "t"); err != nil {
		t.Fatal(err)
	}
	if err := doStats(node, "missing"); err == nil {
		t.Fatal("unknown table accepted")
	}
}
