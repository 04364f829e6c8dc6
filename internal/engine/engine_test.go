package engine

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/pier"
	"repro/internal/piertest"
	"repro/internal/plan"
	"repro/internal/simnet"
	"repro/internal/sqlparser"
	"repro/internal/tuple"
)

var trafficSchema = tuple.MustSchema("traffic", []tuple.Column{
	{Name: "node", Type: tuple.TString},
	{Name: "rate", Type: tuple.TFloat},
}, "node")

var alertsSchema = tuple.MustSchema("alerts", []tuple.Column{
	{Name: "node", Type: tuple.TString},
	{Name: "rule", Type: tuple.TInt},
	{Name: "hits", Type: tuple.TInt},
}, "node", "rule")

var streamSchema = tuple.MustSchema("stream", []tuple.Column{
	{Name: "src", Type: tuple.TString},
	{Name: "val", Type: tuple.TInt},
}, "src")

// newTestCluster builds an n-node cluster with the three test tables
// defined everywhere and deterministic rows in traffic and alerts.
func newTestCluster(t *testing.T, n int, seed int64) *piertest.Cluster {
	t.Helper()
	return newTestClusterNet(t, n, seed, nil, nil)
}

// slowNet delays every message 40ms, so a one-shot query over four
// nodes takes hundreds of milliseconds: long enough to hold an
// admission slot or to be cancelled in flight.
var slowNet = &simnet.Config{MinLatency: 40 * time.Millisecond}

func newTestClusterNet(t *testing.T, n int, seed int64, cfg *pier.Config, netCfg *simnet.Config) *piertest.Cluster {
	t.Helper()
	c, err := piertest.New(piertest.Options{N: n, Seed: seed, NodeCfg: cfg, NetCfg: netCfg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	for _, nd := range c.Nodes {
		for _, s := range []*tuple.Schema{trafficSchema, alertsSchema, streamSchema} {
			if err := nd.DefineTable(s, time.Minute); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, nd := range c.Nodes {
		err := nd.PublishLocal("traffic", tuple.Tuple{
			tuple.String(nd.Addr()), tuple.Float(float64(10 * (i + 1))),
		})
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 2; r++ {
			err := nd.PublishLocal("alerts", tuple.Tuple{
				tuple.String(nd.Addr()), tuple.Int(int64(r)), tuple.Int(int64(i + r)),
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	return c
}

// TestPlanCacheByteIdentical is the property test: a cache hit
// returns a plan byte-identical to a fresh parse+optimize, survives
// caller mutation, and dies on an epoch change.
func TestPlanCacheByteIdentical(t *testing.T) {
	cat := catalog.New()
	for _, s := range []*tuple.Schema{trafficSchema, alertsSchema} {
		if _, err := cat.Define(s, time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	cache := NewPlanCache(8)
	queries := []string{
		"SELECT node, rate FROM traffic WHERE rate > 15",
		"SELECT COUNT(*) FROM traffic",
		"SELECT a.node, SUM(a.hits) FROM alerts a GROUP BY a.node ORDER BY a.node LIMIT 4",
		"SELECT t.node, a.hits FROM traffic t JOIN alerts a ON t.node = a.node",
		"SELECT val FROM stream WINDOW 400 ms SLIDE 400 ms", // continuous plans cache too
	}
	if _, err := cat.Define(streamSchema, time.Minute); err != nil {
		t.Fatal(err)
	}
	epoch := cat.Epoch()
	for _, sql := range queries {
		fresh := func() (*plan.Spec, error) { return compileForTest(sql, cat) }
		want, err := fresh()
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		key, err := normalizedKey(sql, plan.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, hit, err := cache.Resolve(key, epoch, fresh); hit || err != nil {
			t.Fatalf("%q: first resolve hit=%v err=%v", sql, hit, err)
		}
		got, hit, _ := cache.Resolve(key, epoch, lookupOnly)
		if !hit {
			t.Fatalf("%q: no hit", sql)
		}
		if string(got.Bytes()) != string(want.Bytes()) {
			t.Fatalf("%q: cached plan differs from fresh compile", sql)
		}
		// Mutating the returned spec must not poison the cache.
		got.Limit = 1234
		again, hit, _ := cache.Resolve(key, epoch, lookupOnly)
		if !hit || again.Limit == 1234 {
			t.Fatalf("%q: cache entry mutated through a returned spec", sql)
		}
		// An epoch bump (ANALYZE installing stats, DDL) invalidates.
		if _, hit, _ := cache.Resolve(key, epoch+1, lookupOnly); hit {
			t.Fatalf("%q: stale-epoch entry served", sql)
		}
		if _, hit, _ := cache.Resolve(key, epoch, lookupOnly); hit {
			t.Fatalf("%q: invalidated entry still present", sql)
		}
	}
	st := cache.Stats()
	if st.Invalidations != uint64(len(queries)) {
		t.Fatalf("invalidations = %d, want %d", st.Invalidations, len(queries))
	}
}

// lookupOnly is a Resolve compile that yields no plan, so a miss stores
// nothing: what is left is the lookup.
func lookupOnly() (*plan.Spec, error) { return nil, nil }

func compileForTest(sql string, cat *catalog.Catalog) (*plan.Spec, error) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	return plan.Compile(stmt, cat, plan.Options{})
}

func TestPlanCacheLRUEviction(t *testing.T) {
	cat := catalog.New()
	if _, err := cat.Define(trafficSchema, time.Minute); err != nil {
		t.Fatal(err)
	}
	cache := NewPlanCache(2)
	epoch := cat.Epoch()
	keys := make([]string, 3)
	for i := range keys {
		sql := fmt.Sprintf("SELECT node FROM traffic WHERE rate > %d", i)
		var err error
		keys[i], err = normalizedKey(sql, plan.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := cache.Resolve(keys[i], epoch, func() (*plan.Spec, error) { return compileForTest(sql, cat) }); err != nil {
			t.Fatal(err)
		}
	}
	if _, hit, _ := cache.Resolve(keys[0], epoch, lookupOnly); hit {
		t.Fatal("LRU tail not evicted at capacity")
	}
	for _, k := range keys[1:] {
		if _, hit, _ := cache.Resolve(k, epoch, lookupOnly); !hit {
			t.Fatalf("entry %q evicted prematurely", k)
		}
	}
	if st := cache.Stats(); st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats %+v, want 1 eviction / 2 entries", st)
	}
}

// TestResolveSingleFlight: sessions that send one new statement at the
// same moment compile it once — the rest wait for that compile and hit.
func TestResolveSingleFlight(t *testing.T) {
	c := newTestCluster(t, 1, 12)
	svc := New(c.Nodes[0], Config{})
	defer svc.Close()

	const herd = 16
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			spec, _, _, err := svc.resolve("SELECT rule, SUM(hits) FROM alerts WHERE hits > 3 GROUP BY rule", plan.Options{})
			if err != nil || spec == nil {
				t.Errorf("resolve: spec %v, err %v", spec, err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if st := svc.Cache().Stats(); st.Misses != 1 || st.Hits != herd-1 {
		t.Fatalf("cache stats %+v, want 1 miss / %d hits", st, herd-1)
	}
}

// TestRepeatedQueryHitRateAndInvalidation runs the acceptance
// workload: > 90% hit rate on repeats, invalidation after ANALYZE
// installs fresh statistics.
func TestRepeatedQueryHitRateAndInvalidation(t *testing.T) {
	c := newTestCluster(t, 4, 11)
	svc := New(c.Nodes[0], Config{})
	defer svc.Close()
	sess := svc.Open()
	defer sess.Close()

	const repeats = 25
	for i := 0; i < repeats; i++ {
		res, err := sess.Query(context.Background(), "SELECT COUNT(*) FROM traffic")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].I != 4 {
			t.Fatalf("iteration %d: got %v", i, res.Rows)
		}
	}
	st := svc.Cache().Stats()
	if st.Misses != 1 || st.Hits != repeats-1 {
		t.Fatalf("cache stats %+v, want 1 miss / %d hits", st, repeats-1)
	}
	if hr := st.HitRate(); hr <= 0.9 {
		t.Fatalf("hit rate %.2f, want > 0.90", hr)
	}

	// ANALYZE installs measured stats -> epoch bump -> the cached plan
	// is invalid and the next run recompiles against fresh statistics.
	epochBefore := c.Nodes[0].Catalog().Epoch()
	if _, err := sess.Query(context.Background(), "ANALYZE traffic"); err != nil {
		t.Fatal(err)
	}
	if c.Nodes[0].Catalog().Epoch() == epochBefore {
		t.Fatal("ANALYZE did not bump the catalog epoch")
	}
	if _, err := sess.Query(context.Background(), "SELECT COUNT(*) FROM traffic"); err != nil {
		t.Fatal(err)
	}
	st2 := svc.Cache().Stats()
	if st2.Invalidations == 0 {
		t.Fatalf("no invalidation after ANALYZE: %+v", st2)
	}
	if st2.Misses != st.Misses+2 { // the ANALYZE itself + the recompile
		t.Fatalf("post-ANALYZE stats %+v (before %+v)", st2, st)
	}
}

func TestPreparedExec(t *testing.T) {
	c := newTestCluster(t, 4, 12)
	svc := New(c.Nodes[0], Config{})
	defer svc.Close()
	sess := svc.Open()
	defer sess.Close()

	if err := sess.Prepare("rates", "SELECT node, rate FROM traffic ORDER BY rate DESC", plan.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := sess.Prepare("rates", "SELECT node, rate FROM traffic ORDER BY rate", plan.Options{}); err != nil {
		t.Fatal(err) // re-prepare replaces
	}
	res, err := sess.Exec(context.Background(), "rates")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 || res.Rows[0][1].F != 10 {
		t.Fatalf("exec rows %v", res.Rows)
	}
	// Prepare compiled eagerly, so the first Exec already hit.
	if st := svc.Cache().Stats(); st.Hits == 0 {
		t.Fatalf("no cache hit from Exec: %+v", st)
	}
	if _, err := sess.Exec(context.Background(), "nope"); err == nil {
		t.Fatal("Exec of unknown name succeeded")
	}
	if got := sess.Stats(); got.Queries != 1 || got.Rows != 4 {
		t.Fatalf("session stats %+v", got)
	}
}

// TestAdmissionControl exercises all three outcomes: admitted,
// queued-then-timeout, and shed on arrival.
func TestAdmissionControl(t *testing.T) {
	c := newTestClusterNet(t, 4, 13, nil, slowNet)
	svc := New(c.Nodes[0], Config{
		MaxInFlight:  1,
		MaxQueued:    1,
		QueueTimeout: 100 * time.Millisecond,
	})
	defer svc.Close()
	sess := svc.Open()
	defer sess.Close()

	// The slow network keeps a one-shot COUNT(*) busy for ≈400ms, so
	// the slot is held long past the 100ms queue timeout.
	first := make(chan error, 1)
	go func() {
		_, err := sess.Query(context.Background(), "SELECT COUNT(*) FROM traffic")
		first <- err
	}()
	time.Sleep(50 * time.Millisecond) // let it take the slot
	second := make(chan error, 1)
	go func() {
		_, err := sess.Query(context.Background(), "SELECT node FROM traffic")
		second <- err
	}()
	time.Sleep(20 * time.Millisecond) // let it take the queue slot
	_, err := sess.Query(context.Background(), "SELECT rate FROM traffic")
	if reason, ok := IsReject(err); !ok || reason != RejectOverloaded {
		t.Fatalf("third query: got %v, want reject %q", err, RejectOverloaded)
	}
	if err := <-second; func() bool { r, ok := IsReject(err); return !ok || r != RejectQueueTimeout }() {
		t.Fatalf("second query: got %v, want reject %q", err, RejectQueueTimeout)
	}
	if err := <-first; err != nil {
		t.Fatalf("first query failed: %v", err)
	}
	if got := svc.Metrics.RejectedOverload.Load(); got != 1 {
		t.Fatalf("RejectedOverload = %d", got)
	}
	if got := svc.Metrics.RejectedTimeout.Load(); got != 1 {
		t.Fatalf("RejectedTimeout = %d", got)
	}
	if got := sess.Stats().Rejected; got != 2 {
		t.Fatalf("session Rejected = %d", got)
	}
}

func TestSessionCloseCancelsInFlight(t *testing.T) {
	// The slow network keeps the query in flight long past the 30ms
	// sleep, so the close below has something to cancel.
	c := newTestClusterNet(t, 4, 14, nil, slowNet)
	svc := New(c.Nodes[0], Config{})
	defer svc.Close()
	sess := svc.Open()

	done := make(chan error, 1)
	go func() {
		_, err := sess.Query(context.Background(), "SELECT COUNT(*) FROM traffic")
		done <- err
	}()
	time.Sleep(30 * time.Millisecond)
	sess.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("query survived session close") // cancellation must reach it
		}
	case <-time.After(5 * time.Second):
		t.Fatal("query did not return after session close")
	}
	if _, err := sess.Query(context.Background(), "SELECT COUNT(*) FROM traffic"); err == nil {
		t.Fatal("closed session accepted a query")
	}
}
