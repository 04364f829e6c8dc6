package engine

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/pier"
	"repro/internal/piertest"
	"repro/internal/simnet"
)

// TestConcurrentMixedWorkload is the PR's e2e: 32 concurrent queries —
// 24 one-shots over static tables plus 8 continuous subscriptions over
// a live stream — on a 16-node simnet, with every one-shot's result
// byte-identical to its sequential-execution baseline.
func TestConcurrentMixedWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("16-node cluster")
	}
	// EOS completion (piertest sets Members) makes the quiet timer a
	// fallback only, so the default config's 250ms Quiet is fine even
	// with stragglers under the race detector — no more stretching the
	// quiescence window to keep slow participants from being cut off.
	cfg := piertest.FastConfig()
	// Every query coordinates at node 0 (the service's front door), so
	// its inbox takes 24 queries' worth of result traffic at once; the
	// default livelock-protection depth (4096) would drop messages.
	c := newTestClusterNet(t, 16, 31, &cfg, &simnet.Config{InboxDepth: 1 << 16})
	// Admission control is what makes 32 concurrent clients viable on a
	// 16-node simulation: 8 execution slots bound the simultaneous
	// query fan-out (24 × 16 participant pipelines at once would starve
	// participants past any quiescence window) and the rest queue.
	svc := New(c.Nodes[0], Config{
		MaxInFlight:  8,
		MaxQueued:    32,
		QueueTimeout: time.Minute,
	})
	defer svc.Close()

	// Queries mix tables, joins, aggregates, and ordering. All operate
	// on the static traffic/alerts rows, so results are deterministic.
	oneShots := []string{
		"SELECT node, rate FROM traffic ORDER BY rate DESC LIMIT 5",
		"SELECT COUNT(*) FROM traffic",
		"SELECT SUM(rate) FROM traffic WHERE rate > 40",
		"SELECT a.node, SUM(a.hits) FROM alerts a GROUP BY a.node ORDER BY a.node",
		"SELECT t.node, a.hits FROM traffic t JOIN alerts a ON t.node = a.node WHERE a.rule = 1",
		"SELECT rule, COUNT(*) FROM alerts GROUP BY rule ORDER BY rule",
	}

	digest := func(sql string) (string, error) {
		sess := svc.Open()
		defer sess.Close()
		res, err := sess.Query(context.Background(), sql)
		if err != nil {
			return "", err
		}
		rows := make([]string, len(res.Rows))
		for i, r := range res.Rows {
			rows[i] = fmt.Sprintf("%v", r)
		}
		sort.Strings(rows) // order-insensitive: same multiset == same digest
		// How the query ended leads the digest, so a short answer names
		// its reason and coverage instead of showing only a row diff.
		return fmt.Sprintf("%s@%v|%v|%v", res.Reason, res.Coverage, res.Columns, rows), nil
	}
	const complete = pier.ReasonEOS + "@1|"

	// Sequential baselines first.
	baseline := make(map[string]string, len(oneShots))
	for _, sql := range oneShots {
		d, err := digest(sql)
		if err != nil {
			t.Fatalf("baseline %q: %v", sql, err)
		}
		if !strings.HasPrefix(d, complete) {
			t.Fatalf("baseline %q did not end %s at coverage 1: %s", sql, pier.ReasonEOS, d)
		}
		baseline[sql] = d
	}

	// Live stream for the continuous half of the workload.
	stop := make(chan struct{})
	defer close(stop)
	go publishStream(c.Nodes[3], stop)
	go publishStream(c.Nodes[9], stop)

	// 32 concurrent clients: 24 one-shots (each baseline query four
	// times) + 8 subscriptions (two distinct statements, four
	// subscribers each — exercising shared-scan attach under load).
	contSQL := []string{
		"SELECT src, COUNT(*) FROM stream GROUP BY src WINDOW 400 ms SLIDE 400 ms",
		"SELECT SUM(val) FROM stream WINDOW 500 ms SLIDE 500 ms",
	}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for rep := 0; rep < 4; rep++ {
		for _, sql := range oneShots {
			wg.Add(1)
			go func(rep int, sql string) {
				defer wg.Done()
				d, err := digest(sql)
				if err != nil {
					errs <- fmt.Errorf("concurrent %q: %w", sql, err)
					return
				}
				if d != baseline[sql] {
					errs <- fmt.Errorf("concurrent %q diverged:\n got %s\nwant %s", sql, d, baseline[sql])
				}
			}(rep, sql)
		}
	}
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sess := svc.Open()
			defer sess.Close()
			sub, err := sess.Subscribe(context.Background(), contSQL[i%len(contSQL)])
			if err != nil {
				errs <- fmt.Errorf("subscribe %d: %w", i, err)
				return
			}
			defer sub.Stop()
			deadline := time.After(15 * time.Second)
			for got := 0; got < 2; got++ {
				select {
				case _, ok := <-sub.Results():
					if !ok {
						errs <- fmt.Errorf("subscription %d closed after %d windows", i, got)
						return
					}
				case <-deadline:
					errs <- fmt.Errorf("subscription %d: %d windows in 15s, want 2", i, got)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// Each of the 8 distinct statements (6 one-shot + 2 continuous)
	// compiled exactly once; all 30 repeat lookups hit the plan cache.
	st := svc.Cache().Stats()
	if st.Misses != 8 || st.Hits != 30 {
		t.Fatalf("cache stats %+v, want exactly 8 misses / 30 hits", st)
	}
	// Two shared scans with four subscribers each -> six attaches.
	if got := svc.Metrics.SharedScanAttaches.Load(); got != 6 {
		t.Fatalf("SharedScanAttaches = %d, want 6", got)
	}
	if got := svc.Metrics.RejectedOverload.Load() + svc.Metrics.RejectedTimeout.Load(); got != 0 {
		t.Fatalf("%d queries shed under a within-capacity workload", got)
	}
}
