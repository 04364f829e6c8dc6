package engine

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/pier"
	"repro/internal/plan"
	"repro/internal/tuple"
)

// publishStream feeds the stream table until stop closes, so windowed
// queries always have fresh tuples to report.
func publishStream(c interface {
	PublishLocal(string, tuple.Tuple) error
}, stop <-chan struct{}) {
	for i := 0; ; i++ {
		select {
		case <-stop:
			return
		case <-time.After(20 * time.Millisecond):
		}
		_ = c.PublishLocal("stream", tuple.Tuple{
			tuple.String(fmt.Sprintf("src-%d", i%4)), tuple.Int(int64(i)),
		})
	}
}

// TestSharedScanOnePipeline is the tentpole's shared-scan acceptance
// test: N concurrent subscriptions with the same normalized statement
// ride ONE underlying continuous query — one scan/window pipeline per
// node, not N — and every subscriber sees identical windows.
func TestSharedScanOnePipeline(t *testing.T) {
	c := newTestCluster(t, 8, 21)
	svc := New(c.Nodes[0], Config{})
	defer svc.Close()

	stop := make(chan struct{})
	defer close(stop)
	go publishStream(c.Nodes[1], stop)
	go publishStream(c.Nodes[5], stop)

	coordinated := c.Nodes[0].Metrics.QueriesCoordinated.Load()
	const sql = "SELECT src, COUNT(*) FROM stream GROUP BY src WINDOW 300 ms SLIDE 300 ms"
	opts := plan.Options{Analyze: true}

	const nSubs = 4
	sessions := make([]*Session, nSubs)
	subs := make([]*Subscription, nSubs)
	for i := range subs {
		sessions[i] = svc.Open()
		defer sessions[i].Close()
		sub, err := sessions[i].SubscribeWithOptions(context.Background(), sql, opts)
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = sub
	}

	// One underlying query was compiled and coordinated — the other
	// three subscriptions attached to its fan-out.
	if got := c.Nodes[0].Metrics.QueriesCoordinated.Load() - coordinated; got != 1 {
		t.Fatalf("QueriesCoordinated grew by %d, want 1", got)
	}
	if got := svc.Metrics.SharedScanAttaches.Load(); got != nSubs-1 {
		t.Fatalf("SharedScanAttaches = %d, want %d", got, nSubs-1)
	}

	// Every subscriber receives the same windows (drop-on-full can skip
	// windows per subscriber, so compare the seqs all four saw).
	type digest map[uint64]string
	digests := make([]digest, nSubs)
	for i, sub := range subs {
		digests[i] = make(digest)
		deadline := time.After(10 * time.Second)
		for len(digests[i]) < 3 {
			select {
			case w, ok := <-sub.Results():
				if !ok {
					t.Fatalf("subscriber %d: results closed early", i)
				}
				digests[i][w.Seq] = fmt.Sprintf("%v", w.Rows)
			case <-deadline:
				t.Fatalf("subscriber %d: got %d windows in 10s, want 3", i, len(digests[i]))
			}
		}
	}
	common := 0
	for seq, want := range digests[0] {
		for i := 1; i < nSubs; i++ {
			got, ok := digests[i][seq]
			if !ok {
				continue
			}
			if got != want {
				t.Fatalf("window %d differs between subscribers: %q vs %q", seq, got, want)
			}
			common++
		}
	}
	if common == 0 {
		t.Fatal("no window seq observed by more than one subscriber")
	}

	// The EXPLAIN ANALYZE operator counts prove one pipeline: the
	// participant window source reports one instance per node — not
	// nSubs per node — and the coordinator-local fan-out shows up once.
	a := subs[0].ss.analysis()
	if a == nil {
		t.Fatal("no analysis from an Analyze subscription")
	}
	var winSrc, fanOut *plan.OpStats
	for i := range a.Ops {
		op := &a.Ops[i]
		switch op.Op {
		case "window-src":
			winSrc = op
		case "fan-out":
			fanOut = op
		}
	}
	if winSrc == nil {
		t.Fatalf("no window-src counters in analysis: %+v", a.Ops)
	}
	if winSrc.Nodes != uint64(len(c.Nodes)) {
		t.Fatalf("window-src instances = %d, want %d (one per node, shared across %d subscriptions)",
			winSrc.Nodes, len(c.Nodes), nSubs)
	}
	if fanOut == nil {
		t.Fatalf("no fan-out counters in analysis: %+v", a.Ops)
	}

	// Detaches: the first three leave the scan running; the last one
	// tears the underlying query down and empties the registry.
	for _, sub := range subs[:nSubs-1] {
		sub.Stop()
	}
	svc.sharedMu.Lock()
	left := len(svc.shared)
	svc.sharedMu.Unlock()
	if left != 1 {
		t.Fatalf("%d shared scans registered after partial detach, want 1", left)
	}
	subs[nSubs-1].Stop()
	svc.sharedMu.Lock()
	left = len(svc.shared)
	svc.sharedMu.Unlock()
	if left != 0 {
		t.Fatalf("%d shared scans registered after last detach, want 0", left)
	}

	// A fresh subscription after teardown compiles a new underlying
	// query rather than attaching to a corpse.
	sess := svc.Open()
	defer sess.Close()
	again, err := sess.Subscribe(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Stop()
	select {
	case _, ok := <-again.Results():
		if !ok {
			t.Fatal("re-created shared scan produced no windows")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("re-created shared scan produced no windows in 10s")
	}
}

var _ = pier.WindowResult{}
