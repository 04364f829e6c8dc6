package pier

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/tuple"
)

// TestDistributedTraceAllMembers runs a 16-node distributed join and
// asserts the coordinator assembles one coherent cross-node trace:
// every member contributes spans (participants ship theirs on the
// teardown stats RPC, so the test polls briefly), the coordinator's
// root span anchors the tree, and skew normalization leaves no span
// starting before the root.
func TestDistributedTraceAllMembers(t *testing.T) {
	const n = 16
	nodes, _ := cluster(t, n, 11)
	defineEverywhere(t, nodes, alertsSchema, time.Minute)
	defineEverywhere(t, nodes, rulesSchema, time.Minute)
	for i, nd := range nodes {
		nd.PublishLocal("alerts", tuple.Tuple{tuple.String(nd.Addr()), tuple.Int(int64(i%2 + 1)), tuple.Int(5)})
	}
	nodes[0].PublishLocal("rules", tuple.Tuple{tuple.Int(1), tuple.String("BAD-TRAFFIC")})
	nodes[0].PublishLocal("rules", tuple.Tuple{tuple.Int(2), tuple.String("TFTP Get")})

	coord := nodes[2]
	sym := plan.SymmetricHash
	res, err := coord.QueryWithOptions(context.Background(),
		"SELECT a.node, r.descr FROM alerts a JOIN rules r ON a.rule = r.rule",
		plan.Options{Strategy: &sym})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != n {
		t.Fatalf("join returned %d rows, want %d", len(res.Rows), n)
	}
	if res.QueryID == 0 {
		t.Fatal("result carries no query id")
	}

	// Remote span buffers arrive on the teardown stats RPC, possibly
	// after ExecuteSpec returned; the trace ring absorbs them.
	var tr *obs.Trace
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		tr = coord.Trace(res.QueryID)
		if tr != nil && len(tr.Nodes()) == n {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if tr == nil {
		t.Fatal("no trace assembled for the query")
	}
	if got := tr.Nodes(); len(got) != n {
		t.Fatalf("trace has spans from %d nodes, want all %d: %v", len(got), n, got)
	}
	if tr.Coord != coord.Addr() {
		t.Fatalf("trace coordinator %s, want %s", tr.Coord, coord.Addr())
	}

	var rootStart int64
	var sawScan, sawWait bool
	for _, s := range tr.Spans {
		if s.ID == tr.Root {
			if s.Name != "query" || s.Node != coord.Addr() {
				t.Fatalf("root span %+v", s)
			}
			rootStart = s.Start
			if !strings.Contains(s.Detail, "reason="+res.Reason) {
				t.Fatalf("root detail %q does not record completion reason %q", s.Detail, res.Reason)
			}
		}
		if s.Name == "scan" && s.Node != coord.Addr() {
			sawScan = true
		}
		if s.Name == "wait" {
			sawWait = true
		}
	}
	if rootStart == 0 {
		t.Fatal("root span missing from assembled trace")
	}
	if !sawScan {
		t.Fatal("no participant scan span in the trace")
	}
	if !sawWait {
		t.Fatal("no coordinator wait span in the trace")
	}
	for _, s := range tr.Spans {
		if s.End == 0 {
			t.Fatalf("span %s@%s never closed", s.Name, s.Node)
		}
		// Skew normalization: no remote block may start before the
		// coordinator's earliest instant.
		if s.Start < rootStart-int64(time.Millisecond) {
			t.Fatalf("span %s@%s starts %dns before the root", s.Name, s.Node, rootStart-s.Start)
		}
	}
	if text := tr.Render(); !strings.Contains(text, "(coordinator)") {
		t.Fatalf("render:\n%s", text)
	}

	// The completion also lands in the metrics and the event log.
	snap := coord.Obs().SnapshotMap()
	if snap[`pier_completions_total{reason="eos"}`] < 1 {
		t.Fatalf("completion counter not recorded: %v", snap[`pier_completions_total{reason="eos"}`])
	}
	var completed bool
	for _, ev := range coord.Events().Snapshot() {
		if ev.Kind == obs.EvQueryCompleted && ev.Query == res.QueryID {
			completed = true
		}
	}
	if !completed {
		t.Fatal("query-completed event missing from the coordinator's event log")
	}
}

// TestTraceShipsOnCancel pins the satellite bugfix: a query torn down
// by context cancellation (deadline) must still assemble a trace with
// participant spans — the teardown path ships spans on cancel and
// deadline, not just clean EOS.
func TestTraceShipsOnCancel(t *testing.T) {
	// On the slow network the scan takes ≈240ms — a 120ms deadline
	// always cancels first, and the coordinator returns the context
	// error, not a Result.
	nodes, _ := clusterWithNet(t, 4, slowNet(12), testNodeConfig())
	defineEverywhere(t, nodes, trafficSchema, time.Minute)
	for i, nd := range nodes {
		nd.PublishLocal("traffic", tuple.Tuple{tuple.String(nd.Addr()), tuple.Float(float64(i))})
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Millisecond)
	defer cancel()
	coord := nodes[1]
	if _, err := coord.Query(ctx, "SELECT node, rate FROM traffic"); err == nil {
		t.Fatal("query completed before the 120ms deadline; cancel path not exercised")
	}
	// No Result means no query id in hand: recover it from the
	// degraded event the coordinator emits on the cancel path.
	var qid uint64
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && qid == 0 {
		for _, ev := range coord.Events().Snapshot() {
			if ev.Kind == obs.EvQueryDegraded && strings.Contains(ev.Msg, "cancelled") {
				qid = ev.Query
			}
		}
		if qid == 0 {
			time.Sleep(10 * time.Millisecond)
		}
	}
	if qid == 0 {
		t.Fatal("cancelled query emitted no query-degraded event")
	}
	var tr *obs.Trace
	for time.Now().Before(deadline) {
		tr = coord.Trace(qid)
		if tr != nil && len(tr.Nodes()) > 1 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if tr == nil {
		t.Fatal("cancelled query left no trace")
	}
	if len(tr.Nodes()) < 2 {
		t.Fatalf("cancelled query's trace has spans only from %v; participants must still ship theirs on teardown", tr.Nodes())
	}
	for _, s := range tr.Spans {
		if s.End == 0 {
			t.Fatalf("span %s@%s shipped open on the cancel path", s.Name, s.Node)
		}
	}
}
