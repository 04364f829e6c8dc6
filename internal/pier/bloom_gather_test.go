package pier_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/pier"
	"repro/internal/piertest"
	"repro/internal/plan"
	"repro/internal/simnet"
)

// bloomJoin runs spillJoinSQL as a forced Bloom join at cl's first node
// and holds it to the centralized baseline's rows with an eos ending;
// settle is the baseline's collection wait.
func bloomJoin(t *testing.T, cl *piertest.Cluster, settle time.Duration) *pier.Result {
	t.Helper()
	ref, err := centralizedBaseline(cl.Nodes).QuerySQL(context.Background(), spillJoinSQL, settle)
	if err != nil {
		t.Fatal(err)
	}
	want := encodeSorted(ref.Rows)
	bloom := plan.BloomJoin
	res, err := cl.Nodes[0].QueryWithOptions(context.Background(), spillJoinSQL, plan.Options{Strategy: &bloom})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("bloom join: %d rows, %q, %v", len(res.Rows), res.Reason, res.Duration)
	got := encodeSorted(res.Rows)
	if res.Reason != pier.ReasonEOS || len(got) != len(want) {
		t.Fatalf("bloom join ended %q with %d rows, want eos with the baseline's %d", res.Reason, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bloom join row %d differs from the baseline's", i)
		}
	}
	return res
}

// TestBloomGatherEndsOnEOS: the phase-1 gather is a query of its own
// and ends when its books balance, not after a fixed wait — on stock
// FastConfig the coordinator's gather-bloom span is a few milliseconds.
func TestBloomGatherEndsOnEOS(t *testing.T) {
	cl := spillCluster(t, 4, 41, nil)
	seedSpillJoin(t, cl.Nodes, 40, 10)
	res := bloomJoin(t, cl, 300*time.Millisecond)
	coord := cl.Nodes[0]
	tr := coord.Trace(res.QueryID)
	if tr == nil {
		t.Fatal("no trace for the query")
	}
	for _, s := range tr.Spans {
		if s.Name != "gather-bloom" || s.Node != coord.Addr() {
			continue
		}
		took := time.Duration(s.End - s.Start)
		t.Logf("gather-bloom took %v", took)
		if took > 100*time.Millisecond {
			t.Fatalf("Bloom gather took %v; an aggregate query over 4 nodes ends in milliseconds", took)
		}
		return
	}
	t.Fatal("no gather-bloom span at the coordinator")
}

// TestBloomJoinWideAreaReturnsEveryRow: with 100–120 ms a message, the
// phase-1 filters of remote nodes take several round trips to reach the
// coordinator. The join must still return every row with eos: a filter
// goes out only once the gather has proven it holds every node's keys.
func TestBloomJoinWideAreaReturnsEveryRow(t *testing.T) {
	if testing.Short() {
		t.Skip("wide-area simulated deployment")
	}
	cfg := piertest.FastConfig()
	cfg.Quiet = 4 * time.Second
	cfg.Chord.RPC.Timeout = 2 * time.Second
	net := simnet.Config{MinLatency: 100 * time.Millisecond, MaxLatency: 120 * time.Millisecond}
	cl, err := piertest.New(piertest.Options{N: 4, Seed: 41, NetCfg: &net, NodeCfg: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	seedSpillJoin(t, cl.Nodes, 40, 10)
	waitStored(t, cl, "table:users", 10)
	if res := bloomJoin(t, cl, 2*time.Second); len(res.Rows) != 40 {
		t.Fatalf("%d rows, want 40", len(res.Rows))
	}
}
