package pier_test

// Config fields whose effect no other test pins: each test below fails
// when its field stops changing what the node does.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/pier"
	"repro/internal/plan"
	"repro/internal/tuple"
)

// TestDHTReplicasSetsReplicaWrites: the owner of a published item pushes
// one dht.replica write per configured replica (republishing is held
// off so only the puts themselves count).
func TestDHTReplicasSetsReplicaWrites(t *testing.T) {
	kv := tuple.MustSchema("kv", []tuple.Column{
		{Name: "k", Type: tuple.TInt},
		{Name: "v", Type: tuple.TString},
	}, "k")
	const items = 20
	const series = `rpc_oneways_total{method="dht.replica"}`
	for _, replicas := range []int{1, 3} {
		t.Run(fmt.Sprintf("replicas=%d", replicas), func(t *testing.T) {
			cl := spillCluster(t, 6, 37, func(c *pier.Config) {
				c.DHT.Replicas = replicas
				c.DHT.RepublishEvery = time.Hour
			})
			for _, nd := range cl.Nodes {
				if err := nd.DefineTable(kv, time.Minute); err != nil {
					t.Fatal(err)
				}
			}
			for k := 0; k < items; k++ {
				if err := cl.Nodes[k%len(cl.Nodes)].Publish("kv", tuple.Tuple{tuple.Int(int64(k)), tuple.String("v")}); err != nil {
					t.Fatal(err)
				}
			}
			want := float64(items * replicas)
			deadline := time.Now().Add(5 * time.Second)
			for sumMetric(cl.Nodes, series) < want && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			time.Sleep(100 * time.Millisecond) // room for a write too many
			if got := sumMetric(cl.Nodes, series); got != want {
				t.Fatalf("%v replica writes for %d puts, want %v", got, items, want)
			}
		})
	}
}

// TestBloomWaitBoundsGather: a Bloom join's coordinator gathers
// per-site filters for BloomWait — no shorter, and not much longer —
// and the answer is the baseline's.
func TestBloomWaitBoundsGather(t *testing.T) {
	const wait = 600 * time.Millisecond
	cl := spillCluster(t, 4, 41, func(c *pier.Config) { c.BloomWait = wait })
	seedSpillJoin(t, cl.Nodes, 40, 10)
	ref, err := centralizedBaseline(cl.Nodes).QuerySQL(context.Background(), spillJoinSQL, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	coord := cl.Nodes[0]
	bloom := plan.BloomJoin
	res, err := coord.QueryWithOptions(context.Background(), spillJoinSQL, plan.Options{Strategy: &bloom})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != pier.ReasonEOS || len(res.Rows) != len(ref.Rows) {
		t.Fatalf("reason %q with %d rows, want eos with %d", res.Reason, len(res.Rows), len(ref.Rows))
	}
	tr := coord.Trace(res.QueryID)
	if tr == nil {
		t.Fatal("no trace for the query")
	}
	for _, s := range tr.Spans {
		if s.Name != "gather-bloom" || s.Node != coord.Addr() {
			continue
		}
		took := time.Duration(s.End - s.Start)
		if took < wait || took > wait+time.Second {
			t.Fatalf("Bloom gather took %v with BloomWait %v", took, wait)
		}
		return
	}
	t.Fatal("no gather-bloom span at the coordinator")
}
