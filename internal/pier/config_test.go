package pier_test

// Config fields whose effect no other test pins: each test below fails
// when its field stops changing what the node does.

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/pier"
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
