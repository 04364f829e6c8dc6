package pier_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/tuple"
)

// TestInNetworkSumShipsLessThanCentralized is S2, the paper's bandwidth
// argument: at the collection point, an in-network SUM receives fewer
// bytes than the centralized baseline's ship-every-row collection, and
// its value is exact.
func TestInNetworkSumShipsLessThanCentralized(t *testing.T) {
	const n, rowsPerNode = 24, 100
	cl := spillCluster(t, n, 1, nil)
	schema := tuple.MustSchema("v", []tuple.Column{
		{Name: "node", Type: tuple.TString},
		{Name: "i", Type: tuple.TInt},
		{Name: "val", Type: tuple.TFloat},
	}, "node", "i")
	for _, nd := range cl.Nodes {
		if err := nd.DefineTable(schema, time.Minute); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rowsPerNode; i++ {
			if err := nd.PublishLocal("v", tuple.Tuple{
				tuple.String(nd.Addr()), tuple.Int(int64(i)), tuple.Float(2.5),
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	base := centralizedBaseline(cl.Nodes)
	coord := cl.Nodes[0].Addr()
	const want = n * rowsPerNode * 2.5

	cl.Net.ResetStats()
	res, err := cl.Nodes[0].Query(context.Background(), "SELECT SUM(val) FROM v")
	if err != nil {
		t.Fatal(err)
	}
	inNetBytes := cl.Net.PerNode(coord).BytesIn
	if len(res.Rows) != 1 || res.Rows[0][0].F != want {
		t.Fatalf("in-network SUM = %v, want %v", res.Rows, want)
	}

	cl.Net.ResetStats()
	rows, err := base.CollectAll(context.Background(), "v", 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	centralBytes := cl.Net.PerNode(coord).BytesIn
	var sum float64
	for _, r := range rows {
		sum += r[2].F
	}
	if sum != want {
		t.Fatalf("centralized SUM over %d rows = %v, want %v", len(rows), sum, want)
	}

	if inNetBytes >= centralBytes {
		t.Fatalf("collection point received %d bytes in-network, %d centralized", inNetBytes, centralBytes)
	}
	t.Logf("bytes into the collection point: in-network %d, centralized %d", inNetBytes, centralBytes)
}
