package pier

import (
	"context"
	"testing"
	"time"

	"repro/internal/chord"
	"repro/internal/transport"
	"repro/internal/tuple"
)

// TestQueryOverRealUDP runs a small PIER deployment over real loopback
// UDP sockets — the cmd/pier deployment path — and checks a
// distributed aggregate end to end.
func TestQueryOverRealUDP(t *testing.T) {
	if testing.Short() {
		t.Skip("UDP integration test")
	}
	const n = 4
	cfg := Config{
		Chord: chord.Config{
			SuccessorListLen: 4,
			StabilizeEvery:   20 * time.Millisecond,
			FixFingersEvery:  5 * time.Millisecond,
			CheckPredEvery:   50 * time.Millisecond,
		},
		CombineHold:   20 * time.Millisecond,
		CollectorHold: 100 * time.Millisecond,
		Quiet:         300 * time.Millisecond,
	}
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		tr, err := transport.ListenUDP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		nd, err := NewNode(tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = nd
	}
	defer func() {
		for _, nd := range nodes {
			nd.Stop()
		}
	}()
	for i := 1; i < n; i++ {
		if err := nodes[i].Join(context.Background(), nodes[0].Addr()); err != nil {
			t.Fatalf("join over UDP: %v", err)
		}
	}
	waitOverlay(t, nodes)

	schema := tuple.MustSchema("m", []tuple.Column{
		{Name: "node", Type: tuple.TString},
		{Name: "v", Type: tuple.TInt},
	}, "node")
	for i, nd := range nodes {
		if err := nd.DefineTable(schema, time.Minute); err != nil {
			t.Fatal(err)
		}
		if err := nd.PublishLocal("m", tuple.Tuple{tuple.String(nd.Addr()), tuple.Int(int64(i + 1))}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := nodes[1].Query(context.Background(), "SELECT SUM(v), COUNT(*) FROM m")
	if err != nil {
		t.Fatalf("query over UDP: %v", err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I != 10 || res.Rows[0][1].I != 4 {
		t.Fatalf("UDP result %v", res.Rows)
	}
}
