package pier

import (
	"context"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/tuple"
)

// TestRowsShippedOnceWhenReplySlow: the coordinator adds the rows of its
// first pier.rows call at once but replies later than the RPC timeout.
// A retransmission of that frame would add its rows a second time and
// leave the books unbalanced; instead every row arrives exactly once
// and the query ends eos.
func TestRowsShippedOnceWhenReplySlow(t *testing.T) {
	cfg := testNodeConfig()
	cfg.Chord.RPC.Timeout = 250 * time.Millisecond
	cfg.Quiet = 2 * time.Second // the slow reply must not read as quiescence
	nodes, _ := clusterWithConfig(t, 4, 29, cfg)
	defineEverywhere(t, nodes, trafficSchema, time.Minute)
	var want []string
	for i, nd := range nodes {
		row := tuple.Tuple{tuple.String(nd.Addr()), tuple.Float(float64(i) + 0.5)}
		if err := nd.PublishLocal("traffic", row); err != nil {
			t.Fatal(err)
		}
		want = append(want, string(row.Bytes()))
	}
	sort.Strings(want)

	coord := nodes[0]
	var delayed atomic.Bool
	coord.peer.Handle(methRows, func(from string, req []byte) ([]byte, error) {
		resp, err := coord.onRows(from, req)
		if delayed.CompareAndSwap(false, true) {
			time.Sleep(3 * cfg.Chord.RPC.Timeout)
		}
		return resp, err
	})
	res, err := coord.Query(context.Background(), "SELECT node, rate FROM traffic")
	if err != nil {
		t.Fatal(err)
	}
	if !delayed.Load() {
		t.Fatal("no pier.rows call reached the coordinator")
	}
	got := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		got[i] = string(r.Bytes())
	}
	sort.Strings(got)
	if len(got) != len(want) {
		t.Fatalf("%d rows (%s), want each of the %d rows once", len(got), res.Reason, len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("row %d is %q, want %q", i, got[i], want[i])
		}
	}
	if res.Reason != ReasonEOS {
		t.Fatalf("reason %q, want eos", res.Reason)
	}
	for _, nd := range nodes {
		if n := nd.Obs().SnapshotMap()[`rpc_retries_total{method="pier.rows"}`]; n != 0 {
			t.Fatalf("%s retransmitted %v pier.rows frames", nd.Addr(), n)
		}
	}
}
