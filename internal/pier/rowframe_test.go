package pier

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/tuple"
)

var wideSchema = tuple.MustSchema("wide", []tuple.Column{
	{Name: "k", Type: tuple.TInt},
	{Name: "blob", Type: tuple.TString},
}, "k")

// TestWideRowsFitResultFrames: result frames fill to a byte budget, not
// a row count. 100 rows of 1 200-byte blobs at one node made a 64-row
// frame of ≈77 KB, which no datagram carries: the transport refused it
// and the query ended quiet-timeout with the other 36 rows. Every row
// must arrive and the query end eos.
func TestWideRowsFitResultFrames(t *testing.T) {
	cfg := testNodeConfig()
	cfg.Quiet = 2 * time.Second // a stall on a loaded box is not what this tests
	nodes, _ := clusterWithConfig(t, 2, 1504, cfg)
	defineEverywhere(t, nodes, wideSchema, time.Minute)
	blob := strings.Repeat("b", 1200)
	for i := 0; i < 100; i++ {
		if err := nodes[1].PublishLocal("wide", tuple.Tuple{tuple.Int(int64(i)), tuple.String(blob)}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := nodes[0].Query(context.Background(), "SELECT k, blob FROM wide")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 100 || res.Reason != ReasonEOS || res.Coverage != 1 {
		t.Fatalf("%d rows, reason %s, coverage %.2f; want 100 rows, eos, 1.00", len(res.Rows), res.Reason, res.Coverage)
	}
}

// TestRowLargerThanDatagramIsNotEOS: a row larger than the frame budget
// ships alone; when it is larger than a datagram too, its frame cannot
// be sent, so the books do not balance and the query must not claim
// eos. The rows-unacked event says how big the frame was.
func TestRowLargerThanDatagramIsNotEOS(t *testing.T) {
	nodes, _ := cluster(t, 2, 1505)
	defineEverywhere(t, nodes, wideSchema, time.Minute)
	for i := 0; i < 3; i++ {
		if err := nodes[1].PublishLocal("wide", tuple.Tuple{tuple.Int(int64(i)), tuple.String("small")}); err != nil {
			t.Fatal(err)
		}
	}
	huge := tuple.Tuple{tuple.Int(99), tuple.String(strings.Repeat("h", transport.MaxDatagram+1))}
	if err := nodes[1].PublishLocal("wide", huge); err != nil {
		t.Fatal(err)
	}
	res, err := nodes[0].Query(context.Background(), "SELECT k, blob FROM wide")
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason == ReasonEOS {
		t.Fatal("a row no datagram carries was lost, and the query still ended eos")
	}
	if len(res.Rows) != 3 {
		t.Fatalf("%d rows, want the 3 small ones (the huge row ships alone)", len(res.Rows))
	}
	ev := eventFor(t, nodes[1], obs.EvRowsUnacked, res.QueryID)
	var rows, size int
	if _, err := fmt.Sscanf(ev.Msg[strings.Index(ev.Msg, "rows="):], "rows=%d bytes=%d", &rows, &size); err != nil {
		t.Fatalf("event %q: %v", ev.Msg, err)
	}
	if rows != 1 || size <= transport.MaxDatagram {
		t.Fatalf("event %q: want the one huge row's frame, larger than %d bytes", ev.Msg, transport.MaxDatagram)
	}
}
