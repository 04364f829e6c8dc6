package dht

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chord"
	"repro/internal/id"
	"repro/internal/overlay"
	"repro/internal/simnet"
)

type cell struct {
	node  *chord.Node
	store *Store
	gate  *gatedRouter
}

// gatedRouter drops every Route while drop is set, as a dead next hop
// would.
type gatedRouter struct {
	overlay.Router
	drop atomic.Bool
}

func (g *gatedRouter) Route(key id.ID, tag string, payload []byte) error {
	if g.drop.Load() {
		return errors.New("route dropped")
	}
	return g.Router.Route(key, tag, payload)
}

func testConfig() Config {
	return Config{
		Replicas:       2,
		SweepEvery:     50 * time.Millisecond,
		RepublishEvery: 150 * time.Millisecond,
	}
}

func cluster(t *testing.T, n int, seed int64) ([]*cell, *simnet.Network) {
	t.Helper()
	return clusterWith(t, n, seed, testConfig(), false)
}

// clusterWith builds the ring; gated puts every store over a
// gatedRouter.
func clusterWith(t *testing.T, n int, seed int64, cfg Config, gated bool) ([]*cell, *simnet.Network) {
	t.Helper()
	net := simnet.New(simnet.Config{Seed: seed})
	t.Cleanup(net.Close)
	cells := make([]*cell, n)
	for i := 0; i < n; i++ {
		ep, err := net.Endpoint(fmt.Sprintf("node%d", i))
		if err != nil {
			t.Fatal(err)
		}
		cn := chord.New(ep, chord.Config{
			SuccessorListLen: 4,
			StabilizeEvery:   10 * time.Millisecond,
			FixFingersEvery:  2 * time.Millisecond,
			CheckPredEvery:   20 * time.Millisecond,
		})
		var router overlay.Router = cn
		cells[i] = &cell{node: cn}
		if gated {
			cells[i].gate = &gatedRouter{Router: cn}
			router = cells[i].gate
		}
		cells[i].store = New(router, cn.Peer(), cfg, nil)
	}
	t.Cleanup(func() {
		for _, c := range cells {
			c.store.Stop()
			c.node.Stop()
		}
	})
	for i := 1; i < n; i++ {
		if err := cells[i].node.Join(context.Background(), cells[0].node.Self().Addr); err != nil {
			t.Fatal(err)
		}
	}
	// Wait for ring convergence: successor of each node is the next by ID.
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if ringConverged(cells) {
			return cells, net
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("ring did not converge")
	return nil, nil
}

func ringConverged(cells []*cell) bool {
	if len(cells) == 1 {
		return true
	}
	byID := append([]*cell(nil), cells...)
	for i := 1; i < len(byID); i++ {
		for j := i; j > 0 && byID[j].node.Self().ID.Less(byID[j-1].node.Self().ID); j-- {
			byID[j], byID[j-1] = byID[j-1], byID[j]
		}
	}
	for i, c := range byID {
		if c.node.Successor().Addr != byID[(i+1)%len(byID)].node.Self().Addr {
			return false
		}
	}
	return true
}

func waitUntil(t *testing.T, d time.Duration, cond func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return false
}

func TestPutGetAcrossNodes(t *testing.T) {
	cells, _ := cluster(t, 8, 1)
	rid := id.HashString("resource-1")
	if err := cells[0].store.Put("ns", rid, []byte("hello"), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	// Any node can Get it once routing lands it at the owner.
	ok := waitUntil(t, 5*time.Second, func() bool {
		got, err := cells[5].store.Get(context.Background(), "ns", rid)
		return err == nil && len(got) == 1 && string(got[0]) == "hello"
	})
	if !ok {
		t.Fatal("item never became gettable from another node")
	}
}

func TestMultipleInstancesSameResource(t *testing.T) {
	cells, _ := cluster(t, 6, 2)
	rid := id.HashString("multi")
	cells[0].store.Put("ns", rid, []byte("a"), 10*time.Second)
	cells[1].store.Put("ns", rid, []byte("b"), 10*time.Second)
	ok := waitUntil(t, 5*time.Second, func() bool {
		got, err := cells[2].store.Get(context.Background(), "ns", rid)
		return err == nil && len(got) == 2
	})
	if !ok {
		t.Fatal("both instances not retrievable")
	}
}

func TestRenewalDeduplicates(t *testing.T) {
	cells, _ := cluster(t, 4, 3)
	rid := id.HashString("renew")
	for i := 0; i < 5; i++ {
		cells[0].store.Put("ns", rid, []byte("same"), 10*time.Second)
	}
	time.Sleep(300 * time.Millisecond)
	got, err := cells[1].store.Get(context.Background(), "ns", rid)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("identical puts produced %d items, want 1", len(got))
	}
}

func TestTTLExpiry(t *testing.T) {
	cells, _ := cluster(t, 4, 4)
	rid := id.HashString("short-lived")
	cells[0].store.Put("ns", rid, []byte("x"), 300*time.Millisecond)
	ok := waitUntil(t, 3*time.Second, func() bool {
		got, err := cells[1].store.Get(context.Background(), "ns", rid)
		return err == nil && len(got) == 1
	})
	if !ok {
		t.Fatal("item never stored")
	}
	ok = waitUntil(t, 5*time.Second, func() bool {
		got, err := cells[1].store.Get(context.Background(), "ns", rid)
		return err == nil && len(got) == 0
	})
	if !ok {
		t.Fatal("item never expired")
	}
}

func TestLScanSeesLocalItems(t *testing.T) {
	cells, _ := cluster(t, 6, 5)
	// Publish 30 distinct resources; each lands somewhere.
	for i := 0; i < 30; i++ {
		rid := id.HashString(fmt.Sprintf("scan-%d", i))
		cells[i%6].store.Put("scanspace", rid, []byte{byte(i)}, 10*time.Second)
	}
	ok := waitUntil(t, 5*time.Second, func() bool {
		total := 0
		for _, c := range cells {
			total += len(c.store.LScan("scanspace"))
		}
		// Replication multiplies copies; at least the 30 primaries
		// must exist.
		return total >= 30
	})
	if !ok {
		t.Fatal("lscan never saw the published items")
	}
}

func TestSubscribeNewData(t *testing.T) {
	cells, _ := cluster(t, 5, 6)
	var mu sync.Mutex
	arrivals := map[string]int{}
	for _, c := range cells {
		c.store.Subscribe("subns", func(it Item) {
			mu.Lock()
			arrivals[string(it.Payload)]++
			mu.Unlock()
		})
	}
	rid := id.HashString("sub-item")
	cells[0].store.Put("subns", rid, []byte("event"), 10*time.Second)
	ok := waitUntil(t, 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return arrivals["event"] >= 1
	})
	if !ok {
		t.Fatal("subscription never fired")
	}
}

func TestUnsubscribeStopsUpcalls(t *testing.T) {
	cells, _ := cluster(t, 3, 7)
	var mu sync.Mutex
	count := 0
	for _, c := range cells {
		c.store.Subscribe("u", func(Item) { mu.Lock(); count++; mu.Unlock() })
	}
	for _, c := range cells {
		c.store.Unsubscribe("u")
	}
	cells[0].store.Put("u", id.HashString("r"), []byte("x"), time.Second)
	time.Sleep(300 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if count != 0 {
		t.Fatalf("%d upcalls after unsubscribe", count)
	}
}

func TestDataSurvivesOwnerFailure(t *testing.T) {
	cells, net := cluster(t, 8, 8)
	rid := id.HashString("survivor")
	key := StorageKey("ns", rid)
	if err := cells[0].store.Put("ns", rid, []byte("precious"), 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if !waitUntil(t, 5*time.Second, func() bool {
		got, err := cells[1].store.Get(context.Background(), "ns", rid)
		return err == nil && len(got) == 1
	}) {
		t.Fatal("item never stored")
	}
	// Find and kill the owner.
	owner, _, err := cells[0].node.Lookup(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	net.SetDown(owner.Addr, true)
	var live []*cell
	for _, c := range cells {
		if c.node.Self().Addr != owner.Addr {
			live = append(live, c)
		}
	}
	// Replicas republish to the new owner; Get must succeed again.
	ok := waitUntil(t, 15*time.Second, func() bool {
		got, err := live[0].store.Get(context.Background(), "ns", rid)
		return err == nil && len(got) == 1 && string(got[0]) == "precious"
	})
	if !ok {
		t.Fatal("data lost after owner failure")
	}
}

func TestCountAndNamespaces(t *testing.T) {
	cells, _ := cluster(t, 1, 10)
	s := cells[0].store
	s.Put("n1", id.HashString("a"), []byte("1"), 10*time.Second)
	s.Put("n1", id.HashString("b"), []byte("2"), 10*time.Second)
	s.Put("n2", id.HashString("c"), []byte("3"), 10*time.Second)
	if !waitUntil(t, 2*time.Second, func() bool {
		return s.Count("n1") == 2 && s.Count("n2") == 1
	}) {
		t.Fatalf("counts wrong: n1=%d n2=%d", s.Count("n1"), s.Count("n2"))
	}
	if len(s.Namespaces()) != 2 {
		t.Fatalf("namespaces: %v", s.Namespaces())
	}
}

func TestGetFromOwnerItself(t *testing.T) {
	cells, _ := cluster(t, 1, 11)
	s := cells[0].store
	rid := id.HashString("self")
	s.Put("ns", rid, []byte("local"), 10*time.Second)
	if !waitUntil(t, 2*time.Second, func() bool {
		got, err := s.Get(context.Background(), "ns", rid)
		return err == nil && len(got) == 1
	}) {
		t.Fatal("single-node get failed")
	}
}

func TestExpiredItemNotServed(t *testing.T) {
	cells, _ := cluster(t, 1, 12)
	s := cells[0].store
	rid := id.HashString("stale")
	s.Put("ns", rid, []byte("x"), 50*time.Millisecond)
	time.Sleep(120 * time.Millisecond)
	// Even before the sweep runs, reads filter by expiry.
	got, err := s.Get(context.Background(), "ns", rid)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatal("expired item served")
	}
}

func TestStorageKeyDisambiguates(t *testing.T) {
	rid := id.HashString("r")
	if StorageKey("a", rid) == StorageKey("b", rid) {
		t.Fatal("namespace ignored in storage key")
	}
	if StorageKey("a", id.HashString("r1")) == StorageKey("a", id.HashString("r2")) {
		t.Fatal("resource ignored in storage key")
	}
}

func TestLScanPartsPartitionsPrimaries(t *testing.T) {
	cells, _ := cluster(t, 2, 7)
	c := cells[0]
	for i := 0; i < 25; i++ {
		rid := id.HashString(fmt.Sprintf("part-%d", i))
		c.store.PutLocal("parts", rid, []byte{byte(i)}, 10*time.Second)
	}
	whole := c.store.LScan("parts")
	for _, n := range []int{1, 3, 4, 100} {
		parts := c.store.LScanParts("parts", n)
		if n <= 25 && len(parts) != n {
			t.Fatalf("asked for %d parts, got %d", n, len(parts))
		}
		seen := map[string]bool{}
		total := 0
		for _, shard := range parts {
			if len(shard) == 0 {
				t.Fatalf("empty shard among %d", len(parts))
			}
			for _, payload := range shard {
				seen[string(payload)] = true
				total++
			}
		}
		if total != len(whole) || len(seen) != len(whole) {
			t.Fatalf("parts=%d covered %d items (%d distinct), LScan has %d",
				n, total, len(seen), len(whole))
		}
	}
	if parts := c.store.LScanParts("no-such-ns", 4); len(parts) != 0 {
		t.Fatalf("scan of empty namespace returned %d shards", len(parts))
	}
}

// scanned counts the copies of ns that a scan of every live cell sees.
func scanned(cells []*cell) int {
	n := 0
	for _, c := range cells {
		n += len(c.store.LScan("ns"))
	}
	return n
}

// TestRepublishDemotesStrayPrimary: a primary stored at a node that does
// not own its key (as a ring change can leave one) stays a primary while
// its republished route to the owner is lost, and steps down only once
// the owner, having stored it, pushes its copy back. A scan of every node
// sees the item once throughout, but for the moment between the owner
// storing it and the push arriving.
func TestRepublishDemotesStrayPrimary(t *testing.T) {
	cells, _ := clusterWith(t, 4, 9, testConfig(), true)
	rid := id.HashString("stray")
	key := StorageKey("ns", rid)
	// The stray holder is the owner's predecessor: outside the owner's
	// replica set, so only the holder's own acknowledgement reaches it.
	var stray, owner *cell
	for _, c := range cells {
		if c.node.Owns(key) {
			owner = c
		}
	}
	for _, c := range cells {
		if c.node.Successor().Addr == owner.node.Self().Addr {
			stray = c
		}
	}
	stray.gate.drop.Store(true)
	stray.store.storeLocal("ns", rid, []byte("row"), time.Now().Add(time.Minute), false, false)
	for end := time.Now().Add(4 * testConfig().RepublishEvery); time.Now().Before(end); time.Sleep(5 * time.Millisecond) {
		if n := scanned(cells); n != 1 {
			t.Fatalf("scans see %d copies while the route to the owner is lost, want 1", n)
		}
	}
	stray.gate.drop.Store(false)
	settled := func() bool {
		n := scanned(cells)
		if n == 0 {
			t.Fatal("no copy scanned while the stray primary moves to its owner")
		}
		return n == 1 && len(owner.store.LScan("ns")) == 1
	}
	if !waitUntil(t, 5*time.Second, settled) {
		t.Fatalf("%d copies scanned, owner's %d, want the owner's alone", scanned(cells), len(owner.store.LScan("ns")))
	}
}

// TestOwnedReplicaScannedAfterOwnerLeaves: when an item's owner leaves,
// its successor owns the key and scans the replica it holds, with no
// republish round to promote it; no other node scans one.
func TestOwnedReplicaScannedAfterOwnerLeaves(t *testing.T) {
	cfg := testConfig()
	cfg.RepublishEvery = time.Hour
	cells, _ := clusterWith(t, 5, 21, cfg, false)
	rid := id.HashString("kept")
	if err := cells[0].store.Put("ns", rid, []byte("row"), time.Minute); err != nil {
		t.Fatal(err)
	}
	if !waitUntil(t, 5*time.Second, func() bool { return scanned(cells) == 1 }) {
		t.Fatalf("%d copies scanned after the put, want 1", scanned(cells))
	}
	key := StorageKey("ns", rid)
	var survivors []*cell
	for _, c := range cells {
		if c.node.Owns(key) {
			c.store.Stop()
			c.node.Stop()
			continue
		}
		survivors = append(survivors, c)
	}
	if !waitUntil(t, 10*time.Second, func() bool { return ringConverged(survivors) }) {
		t.Fatal("survivors' ring did not close")
	}
	ok := waitUntil(t, 5*time.Second, func() bool {
		n := scanned(survivors)
		if n > 1 {
			t.Fatalf("%d copies scanned after the owner left, want 1", n)
		}
		return n == 1
	})
	if !ok {
		t.Fatal("no survivor scans the departed owner's item")
	}
}
