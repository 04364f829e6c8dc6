package batch

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/chord"
	"repro/internal/id"
	"repro/internal/overlay"
	"repro/internal/rpc"
	"repro/internal/simnet"
)

// The tests below run batchers over a real Chord ring, where a frame
// of join-like records (the tag with a frame upcall) goes straight to
// its cached owner through chord's RouteVia.

const viaTag = "j"

type ringNode struct {
	c   *chord.Node
	b   *Batcher
	got chan []Record // every delivery of viaTag records owned here
}

func (n *ringNode) addr() string { return n.c.Self().Addr }

// viaRing builds an n-node converged ring on simnet, each node behind a
// batcher that flushes at four records and whose owner cache does not
// expire within a test.
func viaRing(t *testing.T, n int) ([]*ringNode, *simnet.Network) {
	t.Helper()
	net := simnet.New(simnet.Config{})
	t.Cleanup(net.Close)
	cfg := chord.Config{
		SuccessorListLen: 4,
		StabilizeEvery:   10 * time.Millisecond,
		FixFingersEvery:  2 * time.Millisecond,
		CheckPredEvery:   20 * time.Millisecond,
		RPC:              rpc.Config{Timeout: 20 * time.Millisecond, Retries: 1},
	}
	nodes := make([]*ringNode, n)
	chords := make([]*chord.Node, n)
	for i := range nodes {
		ep, err := net.Endpoint(fmt.Sprintf("node%d", i))
		if err != nil {
			t.Fatal(err)
		}
		c := chord.New(ep, cfg)
		rn := &ringNode{c: c, b: New(c, Config{MaxRecords: 4, MaxDelay: time.Hour, OwnerTTL: time.Hour}), got: make(chan []Record, 16)}
		rn.b.SetDeliverFrame(viaTag, func(recs []Record) { rn.got <- recs })
		rn.b.SetDeliver(func(_ overlay.Node, key id.ID, tag string, payload []byte) {
			if tag == viaTag {
				rn.got <- []Record{{Key: key, Tag: tag, Payload: payload}}
			}
		})
		nodes[i], chords[i] = rn, c
	}
	t.Cleanup(func() {
		for _, c := range chords {
			c.Stop()
		}
	})
	for _, c := range chords[1:] {
		if err := c.Join(context.Background(), chords[0].Self().Addr); err != nil {
			t.Fatal(err)
		}
	}
	if err := chord.WaitConverged(chords, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	return nodes, net
}

func byAddr(nodes []*ringNode, addr string) *ringNode {
	for _, n := range nodes {
		if n.addr() == addr {
			return n
		}
	}
	return nil
}

// keyOwnedBy returns a key that want owns.
func keyOwnedBy(t *testing.T, want *ringNode) id.ID {
	t.Helper()
	for i := 0; i < 100000; i++ {
		if k := id.HashString(fmt.Sprintf("key%d", i)); want.c.Owns(k) {
			return k
		}
	}
	t.Fatalf("no key owned by %s", want.addr())
	return id.ID{}
}

// forwards sums chord route sends over the ring: one per datagram a
// routed message costs.
func forwards(nodes []*ringNode) uint64 {
	var sum uint64
	for _, n := range nodes {
		_, _, f, _ := n.c.MetricsSnapshot()
		sum += f
	}
	return sum
}

// routeFour routes four records of key from s (one full frame) and
// returns how many of them reach want, within a second.
func routeFour(t *testing.T, s, want *ringNode, key id.ID) int {
	t.Helper()
	for i := 0; i < 4; i++ {
		if err := s.b.Route(key, viaTag, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	s.b.Flush()
	n := 0
	deadline := time.After(time.Second)
	for n < 4 {
		select {
		case recs := <-want.got:
			n += len(recs)
		case <-deadline:
			return n
		}
	}
	return n
}

// warm caches key's owner at s: one record, delivered.
func warm(t *testing.T, s, owner *ringNode, key id.ID) {
	t.Helper()
	if err := s.b.Route(key, viaTag, []byte("warm")); err != nil {
		t.Fatal(err)
	}
	s.b.Flush()
	select {
	case <-owner.got:
	case <-time.After(time.Second):
		t.Fatal("the warming record never arrived")
	}
}

// TestJoinFrameToCachedOwnerIsOneDatagram: a frame of the frame-upcall
// tag to a cached owner that is not the sender's successor (so routing
// by key costs at least two hops) crosses the network once and reaches
// the owner's frame upcall whole.
func TestJoinFrameToCachedOwnerIsOneDatagram(t *testing.T) {
	nodes, _ := viaRing(t, 6)
	s := nodes[0]
	var owner *ringNode
	for _, n := range nodes[1:] {
		if n.addr() != s.c.Successor().Addr {
			owner = n
			break
		}
	}
	key := keyOwnedBy(t, owner)
	warm(t, s, owner, key)
	before := forwards(nodes)
	if got := routeFour(t, s, owner, key); got != 4 {
		t.Fatalf("%d of 4 records reached the owner", got)
	}
	if d := forwards(nodes) - before; d != 1 {
		t.Fatalf("the frame cost %d datagrams, want 1", d)
	}
}

// TestJoinFrameToStaleOwnerIsForwarded: when the cached owner no
// longer owns the key, it forwards the frame like any relay and every
// record still reaches the true owner.
func TestJoinFrameToStaleOwnerIsForwarded(t *testing.T) {
	nodes, _ := viaRing(t, 6)
	s := nodes[0]
	owner, stale := nodes[1], nodes[2]
	key := keyOwnedBy(t, owner)
	s.b.mu.Lock()
	s.b.owners[key] = ownerEntry{addr: stale.addr(), expires: time.Now().Add(time.Hour)}
	s.b.mu.Unlock()
	before := forwards(nodes)
	if got := routeFour(t, s, owner, key); got != 4 {
		t.Fatalf("%d of 4 records reached the true owner", got)
	}
	if d := forwards(nodes) - before; d < 2 {
		t.Fatalf("the frame cost %d datagrams, want the stale hop and more", d)
	}
	select {
	case recs := <-stale.got:
		t.Fatalf("the stale owner took %d records", len(recs))
	default:
	}
}

// TestJoinFrameToDeadOwnerRoutesByKey: once chord has marked the cached
// owner dead, a frame for it routes by key and reaches the key's new
// owner instead of vanishing into the dead address.
func TestJoinFrameToDeadOwnerRoutesByKey(t *testing.T) {
	nodes, net := viaRing(t, 6)
	s := nodes[0]
	dead := byAddr(nodes, s.c.Successor().Addr)
	key := keyOwnedBy(t, dead)
	warm(t, s, dead, key)
	net.SetDown(dead.addr(), true)
	waitUntil(t, "the sender to drop its dead successor", func() bool { return s.c.Successor().Addr != dead.addr() })
	heir := byAddr(nodes, s.c.Successor().Addr)
	waitUntil(t, "the heir to own the key", func() bool { return heir.c.Owns(key) })
	if got := routeFour(t, s, heir, key); got != 4 {
		t.Fatalf("%d of 4 records reached the key's new owner", got)
	}
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
