package simnet

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestInboxOverflowDropAccounting(t *testing.T) {
	n := New(Config{InboxDepth: 4})
	defer n.Close()
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")

	// Block the receiver's dispatch loop so the inbox fills.
	block := make(chan struct{})
	var handled atomic.Uint64
	b.SetHandler(func(string, []byte) {
		<-block
		handled.Add(1)
	})

	// 1 message stuck in the handler + 4 queued = 5 absorbed; the
	// rest must be dropped with Dropped incremented, not blocked.
	const total = 25
	for i := 0; i < total; i++ {
		if err := a.Send("b", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool {
		s := n.Stats()
		return s.Dropped >= total-5
	})
	close(block)
	waitFor(t, func() bool {
		s := n.Stats()
		return s.Delivered+s.Dropped == total
	})
	s := n.Stats()
	if s.Sent != total {
		t.Fatalf("sent %d, want %d", s.Sent, total)
	}
	if s.Dropped == 0 || s.Delivered == 0 {
		t.Fatalf("expected both drops and deliveries, got %+v", s)
	}
	if s.Delivered > 5 {
		t.Fatalf("delivered %d through a depth-4 inbox with a blocked handler", s.Delivered)
	}
}

func TestSetDownConcurrentWithTraffic(t *testing.T) {
	// Race-detector exercise: flap a node while senders hammer it.
	n := New(Config{})
	defer n.Close()
	dst, _ := n.Endpoint("dst")
	var got atomic.Uint64
	dst.SetHandler(func(string, []byte) { got.Add(1) })
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		ep, _ := n.Endpoint(fmt.Sprintf("s%d", i))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				ep.Send("dst", []byte("m"))
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 50; j++ {
			n.SetDown("dst", j%2 == 0)
			n.IsDown("dst")
		}
		n.SetDown("dst", false)
	}()
	wg.Wait()
	waitFor(t, func() bool {
		s := n.Stats()
		return s.Delivered+s.Dropped == 800
	})
}

func TestPartitionHealConcurrentWithTraffic(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	var got atomic.Uint64
	b.SetHandler(func(string, []byte) { got.Add(1) })
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for j := 0; j < 300; j++ {
			a.Send("b", []byte("m"))
		}
	}()
	go func() {
		defer wg.Done()
		for j := 0; j < 50; j++ {
			n.Partition([]string{"a"})
			n.Heal()
		}
	}()
	wg.Wait()
	n.Heal()
	waitFor(t, func() bool {
		s := n.Stats()
		return s.Delivered+s.Dropped == 300
	})
}

func TestLatencyStormStretchesDelivery(t *testing.T) {
	n := New(Config{MinLatency: 5 * time.Millisecond, MaxLatency: 5 * time.Millisecond})
	defer n.Close()
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	var arrived atomic.Uint64
	b.SetHandler(func(string, []byte) { arrived.Add(1) })

	n.SetLatencyFactor(10) // 5ms -> 50ms
	start := time.Now()
	a.Send("b", []byte("x"))
	waitFor(t, func() bool { return arrived.Load() == 1 })
	if el := time.Since(start); el < 45*time.Millisecond {
		t.Fatalf("storm latency %v, want >= ~50ms", el)
	}
	n.SetLatencyFactor(1)
	if f := n.LatencyFactor(); f != 1 {
		t.Fatalf("factor after restore = %v", f)
	}
	start = time.Now()
	a.Send("b", []byte("y"))
	waitFor(t, func() bool { return arrived.Load() == 2 })
	if el := time.Since(start); el > 40*time.Millisecond {
		t.Fatalf("latency %v still stormy after restore", el)
	}
}

func TestGenerateScriptDeterministic(t *testing.T) {
	nodes := make([]string, 32)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("node%d", i)
	}
	rates := ChurnRates{
		CrashPerMin:     0.5, // high rate so the script is non-trivial
		PartitionPerMin: 2,
		StormPerMin:     2,
	}
	s1 := GenerateScript(nodes, 30*time.Second, rates, 42)
	s2 := GenerateScript(nodes, 30*time.Second, rates, 42)
	if len(s1) == 0 {
		t.Fatal("expected a non-empty script at these rates")
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("same seed produced different scripts")
	}
	s3 := GenerateScript(nodes, 30*time.Second, rates, 43)
	if reflect.DeepEqual(s1, s3) {
		t.Fatal("different seeds produced identical scripts")
	}
	// Sorted by time, and every crash has a paired rejoin.
	crashes, rejoins := 0, 0
	for i, ev := range s1 {
		if i > 0 && ev.At < s1[i-1].At {
			t.Fatal("script not time-ordered")
		}
		switch ev.Kind {
		case ChurnCrash:
			crashes++
		case ChurnRejoin:
			rejoins++
		}
	}
	if crashes == 0 || crashes != rejoins {
		t.Fatalf("crashes=%d rejoins=%d, want equal and > 0", crashes, rejoins)
	}
}

// TestGenerateScriptNoOverlap: at rates that make overlap likely (a
// partition or storm started about every second, each lasting longer),
// no event starts while one of its kind is active. A partition
// starting before the previous heal would be ended early by that heal,
// and a storm starting before the previous one ends would have its
// factor reset by the earlier storm's end timer.
func TestGenerateScriptNoOverlap(t *testing.T) {
	nodes := make([]string, 16)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("node%d", i)
	}
	rates := ChurnRates{
		CrashPerMin:     6,
		PartitionPerMin: 60,
		HealAfter:       2 * time.Second,
		StormPerMin:     60,
		StormFor:        time.Second,
	}
	for seed := int64(1); seed <= 20; seed++ {
		script := GenerateScript(nodes, 2*time.Minute, rates, seed)
		var partitions, storms int
		var parted bool
		var healAt, calmAt time.Duration
		down := map[string]bool{}
		rejoinAt := map[string]time.Duration{}
		for _, ev := range script {
			switch ev.Kind {
			case ChurnCrash:
				nd := ev.Nodes[0]
				if down[nd] || (rejoinAt[nd] > 0 && ev.At <= rejoinAt[nd]) {
					t.Fatalf("seed %d: %s crashes at %v while down", seed, nd, ev.At)
				}
				down[nd] = true
			case ChurnRejoin:
				down[ev.Nodes[0]] = false
				rejoinAt[ev.Nodes[0]] = ev.At
			case ChurnPartition:
				partitions++
				if parted || (partitions > 1 && ev.At <= healAt) {
					t.Fatalf("seed %d: partition at %v before the previous one heals", seed, ev.At)
				}
				parted = true
			case ChurnHeal:
				parted = false
				healAt = ev.At
			case ChurnLatencyStorm:
				storms++
				if storms > 1 && ev.At <= calmAt {
					t.Fatalf("seed %d: storm at %v before the previous one ends at %v", seed, ev.At, calmAt)
				}
				calmAt = ev.At + ev.Dur
			}
		}
		if partitions < 10 || storms < 10 {
			t.Fatalf("seed %d: %d partitions, %d storms; the rates should force many", seed, partitions, storms)
		}
	}
}

func TestChurnerReplaysScript(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	for i := 0; i < 4; i++ {
		n.Endpoint(fmt.Sprintf("node%d", i))
	}
	script := ChurnScript{
		{At: 5 * time.Millisecond, Kind: ChurnCrash, Nodes: []string{"node1"}},
		{At: 10 * time.Millisecond, Kind: ChurnPartition, Groups: [][]string{{"node2"}}},
		{At: 20 * time.Millisecond, Kind: ChurnLatencyStorm, Factor: 4, Dur: 10 * time.Millisecond},
		{At: 30 * time.Millisecond, Kind: ChurnHeal},
		{At: 35 * time.Millisecond, Kind: ChurnRejoin, Nodes: []string{"node1"}},
	}
	c := NewChurner(n, script)
	c.Start()

	waitFor(t, func() bool { return n.IsDown("node1") })
	waitFor(t, func() bool { return !n.IsDown("node1") })
	c.Stop()

	applied := c.Applied()
	if len(applied) != len(script) {
		t.Fatalf("applied %d of %d events", len(applied), len(script))
	}
	for i, ev := range applied {
		if ev.Kind != script[i].Kind {
			t.Fatalf("event %d applied out of order: %v vs %v", i, ev.Kind, script[i].Kind)
		}
	}
	if f := n.LatencyFactor(); f != 1 {
		t.Fatalf("latency factor %v after storm expiry", f)
	}
	if n.IsDown("node1") {
		t.Fatal("node1 still down after rejoin")
	}
}

func TestChurnerStopCancelsPending(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	n.Endpoint("node0")
	c := NewChurner(n, ChurnScript{
		{At: 10 * time.Second, Kind: ChurnCrash, Nodes: []string{"node0"}},
	})
	c.Start()
	c.Stop()
	if n.IsDown("node0") {
		t.Fatal("cancelled event still fired")
	}
	if len(c.Applied()) != 0 {
		t.Fatal("applied log non-empty after immediate stop")
	}
	c.Stop() // idempotent
}
