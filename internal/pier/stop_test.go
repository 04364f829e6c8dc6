package pier

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/simnet"
	"repro/internal/tuple"
)

// TestStopMidQueryNoLeak stops a whole cluster while a one-shot
// aggregate and a continuous query are both in flight: the query
// calls must return (not hang), the continuous results channel must
// close so its consumer unblocks, nothing may panic, and the process
// must come back to its pre-cluster goroutine count — i.e. Stop
// drains in-flight queries and collector pipelines rather than
// tearing the store and router down under them.
func TestStopMidQueryNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	net := simnet.New(slowNet(7))
	defer net.Close()
	const N = 5
	cfg := testNodeConfig()
	nodes := make([]*Node, N)
	for i := 0; i < N; i++ {
		ep, err := net.Endpoint(fmt.Sprintf("node%d", i))
		if err != nil {
			t.Fatal(err)
		}
		nodes[i], err = NewNode(ep, cfg)
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < N; i++ {
		if err := nodes[i].Join(context.Background(), nodes[0].Addr()); err != nil {
			t.Fatal(err)
		}
	}
	waitOverlay(t, nodes)
	defineEverywhere(t, nodes, trafficSchema, time.Minute)
	for i, nd := range nodes {
		err := nd.PublishLocal("traffic", tuple.Tuple{
			tuple.String(nd.Addr()), tuple.Float(float64(10 * (i + 1))),
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	// A continuous query whose consumer blocks on the results channel.
	cont, err := nodes[0].QueryContinuous(context.Background(),
		"SELECT COUNT(*) FROM traffic WINDOW 200 ms SLIDE 200 ms")
	if err != nil {
		t.Fatal(err)
	}
	contDone := make(chan struct{})
	go func() {
		defer close(contDone)
		for range cont.Results() {
		}
	}()

	// A one-shot aggregate launched just before the teardown: on the
	// slow network it runs ≈400ms, so stopping ~50ms in catches it
	// mid-query.
	oneDone := make(chan struct{})
	go func() {
		defer close(oneDone)
		_, _ = nodes[1].Query(context.Background(), "SELECT node, SUM(rate) FROM traffic GROUP BY node")
	}()
	time.Sleep(50 * time.Millisecond)

	var wg sync.WaitGroup
	for _, nd := range nodes {
		wg.Add(1)
		go func(nd *Node) {
			defer wg.Done()
			nd.Stop()
		}(nd)
	}
	stopped := make(chan struct{})
	go func() { wg.Wait(); close(stopped) }()

	for name, ch := range map[string]chan struct{}{
		"Stop calls": stopped, "one-shot query": oneDone, "continuous consumer": contDone,
	} {
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s did not finish after Stop", name)
		}
	}
	net.Close()

	// The goroutine count must settle back to (about) the baseline.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before+3 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(25 * time.Millisecond)
	}
}
