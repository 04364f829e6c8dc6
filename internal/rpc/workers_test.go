package rpc

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/simnet"
)

// TestWorkerNestedCallsUnbounded: every handler on both peers holds its
// worker until all 2×n of them run at once, then calls back to its
// caller. A worker set with any bound below that would deadlock.
func TestWorkerNestedCallsUnbounded(t *testing.T) {
	const n = 250
	a, b, _ := pair(t, Config{Timeout: 5 * time.Second}, simnet.Config{})
	defer a.Close()
	defer b.Close()
	var running atomic.Int32
	all := make(chan struct{})
	for _, p := range []*Peer{a, b} {
		p := p
		p.Handle("inner", func(_ string, req []byte) ([]byte, error) { return req, nil })
		p.Handle("outer", func(from string, req []byte) ([]byte, error) {
			if running.Add(1) == 2*n {
				close(all)
			}
			select {
			case <-all:
			case <-time.After(10 * time.Second):
				return nil, errors.New("the handlers never all ran at once")
			}
			return p.Call(context.Background(), from, "inner", req)
		})
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2*n)
	for i := 0; i < n; i++ {
		for _, c := range []struct {
			from *Peer
			to   string
		}{{a, "b"}, {b, "a"}} {
			wg.Add(1)
			go func(from *Peer, to string, i int) {
				defer wg.Done()
				want := fmt.Sprintf("%s-%d", to, i)
				resp, err := from.Call(context.Background(), to, "outer", []byte(want))
				if err == nil && string(resp) != want {
					err = fmt.Errorf("got %q, want %q", resp, want)
				}
				if err != nil {
					errs <- err
				}
			}(c.from, c.to, i)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// parkedCount reads how many of p's workers are parked.
func parkedCount(p *Peer) int {
	p.workers.mu.Lock()
	defer p.workers.mu.Unlock()
	return len(p.workers.parked)
}

// goid is the calling goroutine's id, from its stack header.
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return strings.Fields(string(buf))[1]
}

// TestWorkerReusesLastParked: a task goes to the most recently parked
// worker, not to a new goroutine.
func TestWorkerReusesLastParked(t *testing.T) {
	a, _, _ := pair(t, Config{}, simnet.Config{})
	defer a.Close()
	ids := make(chan string)
	a.Go(func() { ids <- goid() })
	first := <-ids
	deadline := time.Now().Add(2 * time.Second)
	for parkedCount(a) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	a.Go(func() { ids <- goid() })
	if got := parkedCount(a); got != 0 {
		t.Fatalf("%d workers parked with the only worker busy", got)
	}
	if second := <-ids; second != first {
		t.Fatalf("second task ran on goroutine %s, the parked worker is %s", second, first)
	}
}

// TestWorkerParkedCapped: after a burst of three times maxParked
// concurrent tasks, maxParked workers stay parked and the rest exit.
func TestWorkerParkedCapped(t *testing.T) {
	a, _, _ := pair(t, Config{}, simnet.Config{})
	defer a.Close()
	base := runtime.NumGoroutine()
	const burst = 3 * maxParked
	release := make(chan struct{})
	var started, done sync.WaitGroup
	started.Add(burst)
	done.Add(burst)
	for i := 0; i < burst; i++ {
		a.Go(func() {
			defer done.Done()
			started.Done()
			<-release
		})
	}
	started.Wait() // all burst tasks hold a worker at once
	if got := parkedCount(a); got != 0 {
		t.Fatalf("%d workers parked while every worker is busy", got)
	}
	close(release)
	done.Wait()
	deadline := time.Now().Add(2 * time.Second)
	for (parkedCount(a) < maxParked || runtime.NumGoroutine() > base+maxParked) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := parkedCount(a); got != maxParked {
		t.Fatalf("%d workers parked after the burst, want %d", got, maxParked)
	}
	if got := runtime.NumGoroutine() - base; got > maxParked {
		t.Fatalf("%d goroutines left after the burst, want at most the %d parked", got, maxParked)
	}
}

// TestWorkerCloseReturnsToBaseline: Close wakes every parked worker and
// waits for it, so after Close the process is back to the goroutines it
// had before the peers existed.
func TestWorkerCloseReturnsToBaseline(t *testing.T) {
	baseline := runtime.NumGoroutine()
	net := simnet.New(simnet.Config{})
	ea, _ := net.Endpoint("a")
	eb, _ := net.Endpoint("b")
	a, b := New(ea, Config{}), New(eb, Config{})
	b.Handle("echo", func(_ string, req []byte) ([]byte, error) { return req, nil })
	var wg sync.WaitGroup
	for i := 0; i < 2*maxParked; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := a.Call(context.Background(), "b", "echo", []byte("x")); err != nil {
				t.Error(err)
			}
		}()
		wg.Add(1)
		a.Go(func() { defer wg.Done(); time.Sleep(time.Millisecond) })
	}
	wg.Wait()
	if parkedCount(a)+parkedCount(b) == 0 {
		t.Fatal("no worker parked after the burst")
	}
	a.Close()
	b.Close()
	net.Close()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > baseline {
		t.Fatalf("%d goroutines after Close, %d before the peers existed", got, baseline)
	}
	// Go after Close still runs its task.
	ran := make(chan struct{})
	a.Go(func() { close(ran) })
	select {
	case <-ran:
	case <-time.After(2 * time.Second):
		t.Fatal("Go after Close never ran its task")
	}
}

// TestCallOnceNoRetransmit: a handler slower than the per-attempt
// timeout runs once under CallOnce, and the call still gets its reply.
func TestCallOnceNoRetransmit(t *testing.T) {
	a, b, _ := pair(t, Config{Timeout: 20 * time.Millisecond, Retries: 4}, simnet.Config{})
	defer a.Close()
	defer b.Close()
	var runs atomic.Int32
	b.Handle("slow", func(_ string, req []byte) ([]byte, error) {
		runs.Add(1)
		time.Sleep(100 * time.Millisecond)
		return req, nil
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := a.CallOnce(ctx, "b", "slow", []byte("once"))
	if err != nil || string(resp) != "once" {
		t.Fatalf("CallOnce = %q, %v", resp, err)
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("handler ran %d times, want 1", got)
	}
}
