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

func pair(t *testing.T, cfg Config, netCfg simnet.Config) (*Peer, *Peer, *simnet.Network) {
	t.Helper()
	n := simnet.New(netCfg)
	t.Cleanup(n.Close)
	ea, err := n.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	eb, err := n.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	return New(ea, cfg), New(eb, cfg), n
}

func TestCallRoundTrip(t *testing.T) {
	a, b, _ := pair(t, Config{}, simnet.Config{})
	b.Handle("echo", func(from string, req []byte) ([]byte, error) {
		return append([]byte("echo:"), req...), nil
	})
	resp, err := a.Call(context.Background(), "b", "echo", []byte("hi"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "echo:hi" {
		t.Fatalf("got %q", resp)
	}
}

func TestRemoteError(t *testing.T) {
	a, b, _ := pair(t, Config{}, simnet.Config{})
	b.Handle("boom", func(string, []byte) ([]byte, error) {
		return nil, errors.New("kaput")
	})
	_, err := a.Call(context.Background(), "b", "boom", nil)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("got %v, want RemoteError", err)
	}
	if re.Msg != "kaput" || re.Method != "boom" {
		t.Fatalf("remote error %+v", re)
	}
}

func TestUnknownMethod(t *testing.T) {
	a, _, _ := pair(t, Config{}, simnet.Config{})
	_, err := a.Call(context.Background(), "b", "nope", nil)
	var re *RemoteError
	if !errors.As(err, &re) || !strings.Contains(re.Msg, "unknown method") {
		t.Fatalf("got %v", err)
	}
}

func TestRetryRecoversFromLoss(t *testing.T) {
	// 40% loss; 5 retries make success overwhelmingly likely.
	a, b, _ := pair(t,
		Config{Timeout: 30 * time.Millisecond, Retries: 8},
		simnet.Config{LossRate: 0.4, Seed: 42})
	var calls atomic.Int32
	b.Handle("inc", func(string, []byte) ([]byte, error) {
		calls.Add(1)
		return []byte("ok"), nil
	})
	resp, err := a.Call(context.Background(), "b", "inc", nil)
	if err != nil {
		t.Fatalf("call failed under loss: %v", err)
	}
	if string(resp) != "ok" {
		t.Fatalf("got %q", resp)
	}
	// Handler may run more than once (retransmits) — that's the
	// documented idempotence contract, not a bug.
	if calls.Load() < 1 {
		t.Fatal("handler never ran")
	}
}

func TestTimeoutWhenPeerSilent(t *testing.T) {
	a, _, n := pair(t, Config{Timeout: 20 * time.Millisecond, Retries: 1}, simnet.Config{})
	n.SetDown("b", true)
	start := time.Now()
	_, err := a.Call(context.Background(), "b", "echo", nil)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("got %v, want ErrTimeout", err)
	}
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
		t.Fatalf("returned after %v, want >= 2 attempts x 20ms", elapsed)
	}
}

func TestContextCancel(t *testing.T) {
	a, _, n := pair(t, Config{Timeout: time.Second}, simnet.Config{})
	n.SetDown("b", true)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := a.Call(ctx, "b", "echo", nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v", err)
	}
}

func TestNotify(t *testing.T) {
	a, b, _ := pair(t, Config{}, simnet.Config{})
	var mu sync.Mutex
	var got []string
	b.Handle("event", func(from string, req []byte) ([]byte, error) {
		mu.Lock()
		got = append(got, string(req))
		mu.Unlock()
		return nil, nil
	})
	if err := a.Notify("b", "event", []byte("e1")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n == 1 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("notify never arrived")
}

func TestCallAfterClose(t *testing.T) {
	a, _, _ := pair(t, Config{}, simnet.Config{})
	a.Close()
	if _, err := a.Call(context.Background(), "b", "echo", nil); err != ErrClosed {
		t.Fatalf("got %v", err)
	}
	if err := a.Notify("b", "x", nil); err != ErrClosed {
		t.Fatalf("notify after close: %v", err)
	}
	a.Close() // idempotent
}

func TestCloseFailsInflight(t *testing.T) {
	a, _, n := pair(t, Config{Timeout: 5 * time.Second, Retries: 0}, simnet.Config{})
	n.SetDown("b", true)
	done := make(chan error, 1)
	go func() {
		_, err := a.Call(context.Background(), "b", "echo", nil)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	a.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("in-flight call got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("in-flight call not released by Close")
	}
}

func TestConcurrentCalls(t *testing.T) {
	a, b, _ := pair(t, Config{}, simnet.Config{MaxLatency: 2 * time.Millisecond})
	b.Handle("id", func(from string, req []byte) ([]byte, error) {
		return req, nil
	})
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			want := fmt.Sprintf("req-%d", i)
			resp, err := a.Call(context.Background(), "b", "id", []byte(want))
			if err != nil {
				errs <- err
				return
			}
			if string(resp) != want {
				errs <- fmt.Errorf("cross-talk: got %q want %q", resp, want)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestNestedCall(t *testing.T) {
	// c asks b, whose handler asks a — exercises handler-goroutine
	// reentrancy.
	n := simnet.New(simnet.Config{})
	t.Cleanup(n.Close)
	mk := func(name string) *Peer {
		ep, err := n.Endpoint(name)
		if err != nil {
			t.Fatal(err)
		}
		return New(ep, Config{})
	}
	a, b, c := mk("a"), mk("b"), mk("c")
	a.Handle("leaf", func(string, []byte) ([]byte, error) { return []byte("A"), nil })
	b.Handle("mid", func(string, []byte) ([]byte, error) {
		resp, err := b.Call(context.Background(), "a", "leaf", nil)
		if err != nil {
			return nil, err
		}
		return append(resp, 'B'), nil
	})
	resp, err := c.Call(context.Background(), "b", "mid", nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "AB" {
		t.Fatalf("got %q", resp)
	}
}

func TestCorruptFrameIgnored(t *testing.T) {
	n := simnet.New(simnet.Config{})
	t.Cleanup(n.Close)
	ea, _ := n.Endpoint("a")
	eb, _ := n.Endpoint("b")
	raw := ea // keep raw access for injecting garbage
	peer := New(eb, Config{})
	peer.Handle("echo", func(from string, req []byte) ([]byte, error) { return req, nil })
	// Garbage must not crash the peer.
	raw.SetHandler(func(string, []byte) {})
	raw.Send("b", []byte{0xff, 0x01})
	raw.Send("b", []byte{})
	time.Sleep(10 * time.Millisecond)
	// Peer still functional afterwards.
	n2, _ := n.Endpoint("caller")
	caller := New(n2, Config{})
	if _, err := caller.Call(context.Background(), "b", "echo", []byte("alive")); err != nil {
		t.Fatalf("peer dead after garbage: %v", err)
	}
}

// TestRetransmitSharesRequest: a retransmitted Call reaches the handler
// twice as one shared slice of the datagram, the second run starting
// while the first still reads it. Under -race this holds the contract
// that nothing writes into a request once sent.
func TestRetransmitSharesRequest(t *testing.T) {
	a, b, _ := pair(t, Config{Timeout: 20 * time.Millisecond, Retries: 3}, simnet.Config{})
	want := []byte("a request read by two runs at once")
	var runs atomic.Int32
	second := make(chan struct{})
	firstBuf := make(chan []byte, 1)
	b.Handle("slow", func(from string, req []byte) ([]byte, error) {
		if runs.Add(1) == 1 {
			firstBuf <- req
			// Keep reading until the retransmission's run has started.
			for {
				select {
				case <-second:
					return append([]byte(nil), req...), nil
				default:
					if string(req) != string(want) {
						return nil, fmt.Errorf("first run read %q", req)
					}
					runtime.Gosched()
				}
			}
		}
		first := <-firstBuf
		if &first[0] != &req[0] {
			t.Error("the retransmitted request was copied, want the same slice")
		}
		if string(req) != string(want) {
			t.Errorf("second run read %q", req)
		}
		close(second)
		return append([]byte(nil), req...), nil
	})
	resp, err := a.Call(context.Background(), "b", "slow", want)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != string(want) {
		t.Fatalf("got %q", resp)
	}
	if n := runs.Load(); n < 2 {
		t.Fatalf("handler ran %d times, want the retransmission too", n)
	}
}

// notifyAllocs is what a one-way datagram allocates from Notify
// through simnet to the handler's return: the frame, simnet's delivery
// closure, and the task handed to a parked worker. The body reaches the
// handler uncopied and the method name is looked up without a string.
const notifyAllocs = 3

// TestNotifyAllocs holds a one-way datagram to notifyAllocs.
func TestNotifyAllocs(t *testing.T) {
	a, b, _ := pair(t, Config{}, simnet.Config{})
	done := make(chan struct{})
	b.Handle("sink", func(string, []byte) ([]byte, error) {
		done <- struct{}{}
		return nil, nil
	})
	payload := make([]byte, 4096)
	send := func() {
		if err := a.Notify("b", "sink", payload); err != nil {
			t.Fatal(err)
		}
		<-done
	}
	send() // start the worker the handler parks on
	if allocs := testing.AllocsPerRun(200, send); allocs > notifyAllocs {
		t.Fatalf("a one-way datagram allocates %.1f times, want <= %d", allocs, notifyAllocs)
	}
}
