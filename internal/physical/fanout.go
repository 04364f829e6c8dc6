package physical

import (
	"context"
	"sync"
	"time"

	"repro/internal/dataflow"
	"repro/internal/tuple"
)

// FanOutWindow is one complete window delivered to a shared-scan
// subscriber: the window's sequence number and its finalized rows.
// Rows are immutable and shared between subscribers.
type FanOutWindow struct {
	Seq  uint64
	Rows []tuple.Tuple
}

// FanOut is the shared-scan distribution point: one upstream window
// pipeline feeds it, and N subscribers (the concurrent continuous
// queries over the same table) each receive every window on their own
// buffered channel. Delivery is drop-on-full per subscriber — the
// same stay-live semantics a dedicated continuous query gives a
// client that stops draining — so one slow consumer never stalls the
// shared pipeline or its siblings.
type FanOut struct {
	mu     sync.Mutex
	subs   map[int]chan FanOutWindow
	next   int
	closed bool
}

// NewFanOut creates a fan-out point with no subscribers.
func NewFanOut() *FanOut {
	return &FanOut{subs: make(map[int]chan FanOutWindow)}
}

// Subscribe registers a consumer and returns its id (for Unsubscribe)
// and window channel. The channel buffers buf windows (<= 0 takes 64,
// matching a dedicated continuous query's results channel) and closes
// when the shared pipeline ends. Subscribing after close returns a
// closed channel.
func (f *FanOut) Subscribe(buf int) (int, <-chan FanOutWindow) {
	if buf <= 0 {
		buf = 64
	}
	ch := make(chan FanOutWindow, buf)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		close(ch)
		return -1, ch
	}
	id := f.next
	f.next++
	f.subs[id] = ch
	return id, ch
}

// Unsubscribe detaches a consumer and closes its channel, returning
// how many subscribers remain (the caller tears the shared query down
// at zero).
func (f *FanOut) Unsubscribe(id int) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	if ch, ok := f.subs[id]; ok {
		delete(f.subs, id)
		close(ch)
	}
	return len(f.subs)
}

// Count returns the current subscriber count.
func (f *FanOut) Count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.subs)
}

// Close ends every subscription (idempotent); late Subscribe calls
// get an already-closed channel.
func (f *FanOut) Close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	f.closed = true
	for id, ch := range f.subs {
		delete(f.subs, id)
		close(ch)
	}
}

// deliver hands one window to every live subscriber, dropping it for
// subscribers whose buffer is full. Returns the number of successful
// deliveries.
func (f *FanOut) deliver(w FanOutWindow) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, ch := range f.subs {
		select {
		case ch <- w:
			n++
		default: // subscriber not draining: drop the window, stay live
		}
	}
	return n
}

// Op returns the operator body: each incoming data message is one
// complete window (Seq = window sequence) whose tuples are broadcast
// to every subscriber. The operator owns stream termination — when
// the upstream pipeline ends or the graph is cancelled, every
// subscriber channel closes.
func (f *FanOut) Op() OpFunc {
	return func(c *Counters) dataflow.RunFunc {
		return func(ctx context.Context, ins []<-chan dataflow.Msg, outs []chan<- dataflow.Msg) error {
			defer f.Close()
			for m := range dataflow.Merge(ctx, ins) {
				if m.Kind != dataflow.Data {
					c.RecvPunct()
					continue
				}
				start := time.Now()
				c.RecvRows(len(m.Batch))
				// Subscribers retain the rows past this message, so they
				// get their own slice and the batch container recycles.
				rows := append([]tuple.Tuple(nil), m.Batch...)
				dataflow.PutBatch(m.Batch)
				n := f.deliver(FanOutWindow{Seq: m.Seq, Rows: rows})
				c.EmitRows(n*len(rows), 0)
				c.Busy(start)
			}
			return nil
		}
	}
}
