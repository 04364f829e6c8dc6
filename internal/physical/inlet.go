package physical

import (
	"context"
	"sync"

	"repro/internal/dataflow"
)

// Inlet feeds network arrivals into a running pipeline without ever
// blocking the caller. The transport delivers messages from a single
// dispatch goroutine per node — if a collector pipeline applied
// backpressure there, the node could deadlock against its own
// in-flight RPCs — so Push appends to an elastic queue and the
// pipeline's source drains it in arrival order.
type Inlet struct {
	mu     sync.Mutex
	queue  []dataflow.Msg
	closed bool
	notify chan struct{}
}

// NewInlet creates an empty inlet.
func NewInlet() *Inlet {
	return &Inlet{notify: make(chan struct{}, 1)}
}

// Push enqueues one message. Never blocks; messages pushed after
// Close are dropped.
func (in *Inlet) Push(m dataflow.Msg) {
	in.mu.Lock()
	if in.closed {
		in.mu.Unlock()
		return
	}
	in.queue = append(in.queue, m)
	in.mu.Unlock()
	select {
	case in.notify <- struct{}{}:
	default:
	}
}

// Close ends the stream: the source drains what is queued and returns.
func (in *Inlet) Close() {
	in.mu.Lock()
	in.closed = true
	in.mu.Unlock()
	select {
	case in.notify <- struct{}{}:
	default:
	}
}

// Source returns the operator body that drains the inlet until it is
// closed (or the graph is cancelled).
func (in *Inlet) Source(c *Counters) dataflow.RunFunc {
	return func(ctx context.Context, ins []<-chan dataflow.Msg, outs []chan<- dataflow.Msg) error {
		for {
			in.mu.Lock()
			batch := in.queue
			in.queue = nil
			closed := in.closed
			in.mu.Unlock()
			for _, m := range batch {
				if m.Kind == dataflow.Data {
					c.RecvRows(len(m.Batch))
					c.EmitBatch(m.Batch)
				} else {
					c.RecvPunct()
				}
				if !dataflow.EmitAll(ctx, outs, m) {
					return nil
				}
			}
			if len(batch) == 0 && closed {
				return nil
			}
			if len(batch) > 0 {
				continue // re-check before sleeping
			}
			select {
			case <-in.notify:
			case <-ctx.Done():
				return nil
			}
		}
	}
}
