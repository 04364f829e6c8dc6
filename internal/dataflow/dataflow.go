// Package dataflow is PIER's generic "boxes and arrows" execution
// engine: operators are boxes running as goroutines, arrows are
// bounded channels carrying batches of tuples and punctuations. The
// engine supports trees and DAGs, one-shot queries (terminated by
// end-of-stream) and continuous queries (terminated by cancellation).
package dataflow

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/tuple"
)

// MsgKind distinguishes stream elements.
type MsgKind uint8

const (
	// Data carries a batch of tuples.
	Data MsgKind = iota
	// Punct is a punctuation: a promise that no tuple belonging to
	// window Seq (closed at Time) will arrive later on this edge.
	// Continuous aggregates emit their results upon punctuation.
	Punct
	// Drain is an end-of-stream marker injected into a running
	// streaming pipeline (Seq carries the drain round, not a window).
	// Operators flush any held state for it and forward it in FIFO
	// order; sinks acknowledge it once every effect of the data that
	// preceded it has left the pipeline. Drain never crosses the
	// network — it exists only inside one node's graphs.
	Drain
)

// Msg is one stream element. A Data message carries its tuples — one
// or many — in Batch, all stamped with the same Seq (and, for samples
// of a continuous query, the same arrival Time). Punctuations and drain
// markers carry no tuples.
//
// Batch ownership rule (the batch-reuse contract every operator obeys):
//
//   - Emitting a message transfers ownership of the Batch *container*
//     (the []tuple.Tuple slice) to the receiver. The sender must not
//     read, mutate, or recycle the slice after the emit. The receiver
//     may compact it in place, forward it downstream, or recycle it
//     with PutBatch once it is done — but only if it keeps no
//     reference to the container.
//   - The *tuples* inside (and their backing values) are immutable
//     from the moment they are first emitted. Operators may therefore
//     retain tuples past the message lifetime (join hash tables,
//     window buffers, aggregation groups, ship batches) without
//     cloning: recycling a container reuses only the slot array, never
//     the tuple contents. Conversely, no operator may build an output
//     tuple that will later be mutated in place (Concat/Project must
//     allocate fresh tuples, never write through into input backing
//     arrays).
//   - EmitAll enforces the single-owner rule on fan-out: when a data
//     message goes to more than one output, every output but the last
//     receives a copy of the container.
type Msg struct {
	Kind  MsgKind
	Batch []tuple.Tuple
	Seq   uint64
	Time  time.Time
}

// BatchMsg wraps a batch of tuples sharing one window stamp. The
// container is owned by the receiver once emitted (see Msg).
func BatchMsg(ts []tuple.Tuple, seq uint64) Msg {
	return Msg{Kind: Data, Batch: ts, Seq: seq}
}

// PunctMsg builds a punctuation for window seq closing at ts.
func PunctMsg(seq uint64, ts time.Time) Msg {
	return Msg{Kind: Punct, Seq: seq, Time: ts}
}

// DrainMsg builds an end-of-stream marker for one drain round.
func DrainMsg(round uint64) Msg {
	return Msg{Kind: Drain, Seq: round}
}

// ---------------------------------------------------------------------------
// Batch container pool

// batchPool recycles batch containers (the []tuple.Tuple slot arrays)
// so steady-state batch flow allocates nothing. Only containers are
// pooled — never the tuples inside, which stay immutable once emitted.
var batchPool = sync.Pool{
	New: func() any { return make([]tuple.Tuple, 0, DefaultBatchSize) },
}

// DefaultBatchSize is the tuples-per-message capacity hint the pool
// allocates at and the engine's default vectorization width.
const DefaultBatchSize = 256

// GetBatch returns an empty batch container from the pool.
func GetBatch() []tuple.Tuple {
	return batchPool.Get().([]tuple.Tuple)[:0]
}

// pooledBatchMaxCap bounds the containers the pool retains: a batch
// that grew far past the default width (one skewed join output) is
// dropped rather than pinned and handed back for ordinary batches.
const pooledBatchMaxCap = 16 * DefaultBatchSize

// PutBatch recycles a container. The caller must own it (see the Msg
// ownership rule) and must not touch it afterwards. Slots are cleared
// so the pool does not pin tuple memory.
func PutBatch(b []tuple.Tuple) {
	if cap(b) == 0 || cap(b) > pooledBatchMaxCap {
		return
	}
	b = b[:cap(b)]
	for i := range b {
		b[i] = nil
	}
	batchPool.Put(b[:0])
}

// RunFunc is an operator body. It reads its inputs until they are
// closed (or ctx is cancelled), writes to its outputs, and returns.
// The engine closes the output channels after the body returns; the
// body must never close them itself.
type RunFunc func(ctx context.Context, ins []<-chan Msg, outs []chan<- Msg) error

// Node is one operator instance in a graph.
type Node struct {
	name string
	run  RunFunc
	ins  []chan Msg
	outs []chan Msg
}

// Name returns the operator's display name.
func (n *Node) Name() string { return n.name }

// DefaultEdgeDepth is the bounded-channel capacity of an arrow,
// providing backpressure between operators.
const DefaultEdgeDepth = 64

// Graph is a dataflow query plan under construction or execution.
type Graph struct {
	name    string
	nodes   []*Node
	started bool
	spawn   func(func())
}

// New creates an empty graph.
func New(name string) *Graph { return &Graph{name: name} }

// SetGo makes Start run every operator, and the waiter that closes
// Done, through spawn — a node's reusable worker set — instead of a
// fresh goroutine each. Nil restores the go statement.
func (g *Graph) SetGo(spawn func(func())) { g.spawn = spawn }

// Add appends an operator to the graph.
func (g *Graph) Add(name string, run RunFunc) *Node {
	n := &Node{name: name, run: run}
	g.nodes = append(g.nodes, n)
	return n
}

// Connect wires a new output port of from to a new input port of to
// with a bounded channel.
func (g *Graph) Connect(from, to *Node) {
	ch := make(chan Msg, DefaultEdgeDepth)
	from.outs = append(from.outs, ch)
	to.ins = append(to.ins, ch)
}

// Running is a started graph.
type Running struct {
	cancel context.CancelFunc
	done   chan struct{}
	mu     sync.Mutex
	err    error
}

// Start launches every operator (see SetGo). The returned handle waits
// for completion or stops the graph.
func (g *Graph) Start(parent context.Context) (*Running, error) {
	if g.started {
		return nil, fmt.Errorf("dataflow: graph %s already started", g.name)
	}
	g.started = true
	spawn := g.spawn
	if spawn == nil {
		spawn = func(f func()) { go f() }
	}
	ctx, cancel := context.WithCancel(parent)
	r := &Running{cancel: cancel, done: make(chan struct{})}
	var wg sync.WaitGroup
	for _, n := range g.nodes {
		n := n
		wg.Add(1)
		spawn(func() {
			defer wg.Done()
			ins := make([]<-chan Msg, len(n.ins))
			for i, c := range n.ins {
				ins[i] = c
			}
			outs := make([]chan<- Msg, len(n.outs))
			for i, c := range n.outs {
				outs[i] = c
			}
			err := n.run(ctx, ins, outs)
			for _, c := range n.outs {
				close(c)
			}
			if err != nil && !errors.Is(err, context.Canceled) {
				r.mu.Lock()
				if r.err == nil {
					r.err = fmt.Errorf("dataflow: operator %s: %w", n.name, err)
				}
				r.mu.Unlock()
				cancel() // fail fast: tear the whole graph down
			}
		})
	}
	spawn(func() {
		wg.Wait()
		cancel()
		close(r.done)
	})
	return r, nil
}

// Wait blocks until every operator has returned and reports the first
// operator error.
func (r *Running) Wait() error {
	<-r.done
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// Stop cancels the graph (used to end continuous queries) and waits.
func (r *Running) Stop() error {
	r.cancel()
	return r.Wait()
}

// Done exposes completion for select loops.
func (r *Running) Done() <-chan struct{} { return r.done }

// Run starts the graph and waits — the one-shot query entry point.
func (g *Graph) Run(ctx context.Context) error {
	r, err := g.Start(ctx)
	if err != nil {
		return err
	}
	return r.Wait()
}

// ---------------------------------------------------------------------------
// Operator-body helpers

// Emit sends m on out, honoring cancellation. It reports false when
// the context ended instead.
func Emit(ctx context.Context, out chan<- Msg, m Msg) bool {
	select {
	case out <- m:
		return true
	case <-ctx.Done():
		return false
	}
}

// EmitAll fans m out to every output. Batch containers are
// single-owner (see Msg), so on fan-out all outputs but the last
// receive copies and the original ships last — once any receiver
// holds the original it may compact or recycle it, so no send may
// read it afterwards.
func EmitAll(ctx context.Context, outs []chan<- Msg, m Msg) bool {
	last := len(outs) - 1
	for i, o := range outs {
		dup := m
		if i < last && m.Batch != nil {
			dup.Batch = append(GetBatch(), m.Batch...)
		}
		if !Emit(ctx, o, dup) {
			return false
		}
	}
	return true
}

// Merge multiplexes several inputs into one channel, closing it when
// every input has closed or ctx ends. Message order across inputs is
// arbitrary, as in any exchange. A single input is returned as it is —
// no forwarding goroutine, no second hop per message: the operator
// upstream closes it when it returns, and it returns when ctx ends.
func Merge(ctx context.Context, ins []<-chan Msg) <-chan Msg {
	if len(ins) == 1 {
		return ins[0]
	}
	out := make(chan Msg, DefaultEdgeDepth)
	var wg sync.WaitGroup
	for _, in := range ins {
		in := in
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case m, ok := <-in:
					if !ok {
						return
					}
					select {
					case out <- m:
					case <-ctx.Done():
						return
					}
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(out)
	}()
	return out
}
