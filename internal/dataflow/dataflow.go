// Package dataflow is PIER's generic "boxes and arrows" execution
// engine: operators are boxes that take batches of tuples and
// punctuations through a call, and an arrow is a call into the
// operator downstream. A graph runs on the task of its sources — the
// caller of Run, or one task per started graph — so messages move
// between operators with no queue and no handoff between goroutines.
// The engine supports trees and DAGs, one-shot queries (terminated by
// end-of-stream) and continuous queries (terminated by cancellation).
package dataflow

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
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
//   - Out.Emit enforces the single-owner rule on fan-out: when a data
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

// Op is one running operator: the calls its graph makes into it. All
// calls into one graph's operators come from one goroutine at a time —
// the graph's task, or a source's shards under that source's fan-in
// lock — so an operator keeps its state in plain variables.
type Op struct {
	// Push takes one message arriving on input port in. Ports number
	// the Connect calls into the operator in order (a join's sides).
	Push func(in int, m Msg)
	// End runs once, after the last Push: every input has ended, or the
	// graph stopped (and Emit then drops what End hands on). Nil: the
	// operator holds nothing to flush or release.
	End func()
	// Idle runs when the graph's task has taken everything queued on
	// its inlets and is about to wait for more: an operator holding
	// output back for a fuller message sends it here.
	Idle func()
	// Source makes the node a source that produces its stream itself:
	// the graph calls it once, and the node's output ends when it
	// returns.
	Source func()
	// Inlet makes the node a source fed from outside the graph: the
	// graph's task hands each message queued on it to Push (port 0),
	// and the node's output ends once the inlet is closed and drained.
	Inlet *Inlet
}

// RunFunc builds one operator when its graph starts. Through out the
// operator emits, reads the graph's context and arms timers.
type RunFunc func(out *Out) Op

// Node is one operator instance in a graph.
type Node struct {
	name  string
	build RunFunc
	op    Op
	out   Out
	outs  []edge
	ins   int  // input ports
	ended int  // input ports whose stream has ended
	done  bool // End has run
}

// edge is one arrow: emitting on it calls to's Push on port.
type edge struct {
	to   *Node
	port int
}

// Name returns the operator's display name.
func (n *Node) Name() string { return n.name }

// Graph is a dataflow query plan under construction or execution.
type Graph struct {
	name    string
	nodes   []*Node
	started bool
	spawn   func(func())
}

// New creates an empty graph.
func New(name string) *Graph { return &Graph{name: name} }

// SetGo makes the graph start its tasks — the task of Start and a
// source's parallel shards (Out.Go) — through spawn, a node's reusable
// worker set. Nil restores the go statement.
func (g *Graph) SetGo(spawn func(func())) { g.spawn = spawn }

// Add appends an operator to the graph.
func (g *Graph) Add(name string, run RunFunc) *Node {
	n := &Node{name: name, build: run}
	g.nodes = append(g.nodes, n)
	return n
}

// Connect wires a new output of from to a new input port of to.
func (g *Graph) Connect(from, to *Node) {
	from.outs = append(from.outs, edge{to: to, port: to.ins})
	to.ins++
}

// Running is a started graph.
type Running struct {
	ctx     context.Context // the graph stops when it is done
	nodes   []*Node
	spawn   func(func())
	wake    chan struct{} // inlet pushes, posted calls and Stop rouse the task
	stopped atomic.Bool   // by Stop, Fail, or ctx once the task saw it done
	done    chan struct{}

	mu       sync.Mutex
	calls    []func() // posted by timers, run on the task
	finished bool
	err      error
}

// start builds every operator for one run of the graph.
func (g *Graph) start(parent context.Context) (*Running, error) {
	if g.started {
		return nil, fmt.Errorf("dataflow: graph %s already started", g.name)
	}
	g.started = true
	r := &Running{ctx: parent, nodes: g.nodes, spawn: g.spawn,
		wake: make(chan struct{}, 1), done: make(chan struct{})}
	if r.spawn == nil {
		r.spawn = func(f func()) { go f() }
	}
	for _, n := range g.nodes {
		n.out = Out{n: n, r: r}
		n.op = n.build(&n.out)
		if n.op.Inlet != nil {
			n.op.Inlet.bind(r.wake)
		}
	}
	return r, nil
}

// Start runs the graph on one task (see SetGo): its sources in Add
// order, then its inlets until every one is closed and drained or the
// graph stops. The returned handle waits for completion or stops it.
func (g *Graph) Start(parent context.Context) (*Running, error) {
	r, err := g.start(parent)
	if err != nil {
		return nil, err
	}
	r.spawn(r.run)
	return r, nil
}

// Run runs the graph as Start does, but in the caller, and reports the
// first operator error — the one-shot query entry point.
func (g *Graph) Run(ctx context.Context) error {
	r, err := g.start(ctx)
	if err != nil {
		return err
	}
	r.run()
	return r.Wait()
}

// run is the graph's task.
func (r *Running) run() {
	var inlets []*Node
	for _, n := range r.nodes {
		switch {
		case n.ins > 0:
		case n.op.Inlet != nil:
			inlets = append(inlets, n)
		default:
			if n.op.Source != nil && !n.out.Stopped() {
				n.op.Source()
			}
			r.checkStopped()
			r.end(n)
		}
	}
	r.drain(inlets)
	r.mu.Lock()
	r.finished = true
	r.mu.Unlock()
	r.checkStopped()
	for _, n := range r.nodes {
		if n.ins == 0 && !n.done {
			r.end(n)
		}
	}
	close(r.done)
}

// end runs n's End and ends its output, ending in turn each operator
// downstream whose last open input that was.
func (r *Running) end(n *Node) {
	n.done = true
	if n.op.End != nil {
		n.op.End()
	}
	for _, e := range n.outs {
		if e.to.ended++; e.to.ended == e.to.ins {
			r.end(e.to)
		}
	}
}

// drain hands what is queued on the inlets, then what timers posted,
// to the graph until every inlet has ended or the graph stops; with
// nothing left to do it calls the Idle hooks and waits.
func (r *Running) drain(inlets []*Node) {
	var idle []func()
	for _, n := range r.nodes {
		if n.op.Idle != nil {
			idle = append(idle, n.op.Idle)
		}
	}
	spare := make([][]Msg, len(inlets))
	open := len(inlets)
	for {
		worked := false
		for i, n := range inlets {
			if n.done {
				continue
			}
			// The slice taken is the inlet's no longer: it becomes the
			// next spare, so two slices serve a steady stream.
			msgs, closed := n.op.Inlet.take(spare[i])
			for _, m := range msgs {
				if r.stopped.Load() {
					return
				}
				n.op.Push(0, m)
			}
			clear(msgs)
			spare[i] = msgs[:0]
			if len(msgs) > 0 {
				worked = true
			} else if closed {
				r.end(n)
				open--
			}
		}
		r.mu.Lock()
		calls := r.calls
		r.calls = nil
		r.mu.Unlock()
		for _, f := range calls {
			if r.stopped.Load() {
				return
			}
			f()
		}
		if open == 0 || r.stopped.Load() {
			return
		}
		if worked || len(calls) > 0 {
			continue
		}
		for _, f := range idle {
			f()
		}
		select {
		case <-r.wake:
		case <-r.ctx.Done():
			return
		}
	}
}

// post queues f for the graph's task; after the graph finished it is
// dropped.
func (r *Running) post(f func()) {
	r.mu.Lock()
	if r.finished {
		r.mu.Unlock()
		return
	}
	r.calls = append(r.calls, f)
	r.mu.Unlock()
	poke(r.wake)
}

// checkStopped notices a cancelled context, so that what End hands on
// after it is dropped.
func (r *Running) checkStopped() {
	if r.ctx.Err() != nil {
		r.stopped.Store(true)
	}
}

func (r *Running) stop() {
	r.stopped.Store(true)
	poke(r.wake)
}

// Wait blocks until the graph has finished and reports the first
// operator error.
func (r *Running) Wait() error {
	<-r.done
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// Stop ends the graph (used to end continuous queries) and waits.
func (r *Running) Stop() error {
	r.stop()
	return r.Wait()
}

// Done exposes completion for select loops.
func (r *Running) Done() <-chan struct{} { return r.done }

// ---------------------------------------------------------------------------
// The operator's view of its graph

// Out is what a running operator sees of its graph.
type Out struct {
	n *Node
	r *Running
}

// Emit hands m to every operator downstream by calling it. Batch
// containers are single-owner (see Msg), so on fan-out all outputs but
// the last receive copies and the original goes last — once a receiver
// holds it, it may compact or recycle it. Once the graph has stopped,
// Emit drops m.
func (o *Out) Emit(m Msg) {
	if o.r.stopped.Load() {
		return
	}
	last := len(o.n.outs) - 1
	for i, e := range o.n.outs {
		dup := m
		if i < last && m.Batch != nil {
			dup.Batch = append(GetBatch(), m.Batch...)
		}
		e.to.op.Push(e.port, dup)
	}
}

// Context is the context the graph was started with.
func (o *Out) Context() context.Context { return o.r.ctx }

// Stopped reports whether the graph has stopped — by Stop, an
// operator's Fail, or its context — for a source to end early.
func (o *Out) Stopped() bool { return o.r.stopped.Load() || o.r.ctx.Err() != nil }

// After runs f on the graph's task, serialized with every Push, once d
// has elapsed — unless the operator has ended or the graph finished by
// then. The returned timer may be stopped or reset.
func (o *Out) After(d time.Duration, f func()) *time.Timer {
	return time.AfterFunc(d, func() {
		o.r.post(func() {
			if !o.n.done {
				f()
			}
		})
	})
}

// Go runs f as a task of the graph (see SetGo): a source's parallel
// shards. The source waits for them before it returns.
func (o *Out) Go(f func()) { o.r.spawn(f) }

// Fail stops the graph; Wait and Run report the first error failed
// with.
func (o *Out) Fail(err error) {
	if errors.Is(err, context.Canceled) {
		return
	}
	o.r.mu.Lock()
	if o.r.err == nil {
		o.r.err = fmt.Errorf("dataflow: operator %s: %w", o.n.name, err)
	}
	o.r.mu.Unlock()
	o.r.stop()
}

// ---------------------------------------------------------------------------
// Inlets

// Inlet feeds a graph from outside it without ever blocking the
// caller: Push appends to an elastic queue, and the graph's task
// drains it in arrival order. A node's transport delivers from one
// dispatch goroutine; a pipeline that pushed back on it could deadlock
// the node against its own in-flight RPCs.
type Inlet struct {
	mu     sync.Mutex
	queue  []Msg
	closed bool
	wake   chan struct{} // the task's, once the graph started
}

// Push enqueues one message. Never blocks; messages pushed after Close
// are dropped.
func (in *Inlet) Push(m Msg) {
	in.mu.Lock()
	if in.closed {
		in.mu.Unlock()
		return
	}
	in.queue = append(in.queue, m)
	wake := in.wake
	in.mu.Unlock()
	poke(wake)
}

// Close ends the stream: the graph drains what is queued, then ends
// the inlet's output.
func (in *Inlet) Close() {
	in.mu.Lock()
	in.closed = true
	wake := in.wake
	in.mu.Unlock()
	poke(wake)
}

func (in *Inlet) bind(wake chan struct{}) {
	in.mu.Lock()
	in.wake = wake
	in.mu.Unlock()
}

// take hands the queued messages to the task, leaving spare (a slice
// the task is done with) as the new queue.
func (in *Inlet) take(spare []Msg) ([]Msg, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	q := in.queue
	in.queue = spare
	return q, in.closed
}

// poke wakes a task without blocking; a wake-up already pending covers
// this one.
func poke(wake chan struct{}) {
	select {
	case wake <- struct{}{}:
	default:
	}
}
