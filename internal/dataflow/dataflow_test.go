package dataflow

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/tuple"
)

// one wraps a tuple as a one-row data message.
func one(t tuple.Tuple) Msg { return BatchMsg([]tuple.Tuple{t}, 0) }

// producer emits n integer tuples, one per message, then returns.
func producer(n int) RunFunc {
	return func(out *Out) Op {
		return Op{Source: func() {
			for i := 0; i < n; i++ {
				out.Emit(one(tuple.Tuple{tuple.Int(int64(i))}))
			}
		}}
	}
}

// endless emits integer tuples until the graph stops.
func endless(out *Out) Op {
	return Op{Source: func() {
		for i := 0; !out.Stopped(); i++ {
			out.Emit(one(tuple.Tuple{tuple.Int(int64(i))}))
		}
	}}
}

// pass forwards every message.
func pass(out *Out) Op {
	return Op{Push: func(_ int, m Msg) { out.Emit(m) }}
}

// collector appends every received tuple to sink.
func collector(sink *[]tuple.Tuple) RunFunc {
	return func(out *Out) Op {
		return Op{Push: func(_ int, m Msg) { *sink = append(*sink, m.Batch...) }}
	}
}

func TestLinearPipeline(t *testing.T) {
	g := New("linear")
	src := g.Add("src", producer(10))
	double := g.Add("double", func(out *Out) Op {
		return Op{Push: func(_ int, m Msg) {
			for i, t := range m.Batch {
				m.Batch[i] = tuple.Tuple{tuple.Int(t[0].I * 2)}
			}
			out.Emit(m)
		}}
	})
	var got []tuple.Tuple
	sink := g.Add("sink", collector(&got))
	g.Connect(src, double)
	g.Connect(double, sink)
	if err := g.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("got %d tuples", len(got))
	}
	for i, tp := range got {
		if tp[0].I != int64(i*2) {
			t.Fatalf("tuple %d = %v", i, tp)
		}
	}
}

func TestFanOutFanIn(t *testing.T) {
	g := New("diamond")
	src := g.Add("src", producer(20))
	left := g.Add("left", pass)
	right := g.Add("right", pass)
	var got []tuple.Tuple
	var ports [2]int
	ended := 0
	merge := g.Add("merge", func(out *Out) Op {
		return Op{
			Push: func(in int, m Msg) {
				ports[in]++
				got = append(got, m.Batch...)
			},
			End: func() { ended++ },
		}
	})
	g.Connect(src, left)
	g.Connect(src, right)
	g.Connect(left, merge)
	g.Connect(right, merge)
	if err := g.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(got) != 40 || ports != [2]int{20, 20} {
		t.Fatalf("fan-out/fan-in saw %d tuples on ports %v, want 40 on [20 20]", len(got), ports)
	}
	if ended != 1 {
		t.Fatalf("merge ended %d times, want once after both inputs", ended)
	}
}

func TestOperatorErrorCancelsGraph(t *testing.T) {
	g := New("err")
	src := g.Add("src", endless) // only cancellation stops it
	boom := errors.New("boom")
	failing := g.Add("failing", func(out *Out) Op {
		n := 0
		return Op{Push: func(int, Msg) {
			if n++; n == 5 {
				out.Fail(boom)
			}
		}}
	})
	g.Connect(src, failing)
	err := g.Run(context.Background())
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
}

func TestContinuousQueryStop(t *testing.T) {
	g := New("continuous")
	var count int
	in := &Inlet{} // never closed: only Stop ends the graph
	src := g.Add("ticker", func(out *Out) Op {
		i := 0
		var tick func()
		tick = func() {
			out.Emit(one(tuple.Tuple{tuple.Int(int64(i))}))
			i++
			out.After(time.Millisecond, tick)
		}
		out.After(time.Millisecond, tick)
		return Op{Inlet: in, Push: func(_ int, m Msg) { out.Emit(m) }}
	})
	sink := g.Add("sink", func(out *Out) Op {
		return Op{Push: func(int, Msg) { count++ }}
	})
	g.Connect(src, sink)
	r, err := g.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if err := r.Stop(); err != nil {
		t.Fatal(err)
	}
	if count == 0 {
		t.Fatal("continuous query produced nothing before Stop")
	}
}

func TestPunctuationFlowsThrough(t *testing.T) {
	g := New("punct")
	src := g.Add("src", func(out *Out) Op {
		return Op{Source: func() {
			out.Emit(one(tuple.Tuple{tuple.Int(1)}))
			out.Emit(PunctMsg(1, time.Unix(100, 0)))
			out.Emit(one(tuple.Tuple{tuple.Int(2)}))
			out.Emit(PunctMsg(2, time.Unix(200, 0)))
		}}
	})
	var puncts []uint64
	var datas int
	sink := g.Add("sink", func(out *Out) Op {
		return Op{Push: func(_ int, m Msg) {
			switch m.Kind {
			case Punct:
				puncts = append(puncts, m.Seq)
			case Data:
				datas++
			}
		}}
	})
	g.Connect(src, sink)
	if err := g.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if datas != 2 || len(puncts) != 2 || puncts[0] != 1 || puncts[1] != 2 {
		t.Fatalf("datas=%d puncts=%v", datas, puncts)
	}
}

func TestDoubleStartRejected(t *testing.T) {
	g := New("twice")
	g.Add("noop", func(*Out) Op { return Op{} })
	if _, err := g.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Start(context.Background()); err == nil {
		t.Fatal("second Start accepted")
	}
}

// TestEmitHonorsCancellation: once an operator has failed the graph,
// what it emits no longer reaches the operators downstream.
func TestEmitHonorsCancellation(t *testing.T) {
	g := New("cancelled")
	src := g.Add("src", producer(3))
	failing := g.Add("failing", func(out *Out) Op {
		return Op{Push: func(_ int, m Msg) {
			out.Fail(errors.New("boom"))
			out.Emit(m)
		}}
	})
	var got []tuple.Tuple
	sink := g.Add("sink", collector(&got))
	g.Connect(src, failing)
	g.Connect(failing, sink)
	if err := g.Run(context.Background()); err == nil {
		t.Fatal("failed graph reported no error")
	}
	if len(got) != 0 {
		t.Fatalf("Emit delivered %v after the graph stopped", got)
	}
}

func TestManyOperators(t *testing.T) {
	// A 100-stage pipeline moves tuples end to end.
	g := New("deep")
	prev := g.Add("src", producer(5))
	for i := 0; i < 100; i++ {
		stage := g.Add(fmt.Sprintf("stage%d", i), pass)
		g.Connect(prev, stage)
		prev = stage
	}
	var got []tuple.Tuple
	sink := g.Add("sink", collector(&got))
	g.Connect(prev, sink)
	if err := g.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("got %d", len(got))
	}
}

func TestEmitCopiesBatchOnFanOut(t *testing.T) {
	g := New("fan-out")
	src := g.Add("src", func(out *Out) Op {
		return Op{Source: func() {
			out.Emit(BatchMsg(append(GetBatch(), tuple.Tuple{tuple.Int(1)}, tuple.Tuple{tuple.Int(2)}), 7))
		}}
	})
	var got [2][]Msg
	for i := range got {
		sink := g.Add(fmt.Sprintf("sink%d", i), func(out *Out) Op {
			return Op{Push: func(_ int, m Msg) { got[i] = append(got[i], m) }}
		})
		g.Connect(src, sink)
	}
	if err := g.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	m1, m2 := got[0][0], got[1][0]
	if len(m1.Batch) != 2 || len(m2.Batch) != 2 || m1.Seq != 7 || m2.Seq != 7 {
		t.Fatalf("batches %v / %v", m1, m2)
	}
	if &m1.Batch[0] == &m2.Batch[0] {
		t.Fatal("fan-out shared one batch container: single-owner rule violated")
	}
	// Each receiver owns its container: recycling one must not affect
	// the other's contents.
	PutBatch(m1.Batch)
	if m2.Batch[0][0].I != 1 || m2.Batch[1][0].I != 2 {
		t.Fatalf("second receiver's batch corrupted: %v", m2.Batch)
	}
}

func TestBatchPoolRecycles(t *testing.T) {
	b := GetBatch()
	if len(b) != 0 {
		t.Fatalf("pooled batch not empty: %d", len(b))
	}
	b = append(b, tuple.Tuple{tuple.Int(42)})
	PutBatch(b)
	c := GetBatch()
	if len(c) != 0 {
		t.Fatalf("recycled batch not reset: %d", len(c))
	}
	// Slots were cleared on recycle so the pool pins no tuple memory.
	if cap(c) > 0 && c[:1][0] != nil {
		t.Fatal("recycled batch retained a tuple reference")
	}
}

// TestChainStopsOnCancel cancels a three-operator chain in mid-stream,
// run on one task: Stop must return, every operator must have ended,
// and no goroutine may be left behind.
func TestChainStopsOnCancel(t *testing.T) {
	before := runtime.NumGoroutine()
	g := New("chain")
	src := g.Add("src", endless)
	mid := g.Add("pass", pass)
	midStream := make(chan struct{})
	ended := make(chan struct{})
	sink := g.Add("sink", func(out *Out) Op {
		n := 0
		return Op{
			Push: func(int, Msg) {
				if n++; n == 1000 {
					close(midStream)
				}
			},
			End: func() { close(ended) },
		}
	})
	g.Connect(src, mid)
	g.Connect(mid, sink)
	r, err := g.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	<-midStream
	stopped := make(chan error, 1)
	go func() { stopped <- r.Stop() }()
	select {
	case err := <-stopped:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("chain did not stop on cancel")
	}
	select {
	case <-ended:
	default:
		t.Fatal("sink never ended")
	}
	// The goroutine that ran Stop may still be returning.
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines: %d before, %d after\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestInletDrainsInOrderAcrossInlets: one task serves two inlets.
// Each inlet's messages reach the operator in push order, on that
// inlet's port, whether pushed before or after Start, and the graph
// ends once both are closed and drained.
func TestInletDrainsInOrderAcrossInlets(t *testing.T) {
	g := New("inlets")
	ins := [2]*Inlet{{}, {}}
	var got [2][]int64
	join := g.Add("join", func(out *Out) Op {
		return Op{Push: func(in int, m Msg) {
			for _, t := range m.Batch {
				got[in] = append(got[in], t[0].I)
			}
		}}
	})
	for i, in := range ins {
		src := g.Add(fmt.Sprintf("src%d", i), func(out *Out) Op {
			return Op{Inlet: in, Push: func(_ int, m Msg) { out.Emit(m) }}
		})
		g.Connect(src, join)
	}
	const n = 500
	push := func(from, to int) {
		for i := from; i < to; i++ {
			ins[i%2].Push(one(tuple.Tuple{tuple.Int(int64(i))}))
		}
	}
	push(0, n/2)
	spawned := 0
	g.SetGo(func(f func()) { spawned++; go f() })
	r, err := g.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	push(n/2, n)
	ins[0].Close()
	ins[1].Close()
	if err := r.Wait(); err != nil {
		t.Fatal(err)
	}
	if spawned != 1 {
		t.Fatalf("two inlets ran on %d tasks, want 1", spawned)
	}
	for side := range got {
		if len(got[side]) != n/2 {
			t.Fatalf("inlet %d delivered %d of %d", side, len(got[side]), n/2)
		}
		for i, v := range got[side] {
			if v != int64(2*i+side) {
				t.Fatalf("inlet %d out of order at %d: %v", side, i, got[side][:i+1])
			}
		}
	}
}
