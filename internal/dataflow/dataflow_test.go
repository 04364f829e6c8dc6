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

// producer emits n integer tuples then returns.
func producer(n int) RunFunc {
	return func(ctx context.Context, ins []<-chan Msg, outs []chan<- Msg) error {
		for i := 0; i < n; i++ {
			if !EmitAll(ctx, outs, DataMsg(tuple.Tuple{tuple.Int(int64(i))})) {
				return ctx.Err()
			}
		}
		return nil
	}
}

// collector appends every received tuple to sink.
func collector(sink *[]tuple.Tuple) RunFunc {
	return func(ctx context.Context, ins []<-chan Msg, outs []chan<- Msg) error {
		return ForEach(ctx, ins[0], func(m Msg) error {
			if m.Kind == Data {
				*sink = append(*sink, m.T)
			}
			return nil
		})
	}
}

func TestLinearPipeline(t *testing.T) {
	g := New("linear")
	src := g.Add("src", producer(10))
	double := g.Add("double", func(ctx context.Context, ins []<-chan Msg, outs []chan<- Msg) error {
		return ForEach(ctx, ins[0], func(m Msg) error {
			if m.Kind == Data {
				m.T = tuple.Tuple{tuple.Int(m.T[0].I * 2)}
			}
			if !EmitAll(ctx, outs, m) {
				return ctx.Err()
			}
			return nil
		})
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
	pass := func(ctx context.Context, ins []<-chan Msg, outs []chan<- Msg) error {
		return ForEach(ctx, ins[0], func(m Msg) error {
			if !EmitAll(ctx, outs, m) {
				return ctx.Err()
			}
			return nil
		})
	}
	left := g.Add("left", pass)
	right := g.Add("right", pass)
	var got []tuple.Tuple
	merge := g.Add("merge", func(ctx context.Context, ins []<-chan Msg, outs []chan<- Msg) error {
		for m := range Merge(ctx, ins) {
			if m.Kind == Data {
				got = append(got, m.T)
			}
		}
		return nil
	})
	g.Connect(src, left)
	g.Connect(src, right)
	g.Connect(left, merge)
	g.Connect(right, merge)
	if err := g.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(got) != 40 {
		t.Fatalf("fan-out/fan-in saw %d tuples, want 40", len(got))
	}
}

func TestOperatorErrorCancelsGraph(t *testing.T) {
	g := New("err")
	src := g.Add("src", func(ctx context.Context, ins []<-chan Msg, outs []chan<- Msg) error {
		// Infinite producer: only cancellation stops it.
		for i := 0; ; i++ {
			if !EmitAll(ctx, outs, DataMsg(tuple.Tuple{tuple.Int(int64(i))})) {
				return ctx.Err()
			}
		}
	})
	boom := errors.New("boom")
	failing := g.Add("failing", func(ctx context.Context, ins []<-chan Msg, outs []chan<- Msg) error {
		n := 0
		return ForEach(ctx, ins[0], func(m Msg) error {
			n++
			if n == 5 {
				return boom
			}
			return nil
		})
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
	src := g.Add("ticker", func(ctx context.Context, ins []<-chan Msg, outs []chan<- Msg) error {
		for i := 0; ; i++ {
			select {
			case <-ctx.Done():
				return nil
			case <-time.After(time.Millisecond):
			}
			if !EmitAll(ctx, outs, DataMsg(tuple.Tuple{tuple.Int(int64(i))})) {
				return nil
			}
		}
	})
	sink := g.Add("sink", func(ctx context.Context, ins []<-chan Msg, outs []chan<- Msg) error {
		return ForEach(ctx, ins[0], func(m Msg) error {
			count++
			return nil
		})
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
	src := g.Add("src", func(ctx context.Context, ins []<-chan Msg, outs []chan<- Msg) error {
		EmitAll(ctx, outs, DataMsg(tuple.Tuple{tuple.Int(1)}))
		EmitAll(ctx, outs, PunctMsg(1, time.Unix(100, 0)))
		EmitAll(ctx, outs, DataMsg(tuple.Tuple{tuple.Int(2)}))
		EmitAll(ctx, outs, PunctMsg(2, time.Unix(200, 0)))
		return nil
	})
	var puncts []uint64
	var datas int
	sink := g.Add("sink", func(ctx context.Context, ins []<-chan Msg, outs []chan<- Msg) error {
		return ForEach(ctx, ins[0], func(m Msg) error {
			switch m.Kind {
			case Punct:
				puncts = append(puncts, m.Seq)
			case Data:
				datas++
			}
			return nil
		})
	})
	g.Connect(src, sink)
	if err := g.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if datas != 2 || len(puncts) != 2 || puncts[0] != 1 || puncts[1] != 2 {
		t.Fatalf("datas=%d puncts=%v", datas, puncts)
	}
}

func TestCyclicGraphWithUnboundedEdge(t *testing.T) {
	// A feedback loop: injector seeds 1 value; the loop body
	// re-circulates values, decrementing until zero. With a bounded
	// back edge this could deadlock; the unbounded edge must not.
	g := New("cycle")
	seed := g.Add("seed", func(ctx context.Context, ins []<-chan Msg, outs []chan<- Msg) error {
		EmitAll(ctx, outs, DataMsg(tuple.Tuple{tuple.Int(500)}))
		return nil
	})
	var results []int64
	loop := g.Add("loop", func(ctx context.Context, ins []<-chan Msg, outs []chan<- Msg) error {
		// ins[0] = seed, ins[1] = back edge; outs[0] = back edge,
		// outs[1] = result sink.
		pending := 1 // tuples in flight (seed)
		merged := Merge(ctx, ins)
		for m := range merged {
			if m.Kind != Data {
				continue
			}
			v := m.T[0].I
			results = append(results, v)
			pending--
			if v > 0 {
				pending++
				if !Emit(ctx, outs[0], DataMsg(tuple.Tuple{tuple.Int(v - 1)})) {
					return ctx.Err()
				}
			}
			if pending == 0 {
				return nil // fixpoint reached
			}
		}
		return nil
	})
	g.Connect(seed, loop)
	g.ConnectUnbounded(loop, loop)
	done := make(chan error, 1)
	go func() {
		done <- g.Run(context.Background())
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cyclic graph deadlocked")
	}
	if len(results) != 501 {
		t.Fatalf("fixpoint visited %d values, want 501", len(results))
	}
}

func TestUnboundedEdgeDoesNotBlockProducer(t *testing.T) {
	// Producer floods 10k messages before the consumer reads any;
	// bounded edges would block at DefaultEdgeDepth.
	g := New("flood")
	const n = 10000
	src := g.Add("src", producer(n))
	var got int
	sink := g.Add("sink", func(ctx context.Context, ins []<-chan Msg, outs []chan<- Msg) error {
		time.Sleep(50 * time.Millisecond) // let the producer finish first
		return ForEach(ctx, ins[0], func(m Msg) error {
			got++
			return nil
		})
	})
	g.ConnectUnbounded(src, sink)
	if err := g.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Fatalf("got %d, want %d", got, n)
	}
}

func TestDoubleStartRejected(t *testing.T) {
	g := New("twice")
	g.Add("noop", func(ctx context.Context, ins []<-chan Msg, outs []chan<- Msg) error { return nil })
	if _, err := g.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Start(context.Background()); err == nil {
		t.Fatal("second Start accepted")
	}
}

func TestEmitHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	full := make(chan Msg) // unbuffered, nobody reading
	if Emit(ctx, full, DataMsg(nil)) {
		t.Fatal("Emit succeeded on cancelled context")
	}
}

func TestManyOperators(t *testing.T) {
	// A 100-stage pipeline moves tuples end to end.
	g := New("deep")
	prev := g.Add("src", producer(5))
	for i := 0; i < 100; i++ {
		stage := g.Add(fmt.Sprintf("stage%d", i), func(ctx context.Context, ins []<-chan Msg, outs []chan<- Msg) error {
			return ForEach(ctx, ins[0], func(m Msg) error {
				if !EmitAll(ctx, outs, m) {
					return ctx.Err()
				}
				return nil
			})
		})
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

func TestEmitAllCopiesBatchOnFanOut(t *testing.T) {
	ctx := context.Background()
	out1 := make(chan Msg, 1)
	out2 := make(chan Msg, 1)
	batch := append(GetBatch(), tuple.Tuple{tuple.Int(1)}, tuple.Tuple{tuple.Int(2)})
	if !EmitAll(ctx, []chan<- Msg{out1, out2}, BatchMsg(batch, 7)) {
		t.Fatal("emit failed")
	}
	m1, m2 := <-out1, <-out2
	if len(m1.Batch) != 2 || len(m2.Batch) != 2 {
		t.Fatalf("batch lengths %d/%d", len(m1.Batch), len(m2.Batch))
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

func TestMsgTuplesAndNRows(t *testing.T) {
	var scratch [1]tuple.Tuple
	single := DataMsg(tuple.Tuple{tuple.Int(5)})
	if single.NRows() != 1 {
		t.Fatalf("singleton NRows %d", single.NRows())
	}
	ts := single.Tuples(&scratch)
	if len(ts) != 1 || ts[0][0].I != 5 {
		t.Fatalf("singleton Tuples %v", ts)
	}
	batch := BatchMsg([]tuple.Tuple{{tuple.Int(1)}, {tuple.Int(2)}, {tuple.Int(3)}}, 0)
	if batch.NRows() != 3 {
		t.Fatalf("batch NRows %d", batch.NRows())
	}
	if got := batch.Tuples(&scratch); len(got) != 3 {
		t.Fatalf("batch Tuples %v", got)
	}
	punct := PunctMsg(1, time.Now())
	if punct.NRows() != 0 {
		t.Fatalf("punct NRows %d", punct.NRows())
	}
}

// TestMergeSingleInputChainStops cancels a three-operator chain in
// mid-stream. With one input Merge hands the operator its input
// channel itself, so each `for range` ends only because the operator
// upstream returned on cancel and had its outputs closed; Stop must
// return and leave no goroutine behind.
func TestMergeSingleInputChainStops(t *testing.T) {
	in := make(chan Msg)
	if got := Merge(context.Background(), []<-chan Msg{in}); got != (<-chan Msg)(in) {
		t.Fatal("Merge of one input is not that input")
	}
	before := runtime.NumGoroutine()
	g := New("chain")
	src := g.Add("src", func(ctx context.Context, _ []<-chan Msg, outs []chan<- Msg) error {
		for i := 0; ; i++ { // endless: only cancellation stops it
			if !EmitAll(ctx, outs, DataMsg(tuple.Tuple{tuple.Int(int64(i))})) {
				return nil
			}
		}
	})
	pass := g.Add("pass", func(ctx context.Context, ins []<-chan Msg, outs []chan<- Msg) error {
		for m := range Merge(ctx, ins) {
			if !EmitAll(ctx, outs, m) {
				return nil
			}
		}
		return nil
	})
	midStream := make(chan struct{})
	sink := g.Add("sink", func(ctx context.Context, ins []<-chan Msg, _ []chan<- Msg) error {
		n := 0
		for range Merge(ctx, ins) {
			if n++; n == 10*DefaultEdgeDepth {
				close(midStream)
			}
		}
		return nil
	})
	g.Connect(src, pass)
	g.Connect(pass, sink)
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
	// The goroutine that closes Running.done may still be returning.
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines: %d before, %d after\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}
