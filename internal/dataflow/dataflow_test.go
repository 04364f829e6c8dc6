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
	return func(ctx context.Context, ins []<-chan Msg, outs []chan<- Msg) error {
		for i := 0; i < n; i++ {
			if !EmitAll(ctx, outs, one(tuple.Tuple{tuple.Int(int64(i))})) {
				return ctx.Err()
			}
		}
		return nil
	}
}

// collector appends every received tuple to sink.
func collector(sink *[]tuple.Tuple) RunFunc {
	return func(ctx context.Context, ins []<-chan Msg, outs []chan<- Msg) error {
		for m := range ins[0] {
			*sink = append(*sink, m.Batch...)
		}
		return nil
	}
}

func TestLinearPipeline(t *testing.T) {
	g := New("linear")
	src := g.Add("src", producer(10))
	double := g.Add("double", func(ctx context.Context, ins []<-chan Msg, outs []chan<- Msg) error {
		for m := range ins[0] {
			for i, t := range m.Batch {
				m.Batch[i] = tuple.Tuple{tuple.Int(t[0].I * 2)}
			}
			if !EmitAll(ctx, outs, m) {
				return ctx.Err()
			}
		}
		return nil
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
		for m := range ins[0] {
			if !EmitAll(ctx, outs, m) {
				return ctx.Err()
			}
		}
		return nil
	}
	left := g.Add("left", pass)
	right := g.Add("right", pass)
	var got []tuple.Tuple
	merge := g.Add("merge", func(ctx context.Context, ins []<-chan Msg, outs []chan<- Msg) error {
		for m := range Merge(ctx, ins) {
			got = append(got, m.Batch...)
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
			if !EmitAll(ctx, outs, one(tuple.Tuple{tuple.Int(int64(i))})) {
				return ctx.Err()
			}
		}
	})
	boom := errors.New("boom")
	failing := g.Add("failing", func(ctx context.Context, ins []<-chan Msg, outs []chan<- Msg) error {
		n := 0
		for range ins[0] {
			n++
			if n == 5 {
				return boom
			}
		}
		return nil
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
			if !EmitAll(ctx, outs, one(tuple.Tuple{tuple.Int(int64(i))})) {
				return nil
			}
		}
	})
	sink := g.Add("sink", func(ctx context.Context, ins []<-chan Msg, outs []chan<- Msg) error {
		for range ins[0] {
			count++
		}
		return nil
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
		EmitAll(ctx, outs, one(tuple.Tuple{tuple.Int(1)}))
		EmitAll(ctx, outs, PunctMsg(1, time.Unix(100, 0)))
		EmitAll(ctx, outs, one(tuple.Tuple{tuple.Int(2)}))
		EmitAll(ctx, outs, PunctMsg(2, time.Unix(200, 0)))
		return nil
	})
	var puncts []uint64
	var datas int
	sink := g.Add("sink", func(ctx context.Context, ins []<-chan Msg, outs []chan<- Msg) error {
		for m := range ins[0] {
			switch m.Kind {
			case Punct:
				puncts = append(puncts, m.Seq)
			case Data:
				datas++
			}
		}
		return nil
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
	if Emit(ctx, full, one(nil)) {
		t.Fatal("Emit succeeded on cancelled context")
	}
}

func TestManyOperators(t *testing.T) {
	// A 100-stage pipeline moves tuples end to end.
	g := New("deep")
	prev := g.Add("src", producer(5))
	for i := 0; i < 100; i++ {
		stage := g.Add(fmt.Sprintf("stage%d", i), func(ctx context.Context, ins []<-chan Msg, outs []chan<- Msg) error {
			for m := range ins[0] {
				if !EmitAll(ctx, outs, m) {
					return ctx.Err()
				}
			}
			return nil
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
			if !EmitAll(ctx, outs, one(tuple.Tuple{tuple.Int(int64(i))})) {
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
