package physical

import (
	"context"
	"testing"
	"time"

	"repro/internal/dataflow"
	"repro/internal/tuple"
)

func TestFanOutBroadcastsWindows(t *testing.T) {
	in := NewInlet()
	fo := NewFanOut()
	p := NewPipeline("coordinator")
	src := p.Add("fanout-src", in.Source)
	op := p.Add("fan-out", fo.Op())
	p.Connect(src, op)

	id1, ch1 := fo.Subscribe(4)
	_, ch2 := fo.Subscribe(4)

	run, err := p.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rows := []tuple.Tuple{{tuple.Int(1)}, {tuple.Int(2)}}
	in.Push(dataflow.BatchMsg(rows, 7))

	for _, ch := range []<-chan FanOutWindow{ch1, ch2} {
		select {
		case w := <-ch:
			if w.Seq != 7 || len(w.Rows) != 2 {
				t.Fatalf("got window %+v", w)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("subscriber did not receive the window")
		}
	}

	// Unsubscribed consumers see a closed channel and stop counting.
	if rest := fo.Unsubscribe(id1); rest != 1 {
		t.Fatalf("Unsubscribe left %d subscribers, want 1", rest)
	}
	if _, ok := <-ch1; ok {
		t.Fatal("unsubscribed channel not closed")
	}

	in.Push(dataflow.BatchMsg([]tuple.Tuple{{tuple.Int(3)}}, 8))
	select {
	case w := <-ch2:
		if w.Seq != 8 || len(w.Rows) != 1 {
			t.Fatalf("got window %+v", w)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("remaining subscriber did not receive the window")
	}

	// End of stream closes every remaining subscription.
	in.Close()
	if err := run.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, ok := <-ch2; ok {
		t.Fatal("subscriber channel not closed at end of stream")
	}
	if _, ch3 := fo.Subscribe(1); func() bool { _, ok := <-ch3; return ok }() {
		t.Fatal("late Subscribe returned an open channel")
	}
}

func TestFanOutDropsForSlowSubscriber(t *testing.T) {
	fo := NewFanOut()
	_, slow := fo.Subscribe(1)
	if n := fo.deliver(FanOutWindow{Seq: 1}); n != 1 {
		t.Fatalf("deliver -> %d, want 1", n)
	}
	// Buffer full: the second window drops rather than blocking.
	if n := fo.deliver(FanOutWindow{Seq: 2}); n != 0 {
		t.Fatalf("deliver -> %d, want 0 (drop-on-full)", n)
	}
	if w := <-slow; w.Seq != 1 {
		t.Fatalf("got seq %d, want 1", w.Seq)
	}
	fo.Close()
	fo.Close() // idempotent
	if _, ok := <-slow; ok {
		t.Fatal("channel not closed by Close")
	}
}
