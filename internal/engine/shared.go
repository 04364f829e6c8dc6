package engine

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/dataflow"
	"repro/internal/physical"
	"repro/internal/pier"
	"repro/internal/plan"
	"repro/internal/tuple"
)

// Subscription is one session's attachment to a shared scan.
type Subscription struct {
	// Columns names the result columns.
	Columns []string

	id       uint64
	sess     *Session
	ss       *sharedScan
	fanID    int // the subscriber's id in the scan's fan-out
	results  <-chan pier.WindowResult
	stopOnce sync.Once
}

// Results streams one WindowResult per window until Stop (or the LIVE
// horizon) closes it.
func (s *Subscription) Results() <-chan pier.WindowResult { return s.results }

// Stop detaches the subscription; the last detach of a shared scan
// tears the underlying query down. Idempotent.
func (s *Subscription) Stop() {
	s.stopOnce.Do(func() {
		svc := s.sess.svc
		svc.sharedMu.Lock()
		rest := s.ss.fo.Unsubscribe(s.fanID)
		if rest == 0 && svc.shared[s.ss.key] == s.ss {
			delete(svc.shared, s.ss.key)
		}
		svc.sharedMu.Unlock()
		if rest == 0 {
			s.ss.cont.Stop()
		}
		svc.subs.Add(-1)
		s.sess.mu.Lock()
		delete(s.sess.subs, s.id)
		s.sess.mu.Unlock()
	})
}

// AnalyzeReport renders the plan with the network-wide EXPLAIN ANALYZE
// counters of the underlying query so far ("" unless subscribed with
// Analyze). Every subscriber of a scan sees the same underlying
// pipeline — which is the point: N subscriptions, one set of
// scan/window operators.
func (s *Subscription) AnalyzeReport() string {
	a := s.ss.analysis()
	if a == nil {
		return ""
	}
	return s.ss.spec.ExplainAnalyze(a)
}

// Subscribe launches (or attaches to) a continuous query.
func (se *Session) Subscribe(ctx context.Context, sql string) (*Subscription, error) {
	return se.SubscribeWithOptions(ctx, sql, plan.Options{})
}

// SubscribeWithOptions is Subscribe with explicit planner options
// (Analyze enables the per-window EXPLAIN ANALYZE stream).
func (se *Session) SubscribeWithOptions(ctx context.Context, sql string, opts plan.Options) (*Subscription, error) {
	if se.isClosed() {
		return nil, se.reject(&RejectError{Reason: RejectClosed})
	}
	svc := se.svc
	if svc.subs.Add(1) > int64(svc.cfg.MaxSubscriptions) {
		svc.subs.Add(-1)
		svc.Metrics.RejectedSubs.Add(1)
		return nil, se.reject(&RejectError{Reason: RejectTooManySubs})
	}
	sub, err := se.subscribe(ctx, sql, opts)
	if err != nil {
		svc.subs.Add(-1)
		return nil, err
	}
	se.mu.Lock()
	if se.closed {
		se.mu.Unlock()
		sub.Stop()
		return nil, se.reject(&RejectError{Reason: RejectClosed})
	}
	se.subs[sub.id] = sub
	se.mu.Unlock()
	return sub, nil
}

// SubscribePrepared subscribes to a prepared continuous statement.
func (se *Session) SubscribePrepared(ctx context.Context, name string) (*Subscription, error) {
	p, err := se.lookupPrepared(name)
	if err != nil {
		return nil, err
	}
	return se.SubscribeWithOptions(ctx, p.SQL, p.opts)
}

// sharedScan is one live scan/window pipeline serving every
// subscription with the same cache key: the underlying continuous
// query's windows are pumped through a coordinator-local fan-out
// pipeline, and subscribers attach and detach dynamically.
type sharedScan struct {
	key     string
	spec    *plan.Spec
	columns []string
	slide   time.Duration
	cont    *pier.Continuous
	pipe    *physical.Pipeline
	fo      *physical.FanOut
}

// analysis merges the underlying query's network-wide counters with
// the local fan-out pipeline's.
func (ss *sharedScan) analysis() *plan.Analysis {
	a := ss.cont.Analysis()
	if a == nil {
		return nil
	}
	a.Merge(ss.pipe.Stats()...)
	return a
}

// subscribe attaches to the shared scan of sql's cache key, creating it
// (one underlying continuous query + one fan-out pipeline) on first
// attach.
func (se *Session) subscribe(ctx context.Context, sql string, opts plan.Options) (*Subscription, error) {
	key, err := normalizedKey(sql, opts)
	if err != nil {
		return nil, err
	}
	svc := se.svc
	spec, stmt, _, err := svc.resolve(sql, opts)
	if err != nil {
		return nil, err
	}
	if stmt != nil || !spec.IsContinuous() {
		return nil, fmt.Errorf("engine: not a continuous statement (no WINDOW clause); use Query")
	}
	svc.sharedMu.Lock()
	defer svc.sharedMu.Unlock()
	ss, ok := svc.shared[key]
	if ok {
		if id, ch := ss.fo.Subscribe(0); id >= 0 {
			svc.Metrics.SharedScanAttaches.Add(1)
			return se.sharedSubscription(ss, id, ch), nil
		}
		// The pipeline ended underneath (LIVE horizon): replace it.
		delete(svc.shared, key)
	}
	cont, err := svc.node.ExecuteSpecContinuous(ctx, spec)
	if err != nil {
		return nil, err
	}
	slide := time.Duration(spec.Slide)
	if slide <= 0 {
		slide = time.Duration(spec.Window)
	}
	ss = &sharedScan{
		key:     key,
		spec:    spec,
		columns: cont.Columns,
		slide:   slide,
		cont:    cont,
		fo:      physical.NewFanOut(),
	}
	ss.pipe = physical.NewPipeline("shared-scan")
	ss.pipe.SetDetail(spec.Analyze)
	inlet := physical.NewInlet()
	src := ss.pipe.Add("fanout-src", inlet.Source)
	op := ss.pipe.Add("fan-out", ss.fo.Op())
	ss.pipe.Connect(src, op)
	if _, err := ss.pipe.Start(context.Background()); err != nil {
		cont.Stop()
		return nil, err
	}
	// Pump: each window of the one underlying query enters the fan-out
	// pipeline as a single batch message carrying the window sequence.
	go func() {
		for w := range cont.Results() {
			rows := w.Rows
			if rows == nil {
				// A nil Batch would make the Msg read as a singleton;
				// empty windows stay batches so they fan out as-is.
				rows = make([]tuple.Tuple, 0)
			}
			inlet.Push(dataflow.BatchMsg(rows, w.Seq))
		}
		inlet.Close() // ends the pipeline, closing every subscriber
	}()
	id, ch := ss.fo.Subscribe(0)
	svc.shared[key] = ss
	return se.sharedSubscription(ss, id, ch), nil
}

// sharedSubscription wraps one fan-out channel as a Subscription,
// reconstructing window close times from the sequence number (windows
// close at absolute multiples of the slide — the same formula the
// WindowTicker punctuates on).
func (se *Session) sharedSubscription(ss *sharedScan, id int, ch <-chan physical.FanOutWindow) *Subscription {
	out := make(chan pier.WindowResult, 64)
	go func() {
		defer close(out)
		for fw := range ch {
			select {
			case out <- pier.WindowResult{
				Seq:  fw.Seq,
				Time: time.Unix(0, int64(fw.Seq)*int64(ss.slide)),
				Rows: fw.Rows,
			}:
			default: // consumer not draining: drop the window, stay live
			}
		}
	}()
	return &Subscription{
		Columns: ss.columns,
		id:      se.nextSub.Add(1),
		sess:    se,
		ss:      ss,
		fanID:   id,
		results: out,
	}
}
