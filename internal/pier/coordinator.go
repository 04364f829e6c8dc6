package pier

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/agg"
	"repro/internal/bloom"
	"repro/internal/obs"
	"repro/internal/physical"
	"repro/internal/plan"
	"repro/internal/sqlparser"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// Completion reasons a one-shot query can finish with.
// Anything other than ReasonEOS means the result may be partial: the
// coordinator gave up waiting rather than proving completion.
const (
	// ReasonEOS: every expected member reported end-of-scan and the
	// network-wide record books reconciled — the result is complete.
	ReasonEOS = "eos"
	// ReasonQuietTimeout: the quiescence fallback fired (churn or loss
	// kept the books from reconciling).
	ReasonQuietTimeout = "quiet-timeout"
	// ReasonDeadline: MaxQueryLife expired with traffic still flowing.
	ReasonDeadline = "deadline"
	// ReasonChurnDegraded: members died mid-query; every surviving
	// member reported end-of-scan and the surviving books stopped
	// moving across a full drain round, so the result is complete
	// *for the partitions that were reachable* — Coverage says which
	// fraction that was.
	ReasonChurnDegraded = "churn-degraded"
)

// Result is a completed one-shot query.
type Result struct {
	// QueryID is the network-wide query identifier; the coordinator's
	// trace ring serves the assembled cross-node trace under it
	// (Node.Trace).
	QueryID uint64
	// Columns names the result columns in select-list order.
	Columns []string
	// Rows are the result tuples, ordered per ORDER BY.
	Rows []tuple.Tuple
	// Duration is wall-clock query time at the coordinator.
	Duration time.Duration
	// Participants counts nodes that reported scan completion.
	Participants int
	// Reason records how the query completed (ReasonEOS,
	// ReasonChurnDegraded, ReasonQuietTimeout, or ReasonDeadline).
	// Non-EOS completions may have missed late rows.
	Reason string
	// Coverage is the fraction of table partitions the result
	// provably covered: served partitions over members × scanned
	// tables. 1.0 exactly when the query completed via EOS (the
	// result is then byte-identical to a stable-network run); < 1
	// when partitions were lost to churn; 0 when no partition was
	// covered.
	Coverage float64
	// CoverageByTable breaks Coverage down per scanned table.
	CoverageByTable map[string]float64
	// Analysis holds the network-wide per-operator counters when the
	// plan was compiled with Analyze (nil otherwise).
	Analysis *plan.Analysis
	// AnalyzeReport renders Analysis as the EXPLAIN ANALYZE text.
	AnalyzeReport string
}

// WindowResult is one window's output of a continuous query.
type WindowResult struct {
	// Seq is the window sequence number (monotone per query).
	Seq uint64
	// Time is the window close timestamp.
	Time time.Time
	// Rows are the window's result tuples.
	Rows []tuple.Tuple
}

// Continuous is a running continuous query.
type Continuous struct {
	// Columns names the result columns.
	Columns []string
	results chan WindowResult
	stop    func()
	q       *queryState
}

// Results streams one WindowResult per window until Stop.
func (c *Continuous) Results() <-chan WindowResult { return c.results }

// Stop tears the query down network-wide (best effort) and closes the
// results channel.
func (c *Continuous) Stop() { c.stop() }

// Analysis snapshots the network-wide per-operator counters while the
// query runs: participants re-ship cumulative snapshots per window
// close, and the coordinator folds in its own pipelines fresh at call
// time. Nil unless the plan was compiled with Analyze.
func (c *Continuous) Analysis() *plan.Analysis {
	if !c.q.spec.Analyze {
		return nil
	}
	if stats := c.q.localStats(); len(stats) > 0 {
		c.q.setNodeStats(c.q.node.Addr(), &plan.Analysis{Ops: stats})
	}
	return c.q.mergedAnalysis()
}

// AnalyzeReport renders Analysis as the EXPLAIN ANALYZE text ("" when
// the plan was not compiled with Analyze).
func (c *Continuous) AnalyzeReport() string {
	a := c.Analysis()
	if a == nil {
		return ""
	}
	return c.q.spec.ExplainAnalyze(a)
}

// Query parses, plans, disseminates, and executes sql, blocking until
// the result settles. Continuous statements are rejected here — use
// QueryContinuous.
func (n *Node) Query(ctx context.Context, sql string) (*Result, error) {
	return n.QueryWithOptions(ctx, sql, plan.Options{})
}

// QueryWithOptions is Query with explicit planner options (join
// strategy forcing, used by the benchmarks).
func (n *Node) QueryWithOptions(ctx context.Context, sql string, opts plan.Options) (*Result, error) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	if stmt.Analyze != nil {
		return n.analyzeStatement(ctx, stmt.Analyze.Tables)
	}
	if stmt.With != nil {
		return n.ExecuteRecursive(ctx, stmt)
	}
	if stmt.IsContinuous() {
		return nil, fmt.Errorf("pier: continuous query; use QueryContinuous")
	}
	spec, err := plan.Compile(stmt, n.cat, opts)
	if err != nil {
		return nil, err
	}
	return n.ExecuteSpec(ctx, spec)
}

// ExecuteSpec runs a compiled one-shot plan — the algebraic ("boxes
// and arrows") entry point.
func (n *Node) ExecuteSpec(ctx context.Context, spec *plan.Spec) (*Result, error) {
	if spec.IsContinuous() {
		return nil, fmt.Errorf("pier: continuous plan; use ExecuteSpecContinuous")
	}
	start := time.Now()
	qid := n.nextQueryID()
	// One reading of the member count serves both the partition count
	// every participant rehashes into and the EOS completion below.
	members := n.Members()
	msg := queryMsg{qid: qid, coord: n.Addr(), joinParts: joinPartitions(members), spec: spec}
	q := n.getQuery(qid, func() *queryState {
		s := n.newQueryState(qid, spec, n.Addr(), msg.joinParts)
		s.isCoord = true
		return s
	})
	if q == nil {
		return nil, fmt.Errorf("pier: node stopped")
	}
	n.Metrics.QueriesCoordinated.Add(1)
	q.initTrace(0)
	rootSpan := q.spans.Root("query")
	q.traceRoot = rootSpan
	msg.rootSpan = rootSpan
	n.traceStart(qid, rootSpan)
	defer n.dropQuery(qid)

	var bloomOps []plan.OpStats
	if len(spec.BloomStages()) > 0 {
		var err error
		bloomSpan := q.spans.Start("gather-bloom")
		msg.filters, bloomOps, err = n.gatherBloom(ctx, spec)
		q.spans.End(bloomSpan)
		if err != nil {
			return nil, err
		}
		q.filters = msg.filters
	}
	dissSpan := q.spans.Start("disseminate")
	if err := n.router.Broadcast(tagQuery, msg.encode()); err != nil {
		return nil, fmt.Errorf("pier: disseminating query: %w", err)
	}
	q.spans.End(dissSpan)
	// The Quiet clock starts at dissemination: a Bloom gather, itself a
	// query with its own clock, is not a quiet network.
	q.coMu.Lock()
	q.lastActivity = time.Now()
	q.coMu.Unlock()
	waitSpan := q.spans.Start("wait")

	// Completion: drive the deterministic EOS protocol — wait for
	// every member's end-of-scan ledger, issue drain rounds until
	// every member's latest round settled and the network-wide books
	// balance (or the books stop moving across a full round), and
	// finish the instant they do. Under churn, members
	// that miss SuspectAfter heartbeats are excluded from the
	// expected set and drain-round membership: the query then
	// completes churn-degraded the moment every *surviving* member is
	// done and the surviving books stop moving, instead of waiting
	// out the quiet timer for ledgers that will never come. The Quiet
	// quiescence timer stays underneath as the last-resort fallback
	// (pure message loss), and MaxQueryLife (plus the caller's
	// context) bounds everything.
	eosOn := true
	suspectWin := time.Duration(n.cfg.SuspectAfter) * n.cfg.HeartbeatEvery
	// Grace before inferring churn: every live member needs time to
	// land its first heartbeat ledger after the query broadcast.
	grace := time.Now().Add(suspectWin + n.cfg.HeartbeatEvery)
	var issuedRound uint64 // last drain round broadcast (0 = none yet)
	var issuedCanon string // totals snapshot at that broadcast
	var issuedAt time.Time // for re-issuing lost round broadcasts
	var suspects map[string]bool
	reason := ReasonQuietTimeout
	deadline := time.Now().Add(n.cfg.MaxQueryLife)
	poll := time.NewTicker(25 * time.Millisecond) // evaluations no kick asks for: churn inference, Quiet
	defer poll.Stop()
	for {
		select {
		case <-ctx.Done():
			n.stopQuery(qid)
			// Partial queries still trace: the stop broadcast makes
			// participants ship their spans (landing in the trace
			// ring, which outlives the query), and the deferred
			// dropQuery ships this node's — shipStats is not gated on
			// how the query ended.
			n.events.Emit(obs.SevWarn, obs.EvQueryDegraded, qid, "cancelled: %v", ctx.Err())
			return nil, ctx.Err()
		case <-q.ctx.Done():
			// Node.Stop (or a teardown broadcast) cancelled the query
			// under us: bail out without touching the router again.
			return nil, fmt.Errorf("pier: query cancelled: node stopping")
		case <-q.eosEval:
		case <-poll.C:
		}
		if time.Now().After(deadline) {
			reason = ReasonDeadline
			break
		}
		if eosOn {
			churnMode := time.Now().After(grace)
			if churnMode {
				suspects = q.suspectedMembers(suspectWin)
				for addr := range suspects {
					n.markSuspect(addr)
				}
			} else {
				suspects = nil
			}
			// Cheap gate before the full ledger fold: while any
			// member's scan is still running nothing can complete,
			// and the books move on every arriving batch. Once churn
			// inference is live the fold runs every evaluation — the
			// member count itself is in question then.
			q.coMu.Lock()
			doneCount := len(q.doneNodes)
			q.coMu.Unlock()
			if doneCount >= members || churnMode {
				st := q.eosStatus(issuedRound, suspects)
				full := st.scanDone >= members
				// Degraded completeness: every surviving reported
				// member finished its scan, but some expected members
				// are suspect or never reported at all.
				missing := members - st.live
				degraded := churnMode && st.live > 0 &&
					st.liveScanDone >= st.live &&
					(missing > 0 || len(suspects) > 0)
				if full || degraded {
					// Dead members can never ack a new round; once
					// churn inference is live, the surviving members'
					// acks carry the round.
					ackOK := st.acked || (churnMode && st.liveAcked)
					switch {
					case st.acked && st.settled && st.balanced && full:
						// Every member drained round issuedRound and
						// received no join or aggregation record after
						// its cut, and sent == recv on every channel:
						// no record is in flight or held anywhere, and
						// none will be sent (DESIGN.md, *Why a settled
						// round ends the query*). Complete.
						reason = ReasonEOS
					case issuedRound == 0 || (ackOK && st.canon != issuedCanon):
						// First round, or the books moved during the last
						// one: drain again until a full round passes with
						// no movement anywhere.
						if issuedRound >= maxDrainRounds {
							eosOn = false
							continue
						}
						issuedRound++
						issuedCanon = st.canon
						issuedAt = time.Now()
						n.broadcastDrain(qid, issuedRound)
						continue
					case ackOK && st.balanced && full:
						// All members drained round issuedRound, nothing
						// moved since it was issued, and sent == recv on
						// every channel: every shipped record was delivered
						// and fully processed. Complete.
						reason = ReasonEOS
					case ackOK && degraded:
						// Every surviving member drained the round and
						// nothing moved anywhere across it: the books of
						// the dead stay frozen, the books of the living
						// are settled. Complete for the reachable part.
						reason = ReasonChurnDegraded
					case !ackOK && time.Since(issuedAt) > n.cfg.Quiet/4:
						// A round broadcast may have been lost: re-issue it
						// (nodes that ran it dedup on the round number).
						issuedAt = time.Now()
						n.broadcastDrain(qid, issuedRound)
					}
					if reason == ReasonEOS || reason == ReasonChurnDegraded {
						break
					}
					// acked + unchanged + unbalanced with no suspects
					// means records were lost in flight: fall through
					// to the Quiet clock.
				}
			}
		}
		q.coMu.Lock()
		last := q.lastActivity
		q.coMu.Unlock()
		if time.Since(last) > n.cfg.Quiet {
			break
		}
	}
	q.spans.EndDetail(waitSpan, fmt.Sprintf("reason=%s rounds=%d", reason, issuedRound))
	n.stopQuery(qid)
	if spec.Analyze {
		// Merge this node's own counters and wait for the remote nodes
		// to RPC theirs in, analyzeGrace at most (best effort — the stop
		// broadcast itself is best effort).
		q.shipStats()
		statsCap := time.After(analyzeGrace)
	wait:
		for !q.allStatsIn() {
			select {
			case <-ctx.Done():
				break wait
			case <-statsCap:
				break wait
			case <-q.eosEval:
			}
		}
	}

	finSpan := q.spans.Start("finalize")
	rows := q.canonicalRows(0)
	var final []tuple.Tuple
	finalize := physical.CompileFinalize(spec, rows, &final, n.localEnv())
	if err := finalize.Run(ctx); err != nil {
		return nil, err
	}
	q.spans.End(finSpan)
	q.coMu.Lock()
	participants := len(q.doneNodes)
	q.coMu.Unlock()
	cov, covTables := q.coverage(reason, members, suspects)
	q.spans.EndDetail(rootSpan, "reason="+reason)
	n.recordCompletion(reason, cov, issuedRound)
	if reason == ReasonEOS {
		n.events.Emit(obs.SevInfo, obs.EvQueryCompleted, qid,
			"rows=%d participants=%d dur=%s", len(final), participants, time.Since(start).Round(time.Millisecond))
	} else {
		// A query that gave up waiting under EOS says which channels'
		// books (kind.stage.side:sent/recv) never balanced.
		books := ""
		if reason != ReasonChurnDegraded {
			books = " books=" + q.eosStatus(issuedRound, suspects).canon
		}
		n.events.Emit(obs.SevWarn, obs.EvQueryDegraded, qid,
			"reason=%s coverage=%.0f%% rows=%d participants=%d dur=%s%s",
			reason, cov*100, len(final), participants, time.Since(start).Round(time.Millisecond), books)
	}
	res := &Result{
		QueryID:         qid,
		Columns:         spec.OutNames,
		Rows:            final,
		Duration:        time.Since(start),
		Participants:    participants,
		Reason:          reason,
		Coverage:        cov,
		CoverageByTable: covTables,
	}
	if spec.Analyze {
		res.Analysis = q.mergedAnalysis(append(bloomOps, finalize.Stats()...)...)
		res.AnalyzeReport = spec.ExplainAnalyze(res.Analysis) +
			fmt.Sprintf("completion: %s (%d participants, %v)\n", reason, participants, res.Duration.Round(time.Millisecond)) +
			coverageLine(cov, covTables, members)
	}
	return res, nil
}

// coverageLine renders the EXPLAIN ANALYZE coverage annotation.
func coverageLine(cov float64, byTable map[string]float64, members int) string {
	line := fmt.Sprintf("coverage: %.0f%%", cov*100)
	if cov < 1 {
		tables := make([]string, 0, len(byTable))
		for t := range byTable {
			tables = append(tables, t)
		}
		sort.Strings(tables)
		for i, t := range tables {
			if i == 0 {
				line += " ("
			} else {
				line += ", "
			}
			line += fmt.Sprintf("%s %d/%d", t, int(byTable[t]*float64(members)+0.5), members)
		}
		line += ")"
	}
	return line + "\n"
}

// coverage folds the per-table scan records of every surviving
// member's ledger into the result's coverage accounting. An EOS
// completion is proven complete — coverage is 1.0 by definition. For
// any other completion, a table partition counts as covered only when
// a non-suspect member's ledger reports it served; members that died
// or never reported contribute nothing, which is exactly the honesty
// the dilated-snapshot semantics call for.
func (q *queryState) coverage(reason string, members int, suspects map[string]bool) (float64, map[string]float64) {
	tables := make([]string, 0, len(q.spec.Scans))
	for i := range q.spec.Scans {
		tables = append(tables, q.spec.Scans[i].Table)
	}
	byTable := make(map[string]float64, len(tables))
	if reason == ReasonEOS {
		for _, t := range tables {
			byTable[t] = 1
		}
		return 1, byTable
	}
	self := q.eosFrame()
	q.coMu.Lock()
	frames := make([]*wire.EosFrame, 0, len(q.ledgers)+1)
	for addr, f := range q.ledgers {
		if addr != self.Addr {
			frames = append(frames, f)
		}
	}
	q.coMu.Unlock()
	frames = append(frames, self)
	served := make(map[string]int, len(tables))
	for _, f := range frames {
		if suspects[f.Addr] {
			continue
		}
		for _, sc := range f.Scans {
			if sc.Served {
				served[sc.Table]++
			}
		}
	}
	total := 0
	for _, t := range tables {
		c := served[t]
		if c > members {
			c = members
		}
		byTable[t] = float64(c) / float64(members)
		total += c
	}
	return float64(total) / float64(len(tables)*members), byTable
}

// analyzeGrace caps how long an EXPLAIN ANALYZE coordinator waits after
// the stop broadcast for participant counter RPCs to arrive.
const analyzeGrace = 200 * time.Millisecond

// allStatsIn reports whether every member that finished its scan has
// delivered its pipeline counters (setNodeStats pokes eosEval).
func (q *queryState) allStatsIn() bool {
	q.coMu.Lock()
	defer q.coMu.Unlock()
	for addr := range q.doneNodes {
		if q.nodeStats[addr] == nil {
			return false
		}
	}
	return true
}

// QueryContinuous plans and launches a continuous (windowed) query.
func (n *Node) QueryContinuous(ctx context.Context, sql string) (*Continuous, error) {
	return n.QueryContinuousWithOptions(ctx, sql, plan.Options{})
}

// QueryContinuousWithOptions is QueryContinuous with explicit planner
// options (Analyze enables the per-window EXPLAIN ANALYZE stream).
func (n *Node) QueryContinuousWithOptions(ctx context.Context, sql string, opts plan.Options) (*Continuous, error) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	if !stmt.IsContinuous() {
		return nil, fmt.Errorf("pier: not a continuous query (no WINDOW clause)")
	}
	spec, err := plan.Compile(stmt, n.cat, opts)
	if err != nil {
		return nil, err
	}
	return n.ExecuteSpecContinuous(ctx, spec)
}

// ExecuteSpecContinuous launches a compiled continuous plan.
func (n *Node) ExecuteSpecContinuous(ctx context.Context, spec *plan.Spec) (*Continuous, error) {
	if !spec.IsContinuous() {
		return nil, fmt.Errorf("pier: plan has no window")
	}
	if len(spec.Scans) != 1 {
		return nil, fmt.Errorf("pier: continuous joins are not supported")
	}
	qid := n.nextQueryID()
	msg := queryMsg{qid: qid, coord: n.Addr(), joinParts: joinPartitions(n.Members()), spec: spec}
	q := n.getQuery(qid, func() *queryState {
		s := n.newQueryState(qid, spec, n.Addr(), msg.joinParts)
		s.isCoord = true
		s.lastActivity = time.Now()
		s.results = make(chan WindowResult, 64)
		return s
	})
	if q == nil {
		return nil, fmt.Errorf("pier: node stopped")
	}
	n.Metrics.QueriesCoordinated.Add(1)
	if err := n.router.Broadcast(tagQuery, msg.encode()); err != nil {
		n.dropQuery(qid)
		return nil, fmt.Errorf("pier: disseminating query: %w", err)
	}
	cont := &Continuous{
		Columns: spec.OutNames,
		q:       q,
		results: q.results,
		stop: func() {
			n.stopQuery(qid)
			n.dropQuery(qid)
			q.closeResults()
		},
	}
	// Auto-stop at the LIVE horizon.
	if spec.Live > 0 {
		time.AfterFunc(time.Duration(spec.Live)+time.Duration(spec.Slide), cont.Stop)
	}
	return cont, nil
}

// stopQuery broadcasts teardown; participants cancel their pipelines
// and GC state. Best effort by design.
func (n *Node) stopQuery(qid uint64) {
	w := wire.NewWriter(8)
	w.Uint64(qid)
	_ = n.router.Broadcast(tagStop, w.Bytes())
}

// gather runs one-shot plans side by side and returns their results
// in order: how the engine asks the network its own questions — a
// Bloom join's phase-1 filters, ANALYZE's sketches — on the one path
// every query takes, so each answer ends on EOS and says how it fell
// short (Reason, Coverage) like any other.
// At most plan.MaxTables run at once (a join has fewer Bloom stages;
// ANALYZE of a whole catalog may ask for more).
func (n *Node) gather(ctx context.Context, specs []*plan.Spec) ([]*Result, error) {
	results := make([]*Result, len(specs))
	errs := make([]error, len(specs))
	slots := make(chan struct{}, plan.MaxTables)
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		slots <- struct{}{}
		go func() {
			defer wg.Done()
			results[i], errs[i] = n.ExecuteSpec(ctx, spec)
			<-slots
		}()
	}
	wg.Wait()
	return results, errors.Join(errs...)
}

// gatherBloom runs Bloom-join phase 1: one agg.Bloom query per Bloom
// stage (plan.Spec.BloomSpec), all at once. A stage gets a filter only
// when its query ended eos; after any other ending it ships none, and
// BloomProbe passes every row of a stage without a filter, so the join
// stays complete. Under EXPLAIN ANALYZE it also returns the phase-1
// queries' counters, each operator renamed bloom-<op>, plus .<stage>
// past stage 0, so they stay apart from the main query's.
func (n *Node) gatherBloom(ctx context.Context, spec *plan.Spec) (map[int]*bloom.Filter, []plan.OpStats, error) {
	stages := spec.BloomStages()
	specs := make([]*plan.Spec, len(stages))
	for i, s := range stages {
		specs[i] = spec.BloomSpec(s)
	}
	results, err := n.gather(ctx, specs)
	if err != nil {
		return nil, nil, err
	}
	filters := make(map[int]*bloom.Filter, len(stages))
	var ops []plan.OpStats
	for i, r := range results {
		s := stages[i]
		if r.Analysis != nil {
			for _, o := range r.Analysis.Ops {
				o.Op = "bloom-" + o.Op
				if s > 0 {
					o.Op += fmt.Sprintf(".%d", s)
				}
				ops = append(ops, o)
			}
		}
		if r.Reason != ReasonEOS {
			continue
		}
		f := agg.NewBloom() // no row anywhere: nothing can match
		if len(r.Rows) == 1 && !r.Rows[0][0].IsNull() {
			if f, err = agg.BloomOf(r.Rows[0][0]); err != nil {
				continue
			}
		}
		filters[s] = f
	}
	return filters, ops, nil
}

// ---------------------------------------------------------------------------
// Coordinator result assembly

// coordAddRows ingests result rows from participants/collectors.
func (q *queryState) coordAddRows(window uint64, rows []tuple.Tuple) {
	if q.ctx.Err() != nil {
		return // query already stopped; ignore stragglers
	}
	spec := q.spec
	width := spec.CanonicalWidth()
	q.coMu.Lock()
	q.lastActivity = time.Now()
	for _, t := range rows {
		if len(t) != width {
			continue
		}
		if spec.IsAggregate() {
			// Finals replace per group: collectors re-flush refined
			// values as stragglers arrive.
			m := q.aggRows[window]
			if m == nil {
				m = make(map[string]tuple.Tuple)
				q.aggRows[window] = m
			}
			m[string(t[:len(spec.GroupCols)].Bytes())] = t
		} else {
			q.plainRows[window] = append(q.plainRows[window], t)
		}
	}
	results := q.results
	q.coMu.Unlock()
	// Counted only after the rows are stored, so balanced EOS books
	// imply every delivered row is already in the result maps.
	q.countRecv(chanKey{kind: chanRows}, len(rows))
	// Continuous queries: schedule the window's flush at its close
	// time plus settle margin.
	if results != nil {
		q.scheduleWindowFlush(window)
	}
}

func (q *queryState) scheduleWindowFlush(window uint64) {
	q.coMu.Lock()
	defer q.coMu.Unlock()
	if q.winFlushed[window] || q.winTimers[window] != nil {
		return
	}
	slide := time.Duration(q.spec.Slide)
	closeAt := time.Unix(0, int64(window)*int64(slide))
	settle := q.node.cfg.CollectorHold*2 + 50*time.Millisecond
	delay := time.Until(closeAt.Add(settle))
	if delay < 50*time.Millisecond {
		delay = 50 * time.Millisecond
	}
	q.winTimers[window] = time.AfterFunc(delay, func() { q.flushWindow(window, closeAt) })
}

func (q *queryState) flushWindow(window uint64, closeAt time.Time) {
	select {
	case <-q.ctx.Done():
		return
	default:
	}
	rows := q.canonicalRows(window)
	final, err := finalizeRows(q.ctx, q.spec, rows, q.node.localEnv())
	if err != nil {
		return
	}
	q.coMu.Lock()
	q.winFlushed[window] = true
	delete(q.winTimers, window)
	delete(q.aggRows, window)
	delete(q.plainRows, window)
	// The send stays under coMu so it serializes with closeResults —
	// otherwise a concurrent Stop could close the channel between the
	// nil check and the send.
	if q.results != nil {
		select {
		case q.results <- WindowResult{Seq: window, Time: closeAt, Rows: final}:
		default: // client not draining: drop the window, stay live
		}
	}
	q.coMu.Unlock()
}

// canonicalRows snapshots the coordinator's collected rows for one
// window in a deterministic order.
func (q *queryState) canonicalRows(window uint64) []tuple.Tuple {
	q.coMu.Lock()
	defer q.coMu.Unlock()
	if q.spec.IsAggregate() {
		m := q.aggRows[window]
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		out := make([]tuple.Tuple, 0, len(m))
		for _, k := range keys {
			out = append(out, m[k])
		}
		return out
	}
	return append([]tuple.Tuple(nil), q.plainRows[window]...)
}

// finalizeRows runs the coordinator-local tail of a plan over
// canonical rows: HAVING, DISTINCT, ORDER BY, LIMIT, and the output
// permutation — the physical layer's coordinator pipeline.
func finalizeRows(ctx context.Context, spec *plan.Spec, rows []tuple.Tuple, env *physical.Env) ([]tuple.Tuple, error) {
	var out []tuple.Tuple
	pipe := physical.CompileFinalize(spec, rows, &out, env)
	if err := pipe.Run(ctx); err != nil {
		return nil, err
	}
	return out, nil
}

// Explain compiles sql and renders the distributed plan without
// executing anything.
func (n *Node) Explain(sql string) (string, error) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return "", err
	}
	if stmt.With != nil {
		return "", fmt.Errorf("pier: EXPLAIN of recursive statements is not supported")
	}
	if stmt.Analyze != nil {
		return "", fmt.Errorf("pier: EXPLAIN of ANALYZE is not supported")
	}
	spec, err := plan.Compile(stmt, n.cat, plan.Options{})
	if err != nil {
		return "", err
	}
	return spec.Explain(), nil
}
