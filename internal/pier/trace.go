package pier

import (
	"repro/internal/obs"
)

// traceRingCap bounds how many recent queries keep assembled spans.
const traceRingCap = 16

// traceEntry accumulates one query's spans, per contributing node. It
// outlives the queryState: participants ship their span buffers on the
// teardown stats RPC, which can arrive after the coordinator's query
// has already been dropped (cancel/deadline paths included), so late
// spans land here instead of being lost.
type traceEntry struct {
	qid    uint64
	root   uint64
	coord  string
	byNode map[string][]obs.Span
}

// Obs returns the node's metrics registry.
func (n *Node) Obs() *obs.Registry { return n.reg }

// Events returns the node's structured event ring.
func (n *Node) Events() *obs.EventLog { return n.events }

// registerMetrics attaches the node's counters to its registry under
// pier_* series names and resolves the hot completion-path handles.
func (n *Node) registerMetrics() {
	reg := n.reg
	reg.RegisterCounter("pier_queries_coordinated_total", &n.Metrics.QueriesCoordinated)
	reg.RegisterCounter("pier_queries_participated_total", &n.Metrics.QueriesParticipated)
	reg.RegisterCounter("pier_partials_sent_total", &n.Metrics.PartialsSent)
	reg.RegisterCounter("pier_partials_combined_total", &n.Metrics.PartialsCombined)
	reg.RegisterCounter("pier_join_tuples_rehashed_total", &n.Metrics.JoinTuplesRehashed)
	reg.RegisterCounter("pier_join_arrivals_total", &n.Metrics.JoinArrivals)
	reg.RegisterCounter("pier_join_pushes_total", &n.Metrics.JoinPushes)
	reg.RegisterCounter("pier_fetch_probes_total", &n.Metrics.FetchProbes)
	reg.RegisterCounter("pier_strategy_switches_total", &n.Metrics.StrategySwitches)
	reg.RegisterCounter("pier_auto_analyzes_total", &n.Metrics.AutoAnalyzes)
	n.completions = make(map[string]*obs.Counter, 4)
	for _, reason := range []string{ReasonEOS, ReasonQuietTimeout, ReasonDeadline, ReasonChurnDegraded} {
		n.completions[reason] = reg.Counter(obs.L("pier_completions_total", "reason", reason))
	}
	n.covHist = reg.Histogram("pier_coverage_percent", obs.PercentBuckets)
	n.drainHist = reg.Histogram("pier_drain_rounds", obs.CountBuckets)
	n.hbSent = reg.Counter("pier_eos_ledgers_sent_total")
	reg.Counter("pier_suspicions_total")
	reg.Counter("pier_suspicions_cleared_total")
	reg.RegisterFunc("pier_active_queries", func() float64 {
		n.mu.Lock()
		defer n.mu.Unlock()
		return float64(len(n.queries))
	})
	reg.RegisterFunc("pier_suspected_members", func() float64 {
		n.suspectMu.Lock()
		defer n.suspectMu.Unlock()
		return float64(len(n.suspects))
	})
}

// recordCompletion feeds the completion-reason, coverage, and drain
// metrics at the end of a coordinated one-shot query.
func (n *Node) recordCompletion(reason string, coverage float64, drainRounds uint64) {
	c := n.completions[reason]
	if c == nil {
		c = n.reg.Counter(obs.L("pier_completions_total", "reason", reason))
	}
	c.Inc()
	if coverage > 0 {
		n.covHist.Observe(uint64(coverage * 100))
	}
	n.drainHist.Observe(drainRounds)
}

// traceStart registers a trace ring entry for a freshly coordinated
// query, evicting the oldest entry past the ring capacity.
func (n *Node) traceStart(qid, root uint64) *traceEntry {
	e := &traceEntry{qid: qid, root: root, coord: n.Addr(), byNode: make(map[string][]obs.Span)}
	n.traceMu.Lock()
	defer n.traceMu.Unlock()
	if _, ok := n.traces[qid]; !ok {
		n.traceOrder = append(n.traceOrder, qid)
		if len(n.traceOrder) > traceRingCap {
			evict := n.traceOrder[0]
			n.traceOrder = n.traceOrder[1:]
			delete(n.traces, evict)
		}
	}
	n.traces[qid] = e
	return e
}

// addTraceSpans files spans under a query's ring entry (no-op when the
// query was never coordinated here or has been evicted). Spans carry
// their own node attribution.
func (n *Node) addTraceSpans(qid uint64, spans []obs.Span) {
	if len(spans) == 0 {
		return
	}
	n.traceMu.Lock()
	defer n.traceMu.Unlock()
	e := n.traces[qid]
	if e == nil {
		return
	}
	for _, s := range spans {
		if len(e.byNode[s.Node]) < 512 {
			e.byNode[s.Node] = append(e.byNode[s.Node], s)
		}
	}
}

// AddTraceSpans appends externally recorded spans (the engine's
// parse/plan/admission phases) to a coordinated query's trace.
func (n *Node) AddTraceSpans(qid uint64, spans []obs.Span) { n.addTraceSpans(qid, spans) }

// Trace assembles the cross-node trace of a coordinated query, or nil
// if it is unknown (never coordinated here, or evicted from the ring).
// Remote node clocks are skew-normalized; see obs.AssembleTrace.
func (n *Node) Trace(qid uint64) *obs.Trace {
	n.traceMu.Lock()
	e := n.traces[qid]
	var byNode map[string][]obs.Span
	var root uint64
	var coord string
	if e != nil {
		root, coord = e.root, e.coord
		byNode = make(map[string][]obs.Span, len(e.byNode))
		for node, spans := range e.byNode {
			byNode[node] = append([]obs.Span(nil), spans...)
		}
	}
	n.traceMu.Unlock()
	if e == nil {
		return nil
	}
	return obs.AssembleTrace(qid, root, coord, byNode)
}

// LastTrace assembles the most recently started query's trace, or nil
// when none exists.
func (n *Node) LastTrace() *obs.Trace {
	n.traceMu.Lock()
	var qid uint64
	if len(n.traceOrder) > 0 {
		qid = n.traceOrder[len(n.traceOrder)-1]
	}
	n.traceMu.Unlock()
	if qid == 0 {
		return nil
	}
	return n.Trace(qid)
}
