package pier

import (
	"fmt"

	"repro/internal/dataflow"
	"repro/internal/physical"
	"repro/internal/plan"
	"repro/internal/tuple"
)

// Collector roles run as streaming physical pipelines: the first
// routed tuple for a (query, join stage) lazily starts that stage's
// pipeline, and network arrivals are pushed through non-blocking
// inlets (the transport's dispatch goroutine must never be
// backpressured by query work). Pipelines stop when the query is torn
// down (ctx cancel).

// joinInlet returns (starting the stage's pipeline if needed) the
// inlet for one side of a join stage's collector.
func (q *queryState) joinInlet(stage, side int) *physical.Inlet {
	if stage >= len(q.spec.Joins) || side > 1 {
		return nil
	}
	q.pipeMu.Lock()
	defer q.pipeMu.Unlock()
	if q.joinInlets == nil {
		q.joinInlets = make(map[int][2]*physical.Inlet)
	}
	inlets, ok := q.joinInlets[stage]
	if !ok {
		// Symmetric/Bloom stages run the hybrid-hash join over both
		// sides; a fetch-matches stage only ever receives rehashed
		// tuples when participants switched strategy mid-flight, and
		// its collector probes the published right table instead.
		var pipe *physical.Pipeline
		var in [2]*physical.Inlet
		if q.spec.Joins[stage].Strategy == plan.FetchMatches {
			pipe, in = physical.CompileFetchCollector(q.spec, stage, q.pipelineEnv())
		} else {
			pipe, in = physical.CompileJoinCollector(q.spec, stage, q.pipelineEnv())
		}
		run, err := pipe.Start(q.ctx)
		if err != nil {
			return nil
		}
		inlets = in
		q.joinInlets[stage] = inlets
		q.pipes = append(q.pipes, pipe)
		q.running = append(q.running, run)
		// Collector spans open when the stage's pipeline lazily starts
		// and close with the other open spans at teardown.
		q.spans.Start(fmt.Sprintf("collect-join.s%d", stage))
	}
	return inlets[side]
}

// aggInlet returns (starting the pipeline if needed) the inlet of the
// aggregation-collector merge.
func (q *queryState) aggInlet() *physical.Inlet {
	if !q.spec.IsAggregate() {
		return nil
	}
	q.pipeMu.Lock()
	defer q.pipeMu.Unlock()
	if q.aggIn == nil {
		pipe, in := physical.CompileAggCollector(q.spec, q.pipelineEnv())
		run, err := pipe.Start(q.ctx)
		if err != nil {
			return nil
		}
		q.aggIn = in
		q.pipes = append(q.pipes, pipe)
		q.running = append(q.running, run)
		q.spans.Start("collect-agg")
	}
	return q.aggIn
}

// collectJoinTuples feeds one group of rehashed tuples — all of one
// delivery's tuples for a (stage, side, window), see onJoinRecords —
// into a join stage's collector as one batch message.
func (q *queryState) collectJoinTuples(window uint64, stage, side int, ts []tuple.Tuple) {
	in := q.joinInlet(stage, side)
	if in == nil {
		return
	}
	in.Push(dataflow.BatchMsg(ts, window))
	// Counted only after the push: a received record visible in this
	// node's ledger is then guaranteed to precede any later drain
	// marker in the inlet, so the round's ack covers its processing.
	q.countRecv(chanKey{kind: chanJoin, stage: uint8(stage), side: uint8(side)}, len(ts))
}

// collectPartials feeds arriving partial-state tuples into the
// aggregation collector.
func (q *queryState) collectPartials(window uint64, partials []tuple.Tuple) {
	in := q.aggInlet()
	if in == nil {
		return
	}
	in.Push(dataflow.BatchMsg(partials, window))
	// After the push — see collectJoinTuples.
	q.countRecv(chanKey{kind: chanAgg}, len(partials))
}
