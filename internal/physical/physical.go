// Package physical compiles distributed plan specs (plan.Spec) into
// the paper's "boxes and arrows": push-based physical-operator
// pipelines running on the dataflow engine. The pier node is only a
// harness around this layer — it builds a pipeline per role
// (participant scan, continuous window, join collector, aggregation
// collector, coordinator tail), feeds network arrivals in through
// non-blocking inlets, and wires the exchange operators to the
// overlay through the Env callbacks. Every operator is instrumented
// with rows/bytes/latency counters, which the coordinator merges
// network-wide into EXPLAIN ANALYZE output.
package physical

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/bloom"
	"repro/internal/dataflow"
	"repro/internal/expr"
	"repro/internal/id"
	"repro/internal/plan"
	"repro/internal/spill"
	"repro/internal/tuple"
)

// Env is the pipeline's view of the node it runs on. The physical
// layer never touches the overlay, the DHT, or RPC directly — the
// harness supplies these callbacks, keeping batching and relay
// combining underneath intact.
type Env struct {
	// Scan returns the raw stored payloads of the live local
	// partition of a namespace, split into up to partitions shards of
	// roughly equal size (the parallel-scan work units). Callers may
	// return fewer shards than asked for.
	Scan func(ns string, partitions int) [][][]byte
	// Fetch resolves one fetch-matches probe: a DHT get against the
	// probed table's namespace.
	Fetch func(ctx context.Context, ns string, rid id.ID) ([][]byte, error)
	// ShipRows delivers one result frame of canonical rows to the
	// coordinator (at most RowFrameBytes of encoded rows, unless one row
	// alone is larger), returning the payload bytes shipped.
	ShipRows func(window uint64, rows []tuple.Tuple) int
	// ShipPartial routes a batch of partial-state tuples toward their
	// groups' aggregation collectors, returning the payload bytes
	// shipped.
	ShipPartial func(window uint64, partials []tuple.Tuple) int
	// Rehash routes a batch of tuples toward the collectors owning
	// their join-key values at the given join stage, returning the
	// payload bytes shipped. keys holds one canonical join-key
	// encoding per tuple and is valid only during the call.
	Rehash func(stage, side int, window uint64, keys [][]byte, ts []tuple.Tuple) int
	// FlushRoutes drains pending route batches — the barrier run at
	// window boundaries and scan completion.
	FlushRoutes func()
	// DrainAck acknowledges a Drain marker once it has passed through
	// a pipeline's sink: every effect of the data that preceded the
	// marker has been shipped. The EOS completion protocol injects
	// markers into collector inlets and waits on these acks before
	// reporting the node's drain round to the coordinator. Nil when
	// the harness does not track drains.
	DrainAck func(round uint64)
	// Blooms holds the gathered phase-1 filters of the plan's Bloom
	// join stages, keyed by stage (missing stage: pass everything).
	// Stage 0 filters the right scan (built over the left base table);
	// deeper stages filter the left stream before its rehash (built
	// over the right base table — the only scannable side there).
	Blooms map[int]*bloom.Filter
	// JoinMemBudget caps resident build-state bytes per join-collector
	// stage; overflow partitions spill through Spill (0: unbounded).
	JoinMemBudget int64
	// Spill manages this node's join overflow temp files. Nil disables
	// spilling even with a budget set.
	Spill *spill.Manager
	// SpillLabel prefixes spill file names (the query ID).
	SpillLabel string
	// SpillHold is the idle debounce before a quiet-mode re-join pass
	// over spilled partitions (<= 0: operator default).
	SpillHold time.Duration
	// FetchSwitchThreshold returns the observed left-row count at which
	// a fetch-matches stage abandons per-tuple probing and rehash-ships
	// the remaining stream to the stage's collectors (nil or <= 0:
	// never switch).
	FetchSwitchThreshold func(stage int) int64
	// OnFetchSwitch fires when a fetch-matches stage switches
	// strategies mid-flight (metrics hook, may be nil).
	OnFetchSwitch func(stage int)
	// BatchSize is the vectorization width: the most tuples a source or
	// a flushing operator puts in one dataflow message. <= 0 takes
	// dataflow.DefaultBatchSize.
	BatchSize int
	// CollectorHold is the aggregation collector's debounce before
	// finalizing a window.
	CollectorHold time.Duration
	// Go runs a started pipeline's task and a scan's extra shards on
	// the node's worker set (dataflow.Graph.SetGo). Nil: a goroutine
	// each.
	Go func(f func())
}

// newPipeline creates a compiled pipeline whose graph starts through
// e.Go; analyze turns on the per-operator byte counters.
func (e *Env) newPipeline(stage string, analyze bool) *Pipeline {
	p := NewPipeline(stage)
	p.detail = analyze
	p.Graph.SetGo(e.Go)
	return p
}

// RowFrameBytes is the byte budget of one result frame: a compiled
// plan's ship-rows sink fills each Env.ShipRows call with up to this
// many bytes of encoded rows. With the frame header (at most 21 bytes)
// and the RPC header (at most 22) a full frame stays under
// transport.MaxDatagram; only a row larger than the budget can make a
// bigger one, and it ships alone. DESIGN.md (RPC and transport) has the
// measurement that chose the value.
const RowFrameBytes = 48 << 10

// bloomFor resolves the gathered filter for a stage (nil: none).
func (e *Env) bloomFor(stage int) *bloom.Filter { return e.Blooms[stage] }

// fetchAdapt builds the mid-flight switch config for a fetch stage,
// or nil when switching is disabled.
func (e *Env) fetchAdapt(spec *plan.Spec, stage int) *FetchAdapt {
	if e.FetchSwitchThreshold == nil || e.Rehash == nil {
		return nil
	}
	thr := e.FetchSwitchThreshold(stage)
	if thr <= 0 {
		return nil
	}
	return &FetchAdapt{
		Stage:     stage,
		Threshold: thr,
		LeftCols:  spec.Joins[stage].LeftCols,
		Rehash:    e.Rehash,
		OnSwitch:  e.OnFetchSwitch,
	}
}

// scanSource builds the source of one of the plan's table accesses:
// the stored rows of its namespace, each narrowed to the kept columns.
func (e *Env) scanSource(sc *plan.ScanSpec) OpFunc {
	return ScanSource(e.Scan, sc.Namespace, sc.Stored, sc.Cols, e.batchSize(), runtime.GOMAXPROCS(0))
}

// batchSize resolves the configured vectorization width.
func (e *Env) batchSize() int {
	if e.BatchSize > 0 {
		return e.BatchSize
	}
	return dataflow.DefaultBatchSize
}

// Pipeline is one compiled operator graph plus its counters.
type Pipeline struct {
	Graph *dataflow.Graph
	stage string
	// detail enables the per-operator byte counters that cost a walk
	// over every emitted tuple. Compilers set it from spec.Analyze so
	// un-analyzed queries pay nothing; hand-built pipelines default to
	// fully instrumented.
	detail bool
	ops    []*Counters
}

// NewPipeline creates an empty pipeline for the given stage
// ("participant", "join-collector", "agg-collector", "coordinator").
func NewPipeline(stage string) *Pipeline {
	return &Pipeline{Graph: dataflow.New(stage), stage: stage, detail: true}
}

// SetDetail toggles the per-operator byte counters (which cost a walk
// over every emitted tuple) for operators added afterwards —
// what the compilers derive from spec.Analyze; hand-built pipelines
// that want production-shaped instrumentation turn it off.
func (p *Pipeline) SetDetail(on bool) { p.detail = on }

// Add appends an instrumented operator.
func (p *Pipeline) Add(name string, op OpFunc) *dataflow.Node {
	c := &Counters{Stage: p.stage, Name: name, detail: p.detail}
	p.ops = append(p.ops, c)
	return p.Graph.Add(name, op(c))
}

// Connect wires two operators.
func (p *Pipeline) Connect(from, to *dataflow.Node) { p.Graph.Connect(from, to) }

// Run executes the pipeline to completion in the caller (one-shot
// graphs): a participant's scans and a coordinator tail start no task.
func (p *Pipeline) Run(ctx context.Context) error { return p.Graph.Run(ctx) }

// Start runs the pipeline on one task for streaming graphs (collectors,
// continuous queries), however many inlets feed it; cancel the context
// or close the inlets to end.
func (p *Pipeline) Start(ctx context.Context) (*dataflow.Running, error) { return p.Graph.Start(ctx) }

// Stats snapshots every operator's counters in build order. Safe
// while the pipeline is still running.
func (p *Pipeline) Stats() []plan.OpStats {
	out := make([]plan.OpStats, 0, len(p.ops))
	for _, c := range p.ops {
		out = append(out, c.Stats())
	}
	return out
}

// ---------------------------------------------------------------------------
// Plan compilation

// CompileOneShot builds the participant-side pipeline of a one-shot
// plan: what this node contributes from its local partitions.
//
//	1 scan:      Scan → Filter → Project → (PartialAgg → ShipPartial | ShipRows)
//	join chain:  Scan(0) → Filter → FetchMatchesAdaptive(stage 0..p-1 while fetch)
//	             → (tail when no stages remain | RehashExchange(stage p, side 0))
//	             plus, per rehashing stage s: Scan(s+1) → Filter →
//	             [BloomProbe for a stage-0 Bloom join] → RehashExchange(s, side 1)
//
// Consecutive leading fetch-matches stages run inline against the
// local scan of the leftmost table; the first symmetric/Bloom stage
// rehashes the accumulated left rows to that stage's collectors.
// Right tables of fetch stages deeper in the chain are probed in
// place by the upstream collectors, so participants never scan them.
func CompileOneShot(spec *plan.Spec, env *Env) *Pipeline {
	p := env.newPipeline("participant", spec.Analyze)
	if len(spec.Scans) == 1 {
		sc := &spec.Scans[0]
		prev := p.Add("scan", env.scanSource(sc))
		prev = p.maybeFilter(prev, "filter", sc.Where)
		prev = p.maybeFilter(prev, "post-filter", spec.PostFilter)
		p.addTail(spec, env, prev, false, false)
		return p
	}
	// Left chain: scan the leftmost table, fold in the leading run of
	// fetch-matches stages.
	sc0 := &spec.Scans[0]
	prev := p.Add("scan.0", env.scanSource(sc0))
	prev = p.maybeFilter(prev, "filter.0", sc0.Where)
	prev, stage := p.addFetchChain(spec, env, prev, 0)
	if stage == len(spec.Joins) {
		prev = p.maybeFilter(prev, "post-filter", spec.PostFilter)
		p.addTail(spec, env, prev, false, false)
	} else {
		// A Bloom join past stage 0 filters the accumulated left stream
		// before its rehash — the filter was built over the stage's
		// right base table.
		if stage > 0 && spec.Joins[stage].Strategy == plan.BloomJoin {
			bp := p.Add(fmt.Sprintf("bloom-probe.%d", stage), BloomProbe(env.bloomFor(stage), spec.Joins[stage].LeftCols))
			p.Connect(prev, bp)
			prev = bp
		}
		rh := p.Add(fmt.Sprintf("rehash.%d.l", stage),
			RehashExchange(stage, 0, spec.Joins[stage].LeftCols, env.Rehash, env.FlushRoutes, env.DrainAck))
		p.Connect(prev, rh)
	}
	// Right-side scans for every rehashing stage.
	for s := stage; s < len(spec.Joins); s++ {
		j := &spec.Joins[s]
		if j.Strategy == plan.FetchMatches {
			continue // probed in place by the upstream collector
		}
		sc := &spec.Scans[s+1]
		rprev := p.Add(fmt.Sprintf("scan.%d", s+1), env.scanSource(sc))
		rprev = p.maybeFilter(rprev, fmt.Sprintf("filter.%d", s+1), sc.Where)
		if s == 0 && j.Strategy == plan.BloomJoin {
			bp := p.Add("bloom-probe", BloomProbe(env.bloomFor(0), j.RightCols))
			p.Connect(rprev, bp)
			rprev = bp
		}
		rh := p.Add(fmt.Sprintf("rehash.%d.r", s),
			RehashExchange(s, 1, j.RightCols, env.Rehash, env.FlushRoutes, env.DrainAck))
		p.Connect(rprev, rh)
	}
	return p
}

// addFetchChain appends the run of consecutive fetch-matches stages
// beginning at stage, probing each right table in place via the DHT.
// Returns the new upstream node and the first non-fetch stage index
// (== len(spec.Joins) when the chain consumed every stage).
func (p *Pipeline) addFetchChain(spec *plan.Spec, env *Env, prev *dataflow.Node, stage int) (*dataflow.Node, int) {
	for stage < len(spec.Joins) && spec.Joins[stage].Strategy == plan.FetchMatches {
		j := &spec.Joins[stage]
		right := &spec.Scans[stage+1]
		ns := right.Namespace
		fetch := func(ctx context.Context, rid id.ID) ([][]byte, error) {
			return env.Fetch(ctx, ns, rid)
		}
		fm := p.Add(fmt.Sprintf("fetch-matches.%d", stage), FetchMatchesAdaptive(
			probeOrder(j, right), right, j.LeftCols, j.RightCols, fetch, env.fetchAdapt(spec, stage)))
		p.Connect(prev, fm)
		prev = fm
		stage++
	}
	return prev, stage
}

// CompileContinuous builds the windowed participant pipeline. The
// returned inlet admits samples (data messages stamped with arrival
// time); the WindowTicker source punctuates at absolute window
// boundaries and the punctuation drives window emission, partial
// flushing, and the per-window route barrier.
func CompileContinuous(spec *plan.Spec, env *Env) (*Pipeline, *Inlet) {
	p := env.newPipeline("participant", spec.Analyze)
	in := NewInlet()
	sc := &spec.Scans[0]
	slide := time.Duration(spec.Slide)
	if slide <= 0 {
		slide = time.Duration(spec.Window)
	}
	prev := p.Add("window-src", WindowTicker(in, slide, time.Duration(spec.Live)))
	prev = p.maybeFilter(prev, "filter", sc.Where)
	wb := p.Add("window", WindowBuffer(time.Duration(spec.Window), env.batchSize()))
	p.Connect(prev, wb)
	p.addTail(spec, env, wb, false, false)
	return p, in
}

// CompileJoinCollector builds the collector pipeline run by the node
// owning a join-key value of one join stage: rehashed tuples of both
// sides arrive through the returned inlets, joined rows fold in any
// following run of fetch-matches stages in place, and then either
// rehash onward to the next symmetric stage's collectors or flow
// through the rest of the plan toward the coordinator (for
// aggregates, as one eager partial per row toward the aggregation
// collectors, with relay combining absorbing the fan-in underneath).
func CompileJoinCollector(spec *plan.Spec, stage int, env *Env) (*Pipeline, [2]*Inlet) {
	p := env.newPipeline(fmt.Sprintf("join-collector.%d", stage), spec.Analyze)
	j := &spec.Joins[stage]
	inlets := [2]*Inlet{NewInlet(), NewInlet()}
	l := p.Add("probe-src.l", inlets[0].Source)
	r := p.Add("probe-src.r", inlets[1].Source)
	cfg := HybridJoinConfig{
		Budget:    env.JoinMemBudget,
		Spill:     env.Spill,
		Label:     fmt.Sprintf("%s-s%d", env.SpillLabel, stage),
		IdleHold:  env.SpillHold,
		BatchSize: env.batchSize(),
	}
	// The plan's last stage with no post-filter after it emits the
	// projected row itself: the tail then has nothing to project.
	last := stage == len(spec.Joins)-1 && spec.PostFilter == nil
	if last {
		cfg.Proj = spec.Proj
	}
	jp := p.Add("hybrid-join", HybridJoin(
		[2]int{spec.LeftArity(stage), spec.Scans[stage+1].Schema.Arity()},
		[2][]int{j.LeftCols, j.RightCols}, cfg))
	p.Connect(l, jp)
	p.Connect(r, jp)
	if last {
		p.addTail(spec, env, jp, true, true)
		return p, inlets
	}
	p.addJoinContinuation(spec, env, jp, stage+1)
	return p, inlets
}

// CompileFetchCollector builds the collector pipeline of a
// fetch-matches stage whose participants switched strategy mid-flight:
// the rehash-shipped remainder of the left stream arrives through the
// inlets (side 1 is never sent, but both exist so the EOS drain
// protocol stays uniform across stage kinds), gets deduplicated, and
// probes the published right table with a shared per-key cache. The
// continuation — further fetch stages, the next rehash, or the plan
// tail — is identical to CompileJoinCollector's.
func CompileFetchCollector(spec *plan.Spec, stage int, env *Env) (*Pipeline, [2]*Inlet) {
	p := env.newPipeline(fmt.Sprintf("join-collector.%d", stage), spec.Analyze)
	j := &spec.Joins[stage]
	right := &spec.Scans[stage+1]
	ns := right.Namespace
	fetch := func(ctx context.Context, rid id.ID) ([][]byte, error) {
		return env.Fetch(ctx, ns, rid)
	}
	inlets := [2]*Inlet{NewInlet(), NewInlet()}
	l := p.Add("probe-src.l", inlets[0].Source)
	r := p.Add("probe-src.r", inlets[1].Source)
	fc := p.Add("fetch-collector", FetchCollector(
		probeOrder(j, right), right, spec.LeftArity(stage), j.LeftCols, j.RightCols, fetch))
	p.Connect(l, fc)
	p.Connect(r, fc)
	p.addJoinContinuation(spec, env, fc, stage+1)
	return p, inlets
}

// addJoinContinuation appends everything after a join collector's
// stage operator: the following run of fetch-matches stages, then
// either the rehash toward the next symmetric stage (Bloom-filtered
// when that stage gathered one) or the plan tail.
func (p *Pipeline) addJoinContinuation(spec *plan.Spec, env *Env, jp *dataflow.Node, from int) {
	prev, next := p.addFetchChain(spec, env, jp, from)
	if next == len(spec.Joins) {
		prev = p.maybeFilter(prev, "post-filter", spec.PostFilter)
		p.addTail(spec, env, prev, true, false)
		return
	}
	if next > 0 && spec.Joins[next].Strategy == plan.BloomJoin {
		bp := p.Add(fmt.Sprintf("bloom-probe.%d", next), BloomProbe(env.bloomFor(next), spec.Joins[next].LeftCols))
		p.Connect(prev, bp)
		prev = bp
	}
	rh := p.Add(fmt.Sprintf("rehash.%d.l", next),
		RehashExchange(next, 0, spec.Joins[next].LeftCols, env.Rehash, env.FlushRoutes, env.DrainAck))
	p.Connect(prev, rh)
}

// CompileAggCollector builds the aggregation-collector pipeline:
// partial-state tuples arrive through the returned inlet, merge per
// (window, group), and finalized rows ship to the coordinator after
// the debounced hold.
func CompileAggCollector(spec *plan.Spec, env *Env) (*Pipeline, *Inlet) {
	p := env.newPipeline("agg-collector", spec.Analyze)
	in := NewInlet()
	src := p.Add("merge-src", in.Source)
	fa := p.Add("final-agg", FinalAgg(spec.GroupCols, spec.Aggs, env.CollectorHold, env.batchSize()))
	p.Connect(src, fa)
	ship := p.Add("ship-rows", ShipRows(env.ShipRows, RowFrameBytes, false, nil, env.DrainAck))
	p.Connect(fa, ship)
	return p, in
}

// CompileFinalize builds the coordinator-local tail over collected
// canonical rows: HAVING, DISTINCT, ORDER BY, LIMIT, and the output
// permutation when it moves a column (a plain SELECT's rows are already
// in select-list order) — the same operator library, instrumented. Of env it
// reads only BatchSize, the tail's vectorization width, and Go.
func CompileFinalize(spec *plan.Spec, rows []tuple.Tuple, out *[]tuple.Tuple, env *Env) *Pipeline {
	p := env.newPipeline("coordinator", spec.Analyze)
	bs := env.batchSize()
	prev := p.Add("rows", SliceSource(rows, bs))
	if spec.Having != nil {
		h := p.Add("having", Filter(spec.Having))
		p.Connect(prev, h)
		prev = h
	}
	if spec.Distinct {
		d := p.Add("distinct", Distinct())
		p.Connect(prev, d)
		prev = d
	}
	if len(spec.OrderCols) > 0 {
		k := 0 // full sort
		if spec.Limit >= 0 {
			k = spec.Limit
		}
		top := p.Add("order", TopK(k, spec.OrderCols, spec.OrderDesc, bs))
		p.Connect(prev, top)
		prev = top
	} else if spec.Limit >= 0 {
		lim := p.Add("limit", Limit(spec.Limit))
		p.Connect(prev, lim)
		prev = lim
	}
	if !spec.OutPermIdentity() {
		perm := p.Add("output-perm", Project(spec.OutPermExprs()))
		p.Connect(prev, perm)
		prev = perm
	}
	// No tail operator emits more rows than it takes: size the answer
	// once instead of growing it row by row.
	*out = make([]tuple.Tuple, 0, len(rows))
	sink := p.Add("collect", Collect(out))
	p.Connect(prev, sink)
	return p
}

// maybeFilter inserts a filter operator when the predicate exists.
func (p *Pipeline) maybeFilter(prev *dataflow.Node, name string, pred expr.Expr) *dataflow.Node {
	if pred == nil {
		return prev
	}
	f := p.Add(name, Filter(pred))
	p.Connect(prev, f)
	return f
}

// addTail appends the shared plan tail after the row-producing
// operators: projection (unless prev already emits projected rows),
// then partial aggregation shipped toward collectors, or result rows
// shipped to the coordinator. streaming marks collector pipelines,
// whose input never ends — partials go out eagerly per row, and result
// rows ship whenever the collector has caught up with its input
// (ShipRows), so nothing waits for an end of stream that does not come.
func (p *Pipeline) addTail(spec *plan.Spec, env *Env, prev *dataflow.Node, streaming, projected bool) {
	if !projected {
		proj := p.Add("project", Project(spec.Proj))
		p.Connect(prev, proj)
		prev = proj
	}
	if spec.IsAggregate() {
		agg := p.Add("partial-agg", PartialAgg(spec.GroupCols, spec.Aggs, streaming, !spec.IsContinuous(), env.batchSize()))
		p.Connect(prev, agg)
		ship := p.Add("ship-partial", ShipPartial(env.ShipPartial, env.FlushRoutes, env.DrainAck))
		p.Connect(agg, ship)
		return
	}
	ship := p.Add("ship-rows", ShipRows(env.ShipRows, RowFrameBytes, streaming, env.FlushRoutes, env.DrainAck))
	p.Connect(prev, ship)
}

// probeOrder arranges a fetch stage's left join columns in the right
// table's key-column order so the probe's resource ID hashes
// identically to the publisher's.
func probeOrder(j *plan.JoinSpec, right *plan.ScanSpec) []int {
	order := make([]int, len(right.Schema.Key))
	for i, kc := range right.Schema.Key {
		for jj, jc := range j.RightCols {
			if jc == kc {
				order[i] = j.LeftCols[jj]
				break
			}
		}
	}
	return order
}

// Instrumentation note: counters are folded inline into every
// operator's Push. The engine deliberately has no per-edge "tap"
// wrapper operators — counting through an extra hop per edge costs a
// call and a batch walk per message for nothing the operator could not
// count itself (CI greps against their reintroduction).
