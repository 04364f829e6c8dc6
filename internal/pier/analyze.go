package pier

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/catalog"
	"repro/internal/dataflow"
	"repro/internal/id"
	"repro/internal/obs"
	"repro/internal/overlay"
	"repro/internal/physical"
	"repro/internal/plan"
	"repro/internal/stats"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// Distributed ANALYZE: the statement broadcasts a stats-gather
// request; every node runs the stats-gather role (a physical pipeline
// scanning its local partitions into mergeable sketches — row count,
// per-column HyperLogLog, bottom-k sample) and ships the per-partition
// sketches to the coordinator, whose sketch-merge pipeline folds them
// into network-wide estimates. The merged result installs into the
// coordinator's catalog as TTL'd measured soft state, and every node
// piggybacks digests of its live measured stats onto periodic gossip
// (overlay neighbors plus one randomly routed copy per round), so the
// whole network converges to usable estimates without issuing ANALYZE
// itself. The optimizer resolves stats declared > measured-fresh >
// gossiped > coarse defaults.

const (
	tagAnalyzeQ    = "pier.analyzeq" // broadcast: run the stats-gather role
	tagStatsGossip = "pier.statsg"   // routed: stats digest to a random node
	methSketch     = "pier.sketch"   // rpc to coordinator: per-partition sketches
	methGossip     = "pier.gossip"   // rpc: stats digest to an overlay neighbor

	// maxAnalyzeTables bounds one ANALYZE request's table list; the
	// sender validates against the same limit receivers decode with.
	maxAnalyzeTables = plan.MaxTables * 16

	// statsTTL is the soft-state lifetime of ANALYZE-measured
	// statistics (and the TTL their gossip digests carry).
	statsTTL = 60 * time.Second
	// statsGossipFanout is how many overlay neighbors receive each
	// gossip round (plus one digest routed to a random key for
	// epidemic mixing across the ring).
	statsGossipFanout = 2
	// statsGossipEvery is the stats-digest gossip period (simulation
	// scale).
	statsGossipEvery = 250 * time.Millisecond

	// statsDriftFactor arms drift-triggered auto re-ANALYZE: when a
	// table's live local row count grows past factor× (or shrinks below
	// 1/factor of) the count recorded at its last ANALYZE, the node
	// re-runs ANALYZE for that table.
	statsDriftFactor = 4
	// statsDriftCheckEvery is the drift check period.
	statsDriftCheckEvery = 500 * time.Millisecond
	// statsDriftMinInterval rate-limits auto re-ANALYZE per table.
	statsDriftMinInterval = 10 * time.Second
)

// AnalyzedTable is one table's merged, network-wide measurement.
type AnalyzedTable struct {
	Table string
	// Rows is the measured network-wide cardinality (sum of
	// per-partition counts; replicas never count).
	Rows int64
	// Distinct holds the per-column HyperLogLog estimates, keyed by
	// base column name.
	Distinct map[string]int64
	// SampleRows is the merged bottom-k row sample's size.
	SampleRows int
}

// AnalyzeResult is one completed ANALYZE.
type AnalyzeResult struct {
	Tables       []AnalyzedTable
	Duration     time.Duration
	Participants int
	// Reason records how the gather completed: ReasonEOS when every
	// expected member answered, else the quiescence/deadline fallback.
	Reason string
}

// sketchGather is the coordinator's state for one ANALYZE: arriving
// per-partition sketches flow through a sketch-merge pipeline into
// the per-table accumulators.
type sketchGather struct {
	pipe     *physical.Pipeline
	in       *physical.Inlet
	sketches map[string]*stats.TableSketch // written only by the merge operator
	nodes    map[string]bool
	last     time.Time
	notify   chan struct{} // pokes the completion loop per answered node
}

// Analyze measures statistics for the named tables (all defined
// tables when none are given) across the whole network and installs
// the merged result into this node's catalog as measured soft state.
func (n *Node) Analyze(ctx context.Context, tables ...string) (*AnalyzeResult, error) {
	if len(tables) == 0 {
		tables = n.cat.Names()
	}
	if len(tables) == 0 {
		return nil, fmt.Errorf("pier: no tables to analyze")
	}
	// The request must decode on every receiver — reject here with a
	// real error instead of broadcasting a frame the whole network
	// (including our own self-delivery) would silently drop.
	if len(tables) > maxAnalyzeTables {
		return nil, fmt.Errorf("pier: analyze of %d tables exceeds the %d-table limit; analyze in batches", len(tables), maxAnalyzeTables)
	}
	for _, t := range tables {
		if _, ok := n.cat.Lookup(t); !ok {
			return nil, fmt.Errorf("pier: analyze unknown table %q", t)
		}
	}
	start := time.Now()
	qid := n.nextQueryID()

	g := &sketchGather{
		sketches: make(map[string]*stats.TableSketch),
		nodes:    make(map[string]bool),
		last:     start,
		notify:   make(chan struct{}, 1),
	}
	g.pipe, g.in = physical.CompileSketchMerge(n.localEnv(), func(table string, enc []byte) error {
		sk, err := stats.TableSketchFromBytes(enc)
		if err != nil {
			return err
		}
		if cur, ok := g.sketches[table]; ok {
			return cur.Merge(sk)
		}
		g.sketches[table] = sk
		return nil
	})
	run, err := g.pipe.Start(context.Background())
	if err != nil {
		return nil, err
	}
	n.gatherMu.Lock()
	n.gathers[qid] = g
	n.gatherMu.Unlock()
	defer func() {
		n.gatherMu.Lock()
		delete(n.gathers, qid)
		n.gatherMu.Unlock()
	}()

	if err := n.router.Broadcast(tagAnalyzeQ, encodeAnalyzeMsg(qid, n.Addr(), tables)); err != nil {
		g.in.Close()
		_ = run.Wait()
		return nil, fmt.Errorf("pier: disseminating analyze: %w", err)
	}

	// Completion: the gather finishes the moment every expected
	// member has answered — a node's answer is marked
	// only after all of its sketches entered the merge inlet, so the
	// count can never close the inlet mid-batch. The doubled-Quiet
	// quiescence horizon stays as the fallback for churn and loss
	// (an ANALYZE gather is a single burst per node, so a missed
	// straggler directly skews the estimate), bounded by MaxQueryLife
	// and the caller's context.
	// EffectiveMembers subtracts members the liveness registry
	// currently suspects dead (trained by query heartbeats), so a
	// gather after a crash completes on the surviving count instead
	// of paying the whole quiescence horizon for answers that will
	// never come.
	members := n.EffectiveMembers()
	reason := ReasonQuietTimeout
	deadline := start.Add(n.cfg.MaxQueryLife)
	horizon := 2 * n.cfg.Quiet
	for {
		select {
		case <-ctx.Done():
			g.in.Close()
			_ = run.Wait()
			return nil, ctx.Err()
		case <-g.notify:
		case <-time.After(25 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			reason = ReasonDeadline
			break
		}
		n.gatherMu.Lock()
		last := g.last
		answered := len(g.nodes)
		n.gatherMu.Unlock()
		// A member suspected mid-gather (by a concurrently running
		// query's heartbeat detector) shrinks the expected count;
		// shrink only, so late rehabilitation never un-completes us.
		if m := n.EffectiveMembers(); m < members {
			members = m
		}
		if answered >= members {
			reason = ReasonEOS
			break
		}
		if time.Since(last) > horizon {
			break
		}
	}
	g.in.Close()
	if err := run.Wait(); err != nil {
		return nil, err
	}

	// Install the merged estimates as measured soft state and build
	// the result in table-name order.
	measuredAt := time.Now()
	res := &AnalyzeResult{Duration: time.Since(start), Reason: reason}
	n.gatherMu.Lock()
	res.Participants = len(g.nodes)
	n.gatherMu.Unlock()
	names := make([]string, 0, len(g.sketches))
	for t := range g.sketches {
		names = append(names, t)
	}
	sort.Strings(names)
	for _, t := range names {
		sk := g.sketches[t]
		st := catalog.TableStats{
			Rows:       sk.Rows,
			Distinct:   sk.Distincts(),
			Sample:     sk.Sample.Clone(),
			Source:     catalog.StatsMeasured,
			MeasuredAt: measuredAt,
			TTL:        statsTTL,
		}
		if err := n.cat.InstallMeasured(t, st); err != nil {
			return nil, err
		}
		res.Tables = append(res.Tables, AnalyzedTable{
			Table: t, Rows: sk.Rows, Distinct: sk.Distincts(),
			SampleRows: len(sk.Sample.Items),
		})
	}
	return res, nil
}

// encodeAnalyzeMsg frames a stats-gather request.
func encodeAnalyzeMsg(qid uint64, coord string, tables []string) []byte {
	w := wire.NewWriter(64)
	w.Uint64(qid)
	w.String(coord)
	w.Uvarint(uint64(len(tables)))
	for _, t := range tables {
		w.String(t)
	}
	return w.Bytes()
}

func decodeAnalyzeMsg(payload []byte) (qid uint64, coord string, tables []string, err error) {
	r := wire.NewReader(payload)
	qid = r.Uint64()
	coord = r.String()
	count := int(r.Uvarint())
	if count > maxAnalyzeTables {
		err = fmt.Errorf("pier: analyze request for %d tables", count)
		return
	}
	for i := 0; i < count; i++ {
		tables = append(tables, r.String())
	}
	err = r.Done()
	return
}

// answerAnalyze is the participant side of the stats-gather role:
// sketch every requested table this node knows, then ship the batch
// of per-partition sketches to the coordinator in one RPC.
func (n *Node) answerAnalyze(qid uint64, coord string, tables []string) {
	var out []sketchEntry
	for _, table := range tables {
		tbl, ok := n.cat.Lookup(table)
		if !ok {
			continue // tables are declared per-node; skip unknown ones
		}
		// Sketch a partitioned scan of the live partition.
		sk := stats.NewTableSketch(table, baseColumnNames(tbl.Schema))
		env := &physical.Env{Scan: n.scanPayloads, BatchSize: n.cfg.BatchSize, Go: n.peer.Go}
		pipe := physical.CompileStatsGather(tbl.Namespace, tbl.Schema.Arity(), env, sk)
		if err := pipe.Run(context.Background()); err != nil {
			continue
		}
		out = append(out, sketchEntry{table: table, enc: sk.Bytes()})
		// Re-baseline the drift trigger at the freshly measured local
		// row count. Every node answers every ANALYZE (whoever issued
		// it), so an auto re-ANALYZE resets the whole network's
		// baselines — the trigger is self-damping.
		n.driftMu.Lock()
		n.driftBase[table] = sk.Rows
		n.driftLast[table] = time.Now()
		n.driftMu.Unlock()
	}
	// Always answer — even with zero sketches — so a count-based
	// coordinator can tell "node has nothing" from "node still working".
	if coord == n.Addr() {
		n.deliverSketches(qid, n.Addr(), out)
		return
	}
	w := wire.NewWriter(256)
	w.Uint64(qid)
	w.Uvarint(uint64(len(out)))
	for _, e := range out {
		w.String(e.table)
		w.BytesLP(e.enc)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_, _ = n.peer.Call(ctx, coord, methSketch, w.Bytes())
}

// sketchEntry is one encoded per-partition table sketch in flight.
type sketchEntry struct {
	table string
	enc   []byte
}

// deliverSketches feeds one node's whole sketch batch into the
// coordinator's merge pipeline and only then marks the node as
// answered: completion counts can never close the inlet with part of
// a counted node's batch still outside it.
func (n *Node) deliverSketches(qid uint64, from string, entries []sketchEntry) {
	n.gatherMu.Lock()
	g := n.gathers[qid]
	n.gatherMu.Unlock()
	if g == nil {
		return
	}
	for _, e := range entries {
		g.in.Push(dataflow.BatchMsg([]tuple.Tuple{{tuple.String(e.table), tuple.Bytes(e.enc)}}, 0))
	}
	n.gatherMu.Lock()
	g.nodes[from] = true
	g.last = time.Now()
	n.gatherMu.Unlock()
	select {
	case g.notify <- struct{}{}:
	default:
	}
}

// registerStatsHandlers wires the ANALYZE and gossip RPC methods
// (called from registerHandlers).
func (n *Node) registerStatsHandlers() {
	n.peer.Handle(methSketch, func(from string, req []byte) ([]byte, error) {
		n.clearSuspect(from) // an answer proves the member is alive
		r := wire.NewReader(req)
		qid := r.Uint64()
		count := int(r.Uvarint())
		if count > maxAnalyzeTables {
			return nil, fmt.Errorf("pier: sketch batch of %d", count)
		}
		entries := make([]sketchEntry, 0, count)
		for i := 0; i < count; i++ {
			table := r.String()
			enc := append([]byte(nil), r.BytesLP()...)
			if r.Err() != nil {
				break
			}
			entries = append(entries, sketchEntry{table: table, enc: enc})
		}
		if err := r.Done(); err != nil {
			return nil, err
		}
		n.deliverSketches(qid, from, entries)
		return nil, nil
	})
	n.peer.Handle(methGossip, func(from string, req []byte) ([]byte, error) {
		ds, err := stats.DecodeDigests(wire.NewReader(req))
		if err != nil {
			return nil, err
		}
		n.installDigests(ds)
		return nil, nil
	})
}

// ---------------------------------------------------------------------------
// Gossip dissemination

// statsDigests snapshots this node's live measured/gossiped stats as
// TTL'd digests.
func (n *Node) statsDigests() []stats.Digest {
	all := n.cat.MeasuredAll()
	if len(all) == 0 {
		return nil
	}
	names := make([]string, 0, len(all))
	for t := range all {
		names = append(names, t)
	}
	sort.Strings(names)
	out := make([]stats.Digest, 0, len(names))
	for _, t := range names {
		st := all[t]
		out = append(out, stats.Digest{
			Table: t, Rows: st.Rows, Distinct: st.Distinct,
			MeasuredAt: st.MeasuredAt, TTL: st.TTL,
		})
	}
	return out
}

// installDigests folds received digests into the catalog as gossiped
// soft state. Tables this node never defined are skipped — stats are
// useless without a schema to plan against — and the catalog's
// precedence keeps declared stats, and any measurement at least as
// new as the digest, on top.
func (n *Node) installDigests(ds []stats.Digest) {
	now := time.Now()
	for _, d := range ds {
		if d.Expired(now) {
			continue
		}
		if _, ok := n.cat.Lookup(d.Table); !ok {
			continue
		}
		_ = n.cat.InstallMeasured(d.Table, catalog.TableStats{
			Rows:       d.Rows,
			Distinct:   d.Distinct,
			Source:     catalog.StatsGossiped,
			MeasuredAt: d.MeasuredAt,
			TTL:        d.TTL,
		})
	}
}

// statsGossipLoop periodically piggybacks this node's stats digests
// onto the overlay's maintained neighbor links, plus one copy routed
// to a uniformly random key per round — the epidemic mixing step that
// keeps convergence logarithmic instead of crawling around the ring.
func (n *Node) statsGossipLoop() {
	defer n.wg.Done()
	selfHash := id.HashString(n.Addr())
	rng := rand.New(rand.NewSource(int64(binary.BigEndian.Uint64(selfHash[:8])) ^ time.Now().UnixNano()))
	t := time.NewTicker(statsGossipEvery)
	defer t.Stop()
	for {
		select {
		case <-n.stopCh:
			return
		case <-t.C:
			n.gossipStatsOnce(rng)
		}
	}
}

// gossipStatsOnce runs one gossip round.
func (n *Node) gossipStatsOnce(rng *rand.Rand) {
	ds := n.statsDigests()
	if len(ds) == 0 {
		return
	}
	w := wire.NewWriter(64)
	stats.EncodeDigests(w, ds)
	payload := w.Bytes()

	nbs := n.router.Neighbors()
	if len(nbs) > 1 {
		rng.Shuffle(len(nbs), func(i, j int) { nbs[i], nbs[j] = nbs[j], nbs[i] })
	}
	for i := 0; i < len(nbs) && i < statsGossipFanout; i++ {
		if nbs[i].Addr == n.Addr() {
			continue
		}
		_ = n.peer.Notify(nbs[i].Addr, methGossip, payload)
	}
	var rid id.ID
	rng.Read(rid[:])
	_ = n.router.Route(rid, tagStatsGossip, payload)
}

// onStatsGossip handles a routed gossip digest (the random-key copy).
func (n *Node) onStatsGossip(payload []byte) {
	if ds, err := stats.DecodeDigests(wire.NewReader(payload)); err == nil {
		n.installDigests(ds)
	}
}

// ---------------------------------------------------------------------------
// Drift-triggered re-ANALYZE

// statsDriftLoop watches the live local row counts for drift away
// from the last measured baseline and re-issues ANALYZE for the
// drifted table. The baseline is the local partition's row count at
// the last ANALYZE (recorded in answerAnalyze, so any node's ANALYZE
// re-baselines every node): when the live count moves past
// statsDriftFactor times the baseline in either direction, the
// optimizer is planning against numbers that are off by the same
// factor, and a fresh measurement is worth its scan. Triggers are
// rate-limited per table by statsDriftMinInterval; tables never
// analyzed have no baseline and never trigger.
func (n *Node) statsDriftLoop() {
	defer n.wg.Done()
	t := time.NewTicker(statsDriftCheckEvery)
	defer t.Stop()
	for {
		select {
		case <-n.stopCh:
			return
		case <-t.C:
			for _, table := range n.driftedTables() {
				ctx, cancel := context.WithTimeout(context.Background(), n.cfg.MaxQueryLife)
				_, err := n.Analyze(ctx, table)
				cancel()
				if err == nil {
					n.Metrics.AutoAnalyzes.Add(1)
					n.events.Emit(obs.SevInfo, obs.EvAutoAnalyze, 0, "drift re-ANALYZE of %s", table)
				}
			}
		}
	}
}

// driftedTables reports the tables whose live local row count has
// drifted beyond the factor from the measured baseline, marking their
// rate-limit stamps so concurrent checks never double-trigger.
func (n *Node) driftedTables() []string {
	n.driftMu.Lock()
	bases := make(map[string]int64, len(n.driftBase))
	for t, b := range n.driftBase {
		if time.Since(n.driftLast[t]) >= statsDriftMinInterval {
			bases[t] = b
		}
	}
	n.driftMu.Unlock()
	var out []string
	for table, base := range bases {
		tbl, ok := n.cat.Lookup(table)
		if !ok {
			continue
		}
		cur, ref := float64(n.store.Count(tbl.Namespace)), float64(base)
		if ref < 1 {
			ref = 1
		}
		if cur < 1 {
			cur = 1
		}
		if cur/ref <= statsDriftFactor && ref/cur <= statsDriftFactor {
			continue
		}
		n.driftMu.Lock()
		if time.Since(n.driftLast[table]) >= statsDriftMinInterval {
			n.driftLast[table] = time.Now()
			out = append(out, table)
		}
		n.driftMu.Unlock()
	}
	sort.Strings(out)
	return out
}

// ---------------------------------------------------------------------------
// Statement integration

// analyzeStatement runs an ANALYZE statement and renders the measured
// stats as result rows: one per (table, column) with the table's row
// count, plus a single row for tables without distinct columns. Every
// answering member scanned its partition of every table, so coverage
// is the answered share of the members.
func (n *Node) analyzeStatement(ctx context.Context, stmt []string) (*Result, error) {
	start := time.Now()
	res, err := n.Analyze(ctx, stmt...)
	if err != nil {
		return nil, err
	}
	out := &Result{
		Columns:         []string{"table", "rows", "column", "distinct"},
		Duration:        time.Since(start),
		Participants:    res.Participants,
		Reason:          res.Reason,
		Coverage:        min(1, float64(res.Participants)/float64(n.Members())),
		CoverageByTable: make(map[string]float64, len(res.Tables)),
	}
	for _, t := range res.Tables {
		out.CoverageByTable[t.Table] = out.Coverage
		cols := make([]string, 0, len(t.Distinct))
		for c := range t.Distinct {
			cols = append(cols, c)
		}
		sort.Strings(cols)
		if len(cols) == 0 {
			out.Rows = append(out.Rows, tuple.Tuple{
				tuple.String(t.Table), tuple.Int(t.Rows), tuple.Null(), tuple.Null(),
			})
			continue
		}
		for _, c := range cols {
			out.Rows = append(out.Rows, tuple.Tuple{
				tuple.String(t.Table), tuple.Int(t.Rows), tuple.String(c), tuple.Int(t.Distinct[c]),
			})
		}
	}
	return out, nil
}

// baseColumnNames strips any qualifier off a schema's column names —
// the keys sketches, digests, and the catalog agree on.
func baseColumnNames(sch *tuple.Schema) []string {
	out := make([]string, len(sch.Columns))
	for i, c := range sch.Columns {
		out[i] = tuple.BaseName(c.Name)
	}
	return out
}

// onAnalyzeBroadcast dispatches a stats-gather request off the
// overlay dispatch goroutine.
func (n *Node) onAnalyzeBroadcast(from overlay.Node, payload []byte) {
	qid, coord, tables, err := decodeAnalyzeMsg(payload)
	if err != nil {
		return
	}
	n.mu.Lock()
	stopped := n.stopped
	if !stopped {
		n.wg.Add(1)
	}
	n.mu.Unlock()
	if stopped {
		return
	}
	n.peer.Go(func() {
		defer n.wg.Done()
		n.answerAnalyze(qid, coord, tables)
	})
}
