package pier

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/agg"
	"repro/internal/catalog"
	"repro/internal/id"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/stats"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// Distributed ANALYZE: one one-shot aggregate query per table
// (plan.AnalyzeSpec) folds every row of the table into an agg.Sketch —
// row count, per-column HyperLogLog, bottom-k sample — partial at the
// participants, combined in the network, ended on EOS like any query.
// A table's merged sketch installs into the coordinator's catalog as
// TTL'd measured soft state only when its query ended eos: a partial
// count must not pose as the table's size. Every node piggybacks
// digests of its live measured stats onto periodic gossip (overlay
// neighbors plus one randomly routed copy per round), so the whole
// network converges to usable estimates without issuing ANALYZE
// itself. The optimizer resolves stats declared > measured-fresh >
// gossiped > coarse defaults.

const (
	tagStatsGossip = "pier.statsg" // routed: stats digest to a random node
	methGossip     = "pier.gossip" // rpc: stats digest to an overlay neighbor

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
	// 1/factor of) the count recorded when stats were last installed,
	// the node re-runs ANALYZE for that table.
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
	// Tables holds the measured tables: those whose query ended eos.
	Tables       []AnalyzedTable
	Duration     time.Duration
	Participants int
	// Reason is ReasonEOS when every table's query ended eos, else the
	// first other ending; the tables it names were not installed.
	Reason string
}

// Analyze measures statistics for the named tables (all defined
// tables when none are given) across the whole network and installs
// each table whose query ended eos into this node's catalog as
// measured soft state.
func (n *Node) Analyze(ctx context.Context, tables ...string) (*AnalyzeResult, error) {
	res, _, err := n.analyze(ctx, tables)
	return res, err
}

// analyze is Analyze, also returning each table's query result.
func (n *Node) analyze(ctx context.Context, tables []string) (*AnalyzeResult, []*Result, error) {
	if len(tables) == 0 {
		tables = n.cat.Names()
	}
	if len(tables) == 0 {
		return nil, nil, fmt.Errorf("pier: no tables to analyze")
	}
	specs := make([]*plan.Spec, len(tables))
	for i, t := range tables {
		tbl, ok := n.cat.Lookup(t)
		if !ok {
			return nil, nil, fmt.Errorf("pier: analyze unknown table %q", t)
		}
		specs[i] = plan.AnalyzeSpec(t, tbl)
	}
	start := time.Now()
	results, err := n.gather(ctx, specs)
	if err != nil {
		return nil, nil, err
	}
	res := &AnalyzeResult{Reason: ReasonEOS, Participants: results[0].Participants}
	for i, r := range results {
		res.Participants = min(res.Participants, r.Participants)
		if r.Reason != ReasonEOS {
			if res.Reason == ReasonEOS {
				res.Reason = r.Reason
			}
			continue
		}
		at, err := n.installSketch(tables[i], r.Rows)
		if err != nil {
			return nil, nil, err
		}
		res.Tables = append(res.Tables, at)
	}
	sort.Slice(res.Tables, func(i, j int) bool { return res.Tables[i].Table < res.Tables[j].Table })
	res.Duration = time.Since(start)
	return res, results, nil
}

// installSketch installs the sketch an eos ANALYZE query returned for
// table (no row: the table is empty) as measured stats.
func (n *Node) installSketch(table string, rows []tuple.Tuple) (AnalyzedTable, error) {
	tbl, ok := n.cat.Lookup(table)
	if !ok {
		return AnalyzedTable{}, fmt.Errorf("pier: analyze of dropped table %q", table)
	}
	names := baseColumnNames(tbl.Schema)
	sk := stats.NewTableSketch(table, names)
	if len(rows) == 1 && !rows[0][0].IsNull() {
		var err error
		if sk, err = agg.SketchOf(rows[0][0]); err != nil {
			return AnalyzedTable{}, err
		}
		if len(sk.Cols) > len(names) {
			return AnalyzedTable{}, fmt.Errorf("pier: %d-column sketch of %d-column table %q", len(sk.Cols), len(names), table)
		}
		// The aggregate saw rows, not a schema: name its columns.
		for i := range sk.Cols {
			sk.Cols[i].Name = names[i]
		}
	}
	st := catalog.TableStats{
		Rows:       sk.Rows,
		Distinct:   sk.Distincts(),
		Sample:     sk.Sample,
		Source:     catalog.StatsMeasured,
		MeasuredAt: time.Now(),
		TTL:        statsTTL,
	}
	if err := n.installStats(table, st); err != nil {
		return AnalyzedTable{}, err
	}
	return AnalyzedTable{Table: table, Rows: sk.Rows, Distinct: st.Distinct, SampleRows: len(sk.Sample.Items)}, nil
}

// installStats installs measured or gossiped stats and, when they take
// effect, re-baselines the table's drift trigger at this node's live
// row count: the trigger then fires on growth since the numbers the
// optimizer plans with, whichever node measured them.
func (n *Node) installStats(table string, st catalog.TableStats) error {
	ok, err := n.cat.InstallMeasured(table, st)
	tbl, found := n.cat.Lookup(table)
	if !ok || err != nil || !found {
		return err
	}
	n.driftMu.Lock()
	n.driftBase[table] = int64(n.store.Count(tbl.Namespace))
	n.driftLast[table] = time.Now()
	n.driftMu.Unlock()
	return nil
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

// onGossip is the methGossip handler: a stats digest from an overlay
// neighbor.
func (n *Node) onGossip(from string, req []byte) ([]byte, error) {
	ds, err := stats.DecodeDigests(wire.NewReader(req))
	if err != nil {
		return nil, err
	}
	n.installDigests(ds)
	return nil, nil
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
		_ = n.installStats(d.Table, catalog.TableStats{
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
// drifted table. The baseline is the local partition's row count when
// stats were last installed here (installStats, so any node's ANALYZE
// re-baselines every node its gossip reaches): when the live count moves past
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
// count, plus a single row for tables without distinct columns. A
// table's coverage is its query's, and the statement's the least of
// them.
func (n *Node) analyzeStatement(ctx context.Context, stmt []string) (*Result, error) {
	start := time.Now()
	res, results, err := n.analyze(ctx, stmt)
	if err != nil {
		return nil, err
	}
	out := &Result{
		Columns:         []string{"table", "rows", "column", "distinct"},
		Duration:        time.Since(start),
		Participants:    res.Participants,
		Reason:          res.Reason,
		Coverage:        1,
		CoverageByTable: make(map[string]float64, len(results)),
	}
	for _, r := range results {
		out.Coverage = min(out.Coverage, r.Coverage)
		for t, c := range r.CoverageByTable {
			out.CoverageByTable[t] = c
		}
	}
	for _, t := range res.Tables {
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
