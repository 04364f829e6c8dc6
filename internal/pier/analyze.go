package pier

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/overlay"
	"repro/internal/plan"
	"repro/internal/stats"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// Distributed ANALYZE: one one-shot aggregate query per table
// (plan.AnalyzeSpec) folds every row of the table into an agg.Sketch —
// row count, per-column HyperLogLog, bottom-k sample — partial at the
// participants, combined in the network, ended on EOS like any query.
// A table's merged sketch installs as TTL'd measured soft state only
// when its query ended eos: a partial count must not pose as the
// table's size. The coordinator installs it and broadcasts it once
// (tagAnalyzed); every node that receives the broadcast installs the
// same sketch, so all of them plan from the same rows, distincts and
// sample. A node the broadcast misses plans with what it had until
// the next ANALYZE reaches it or its stats expire. The optimizer
// resolves stats declared > measured-fresh > coarse defaults.

const (
	tagAnalyzed = "pier.analyzed" // broadcast: an installed ANALYZE's sketch
	methDrift   = "pier.drift"    // rpc to the measurer: a table has drifted

	// statsTTL is the soft-state lifetime of ANALYZE-measured
	// statistics.
	statsTTL = 60 * time.Second

	// statsDriftFactor arms drift-triggered auto re-ANALYZE: when a
	// table's live local row count grows past factor× (or shrinks below
	// 1/factor of) the count recorded when stats were last installed,
	// the node asks for a re-ANALYZE of that table.
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
// tables when none are given) across the whole network. Each table
// whose query ended eos installs into this node's catalog as measured
// soft state and is broadcast for every other node to install.
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
		// No row: the table is empty, and so is the sketch.
		var sketch []byte
		if len(r.Rows) == 1 && !r.Rows[0][0].IsNull() {
			sketch = r.Rows[0][0].AsBytes()
		}
		m := analyzedMsg{table: tables[i], at: time.Now(), sketch: sketch}
		at, err := n.installSketch(n.Addr(), m)
		if err != nil {
			return nil, nil, err
		}
		_ = n.router.Broadcast(tagAnalyzed, m.encode())
		res.Tables = append(res.Tables, at)
	}
	sort.Slice(res.Tables, func(i, j int) bool { return res.Tables[i].Table < res.Tables[j].Table })
	res.Duration = time.Since(start)
	return res, results, nil
}

// analyzedMsg is what an ANALYZE installed for one table: the encoded
// agg.Sketch its eos query returned (empty for an empty table),
// measured at at. It is the tagAnalyzed broadcast's payload.
type analyzedMsg struct {
	table  string
	at     time.Time
	sketch []byte
}

func (m analyzedMsg) encode() []byte {
	w := wire.NewWriter(len(m.table) + len(m.sketch) + 24)
	w.String(m.table)
	w.Time(m.at)
	w.BytesLP(m.sketch)
	return w.Bytes()
}

func decodeAnalyzedMsg(payload []byte) (analyzedMsg, error) {
	r := wire.NewReader(payload)
	m := analyzedMsg{table: r.String(), at: r.Time(), sketch: r.BytesLP()}
	return m, r.Done()
}

// onAnalyzed installs the sketch another node's ANALYZE broadcast. A
// table this node does not define installs nothing, and neither does
// the measurer's own copy: its catalog holds that measurement already.
func (n *Node) onAnalyzed(from overlay.Node, payload []byte) {
	if m, err := decodeAnalyzedMsg(payload); err == nil {
		_, _ = n.installSketch(from.Addr, m)
	}
}

// installSketch installs the sketch the ANALYZE by measured as
// measured stats.
func (n *Node) installSketch(by string, m analyzedMsg) (AnalyzedTable, error) {
	tbl, ok := n.cat.Lookup(m.table)
	if !ok {
		return AnalyzedTable{}, fmt.Errorf("pier: analyze of dropped table %q", m.table)
	}
	names := baseColumnNames(tbl.Schema)
	sk := stats.NewTableSketch(m.table, names)
	if len(m.sketch) > 0 {
		var err error
		if sk, err = stats.TableSketchFromBytes(m.sketch); err != nil {
			return AnalyzedTable{}, err
		}
		if len(sk.Cols) > len(names) {
			return AnalyzedTable{}, fmt.Errorf("pier: %d-column sketch of %d-column table %q", len(sk.Cols), len(names), m.table)
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
		MeasuredAt: m.at,
		TTL:        statsTTL,
	}
	ok, err := n.cat.InstallMeasured(m.table, st)
	if err != nil {
		return AnalyzedTable{}, err
	}
	if ok {
		// Re-baseline the drift trigger at this node's live row count:
		// it then fires on growth since the numbers the optimizer plans
		// with, whichever node measured them.
		n.driftMu.Lock()
		n.drift[m.table] = driftMark{base: int64(n.store.Count(tbl.Namespace)), last: time.Now(), by: by}
		n.driftMu.Unlock()
	}
	return AnalyzedTable{Table: m.table, Rows: sk.Rows, Distinct: st.Distinct, SampleRows: len(sk.Sample.Items)}, nil
}

// ---------------------------------------------------------------------------
// Drift-triggered re-ANALYZE

// driftMark is one table's drift baseline at this node.
type driftMark struct {
	// base is the live local row count when the table's stats took
	// effect here.
	base int64
	// last is the time of that install, or of the last re-ANALYZE this
	// node ran or asked for: the rate limit's stamp.
	last time.Time
	// by is the node whose ANALYZE is installed, where drift notices go.
	by string
}

// statsDriftLoop watches the live local row counts for drift away
// from the last measured baseline. The baseline is the local
// partition's row count when stats were last installed here
// (installSketch, so any node's ANALYZE re-baselines every node its
// broadcast reaches): when the live count moves past statsDriftFactor
// times the baseline in either direction, the optimizer is planning
// against numbers that are off by the same factor, and a fresh
// measurement is worth its scan. The node sends the table's name to
// the node whose ANALYZE is installed, which re-runs it once however
// many nodes drifted; a node that is that measurer, or cannot reach
// it, re-runs ANALYZE itself. Triggers are rate-limited per table by
// statsDriftMinInterval; tables never analyzed have no baseline and
// never trigger.
func (n *Node) statsDriftLoop() {
	defer n.wg.Done()
	t := time.NewTicker(statsDriftCheckEvery)
	defer t.Stop()
	for {
		select {
		case <-n.stopCh:
			return
		case <-t.C:
			for _, d := range n.driftedTables() {
				if d.by == n.Addr() || !n.noticeDrift(d.by, d.table) {
					n.autoAnalyze(d.table)
				}
			}
		}
	}
}

// drifted is a table whose local row count drifted, and its measurer.
type drifted struct{ table, by string }

// driftedTables reports the tables whose live local row count has
// drifted beyond the factor from the measured baseline, marking their
// rate-limit stamps so concurrent checks never double-trigger.
func (n *Node) driftedTables() []drifted {
	n.driftMu.Lock()
	marks := make(map[string]driftMark, len(n.drift))
	for t, m := range n.drift {
		if time.Since(m.last) >= statsDriftMinInterval {
			marks[t] = m
		}
	}
	n.driftMu.Unlock()
	var out []drifted
	for table, m := range marks {
		tbl, ok := n.cat.Lookup(table)
		if !ok {
			continue
		}
		cur, ref := float64(n.store.Count(tbl.Namespace)), float64(m.base)
		if ref < 1 {
			ref = 1
		}
		if cur < 1 {
			cur = 1
		}
		if cur/ref <= statsDriftFactor && ref/cur <= statsDriftFactor {
			continue
		}
		if n.claimDrift(table) {
			out = append(out, drifted{table: table, by: m.by})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].table < out[j].table })
	return out
}

// claimDrift stamps table's rate limit and reports whether it had
// expired: whether a re-ANALYZE of table may start now.
func (n *Node) claimDrift(table string) bool {
	n.driftMu.Lock()
	defer n.driftMu.Unlock()
	m := n.drift[table]
	if time.Since(m.last) < statsDriftMinInterval {
		return false
	}
	m.last = time.Now()
	n.drift[table] = m
	return true
}

// noticeDrift asks the measurer by to re-ANALYZE table, reporting
// whether it took the notice.
func (n *Node) noticeDrift(by, table string) bool {
	_, err := n.peer.Call(context.Background(), by, methDrift, []byte(table))
	return err == nil
}

// onDrift is the methDrift handler: another node saw table drift
// since the ANALYZE this node ran. The first notice within the rate
// limit starts one re-ANALYZE; the rest are dropped.
func (n *Node) onDrift(from string, req []byte) ([]byte, error) {
	table := string(req)
	if _, ok := n.cat.Lookup(table); !ok {
		return nil, fmt.Errorf("pier: drift notice for unknown table %q", table)
	}
	if n.claimDrift(table) {
		n.wg.Add(1)
		n.peer.Go(func() {
			defer n.wg.Done()
			n.autoAnalyze(table)
		})
	}
	return nil, nil
}

// autoAnalyze runs one drift-triggered re-ANALYZE of table.
func (n *Node) autoAnalyze(table string) {
	ctx, cancel := context.WithTimeout(context.Background(), n.cfg.MaxQueryLife)
	defer cancel()
	if _, err := n.Analyze(ctx, table); err == nil {
		n.Metrics.AutoAnalyzes.Add(1)
		n.events.Emit(obs.SevInfo, obs.EvAutoAnalyze, 0, "drift re-ANALYZE of %s", table)
	}
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
// the keys sketches and the catalog agree on.
func baseColumnNames(sch *tuple.Schema) []string {
	out := make([]string, len(sch.Columns))
	for i, c := range sch.Columns {
		out[i] = tuple.BaseName(c.Name)
	}
	return out
}
