package plan

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// Explain renders the distributed plan as an indented operator tree —
// what runs at every participant, what runs at collectors, and what
// the coordinator applies at the end. The same text for the same
// spec, so tests can assert on plan shapes.
func (s *Spec) Explain() string {
	var b strings.Builder
	indent := func(depth int, format string, args ...interface{}) {
		b.WriteString(strings.Repeat("  ", depth))
		fmt.Fprintf(&b, format, args...)
		b.WriteByte('\n')
	}

	kind := "one-shot"
	if s.IsContinuous() {
		kind = fmt.Sprintf("continuous window=%v slide=%v",
			time.Duration(s.Window), time.Duration(s.Slide))
		if s.Live > 0 {
			kind += fmt.Sprintf(" live=%v", time.Duration(s.Live))
		}
	}
	indent(0, "Query (%s)", kind)

	depth := 1
	indent(depth, "Coordinator")
	d := depth + 1
	if s.Limit >= 0 {
		indent(d, "Limit %d", s.Limit)
	}
	if len(s.OrderCols) > 0 {
		var keys []string
		for i, c := range s.OrderCols {
			dir := "ASC"
			if i < len(s.OrderDesc) && s.OrderDesc[i] {
				dir = "DESC"
			}
			keys = append(keys, fmt.Sprintf("#%d %s", c, dir))
		}
		indent(d, "OrderBy [%s]", strings.Join(keys, ", "))
	}
	if s.Distinct {
		indent(d, "Distinct")
	}
	if s.Having != nil {
		indent(d, "Having %s", s.Having)
	}
	if s.IsAggregate() {
		indent(d, "FinalAggregate groups=%d aggs=%s (at collectors, merged in-network)", len(s.GroupCols), aggList(s))
		d++
		indent(d, "PartialAggregate (at every participant)")
	}
	projStrs := make([]string, len(s.Proj))
	for i, e := range s.Proj {
		projStrs[i] = e.String()
	}
	indent(d, "Project [%s]", strings.Join(projStrs, ", "))
	if s.PostFilter != nil {
		indent(d, "Filter %s", s.PostFilter)
	}
	scan := func(depth, i int) {
		sc := &s.Scans[i]
		line := fmt.Sprintf("Scan %s [%s] cols=%s", sc.Table, sc.Namespace, sc.keptNote())
		if sc.Where != nil {
			line += fmt.Sprintf(" filter %s", sc.Where)
		}
		line += " " + sc.StatsNote()
		indent(depth, "%s", line)
	}
	// The left-deep join chain renders as a nested tree, top stage
	// first: each stage names its strategy, its equi-join predicate
	// (columns named via the accumulated left schema), and the
	// optimizer's cardinality estimate.
	var renderJoin func(depth, stage int)
	renderJoin = func(depth, stage int) {
		j := &s.Joins[stage]
		left := s.LeftSchema(stage)
		right := s.Scans[stage+1].Schema
		preds := make([]string, len(j.LeftCols))
		for i := range j.LeftCols {
			lname, rname := fmt.Sprintf("#%d", j.LeftCols[i]), fmt.Sprintf("#%d", j.RightCols[i])
			if j.LeftCols[i] < left.Arity() {
				lname = left.Columns[j.LeftCols[i]].Name
			}
			if j.RightCols[i] < right.Arity() {
				rname = right.Columns[j.RightCols[i]].Name
			}
			preds[i] = fmt.Sprintf("%s = %s", lname, rname)
		}
		indent(depth, "Join#%d (%s) on %s est_rows=%d", stage, j.Strategy,
			strings.Join(preds, " AND "), j.EstRows)
		if stage == 0 {
			scan(depth+1, 0)
		} else {
			renderJoin(depth+1, stage-1)
		}
		scan(depth+1, stage+1)
	}
	if len(s.Joins) > 0 {
		renderJoin(d, len(s.Joins)-1)
	} else {
		for i := range s.Scans {
			scan(d, i)
		}
	}
	return b.String()
}

// keptNote names what the scan yields of a stored row, by base name:
// "*" when it keeps every column, else the kept ones and the row
// identity over the stored arity, "[oid, uid, #row]/5".
func (sc *ScanSpec) keptNote() string {
	if len(sc.Cols) == sc.Stored {
		return "*"
	}
	names := make([]string, len(sc.Schema.Columns))
	for i, c := range sc.Schema.Columns {
		names[i] = tuple.BaseName(c.Name)
	}
	return fmt.Sprintf("[%s]/%d", strings.Join(names, ", "), sc.Stored)
}

// StatsNote renders the provenance and age of the statistics the
// optimizer costed this scan with: "stats=declared",
// "stats=analyzed 12s ago", or "stats=default". The age is frozen at
// compile time, so the same spec always renders the same text.
func (sc *ScanSpec) StatsNote() string {
	switch sc.StatsSource {
	case catalog.StatsDeclared:
		return "stats=declared"
	case catalog.StatsMeasured:
		return fmt.Sprintf("stats=analyzed %v ago", time.Duration(sc.StatsAge).Round(time.Second))
	}
	return "stats=default"
}

// ---------------------------------------------------------------------------
// EXPLAIN ANALYZE
//
// The physical layer compiles a Spec into instrumented operator
// pipelines; every operator counts rows, bytes, punctuations, and
// busy time. Nodes ship their counters to the coordinator at query
// teardown and the coordinator merges them into one Analysis — the
// distributed EXPLAIN ANALYZE.

// OpStats is the merged counter set of one physical operator across
// every pipeline instance that ran it.
type OpStats struct {
	// Stage names the pipeline the operator ran in: "participant",
	// "join-collector.<stage>", "agg-collector", or "coordinator".
	Stage string
	// Op is the operator's display name within the pipeline.
	Op string
	// Nodes counts pipeline instances that contributed counters.
	Nodes uint64
	// RowsIn / RowsOut count data tuples consumed and produced.
	RowsIn  uint64
	RowsOut uint64
	// BytesOut counts encoded bytes produced (for exchange and ship
	// operators: the bytes actually handed to the network).
	BytesOut uint64
	// Puncts counts punctuations processed.
	Puncts uint64
	// BusyNanos is time spent processing messages (including
	// downstream emission). Coordinator-tail operators wrapped from
	// the uninstrumented ops library (having, distinct, order,
	// limit, collect) count rows/bytes but report 0 here.
	BusyNanos uint64
	// PeakMem is the high-water mark of resident build-state bytes at
	// any single pipeline instance (memory-budgeted operators only).
	// Merge takes the maximum, not the sum: the budget is per node per
	// stage, so the interesting network-wide figure is the worst node.
	PeakMem uint64
	// Spilled counts bytes written to spill temp files; Passes counts
	// completed re-join passes over spilled partitions. Both sum.
	Spilled uint64
	Passes  uint64
}

// Analysis is the coordinator-side accumulation of OpStats.
type Analysis struct {
	Ops []OpStats
}

// Merge folds counters in, summing entries with the same (Stage, Op)
// key. First-seen order is preserved; because every node compiles the
// identical pipeline shape, that order is the pipeline build order.
func (a *Analysis) Merge(ops ...OpStats) {
	for _, o := range ops {
		found := false
		for i := range a.Ops {
			e := &a.Ops[i]
			if e.Stage == o.Stage && e.Op == o.Op {
				e.Nodes += o.Nodes
				e.RowsIn += o.RowsIn
				e.RowsOut += o.RowsOut
				e.BytesOut += o.BytesOut
				e.Puncts += o.Puncts
				e.BusyNanos += o.BusyNanos
				if o.PeakMem > e.PeakMem {
					e.PeakMem = o.PeakMem
				}
				e.Spilled += o.Spilled
				e.Passes += o.Passes
				found = true
				break
			}
		}
		if !found {
			a.Ops = append(a.Ops, o)
		}
	}
}

// Encode appends the analysis to w (the methStats RPC payload).
func (a *Analysis) Encode(w *wire.Writer) {
	w.Uvarint(uint64(len(a.Ops)))
	for _, o := range a.Ops {
		w.String(o.Stage)
		w.String(o.Op)
		w.Uvarint(o.Nodes)
		w.Uvarint(o.RowsIn)
		w.Uvarint(o.RowsOut)
		w.Uvarint(o.BytesOut)
		w.Uvarint(o.Puncts)
		w.Uvarint(o.BusyNanos)
		w.Uvarint(o.PeakMem)
		w.Uvarint(o.Spilled)
		w.Uvarint(o.Passes)
	}
}

// DecodeAnalysis reads an Analysis written by Encode.
func DecodeAnalysis(r *wire.Reader) (*Analysis, error) {
	n := int(r.Uvarint())
	if n > 4096 {
		return nil, fmt.Errorf("plan: analysis with %d operators", n)
	}
	a := &Analysis{}
	for i := 0; i < n; i++ {
		var o OpStats
		o.Stage = r.String()
		o.Op = r.String()
		o.Nodes = r.Uvarint()
		o.RowsIn = r.Uvarint()
		o.RowsOut = r.Uvarint()
		o.BytesOut = r.Uvarint()
		o.Puncts = r.Uvarint()
		o.BusyNanos = r.Uvarint()
		o.PeakMem = r.Uvarint()
		o.Spilled = r.Uvarint()
		o.Passes = r.Uvarint()
		a.Ops = append(a.Ops, o)
	}
	return a, r.Err()
}

// stageRank orders pipeline stages data-flow-wise for rendering.
// Join collectors are named per join stage ("join-collector.0",
// "join-collector.1", …) and rank in stage order between the
// participants and the aggregation collectors.
func stageRank(stage string) int {
	switch {
	case stage == "participant":
		return 0
	case strings.HasPrefix(stage, "join-collector"):
		rank := 1
		if i := strings.IndexByte(stage, '.'); i >= 0 {
			if n, err := strconv.Atoi(stage[i+1:]); err == nil {
				rank += n
			}
		}
		return rank
	case stage == "agg-collector":
		return 1 + MaxTables
	case stage == "coordinator":
		return 2 + MaxTables
	}
	return 3 + MaxTables
}

// ExplainAnalyze renders the plan followed by the per-operator
// counter table: the logical tree first, then what each physical
// operator actually did, grouped by pipeline stage.
func (s *Spec) ExplainAnalyze(a *Analysis) string {
	var b strings.Builder
	b.WriteString(s.Explain())
	b.WriteString("\nEXPLAIN ANALYZE (network-wide operator totals)\n")
	if a == nil || len(a.Ops) == 0 {
		b.WriteString("  (no operator counters collected)\n")
		return b.String()
	}
	// Stable order: stage rank first, then first-merged order within
	// the stage (= pipeline build order).
	ops := make([]OpStats, len(a.Ops))
	copy(ops, a.Ops)
	sort.SliceStable(ops, func(i, j int) bool {
		return stageRank(ops[i].Stage) < stageRank(ops[j].Stage)
	})
	stage := ""
	for _, o := range ops {
		if o.Stage != stage {
			stage = o.Stage
			fmt.Fprintf(&b, "  %s:\n", stage)
		}
		fmt.Fprintf(&b, "    %-16s nodes=%-3d rows_in=%-8d rows_out=%-8d bytes_out=%-9d puncts=%-5d busy=%v",
			o.Op, o.Nodes, o.RowsIn, o.RowsOut, o.BytesOut, o.Puncts,
			time.Duration(o.BusyNanos).Round(time.Microsecond))
		// Memory-budget columns appear only where an operator tracks
		// them, keeping unbudgeted rows byte-identical to before.
		if o.PeakMem > 0 || o.Spilled > 0 || o.Passes > 0 {
			fmt.Fprintf(&b, " peak_mem=%d spilled_bytes=%d spill_passes=%d", o.PeakMem, o.Spilled, o.Passes)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func aggList(s *Spec) string {
	parts := make([]string, len(s.Aggs))
	for i, a := range s.Aggs {
		arg := "*"
		if a.ArgCol >= 0 {
			arg = fmt.Sprintf("#%d", a.ArgCol)
		}
		parts[i] = fmt.Sprintf("%s(%s)", a.Func, arg)
	}
	return "[" + strings.Join(parts, ", ") + "]"
}
