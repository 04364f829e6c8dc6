package plan

import (
	"repro/internal/agg"
	"repro/internal/catalog"
	"repro/internal/expr"
)

// The engine gathers network-wide facts for itself — a Bloom join's
// phase-1 filters, ANALYZE's table sketches — with ordinary one-shot
// aggregate plans: one scan, no group, one mergeable state over the
// whole projected row. They run, combine in the network and end on EOS
// exactly like a user's COUNT(*).

// gatherSpec is the one-scan, one-state aggregate over cols of sc.
func gatherSpec(sc ScanSpec, cols []int, fn agg.AggFunc, analyze bool) *Spec {
	proj := make([]expr.Expr, len(cols))
	for i, c := range cols {
		proj[i] = &expr.Col{Name: sc.Schema.Columns[c].Name, Index: c}
	}
	return &Spec{
		Scans:    []ScanSpec{sc},
		Proj:     proj,
		Aggs:     []agg.AggSpec{{Func: fn, ArgCol: -1}},
		OutPerm:  []int{0},
		OutNames: []string{fn.String()},
		Limit:    -1,
		Analyze:  analyze,
	}
}

// bloomScan names the base table a Bloom stage's phase-1 filter is
// built over and the columns fed into it. Stage 0 builds over the LEFT
// base table's join keys and filters the right scan; deeper stages
// cannot scan their left input (it is an intermediate stream), so the
// filter inverts: build over the RIGHT base table, filter the left
// stream before its rehash.
func (s *Spec) bloomScan(stage int) (*ScanSpec, []int) {
	if stage == 0 {
		return &s.Scans[0], s.Joins[0].LeftCols
	}
	return &s.Scans[stage+1], s.Joins[stage].RightCols
}

// BloomStages lists the plan's Bloom-join stages (nil when none).
func (s *Spec) BloomStages() []int {
	var out []int
	for i := range s.Joins {
		if s.Joins[i].Strategy == BloomJoin {
			out = append(out, i)
		}
	}
	return out
}

// BloomSpec is the phase-1 plan of one Bloom stage: bloomScan's table
// under its pushed-down filter, projected to the stage's key columns
// and folded into one agg.Bloom filter. The filter hashes each
// projected row whole, which is the byte string BloomProbe hashes
// (Tuple.AppendKey over the key columns) on the probed side.
func (s *Spec) BloomSpec(stage int) *Spec {
	sc, keyCols := s.bloomScan(stage)
	return gatherSpec(*sc, keyCols, agg.Bloom, s.Analyze)
}

// AnalyzeSpec is ANALYZE's plan for one table: every stored column of
// every row folded into one agg.Sketch.
func AnalyzeSpec(name string, tbl *catalog.Table) *Spec {
	arity := tbl.Schema.Arity()
	cols := make([]int, arity)
	for i := range cols {
		cols[i] = i
	}
	sc := ScanSpec{Table: name, Namespace: tbl.Namespace, Stored: arity, Cols: cols, Schema: tbl.Schema}
	return gatherSpec(sc, cols, agg.Sketch, false)
}
