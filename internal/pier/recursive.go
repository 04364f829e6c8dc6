package pier

import (
	"context"
	"fmt"
	"time"

	"repro/internal/agg"
	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/physical"
	"repro/internal/plan"
	"repro/internal/sqlparser"
	"repro/internal/tuple"
)

// ExecuteRecursive executes WITH RECURSIVE cte AS (base UNION step)
// outer, materialized at the coordinator. The base query and the scan
// of the step's table run as normal distributed queries; the step and
// the outer block are compiled by the planner against a scratch
// catalog holding the CTE's schema; the fixpoint is a worklist over a
// hash index of the step table; the outer block runs through the
// physical operators. The result reports how the two distributed
// queries underneath it ended: the worse reason, and per table the
// lower coverage.
func (n *Node) ExecuteRecursive(ctx context.Context, stmt *sqlparser.SelectStmt) (*Result, error) {
	start := time.Now()
	w := stmt.With
	if stmt.IsContinuous() {
		return nil, fmt.Errorf("pier: continuous recursive queries are not supported")
	}
	if len(stmt.From) != 1 || stmt.From[0].Name != w.Name {
		return nil, fmt.Errorf("pier: the outer select must read FROM %s only", w.Name)
	}
	if len(w.Step.From) != 2 {
		return nil, fmt.Errorf("pier: the recursive step must join %s with one table", w.Name)
	}
	tblName := w.Step.From[0].Name
	if tblName == w.Name {
		tblName = w.Step.From[1].Name
	}
	tbl, ok := n.cat.Lookup(tblName)
	if !ok {
		return nil, fmt.Errorf("pier: unknown table %q in recursive step", tblName)
	}

	baseSpec, err := plan.Compile(w.Base, n.cat, plan.Options{})
	if err != nil {
		return nil, fmt.Errorf("pier: recursive base: %w", err)
	}
	if baseSpec.IsAggregate() {
		return nil, fmt.Errorf("pier: recursive base must not aggregate")
	}

	// The scratch catalog: the CTE, named by the base select list, and
	// the step's table. The step and the outer block compile against it
	// before anything is sent, so a bad statement costs no query.
	cteCols := make([]tuple.Column, len(baseSpec.OutNames))
	for i, name := range baseSpec.OutNames {
		cteCols[i] = tuple.Column{Name: name}
	}
	scratch := catalog.New()
	if _, err := scratch.Define(&tuple.Schema{Name: w.Name, Columns: cteCols}, 0); err != nil {
		return nil, err
	}
	if _, err := scratch.Define(tbl.Schema, 0); err != nil {
		return nil, err
	}
	stepSpec, err := plan.Compile(w.Step, scratch, plan.Options{})
	if err != nil {
		return nil, fmt.Errorf("pier: recursive step: %w", err)
	}
	cteSide := 0
	if stepSpec.Scans[1].Table == w.Name {
		cteSide = 1
	}
	if stepSpec.Scans[cteSide].Table != w.Name || stepSpec.Scans[1-cteSide].Table == w.Name {
		return nil, fmt.Errorf("pier: the recursive step must join %s with one table", w.Name)
	}
	if stepSpec.IsAggregate() || len(stepSpec.Proj) != len(cteCols) {
		return nil, fmt.Errorf("pier: the recursive step must select exactly %d plain columns", len(cteCols))
	}
	outerStmt := *stmt
	outerStmt.With = nil
	outerSpec, err := plan.Compile(&outerStmt, scratch, plan.Options{})
	if err != nil {
		return nil, err
	}

	res, err := n.ExecuteSpec(ctx, baseSpec)
	if err != nil {
		return nil, err
	}
	mat, err := n.Query(ctx, "SELECT * FROM "+tblName)
	if err != nil {
		return nil, fmt.Errorf("pier: materializing %s: %w", tblName, err)
	}
	res.foldCompletion(mat)

	cte := fixpoint(res.Rows, stepSpec, cteSide, mat.Rows)
	rows, err := n.runLocal(ctx, outerSpec, cte)
	if err != nil {
		return nil, err
	}
	res.Columns = outerSpec.OutNames
	res.Rows = rows
	res.Duration = time.Since(start)
	return res, nil
}

// reasonRank orders completion reasons from proven complete to least
// known; a recursive result carries the worst one underneath it.
var reasonRank = map[string]int{
	ReasonEOS:           0,
	ReasonChurnDegraded: 1,
	ReasonQuietTimeout:  2,
	ReasonDeadline:      3,
}

// foldCompletion folds the completion of another query that fed this
// result into it: the worse reason wins and each table keeps its lower
// coverage.
func (r *Result) foldCompletion(sub *Result) {
	if reasonRank[sub.Reason] > reasonRank[r.Reason] {
		r.Reason = sub.Reason
	}
	for t, c := range sub.CoverageByTable {
		if mine, ok := r.CoverageByTable[t]; !ok || c < mine {
			r.CoverageByTable[t] = c
		}
	}
	sum := 0.0
	for _, c := range r.CoverageByTable {
		sum += c
	}
	r.Coverage = sum / float64(len(r.CoverageByTable))
}

// fixpoint closes base under the compiled step: every new CTE tuple
// probes a hash index of the step table on the step's join columns,
// and what the step's filters and projection derive from the matches
// joins the worklist unless already seen. table holds the step table's
// rows as stored and the worklist the CTE's; the step reads either as
// its scan of that side narrows it. Rows the expressions cannot
// evaluate derive nothing, as in the physical Filter and Project.
func fixpoint(base []tuple.Tuple, step *plan.Spec, cteSide int, table []tuple.Tuple) []tuple.Tuple {
	join := &step.Joins[0]
	cteJoin, tblJoin := join.LeftCols, join.RightCols
	if cteSide == 1 {
		cteJoin, tblJoin = tblJoin, cteJoin
	}
	cteScan, tblScan := &step.Scans[cteSide], &step.Scans[1-cteSide]
	passes := func(pred expr.Expr, t tuple.Tuple) bool {
		if pred == nil {
			return true
		}
		v, err := pred.Eval(t)
		return err == nil && expr.Truthy(v)
	}
	index := make(map[string][]tuple.Tuple)
	for _, stored := range table {
		if t, ok := tblScan.Narrow(stored); ok && passes(tblScan.Where, t) {
			key := string(t.Project(tblJoin).Bytes())
			index[key] = append(index[key], t)
		}
	}

	seen := make(map[string]struct{})
	var closure, work []tuple.Tuple
	push := func(t tuple.Tuple) {
		key := string(t.Bytes())
		if _, dup := seen[key]; !dup {
			seen[key] = struct{}{}
			work = append(work, t)
		}
	}
	for _, b := range base {
		push(b)
		for len(work) > 0 {
			full := work[len(work)-1]
			work = work[:len(work)-1]
			closure = append(closure, full)
			t, ok := cteScan.Narrow(full)
			if !ok || !passes(cteScan.Where, t) {
				continue
			}
		match:
			for _, m := range index[string(t.Project(cteJoin).Bytes())] {
				joined := t.Concat(m)
				if cteSide == 1 {
					joined = m.Concat(t)
				}
				if !passes(step.PostFilter, joined) {
					continue
				}
				derived := make(tuple.Tuple, len(step.Proj))
				for i, e := range step.Proj {
					v, err := e.Eval(joined)
					if err != nil {
						continue match
					}
					derived[i] = v
				}
				push(derived)
			}
		}
	}
	return closure
}

// runLocal runs a one-scan plan with this node as its only
// participant and rows as its partition of the scanned table: the
// participant pipeline the plan compiles to, its ship sinks landing
// here, then the coordinator tail. PartialAgg ships one mergeable state
// row per group at end of scan; with no collector to merge at, each is
// finished on arrival.
func (n *Node) runLocal(ctx context.Context, spec *plan.Spec, rows []tuple.Tuple) ([]tuple.Tuple, error) {
	payloads := make([][]byte, len(rows))
	for i, t := range rows {
		payloads[i] = t.Bytes()
	}
	var canonical []tuple.Tuple
	ng := len(spec.GroupCols)
	env := &physical.Env{
		Scan: func(string, int) [][][]byte { return [][][]byte{payloads} },
		ShipRows: func(_ uint64, rs []tuple.Tuple) int {
			canonical = append(canonical, rs...)
			return 0
		},
		ShipPartial: func(_ uint64, partials []tuple.Tuple) int {
			for _, p := range partials {
				acc := agg.NewAccumulator(spec.Aggs)
				_ = acc.MergeStates(p[ng:]) // PartialAgg's own state segment: well-formed
				canonical = append(canonical, append(p[:ng:ng], acc.FinalValues()...))
			}
			return 0
		},
		BatchSize: n.cfg.BatchSize,
		Go:        n.peer.Go,
	}
	if err := physical.CompileOneShot(spec, env).Run(ctx); err != nil {
		return nil, err
	}
	return finalizeRows(ctx, spec, canonical, n.localEnv())
}
