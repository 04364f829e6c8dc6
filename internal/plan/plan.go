// Package plan compiles parsed SQL into the distributed plan
// specification that PIER disseminates to every node. Compilation
// performs the paper's rule-based optimizations — predicate and column
// pushdown into per-table scans, extraction of equi-join keys for DHT
// rehashing, partial/final aggregate splitting for in-network
// aggregation — and a cost-based pass (optimize.go) that enumerates
// left-deep join orders over catalog statistics and picks a join
// strategy (symmetric rehash, fetch-matches against a table keyed on
// the join columns, or a Bloom-filter prefilter) per join stage.
package plan

import (
	"fmt"
	"strings"

	"repro/internal/agg"
	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/sqlparser"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// JoinStrategy selects the distributed join algorithm of one stage.
type JoinStrategy uint8

const (
	// SymmetricHash rehashes both inputs by join key into collector
	// nodes running pipelined symmetric hash joins.
	SymmetricHash JoinStrategy = iota
	// FetchMatches probes the right-hand table in place via DHT gets
	// — valid only when the right table's declared key equals the
	// join columns.
	FetchMatches
	// BloomJoin gathers per-site Bloom filters of the leftmost
	// table's join keys first and rehashes only right tuples that may
	// match. Valid only on the first join stage, where the left input
	// is a base table the phase-1 scan can cover.
	BloomJoin
)

func (s JoinStrategy) String() string {
	return [...]string{"symmetric-hash", "fetch-matches", "bloom"}[s]
}

// MaxTables bounds the FROM list; the left-deep enumeration is
// exponential in it.
const MaxTables = 8

// ScanSpec is one table access.
type ScanSpec struct {
	Table     string
	Namespace string
	// Stored is the arity of the table's rows as they are stored, and
	// Cols the stored positions, ascending, of the columns this plan
	// keeps: every column the statement reads (all of them for
	// SELECT *). Narrow applies the two to a stored row.
	Stored int
	Cols   []int
	// Schema is the scan's output schema: the kept columns and, when
	// any was dropped, the row's identity (tuple.RowIDColumn) after
	// them. Column names are qualified by the query's binding for the
	// table; Key is the table's, remapped, when every key column is
	// kept and empty otherwise.
	Schema *tuple.Schema
	// Where is the pushed-down filter, resolved against Schema (nil
	// for none).
	Where expr.Expr
	// StatsSource records where the statistics used to cost this scan
	// came from (declared / measured / default), and
	// StatsAge their age in nanoseconds at compile time — the EXPLAIN
	// annotation that makes plan regressions diagnosable.
	StatsSource catalog.StatsSource
	StatsAge    int64
}

// Narrow turns a row as the table stores it into the row this plan
// reads: a row of another arity is refused, the rest keep Cols
// (tuple.Narrow). Every reader of stored rows goes through it, or
// through tuple.Decoder.DecodeCols, which is the same rule over an
// encoded row. A narrowed row ends in its stored row's identity, so two
// stored rows that differ only in a column nobody reads stay two rows
// under the whole-row dedup of the join collectors.
func (sc *ScanSpec) Narrow(stored tuple.Tuple) (tuple.Tuple, bool) {
	if len(stored) != sc.Stored {
		return nil, false
	}
	return tuple.Narrow(stored, sc.Cols), true
}

// JoinSpec is one stage of the left-deep join chain: stage k joins
// the accumulated left input (Scans[0..k] joined) with Scans[k+1].
type JoinSpec struct {
	// LeftCols index into the accumulated left schema (the
	// concatenation of Scans[0..k]); RightCols index into
	// Scans[k+1].Schema. Parallel slices, one entry per equi-join
	// predicate consumed at this stage.
	LeftCols  []int
	RightCols []int
	// Strategy is the optimizer's (or the forced) algorithm choice.
	Strategy JoinStrategy
	// EstLeft/EstRight/EstRows are the optimizer's cardinality
	// estimates (left input, right input, join output) — EXPLAIN
	// annotations, never consulted at execution time.
	EstLeft  int64
	EstRight int64
	EstRows  int64
}

// Spec is the complete distributed plan for one query block. It is
// self-contained — schemas travel with it — so any node can execute
// its share without catalog access.
type Spec struct {
	// Scans lists the table accesses in join order: Scans[0] is the
	// leftmost input of the join chain.
	Scans []ScanSpec
	// Joins is the left-deep join chain (len(Scans)-1 stages; empty
	// for single-table plans). Joins[k] joins the result of stages
	// 0..k-1 (or Scans[0] for k=0) with Scans[k+1].
	Joins []JoinSpec
	// PostFilter runs after the last join (or after the scan for
	// 1-scan plans when a conjunct could not be pushed down),
	// resolved against the work schema.
	PostFilter expr.Expr
	// Proj computes the work tuple fed to aggregation or, for
	// non-aggregate queries, the result row. Resolved against the
	// (concatenated) scan schema.
	Proj []expr.Expr
	// GroupCols index into Proj output; Aggs consume Proj output.
	GroupCols []int
	Aggs      []agg.AggSpec
	// OutPerm permutes the canonical output layout (group columns
	// then aggregates, or the Proj output) into select-list order.
	OutPerm []int
	// OutNames are the result column names, in select-list order.
	OutNames []string
	// Having filters final rows (resolved against canonical layout,
	// pre-permutation).
	Having expr.Expr
	// OrderCols/OrderDesc/Limit order and truncate the result
	// (indexes into the canonical layout).
	OrderCols []int
	OrderDesc []bool
	Limit     int
	Distinct  bool
	// Continuous-query clauses.
	Window Duration
	Slide  Duration
	Live   Duration
	// Analyze asks every node to record per-operator pipeline
	// counters and ship them back to the coordinator — the
	// distributed EXPLAIN ANALYZE.
	Analyze bool
}

// Duration is a nanosecond count (kept as int64 for the codec).
type Duration = int64

// IsAggregate reports whether the plan has an aggregation stage.
func (s *Spec) IsAggregate() bool { return len(s.Aggs) > 0 }

// IsContinuous reports whether the plan is a continuous query.
func (s *Spec) IsContinuous() bool { return s.Window > 0 }

// LeftArity is the width of join stage k's accumulated left input:
// the concatenation of Scans[0..k].
func (s *Spec) LeftArity(stage int) int {
	arity := 0
	for i := 0; i <= stage && i < len(s.Scans); i++ {
		arity += s.Scans[i].Schema.Arity()
	}
	return arity
}

// LeftSchema is the accumulated left-input schema of join stage k.
func (s *Spec) LeftSchema(stage int) *tuple.Schema {
	sch := s.Scans[0].Schema
	for i := 1; i <= stage && i < len(s.Scans); i++ {
		sch = sch.Concat(s.Scans[i].Schema)
	}
	return sch
}

// CanonicalWidth is the arity of the pre-permutation result row.
func (s *Spec) CanonicalWidth() int {
	if s.IsAggregate() {
		return len(s.GroupCols) + len(s.Aggs)
	}
	return len(s.Proj)
}

// Options tune compilation.
type Options struct {
	// Strategy forces every join stage's algorithm, bypassing the
	// cost-based pass (and its join reordering — scans stay in FROM
	// order). Illegal forcings (fetch-matches without the key match,
	// Bloom beyond the first stage) error. Nil (default) lets the
	// optimizer choose per stage from catalog statistics.
	Strategy *JoinStrategy
	// Analyze marks the plan for distributed EXPLAIN ANALYZE: every
	// pipeline operator counts rows/bytes/busy-time and the
	// coordinator assembles the network-wide totals.
	Analyze bool
}

// Compile turns a parsed statement into a distributed plan using cat
// for table resolution. WITH RECURSIVE statements are handled by the
// executor, not here; Compile rejects them.
func Compile(stmt *sqlparser.SelectStmt, cat *catalog.Catalog, opts Options) (*Spec, error) {
	if stmt.With != nil {
		return nil, fmt.Errorf("plan: WITH RECURSIVE is executed by the coordinator, not compiled directly")
	}
	if stmt.Analyze != nil {
		return nil, fmt.Errorf("plan: ANALYZE is executed by the node's statistics subsystem, not compiled")
	}
	if len(stmt.From) == 0 {
		return nil, fmt.Errorf("plan: empty FROM")
	}
	if len(stmt.From) > MaxTables {
		return nil, fmt.Errorf("plan: %d-table FROM exceeds the %d-table limit", len(stmt.From), MaxTables)
	}

	spec := &Spec{Limit: stmt.Limit, Distinct: stmt.Distinct,
		Window: int64(stmt.Window), Slide: int64(stmt.Slide), Live: int64(stmt.Live),
		Analyze: opts.Analyze}

	// Resolve table references; qualify schemas when a join or alias
	// demands it.
	qualify := len(stmt.From) > 1
	read := readColumns(stmt)
	inputs := make([]joinInput, len(stmt.From))
	seen := map[string]bool{}
	for i, ref := range stmt.From {
		tbl, ok := cat.Lookup(ref.Name)
		if !ok {
			return nil, fmt.Errorf("plan: unknown table %q", ref.Name)
		}
		if seen[ref.Binding()] {
			return nil, fmt.Errorf("plan: duplicate table binding %q", ref.Binding())
		}
		seen[ref.Binding()] = true
		sch, rowID := tbl.Schema, tuple.RowIDColumn
		if qualify || ref.Alias != "" {
			sch = tbl.Schema.Qualify(ref.Binding())
			rowID = ref.Binding() + "." + rowID
		}
		st, src, age := cat.StatsInfo(ref.Name)
		cols := keptColumns(sch, read, stmt.Star)
		inputs[i] = joinInput{
			ScanSpec: ScanSpec{
				Table:       ref.Name,
				Namespace:   tbl.Namespace,
				Stored:      sch.Arity(),
				Cols:        cols,
				Schema:      keepSchema(sch, cols, rowID),
				StatsSource: src,
				StatsAge:    int64(age),
			},
			stats: st,
		}
	}

	// Gather predicate conjuncts from WHERE and JOIN ... ON, then
	// classify: single-table conjuncts push into scans; cross-table
	// equality conjuncts become join-graph edges; the rest
	// post-filter after the join chain.
	var conjuncts []expr.Expr
	if stmt.Where != nil {
		conjuncts = append(conjuncts, expr.Conjuncts(stmt.Where)...)
	}
	if stmt.JoinOn != nil {
		conjuncts = append(conjuncts, expr.Conjuncts(stmt.JoinOn)...)
	}
	var edges []joinEdge
	var residual []expr.Expr
	for _, c := range conjuncts {
		if len(inputs) > 1 {
			if e, ok := equiJoinEdge(c, inputs); ok {
				edges = append(edges, e)
				continue
			}
		}
		placed := false
		for i := range inputs {
			if resolvesAgainst(c, inputs[i].Schema) {
				cc, err := cloneResolved(c, inputs[i].Schema)
				if err != nil {
					return nil, err
				}
				if inputs[i].Where == nil {
					inputs[i].Where = cc
				} else {
					inputs[i].Where = &expr.And{L: inputs[i].Where, R: cc}
				}
				placed = true
				break
			}
		}
		if !placed {
			residual = append(residual, c)
		}
	}

	// Cost-based pass: join order + per-stage strategy. Single-table
	// plans skip it.
	if len(inputs) > 1 {
		order, strategies, ests, err := optimize(inputs, edges, opts.Strategy)
		if err != nil {
			return nil, err
		}
		if err := buildJoinChain(spec, inputs, edges, order, strategies, ests); err != nil {
			return nil, err
		}
	} else {
		spec.Scans = []ScanSpec{inputs[0].ScanSpec}
	}

	// Residual predicates resolve against the concatenated schema in
	// the final join order.
	workInput := spec.LeftSchema(len(spec.Scans) - 1)
	var post []expr.Expr
	for _, c := range residual {
		cc, err := cloneResolved(c, workInput)
		if err != nil {
			return nil, fmt.Errorf("plan: predicate %s references unknown columns: %w", c, err)
		}
		post = append(post, cc)
	}
	spec.PostFilter = expr.AndAll(post)

	// Select list: split into group-column references and aggregates.
	if err := buildOutputs(stmt, spec, workInput); err != nil {
		return nil, err
	}
	return spec, nil
}

// joinInput is one FROM entry during compilation: the scan it becomes
// (Where filled in as conjuncts are pushed down) and the statistics the
// cost-based pass prices it with.
type joinInput struct {
	ScanSpec
	stats catalog.TableStats
}

// readColumns lists the column names the statement reads anywhere: the
// select list, WHERE, JOIN ... ON, GROUP BY, HAVING and ORDER BY. A
// name that is a select-item alias or an aggregate's rendering is on
// the list too and resolves to no column (or to one that is then kept
// for nothing), which costs width, never a row.
func readColumns(stmt *sqlparser.SelectStmt) []string {
	var names []string
	walk := func(e expr.Expr) {
		if e == nil {
			return
		}
		e.Walk(func(x expr.Expr) {
			if c, ok := x.(*expr.Col); ok {
				names = append(names, c.Name)
			}
		})
	}
	for _, item := range stmt.Items {
		walk(item.Expr)
	}
	walk(stmt.Where)
	walk(stmt.JoinOn)
	names = append(names, stmt.GroupBy...)
	walk(stmt.Having)
	for _, o := range stmt.OrderBy {
		walk(o.Expr)
	}
	return names
}

// keptColumns decides which stored columns of one FROM input (sch, as
// the query binds it) the plan carries: those a read name resolves to
// through Schema.ColIndex — the resolution the predicates and the
// select list go through afterwards, so an ambiguous bare name keeps a
// column on each side and fails where it always did. SELECT * keeps
// everything.
func keptColumns(sch *tuple.Schema, read []string, star bool) []int {
	keep := make([]bool, sch.Arity())
	for _, name := range read {
		if ci := sch.ColIndex(name); ci >= 0 {
			keep[ci] = true
		}
	}
	cols := make([]int, 0, len(keep))
	for i, k := range keep {
		if k || star {
			cols = append(cols, i)
		}
	}
	return cols
}

// keepSchema is sch restricted to cols (ascending). A restriction that
// drops a column gains the row-identity column, named rowID, at the
// end: the schema of what ScanSpec.Narrow returns. Key is remapped to
// the restricted positions when every key column is kept; otherwise
// the narrow rows no longer carry their resource id and Key is empty
// (fetch-matches, the one reader of a scan's Key, needs the key columns
// to be the join columns, which are read).
func keepSchema(sch *tuple.Schema, cols []int, rowID string) *tuple.Schema {
	if len(cols) == sch.Arity() {
		return sch
	}
	pos := make(map[int]int, len(cols))
	out := &tuple.Schema{Name: sch.Name, Columns: make([]tuple.Column, len(cols), len(cols)+1)}
	for i, c := range cols {
		out.Columns[i] = sch.Columns[c]
		pos[c] = i
	}
	out.Columns = append(out.Columns, tuple.Column{Name: rowID, Type: tuple.TInt})
	for _, k := range sch.Key {
		p, kept := pos[k]
		if !kept {
			out.Key = nil
			break
		}
		out.Key = append(out.Key, p)
	}
	return out
}

// joinEdge is one equi-join predicate `inputs[a].ca = inputs[b].cb`
// in the join graph (a < b by construction).
type joinEdge struct {
	a, b   int // input indexes
	ca, cb int // column indexes within the respective schemas
}

// equiJoinEdge recognizes `x.c = y.d` between two distinct inputs.
func equiJoinEdge(c expr.Expr, inputs []joinInput) (joinEdge, bool) {
	cmp, ok := c.(*expr.Cmp)
	if !ok || cmp.Op != expr.EQ {
		return joinEdge{}, false
	}
	lc, lok := cmp.L.(*expr.Col)
	rc, rok := cmp.R.(*expr.Col)
	if !lok || !rok {
		return joinEdge{}, false
	}
	// Each column must resolve against exactly one input.
	bind := func(name string) (int, int, bool) {
		tbl, col := -1, -1
		for i := range inputs {
			if ci := inputs[i].Schema.ColIndex(name); ci >= 0 {
				if tbl >= 0 {
					return 0, 0, false // ambiguous
				}
				tbl, col = i, ci
			}
		}
		return tbl, col, tbl >= 0
	}
	lt, lcIdx, lok2 := bind(lc.Name)
	rt, rcIdx, rok2 := bind(rc.Name)
	if !lok2 || !rok2 || lt == rt {
		return joinEdge{}, false
	}
	if lt > rt {
		lt, rt, lcIdx, rcIdx = rt, lt, rcIdx, lcIdx
	}
	return joinEdge{a: lt, b: rt, ca: lcIdx, cb: rcIdx}, true
}

// buildJoinChain lays the optimizer's left-deep order into the spec:
// scans in join order, one JoinSpec per stage with its consumed
// equi-join edges re-based onto the accumulated left schema.
func buildJoinChain(spec *Spec, inputs []joinInput, edges []joinEdge,
	order []int, strategies []JoinStrategy, ests []stageEst) error {
	// pos[i] = position of input i in the join order; offset[p] =
	// column offset of position p within the concatenated schema.
	pos := make([]int, len(inputs))
	offset := make([]int, len(order))
	off := 0
	for p, in := range order {
		pos[in] = p
		offset[p] = off
		off += inputs[in].Schema.Arity()
		spec.Scans = append(spec.Scans, inputs[in].ScanSpec)
	}
	spec.Joins = make([]JoinSpec, len(order)-1)
	for k := range spec.Joins {
		spec.Joins[k].Strategy = strategies[k]
		spec.Joins[k].EstLeft = ests[k].left
		spec.Joins[k].EstRight = ests[k].right
		spec.Joins[k].EstRows = ests[k].out
	}
	// An edge is consumed at the stage where its later-positioned
	// table joins the chain: stage = maxPos-1. The other endpoint is
	// already inside the accumulated left input.
	for _, e := range edges {
		pa, pb := pos[e.a], pos[e.b]
		la, lb := e.ca, e.cb // columns within their own schemas
		if pa > pb {
			pa, pb, la, lb = pb, pa, lb, la
		}
		stage := pb - 1
		j := &spec.Joins[stage]
		j.LeftCols = append(j.LeftCols, offset[pa]+la)
		j.RightCols = append(j.RightCols, lb)
	}
	for k := range spec.Joins {
		if len(spec.Joins[k].LeftCols) == 0 {
			return fmt.Errorf("plan: joins require at least one equality predicate between the tables")
		}
	}
	return nil
}

func resolvesAgainst(e expr.Expr, sch *tuple.Schema) bool {
	ok := true
	e.Walk(func(x expr.Expr) {
		if c, isCol := x.(*expr.Col); isCol && sch.ColIndex(c.Name) < 0 {
			ok = false
		}
	})
	return ok
}

// cloneResolved deep-copies e (via the wire codec, which the plan
// needs anyway) and resolves columns against sch. Copying matters
// because the same AST node may appear in several plan slots.
func cloneResolved(e expr.Expr, sch *tuple.Schema) (expr.Expr, error) {
	w := wire.NewWriter(64)
	expr.Encode(w, e)
	cp, err := expr.Decode(wire.NewReader(w.Bytes()))
	if err != nil {
		return nil, err
	}
	if cp == nil {
		return nil, fmt.Errorf("plan: expression %s not serializable", e)
	}
	if err := expr.Resolve(cp, sch); err != nil {
		return nil, err
	}
	return cp, nil
}

// fetchLegalFor reports whether a join stage may run fetch-matches:
// the right table's declared key must equal the stage's join columns,
// so each left row's probe hashes to the resource ID the publisher
// used.
func fetchLegalFor(right *tuple.Schema, rightCols []int) bool {
	if len(right.Key) == 0 || len(right.Key) != len(rightCols) {
		return false
	}
	used := map[int]bool{}
	for _, jc := range rightCols {
		used[jc] = true
	}
	for _, kc := range right.Key {
		if !used[kc] {
			return false
		}
	}
	return true
}

// aggFromFunc maps a SQL aggregate call onto an agg.AggFunc.
func aggFromFunc(name string) (agg.AggFunc, bool) {
	switch name {
	case "COUNT":
		return agg.Count, true
	case "SUM":
		return agg.Sum, true
	case "AVG":
		return agg.Avg, true
	case "MIN":
		return agg.Min, true
	case "MAX":
		return agg.Max, true
	}
	return 0, false
}

func isAggCall(e expr.Expr) (*expr.Func, bool) {
	f, ok := e.(*expr.Func)
	if !ok {
		return nil, false
	}
	_, isAgg := aggFromFunc(f.Name)
	return f, isAgg
}

// containsAgg reports whether any aggregate call appears in e.
func containsAgg(e expr.Expr) bool {
	found := false
	e.Walk(func(x expr.Expr) {
		if _, ok := isAggCall(x); ok {
			found = true
		}
	})
	return found
}

// buildOutputs fills Proj/GroupCols/Aggs/OutPerm/OutNames and
// resolves HAVING and ORDER BY against the canonical layout.
func buildOutputs(stmt *sqlparser.SelectStmt, spec *Spec, workInput *tuple.Schema) error {
	hasAgg := len(stmt.GroupBy) > 0
	for _, item := range stmt.Items {
		if item.Expr != nil && containsAgg(item.Expr) {
			hasAgg = true
		}
	}
	if stmt.Having != nil && !hasAgg {
		return fmt.Errorf("plan: HAVING requires aggregation")
	}

	if !hasAgg {
		// Plain select: Proj is the item list (star = every column).
		if stmt.Star {
			for i, col := range workInput.Columns {
				spec.Proj = append(spec.Proj, &expr.Col{Name: col.Name, Index: i})
				spec.OutNames = append(spec.OutNames, col.Name)
				spec.OutPerm = append(spec.OutPerm, i)
			}
		} else {
			for i, item := range stmt.Items {
				e, err := cloneResolved(item.Expr, workInput)
				if err != nil {
					return err
				}
				spec.Proj = append(spec.Proj, e)
				spec.OutNames = append(spec.OutNames, outName(item))
				spec.OutPerm = append(spec.OutPerm, i)
			}
		}
		return resolveOrdering(stmt, spec, nil)
	}

	// Aggregate query. Canonical layout: group columns then aggs.
	if stmt.Star {
		return fmt.Errorf("plan: SELECT * cannot be combined with aggregation")
	}
	groupExprs := make([]expr.Expr, 0, len(stmt.GroupBy))
	groupNames := make([]string, 0, len(stmt.GroupBy))
	for _, g := range stmt.GroupBy {
		e, err := cloneResolved(expr.NewCol(g), workInput)
		if err != nil {
			return fmt.Errorf("plan: GROUP BY column %q: %w", g, err)
		}
		groupExprs = append(groupExprs, e)
		groupNames = append(groupNames, g)
	}
	// Proj = group exprs, then one column per aggregate argument.
	spec.Proj = append(spec.Proj, groupExprs...)
	for i := range groupExprs {
		spec.GroupCols = append(spec.GroupCols, i)
	}

	type aggKey struct {
		fn  agg.AggFunc
		arg string
	}
	aggIdx := map[aggKey]int{}
	addAgg := func(f *expr.Func) (int, error) {
		fn, _ := aggFromFunc(f.Name)
		if len(f.Args) != 1 {
			return 0, fmt.Errorf("plan: %s takes exactly one argument", f.Name)
		}
		arg := f.Args[0]
		key := aggKey{fn: fn, arg: arg.String()}
		if idx, ok := aggIdx[key]; ok {
			return idx, nil
		}
		argCol := -1
		if !sqlparser.IsCountStar(arg) {
			e, err := cloneResolved(arg, workInput)
			if err != nil {
				return 0, err
			}
			argCol = len(spec.Proj)
			spec.Proj = append(spec.Proj, e)
		} else if fn != agg.Count {
			return 0, fmt.Errorf("plan: %s(*) is not valid", f.Name)
		}
		idx := len(spec.Aggs)
		spec.Aggs = append(spec.Aggs, agg.AggSpec{Func: fn, ArgCol: argCol})
		aggIdx[key] = idx
		return idx, nil
	}

	// Each select item must be a group column or an aggregate call.
	for _, item := range stmt.Items {
		if f, ok := isAggCall(item.Expr); ok {
			idx, err := addAgg(f)
			if err != nil {
				return err
			}
			spec.OutPerm = append(spec.OutPerm, len(groupExprs)+idx)
			spec.OutNames = append(spec.OutNames, outName(item))
			continue
		}
		if c, ok := item.Expr.(*expr.Col); ok {
			gi := -1
			for i, g := range stmt.GroupBy {
				if g == c.Name || strings.HasSuffix(g, "."+c.Name) || strings.HasSuffix(c.Name, "."+g) {
					gi = i
					break
				}
			}
			if gi >= 0 {
				spec.OutPerm = append(spec.OutPerm, gi)
				spec.OutNames = append(spec.OutNames, outName(item))
				continue
			}
		}
		return fmt.Errorf("plan: select item %s is neither a GROUP BY column nor an aggregate", item.Expr)
	}
	return resolveOrdering(stmt, spec, groupNames)
}

// resolveOrdering binds HAVING and ORDER BY to the canonical layout.
// References may be select-item aliases, group column names, or
// textual matches of aggregate calls (e.g. ORDER BY SUM(hits)).
func resolveOrdering(stmt *sqlparser.SelectStmt, spec *Spec, groupNames []string) error {
	// Build the canonical-name table: every canonical position gets
	// the names that refer to it.
	width := spec.CanonicalWidth()
	names := make([][]string, width)
	if spec.IsAggregate() {
		for i, g := range groupNames {
			names[i] = append(names[i], g)
		}
	}
	// Select items map via OutPerm.
	for outPos, canonPos := range spec.OutPerm {
		var item sqlparser.SelectItem
		if outPos < len(stmt.Items) {
			item = stmt.Items[outPos]
		}
		if item.Alias != "" {
			names[canonPos] = append(names[canonPos], item.Alias)
		}
		if item.Expr != nil {
			names[canonPos] = append(names[canonPos], item.Expr.String())
			if c, ok := item.Expr.(*expr.Col); ok {
				names[canonPos] = append(names[canonPos], c.Name)
			}
		}
		if !spec.IsAggregate() && outPos < len(spec.OutNames) {
			names[canonPos] = append(names[canonPos], spec.OutNames[outPos])
		}
	}
	find := func(e expr.Expr) int {
		target := e.String()
		var bare string
		if c, ok := e.(*expr.Col); ok {
			bare = c.Name
		}
		for pos, ns := range names {
			for _, n := range ns {
				if n == target || (bare != "" && n == bare) {
					return pos
				}
			}
		}
		return -1
	}

	for _, o := range stmt.OrderBy {
		pos := find(o.Expr)
		if pos < 0 {
			return fmt.Errorf("plan: ORDER BY %s does not match any output column", o.Expr)
		}
		spec.OrderCols = append(spec.OrderCols, pos)
		spec.OrderDesc = append(spec.OrderDesc, o.Desc)
	}

	if stmt.Having != nil {
		// Rewrite the HAVING tree: aggregate calls and group refs
		// become canonical column references.
		rewritten, err := rewriteFinal(stmt.Having, find)
		if err != nil {
			return err
		}
		spec.Having = rewritten
	}
	return nil
}

// rewriteFinal replaces sub-expressions that name canonical output
// columns (aggregate calls, group columns, aliases) with column
// references into the canonical layout.
func rewriteFinal(e expr.Expr, find func(expr.Expr) int) (expr.Expr, error) {
	if pos := find(e); pos >= 0 {
		return &expr.Col{Name: e.String(), Index: pos}, nil
	}
	switch x := e.(type) {
	case *expr.Cmp:
		l, err := rewriteFinal(x.L, find)
		if err != nil {
			return nil, err
		}
		r, err := rewriteFinal(x.R, find)
		if err != nil {
			return nil, err
		}
		return &expr.Cmp{Op: x.Op, L: l, R: r}, nil
	case *expr.Arith:
		l, err := rewriteFinal(x.L, find)
		if err != nil {
			return nil, err
		}
		r, err := rewriteFinal(x.R, find)
		if err != nil {
			return nil, err
		}
		return &expr.Arith{Op: x.Op, L: l, R: r}, nil
	case *expr.And:
		l, err := rewriteFinal(x.L, find)
		if err != nil {
			return nil, err
		}
		r, err := rewriteFinal(x.R, find)
		if err != nil {
			return nil, err
		}
		return &expr.And{L: l, R: r}, nil
	case *expr.Or:
		l, err := rewriteFinal(x.L, find)
		if err != nil {
			return nil, err
		}
		r, err := rewriteFinal(x.R, find)
		if err != nil {
			return nil, err
		}
		return &expr.Or{L: l, R: r}, nil
	case *expr.Not:
		inner, err := rewriteFinal(x.E, find)
		if err != nil {
			return nil, err
		}
		return &expr.Not{E: inner}, nil
	case *expr.IsNull:
		inner, err := rewriteFinal(x.E, find)
		if err != nil {
			return nil, err
		}
		return &expr.IsNull{E: inner, Negate: x.Negate}, nil
	case *expr.Lit:
		return x, nil
	case *expr.Func:
		return nil, fmt.Errorf("plan: HAVING aggregate %s must also appear in the select list", x)
	case *expr.Col:
		return nil, fmt.Errorf("plan: HAVING column %s is not an output column", x.Name)
	default:
		return nil, fmt.Errorf("plan: unsupported HAVING expression %s", e)
	}
}

func outName(item sqlparser.SelectItem) string {
	if item.Alias != "" {
		return item.Alias
	}
	return item.Expr.String()
}

// OutPermExprs renders the output permutation as column expressions:
// one named column reference per select-list position into the
// canonical layout. The coordinator tail's final projection.
func (s *Spec) OutPermExprs() []expr.Expr {
	perm := make([]expr.Expr, len(s.OutPerm))
	for i, p := range s.OutPerm {
		perm[i] = &expr.Col{Name: s.OutNames[i], Index: p}
	}
	return perm
}

// OutPermIdentity reports whether the output permutation keeps the
// canonical layout as it is: every canonical column, in order.
func (s *Spec) OutPermIdentity() bool {
	if len(s.OutPerm) != s.CanonicalWidth() {
		return false
	}
	for i, p := range s.OutPerm {
		if p != i {
			return false
		}
	}
	return true
}

// OutputSchema describes the result rows in select-list order.
func (s *Spec) OutputSchema() *tuple.Schema {
	cols := make([]tuple.Column, len(s.OutNames))
	for i, n := range s.OutNames {
		cols[i] = tuple.Column{Name: n}
	}
	return &tuple.Schema{Name: "result", Columns: cols}
}
