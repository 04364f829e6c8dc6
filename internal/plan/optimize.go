// Cost-based join optimization: a Selinger-style dynamic program over
// left-deep join trees. The search enumerates join orders whose every
// prefix is connected in the equi-join graph (no cross products),
// estimates cardinalities from catalog statistics (with coarse
// defaults when stats were never declared), and prices each candidate
// stage under the three distributed strategies the engine implements.
// The cost unit is "tuples put on the network": rehashing a tuple to
// a collector costs 1, a fetch-matches DHT probe costs probeWeight
// (the get's multi-hop routing and its response), and a Bloom stage
// pays a fixed filter-gather setup plus the filtered rehash volume —
// the per-site statistics trade-off framing of Jahangiri et al.
// applied to strategy choice.
package plan

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/tuple"
)

const (
	// defaultRows stands in for an undeclared table cardinality.
	defaultRows = 1000
	// defaultDistinctFrac estimates distinct values per column as a
	// fraction of table cardinality when no stat was declared.
	defaultDistinctFrac = 0.1
	// probeWeight prices one fetch-matches DHT get relative to one
	// rehashed tuple: the get routes O(log n) hops and returns a
	// response, but moves no base data.
	probeWeight = 1.5
	// bloomSetup prices the Bloom phase-1 round trip (filter request
	// broadcast + per-site filter responses), amortized in tuples.
	bloomSetup = 256
	// selEq / selRange / selOther are the textbook filter
	// selectivity guesses for predicates without usable stats.
	selEq    = 0.1
	selRange = 1.0 / 3
	selOther = 0.5
)

// stageEst carries one stage's cardinality estimates into the spec.
type stageEst struct {
	left, right, out int64
}

// optimize picks the left-deep join order and per-stage strategies
// for the given inputs. forced, when non-nil, pins every stage's
// strategy and keeps the FROM order (the benchmark/ablation knob) —
// only legality is checked.
func optimize(inputs []joinInput, edges []joinEdge, forced *JoinStrategy) ([]int, []JoinStrategy, []stageEst, error) {
	n := len(inputs)
	if len(edges) == 0 {
		return nil, nil, nil, fmt.Errorf("plan: joins require at least one equality predicate between the tables")
	}
	rows := make([]float64, n)
	for i := range inputs {
		rows[i] = scanRows(&inputs[i])
	}

	if forced != nil {
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		strategies := make([]JoinStrategy, n-1)
		ests := make([]stageEst, n-1)
		left := rows[order[0]]
		for k := 0; k < n-1; k++ {
			strategies[k] = *forced
			right := rows[order[k+1]]
			out := joinRows(inputs, edges, order[:k+1], order[k+1], left, right)
			ests[k] = stageEst{left: ceil64(left), right: ceil64(right), out: ceil64(out)}
			if err := checkLegal(*forced, k, inputs, edges, order); err != nil {
				return nil, nil, nil, err
			}
			left = out
		}
		return order, strategies, ests, nil
	}

	// DP over connected subsets, left-deep only: state = set of
	// joined inputs; value = cheapest (cost, order, strategies).
	type state struct {
		cost  float64
		rows  float64
		order []int
		strat []JoinStrategy
		ests  []stageEst
	}
	best := make(map[uint]*state)
	for i := 0; i < n; i++ {
		best[1<<uint(i)] = &state{cost: 0, rows: rows[i], order: []int{i}}
	}
	adjacent := func(mask uint, t int) bool {
		for _, e := range edges {
			if (e.a == t && mask&(1<<uint(e.b)) != 0) ||
				(e.b == t && mask&(1<<uint(e.a)) != 0) {
				return true
			}
		}
		return false
	}
	full := uint(1<<uint(n)) - 1
	for mask := uint(1); mask <= full; mask++ {
		s := best[mask]
		if s == nil || mask == full {
			continue
		}
		for t := 0; t < n; t++ {
			bit := uint(1) << uint(t)
			if mask&bit != 0 || !adjacent(mask, t) {
				continue
			}
			stage := bits.OnesCount(mask) - 1
			strat, stageCost := cheapestStrategy(stage, s.rows, rows[t], inputs, edges, s.order, t)
			out := joinRows(inputs, edges, s.order, t, s.rows, rows[t])
			cand := &state{
				cost:  s.cost + stageCost,
				rows:  out,
				order: append(append([]int(nil), s.order...), t),
				strat: append(append([]JoinStrategy(nil), s.strat...), strat),
				ests: append(append([]stageEst(nil), s.ests...),
					stageEst{left: ceil64(s.rows), right: ceil64(rows[t]), out: ceil64(out)}),
			}
			if cur := best[mask|bit]; cur == nil || cand.cost < cur.cost {
				best[mask|bit] = cand
			}
		}
	}
	s := best[full]
	if s == nil {
		return nil, nil, nil, fmt.Errorf("plan: join graph is disconnected — every table needs an equality predicate linking it to the rest")
	}
	return s.order, s.strat, s.ests, nil
}

// cheapestStrategy prices the legal strategies for joining the
// accumulated left input (leftRows, tables order) with input t and
// returns the cheapest. Deterministic: ties keep the earlier
// enumeration order (symmetric < fetch < bloom).
func cheapestStrategy(stage int, leftRows, rightRows float64,
	inputs []joinInput, edges []joinEdge, order []int, t int) (JoinStrategy, float64) {
	bestStrat, bestCost := SymmetricHash, leftRows+rightRows
	if fetchLegalStage(inputs, edges, order, t) {
		if c := probeWeight * leftRows; c < bestCost {
			bestStrat, bestCost = FetchMatches, c
		}
	}
	// Bloom join: on stage 0 the filter summarizes the left base
	// table's join keys and prunes the right scan before it rehashes;
	// on later stages the build side inverts — the filter summarizes
	// the right base table (the only base relation the stage touches)
	// and prunes the accumulated left stream instead. Either way one
	// side ships in full and the other ships only its matching
	// fraction, after the fixed filter-gather round trip.
	out := joinRows(inputs, edges, order, t, leftRows, rightRows)
	var bloomCost float64
	if stage == 0 {
		matchFrac := math.Min(1, out/math.Max(rightRows, 1))
		bloomCost = bloomSetup + leftRows + matchFrac*rightRows
	} else {
		matchFrac := math.Min(1, out/math.Max(leftRows, 1))
		bloomCost = bloomSetup + rightRows + matchFrac*leftRows
	}
	if bloomCost < bestCost {
		bestStrat, bestCost = BloomJoin, bloomCost
	}
	return bestStrat, bestCost
}

// checkLegal validates a forced strategy at one stage of the FROM
// order (forced plans skip enumeration but not legality).
func checkLegal(s JoinStrategy, stage int, inputs []joinInput, edges []joinEdge, order []int) error {
	switch s {
	case FetchMatches:
		if !fetchLegalStage(inputs, edges, order[:stage+1], order[stage+1]) {
			return fmt.Errorf("plan: fetch-matches requires the right table's key to equal the join columns")
		}
	case BloomJoin:
		// Legal at any stage: the filter's build side is a base-table
		// scan by construction (left-deep plans join a base table in at
		// every stage — the left base on stage 0, the right base after).
	}
	return nil
}

// fetchLegalStage reports whether joining input t as the right side
// of the accumulated left set may use fetch-matches: t's declared key
// must equal the join columns consumed at that stage.
func fetchLegalStage(inputs []joinInput, edges []joinEdge, leftOrder []int, t int) bool {
	inLeft := map[int]bool{}
	for _, i := range leftOrder {
		inLeft[i] = true
	}
	var rightCols []int
	for _, e := range edges {
		switch {
		case e.b == t && inLeft[e.a]:
			rightCols = append(rightCols, e.cb)
		case e.a == t && inLeft[e.b]:
			rightCols = append(rightCols, e.ca)
		}
	}
	return fetchLegalFor(inputs[t].Schema, rightCols)
}

// scanRows estimates a scan's output cardinality: known table rows
// discounted by the pushed filter's selectivity. "Known" includes a
// measured zero — an ANALYZE that found an empty table is real
// information (costed as one row, the floor), not an absent stat; the
// coarse default applies only when no statistics source exists, so
// the EXPLAIN stats= annotation always names the numbers actually
// used.
func scanRows(in *joinInput) float64 {
	rows := float64(defaultRows)
	if in.stats.Rows > 0 || in.StatsSource != catalog.StatsDefault {
		rows = float64(in.stats.Rows)
	}
	sel := filterSelectivity(in)
	return math.Max(1, rows*sel)
}

// minSampleRows is the smallest measured row sample a selectivity
// estimate may rest on; below it the variance dwarfs the textbook
// constants it would replace.
const minSampleRows = 8

// filterSelectivity estimates the pushed-down filter's selectivity.
// When the table carries a measured bottom-k row sample (from
// ANALYZE), the whole filter is evaluated against the sampled rows —
// a direct measurement that prices correlated conjuncts correctly,
// which per-conjunct independence assumptions cannot. Otherwise it
// multiplies per-conjunct guesses: an equality against a column with
// a distinct-count stat keeps 1/distinct of the rows; stat-less
// equalities, ranges, and everything else fall back to the textbook
// constants.
func filterSelectivity(in *joinInput) float64 {
	if in.Where == nil {
		return 1
	}
	if sel, ok := sampleSelectivity(in); ok {
		return sel
	}
	sel := 1.0
	for _, c := range expr.Conjuncts(in.Where) {
		sel *= conjunctSelectivity(c, in)
	}
	return math.Max(sel, 1e-6)
}

// sampleSelectivity evaluates the resolved filter against the
// measured row sample. Sample rows are stored rows, so each goes
// through Narrow to become the row the filter was resolved against;
// rows of another arity (a schema change since the measurement) are
// skipped, and the estimate stands only when enough rows remain. A
// filter matching nothing in the sample is costed at half a sample
// row, not zero: the sample proves the predicate is rare, never that
// it is impossible.
func sampleSelectivity(in *joinInput) (float64, bool) {
	if in.stats.Sample == nil {
		return 0, false
	}
	total, matched := 0, 0
	for _, stored := range in.stats.Sample.Rows() {
		row, ok := in.Narrow(stored)
		if !ok {
			continue
		}
		total++
		if v, err := in.Where.Eval(row); err == nil && expr.Truthy(v) {
			matched++
		}
	}
	if total < minSampleRows {
		return 0, false
	}
	sel := float64(matched) / float64(total)
	return math.Max(sel, 0.5/float64(total)), true
}

func conjunctSelectivity(c expr.Expr, in *joinInput) float64 {
	cmp, ok := c.(*expr.Cmp)
	if !ok {
		return selOther
	}
	// Which side is the column? (col <op> literal, either orientation)
	col, colOK := cmp.L.(*expr.Col)
	_, litOK := cmp.R.(*expr.Lit)
	if !colOK || !litOK {
		col, colOK = cmp.R.(*expr.Col)
		_, litOK = cmp.L.(*expr.Lit)
	}
	switch cmp.Op {
	case expr.EQ:
		if colOK && litOK {
			if ci := in.Schema.ColIndex(col.Name); ci >= 0 {
				return 1 / math.Max(distinctOf(in, ci), 1)
			}
		}
		return selEq
	case expr.LT, expr.LE, expr.GT, expr.GE:
		return selRange
	default:
		return selOther
	}
}

// distinctOf returns the distinct-value estimate of a column (by its
// index within the qualified schema), defaulting to a fraction of the
// table's cardinality (measured-empty tables count as known, like
// scanRows).
func distinctOf(in *joinInput, col int) float64 {
	rows := float64(defaultRows)
	if in.stats.Rows > 0 || in.StatsSource != catalog.StatsDefault {
		rows = float64(in.stats.Rows)
	}
	if in.stats.Distinct != nil {
		// Stats key by base column name; the qualified schema keeps
		// column positions, so strip the binding prefix.
		name := tuple.BaseName(in.Schema.Columns[col].Name)
		if d, ok := in.stats.Distinct[name]; ok && d > 0 {
			return float64(d)
		}
	}
	return math.Max(1, rows*defaultDistinctFrac)
}

// joinRows estimates the output cardinality of joining the left set
// (cardinality leftRows) with input t: L×R discounted by 1/max(V(l),
// V(r)) per consumed equi-join predicate.
func joinRows(inputs []joinInput, edges []joinEdge, leftOrder []int, t int, leftRows, rightRows float64) float64 {
	inLeft := map[int]bool{}
	for _, i := range leftOrder {
		inLeft[i] = true
	}
	out := leftRows * rightRows
	for _, e := range edges {
		var leftIn, leftCol, rightCol int
		switch {
		case e.b == t && inLeft[e.a]:
			leftIn, leftCol, rightCol = e.a, e.ca, e.cb
		case e.a == t && inLeft[e.b]:
			leftIn, leftCol, rightCol = e.b, e.cb, e.ca
		default:
			continue
		}
		dl := distinctOf(&inputs[leftIn], leftCol)
		dr := distinctOf(&inputs[t], rightCol)
		out /= math.Max(math.Max(dl, dr), 1)
	}
	return math.Max(1, out)
}

func ceil64(f float64) int64 {
	if f > math.MaxInt64/2 {
		return math.MaxInt64 / 2
	}
	return int64(math.Ceil(f))
}
