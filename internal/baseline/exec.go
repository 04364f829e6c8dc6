package baseline

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/agg"
	"repro/internal/expr"
	"repro/internal/physical"
	"repro/internal/plan"
	"repro/internal/sqlparser"
	"repro/internal/tuple"
)

// Single-node reference executor: pull every table's tuples to one
// node (the centralized baseline's data movement) and evaluate the
// query locally with in-memory hash joins. It compiles the same plan
// the distributed engine uses and follows the same semantics (scan
// filters, left-deep join chain, post filter, projection, partial →
// final aggregation, coordinator tail), so its rows are the ground
// truth distributed executions are compared against, whatever join
// order or strategies the optimizer picked.

// QueryResult is a locally computed result set.
type QueryResult struct {
	Columns []string
	Rows    []tuple.Tuple
}

// QuerySQL evaluates sql over the whole network's data at this node.
// settle bounds each table's collection quiescence wait.
func (c *Centralized) QuerySQL(ctx context.Context, sql string, settle time.Duration) (*QueryResult, error) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	if stmt.With != nil || stmt.IsContinuous() {
		return nil, fmt.Errorf("baseline: only one-shot single-block statements are supported")
	}
	spec, err := plan.Compile(stmt, c.node.Catalog(), plan.Options{})
	if err != nil {
		return nil, err
	}
	rows, err := c.executeSpec(ctx, spec, settle)
	if err != nil {
		return nil, err
	}
	return &QueryResult{Columns: spec.OutNames, Rows: rows}, nil
}

// executeSpec runs a compiled plan locally over collected tables.
func (c *Centralized) executeSpec(ctx context.Context, spec *plan.Spec, settle time.Duration) ([]tuple.Tuple, error) {
	// Collect and filter each scan. Identical duplicates within one
	// scan are dropped: CollectAll sees DHT replicas of published
	// tuples on several nodes, and the distributed join collectors
	// dedup identical rehashed tuples the same way. The dedup is over
	// the stored row; the plan reads what the scan keeps of it.
	scans := make([][]tuple.Tuple, len(spec.Scans))
	for i := range spec.Scans {
		sc := &spec.Scans[i]
		raw, err := c.CollectAll(ctx, sc.Table, settle)
		if err != nil {
			return nil, err
		}
		seen := map[string]bool{}
		for _, stored := range raw {
			k := string(stored.Bytes())
			if seen[k] {
				continue
			}
			seen[k] = true
			t, ok := sc.Narrow(stored)
			if !ok {
				continue
			}
			if sc.Where != nil {
				v, err := sc.Where.Eval(t)
				if err != nil || !expr.Truthy(v) {
					continue
				}
			}
			scans[i] = append(scans[i], t)
		}
	}

	// Left-deep in-memory hash joins, one per stage.
	cur := scans[0]
	for k := range spec.Joins {
		j := &spec.Joins[k]
		table := make(map[string][]tuple.Tuple)
		for _, rt := range scans[k+1] {
			key := string(rt.Project(j.RightCols).Bytes())
			table[key] = append(table[key], rt)
		}
		var next []tuple.Tuple
		for _, lt := range cur {
			key := string(lt.Project(j.LeftCols).Bytes())
			for _, rt := range table[key] {
				next = append(next, lt.Concat(rt))
			}
		}
		cur = next
	}

	// Post filter and projection (rows failing evaluation drop, like
	// the physical Filter/Project operators).
	var work []tuple.Tuple
	for _, t := range cur {
		if spec.PostFilter != nil {
			v, err := spec.PostFilter.Eval(t)
			if err != nil || !expr.Truthy(v) {
				continue
			}
		}
		out := make(tuple.Tuple, len(spec.Proj))
		ok := true
		for i, e := range spec.Proj {
			v, err := e.Eval(t)
			if err != nil {
				ok = false
				break
			}
			out[i] = v
		}
		if ok {
			work = append(work, out)
		}
	}

	// Aggregation to canonical rows (group values then finals), in
	// the coordinator's deterministic group-key order.
	canonical := work
	if spec.IsAggregate() {
		type group struct {
			key tuple.Tuple
			acc *agg.Accumulator
		}
		groups := map[string]*group{}
		for _, t := range work {
			keyTuple := t.Project(spec.GroupCols)
			key := string(keyTuple.Bytes())
			g, ok := groups[key]
			if !ok {
				g = &group{key: keyTuple, acc: agg.NewAccumulator(spec.Aggs)}
				groups[key] = g
			}
			if err := g.acc.AddRaw(t); err != nil {
				continue
			}
		}
		keys := make([]string, 0, len(groups))
		for k := range groups {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		canonical = make([]tuple.Tuple, 0, len(groups))
		for _, k := range keys {
			g := groups[k]
			canonical = append(canonical, append(g.key.Clone(), g.acc.FinalValues()...))
		}
	}

	// Coordinator tail: HAVING, DISTINCT, ORDER BY, LIMIT, output
	// permutation — the same compiled pipeline the coordinator runs.
	var final []tuple.Tuple
	tail := physical.CompileFinalize(spec, canonical, &final, &physical.Env{})
	if err := tail.Run(ctx); err != nil {
		return nil, err
	}
	return final, nil
}
