package pier_test

// WITH RECURSIVE at the SQL level: the closure the coordinator
// computes must equal a worklist oracle over the same edges and, per
// source vertex, topology.Reachable, whose base carries the seed
// predicate — on a chain with an island, on a bare two-cycle, and on
// seeded random graphs with cycles.

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/piertest"
	"repro/internal/topology"
)

type edge [2]string

// closureOracle closes edges under "append an edge to a known path":
// every edge is a fact, and a fact (s, y) with an edge (y, z) the step
// admits derives (s, z).
func closureOracle(edges []edge, admits func(s string, e edge) bool) map[edge]bool {
	out := map[string][]edge{}
	for _, e := range edges {
		out[e[0]] = append(out[e[0]], e)
	}
	facts := map[edge]bool{}
	work := append([]edge(nil), edges...)
	for len(work) > 0 {
		f := work[len(work)-1]
		work = work[:len(work)-1]
		if facts[f] {
			continue
		}
		facts[f] = true
		for _, e := range out[f[1]] {
			if admits == nil || admits(f[0], e) {
				work = append(work, edge{f[0], e[1]})
			}
		}
	}
	return facts
}

// randomCyclicGraph draws a digraph on n vertices named under prefix:
// one guaranteed 3-cycle plus each other ordered pair with probability
// 1/4.
func randomCyclicGraph(rng *rand.Rand, prefix string, n int) []edge {
	name := func(v int) string { return fmt.Sprintf("%s.v%d", prefix, v) }
	perm := rng.Perm(n)
	set := map[edge]bool{
		{name(perm[0]), name(perm[1])}: true,
		{name(perm[1]), name(perm[2])}: true,
		{name(perm[2]), name(perm[0])}: true,
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && rng.Intn(4) == 0 {
				set[edge{name(i), name(j)}] = true
			}
		}
	}
	edges := make([]edge, 0, len(set))
	for e := range set {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i][0]+edges[i][1] < edges[j][0]+edges[j][1] })
	return edges
}

const closureSQL = `WITH RECURSIVE reach AS (
	SELECT src, dst FROM link
	UNION
	SELECT reach.src, l.dst FROM link l JOIN reach ON reach.dst = l.src%s
) %s`

func TestRecursiveClosureMatchesOracleAndTopology(t *testing.T) {
	cl, err := piertest.New(piertest.Options{N: 5, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	for _, nd := range cl.Nodes {
		if err := topology.Define(nd, time.Minute); err != nil {
			t.Fatal(err)
		}
	}

	// Disjoint components of one link table, one per case, told apart
	// by vertex prefix.
	graphs := map[string][]edge{
		// 1->2->3->4 and 5->6: seven facts.
		"chain": {{"chain.v1", "chain.v2"}, {"chain.v2", "chain.v3"}, {"chain.v3", "chain.v4"}, {"chain.v5", "chain.v6"}},
		// 1->2->1 must terminate with (1,2) (2,1) (1,1) (2,2).
		"cycle": {{"cycle.v1", "cycle.v2"}, {"cycle.v2", "cycle.v1"}},
	}
	for seed := int64(1); seed <= 3; seed++ {
		name := fmt.Sprintf("rand%d", seed)
		graphs[name] = randomCyclicGraph(rand.New(rand.NewSource(seed)), name, 6)
	}
	var all []edge
	for _, edges := range graphs {
		all = append(all, edges...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i][0]+all[i][1] < all[j][0]+all[j][1] })
	for i, e := range all {
		if err := topology.PublishLink(cl.Nodes[i%len(cl.Nodes)], e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}

	// A cyclic graph that never reaches its fixpoint ends here, not at
	// the suite's timeout.
	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Second)
	defer cancel()
	query := func(t *testing.T, sql string) map[edge]bool {
		t.Helper()
		res, err := cl.Nodes[1].Query(ctx, sql)
		if err != nil {
			t.Fatal(err)
		}
		if res.Reason != "eos" || res.Coverage != 1 {
			t.Fatalf("healthy closure ended %q, coverage %v", res.Reason, res.Coverage)
		}
		got := map[edge]bool{}
		for _, r := range res.Rows {
			got[edge{r[0].S, r[1].S}] = true
		}
		if len(got) != len(res.Rows) {
			t.Fatalf("%d rows for %d distinct facts: UNION must deduplicate", len(res.Rows), len(got))
		}
		return got
	}
	closure := query(t, fmt.Sprintf(closureSQL, "", "SELECT src, dst FROM reach"))

	for name, edges := range graphs {
		name, edges := name, edges
		t.Run(name, func(t *testing.T) {
			want := closureOracle(edges, nil)
			got := map[edge]bool{}
			for f := range closure {
				if strings.HasPrefix(f[0], name+".") {
					got[f] = true
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("SQL closure %v\nwant %v", got, want)
			}
			if n := map[string]int{"chain": 7, "cycle": 4}[name]; n != 0 && len(got) != n {
				t.Fatalf("%d facts, want %d", len(got), n)
			}
			// Per source vertex, the closure seeded in the base equals the
			// full closure filtered by src.
			sources := map[string]bool{}
			for _, e := range edges {
				sources[e[0]] = true
			}
			k := 0
			for src := range sources {
				res, err := topology.Reachable(ctx, cl.Nodes[k%len(cl.Nodes)], src)
				k++
				if err != nil {
					t.Fatalf("Reachable(%s): %v", src, err)
				}
				if res.Reason != "eos" || res.Coverage != 1 {
					t.Fatalf("Reachable(%s) ended %q, coverage %v", src, res.Reason, res.Coverage)
				}
				var seeded, filtered []string
				for _, r := range res.Rows {
					seeded = append(seeded, r[0].S)
				}
				for f := range got {
					if f[0] == src {
						filtered = append(filtered, f[1])
					}
				}
				sort.Strings(filtered)
				if !reflect.DeepEqual(seeded, filtered) {
					t.Fatalf("reach(%s): seeded %v != filtered closure %v", src, seeded, filtered)
				}
			}
		})
	}

	// The step's own predicates go where the planner puts them: a
	// link-only conjunct filters the materialized table, a cross-table
	// inequality is the residual over the joined row.
	t.Run("step-filters", func(t *testing.T) {
		const banned = "rand1.v0"
		got := query(t, fmt.Sprintf(closureSQL,
			" WHERE l.dst <> '"+banned+"' AND l.dst <> reach.src", "SELECT src, dst FROM reach"))
		want := closureOracle(all, func(s string, e edge) bool { return e[1] != banned && e[1] != s })
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("filtered closure has %d facts, oracle %d", len(got), len(want))
		}
	})

	// The outer block is a full query block: grouped, filtered, ordered.
	t.Run("outer-aggregate", func(t *testing.T) {
		res, err := cl.Nodes[2].Query(ctx, fmt.Sprintf(closureSQL, "",
			"SELECT src, COUNT(*) AS n FROM reach WHERE dst <> src GROUP BY src ORDER BY n DESC, src LIMIT 5"))
		if err != nil {
			t.Fatal(err)
		}
		counts := map[string]int64{}
		for f := range closure {
			if f[0] != f[1] {
				counts[f[0]]++
			}
		}
		type row struct {
			src string
			n   int64
		}
		var want []row
		for src, n := range counts {
			want = append(want, row{src, n})
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].n != want[j].n {
				return want[i].n > want[j].n
			}
			return want[i].src < want[j].src
		})
		want = want[:5]
		if len(res.Rows) != len(want) || !reflect.DeepEqual(res.Columns, []string{"src", "n"}) {
			t.Fatalf("got %d rows %v, want %d", len(res.Rows), res.Columns, len(want))
		}
		for i, w := range want {
			if res.Rows[i][0].S != w.src || res.Rows[i][1].I != w.n {
				t.Fatalf("row %d: got %v, want %v", i, res.Rows[i], w)
			}
		}
	})
}

func TestRecursiveRejectsMalformedSteps(t *testing.T) {
	cl, err := piertest.New(piertest.Options{N: 1, Seed: 62})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	if err := topology.Define(cl.Nodes[0], time.Minute); err != nil {
		t.Fatal(err)
	}
	for name, sql := range map[string]string{
		"no equality":      "WITH RECURSIVE r AS (SELECT src, dst FROM link UNION SELECT r.src, l.dst FROM link l JOIN r ON r.dst < l.src) SELECT * FROM r",
		"wrong arity":      "WITH RECURSIVE r AS (SELECT src, dst FROM link UNION SELECT l.dst FROM link l JOIN r ON r.dst = l.src) SELECT * FROM r",
		"step without cte": "WITH RECURSIVE r AS (SELECT src, dst FROM link UNION SELECT a.src, b.dst FROM link a JOIN link b ON a.dst = b.src) SELECT * FROM r",
		"aggregating step": "WITH RECURSIVE r AS (SELECT src, dst FROM link UNION SELECT r.src, MAX(l.dst) FROM link l JOIN r ON r.dst = l.src GROUP BY r.src) SELECT * FROM r",
		"unknown table":    "WITH RECURSIVE r AS (SELECT src, dst FROM link UNION SELECT r.src, l.dst FROM nope l JOIN r ON r.dst = l.src) SELECT * FROM r",
		"outer reads more": "WITH RECURSIVE r AS (SELECT src, dst FROM link UNION SELECT r.src, l.dst FROM link l JOIN r ON r.dst = l.src) SELECT * FROM link",
	} {
		if _, err := cl.Nodes[0].Query(context.Background(), sql); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
