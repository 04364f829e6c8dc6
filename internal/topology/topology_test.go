package topology

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/pier"
	"repro/internal/piertest"
)

func cluster(t *testing.T, n int, seed int64) []*pier.Node {
	t.Helper()
	c, err := piertest.New(piertest.Options{N: n, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	for _, nd := range c.Nodes {
		if err := Define(nd, 30*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	return c.Nodes
}

// publishGraph spreads the edge list across the nodes' partitions.
func publishGraph(t *testing.T, nodes []*pier.Node, edges [][2]string) {
	t.Helper()
	for i, e := range edges {
		if err := PublishLink(nodes[i%len(nodes)], e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
}

// reach runs Reachable from nd and returns its vertices. A query that
// does not end eos with full coverage, or does not end within 20 s
// (a cycle that never reaches its fixpoint), is an error.
func reach(nd *pier.Node, from string) ([]string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	res, err := Reachable(ctx, nd, from)
	if err != nil {
		return nil, err
	}
	if res.Reason != pier.ReasonEOS || res.Coverage != 1 {
		return nil, fmt.Errorf("reach(%s) ended %q, coverage %v", from, res.Reason, res.Coverage)
	}
	out := []string{}
	for _, r := range res.Rows {
		out = append(out, r[0].S)
	}
	return out, nil
}

func mustReach(t *testing.T, nd *pier.Node, from string) []string {
	t.Helper()
	got, err := reach(nd, from)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// oracle is reachability from `from` by a worklist over edges.
func oracle(edges [][2]string, from string) []string {
	seen := map[string]bool{}
	out := []string{}
	for work := []string{from}; len(work) > 0; {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		for _, e := range edges {
			if e[0] == v && !seen[e[1]] {
				seen[e[1]] = true
				out = append(out, e[1])
				work = append(work, e[1])
			}
		}
	}
	sort.Strings(out)
	return out
}

func TestReachableChain(t *testing.T) {
	nodes := cluster(t, 5, 41)
	publishGraph(t, nodes, [][2]string{{"a", "b"}, {"b", "c"}, {"c", "d"}, {"x", "y"}})
	if got := mustReach(t, nodes[0], "a"); !reflect.DeepEqual(got, []string{"b", "c", "d"}) {
		t.Fatalf("reach(a) = %v", got)
	}
}

func TestReachableCycleTerminates(t *testing.T) {
	nodes := cluster(t, 4, 42)
	publishGraph(t, nodes, [][2]string{{"a", "b"}, {"b", "c"}, {"c", "a"}})
	if got := mustReach(t, nodes[1], "a"); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("reach(a) over cycle = %v", got)
	}
}

func TestReachableBranching(t *testing.T) {
	nodes := cluster(t, 6, 43)
	publishGraph(t, nodes, [][2]string{
		{"r", "l1"}, {"r", "l2"}, {"l1", "l3"}, {"l2", "l4"}, {"l4", "l5"},
	})
	if got := mustReach(t, nodes[2], "r"); !reflect.DeepEqual(got, []string{"l1", "l2", "l3", "l4", "l5"}) {
		t.Fatalf("reach(r) = %v", got)
	}
}

func TestReachableEmpty(t *testing.T) {
	nodes := cluster(t, 3, 44)
	publishGraph(t, nodes, [][2]string{{"a", "b"}})
	if got := mustReach(t, nodes[0], "z"); len(got) != 0 {
		t.Fatalf("reach(z) = %v", got)
	}
}

// TestInNetworkAgreesWithSQL: from every vertex, and from one absent
// from the graph, Reachable equals a worklist oracle over the edges.
func TestInNetworkAgreesWithSQL(t *testing.T) {
	nodes := cluster(t, 5, 45)
	edges := [][2]string{{"a", "b"}, {"b", "c"}, {"b", "d"}, {"d", "e"}, {"q", "a"}, {"e", "b"}}
	publishGraph(t, nodes, edges)
	for i, from := range []string{"a", "b", "c", "d", "e", "q", "nowhere"} {
		if got, want := mustReach(t, nodes[i%len(nodes)], from), oracle(edges, from); !reflect.DeepEqual(got, want) {
			t.Fatalf("reach(%s) = %v, oracle %v", from, got, want)
		}
	}
}

// TestReachableQuotesVertex: a vertex name is a string literal, never
// SQL. A quote in it is part of the name, and a name shaped like a
// predicate matches no link.
func TestReachableQuotesVertex(t *testing.T) {
	nodes := cluster(t, 3, 47)
	publishGraph(t, nodes, [][2]string{{"o'hare", "b"}, {"b", "c"}, {"x", "y"}})
	if got := mustReach(t, nodes[0], "o'hare"); !reflect.DeepEqual(got, []string{"b", "c"}) {
		t.Fatalf("reach(o'hare) = %v", got)
	}
	if got := mustReach(t, nodes[1], "zz' OR src <> '"); len(got) != 0 {
		t.Fatalf("a predicate-shaped vertex reached %v", got)
	}
}

func TestConcurrentQueries(t *testing.T) {
	nodes := cluster(t, 5, 46)
	publishGraph(t, nodes, [][2]string{{"a", "b"}, {"b", "c"}, {"p", "q"}})
	type res struct {
		from string
		got  []string
		err  error
	}
	ch := make(chan res, 2)
	for i, from := range []string{"a", "p"} {
		go func() {
			g, e := reach(nodes[i], from)
			ch <- res{from, g, e}
		}()
	}
	want := map[string][]string{"a": {"b", "c"}, "p": {"q"}}
	for i := 0; i < 2; i++ {
		r := <-ch
		if r.err != nil {
			t.Fatal(r.err)
		}
		if !reflect.DeepEqual(r.got, want[r.from]) {
			t.Fatalf("reach(%s) = %v", r.from, r.got)
		}
	}
}
