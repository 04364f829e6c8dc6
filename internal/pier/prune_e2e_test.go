package pier_test

// Column pruning and the query-independent join origin, end to end: a
// scan ships only the columns its statement reads and, in place of the
// rest, the stored row's identity, and every path that reads stored
// rows — symmetric rehash, fetch
// probes, the Bloom phase, the recursive fixpoint, a continuous window —
// must still return what the centralized baseline (or an oracle)
// returns over full rows.

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/pier"
	"repro/internal/plan"
	"repro/internal/tuple"
)

// assertBaselineRows runs sql distributed under opts and centralized,
// and requires byte-identical rows and an `eos` ending.
func assertBaselineRows(t *testing.T, nodes []*pier.Node, sql string, opts plan.Options, wantRows int) *pier.Result {
	t.Helper()
	base, err := centralizedBaseline(nodes).QuerySQL(context.Background(), sql, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Rows) != wantRows {
		t.Fatalf("baseline produced %d rows, want %d", len(base.Rows), wantRows)
	}
	res, err := nodes[0].QueryWithOptions(context.Background(), sql, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != pier.ReasonEOS {
		t.Errorf("ended %q, want %q", res.Reason, pier.ReasonEOS)
	}
	if got, want := encodeSorted(res.Rows), encodeSorted(base.Rows); !reflect.DeepEqual(got, want) {
		t.Fatalf("%d rows differ from the centralized baseline's %d", len(got), len(want))
	}
	return res
}

// A declared key is a resource id: it places a row, and any number of
// rows may share it. postings is keyed on word alone, as the search
// application's inverted index is, with one row per (word, file);
// topics and langs are keyed on their join columns the same way.
var (
	prunePostings = tuple.MustSchema("postings", []tuple.Column{
		{Name: "word", Type: tuple.TString},
		{Name: "file", Type: tuple.TString},
	}, "word")
	pruneTopics = tuple.MustSchema("topics", []tuple.Column{
		{Name: "word", Type: tuple.TString},
		{Name: "topic", Type: tuple.TString},
		{Name: "weight", Type: tuple.TInt},
	}, "word")
	pruneLangs = tuple.MustSchema("langs", []tuple.Column{
		{Name: "topic", Type: tuple.TString},
		{Name: "lang", Type: tuple.TString},
	}, "topic")
)

// TestPruneKeepsRowsEqualInReadColumns: stored rows that agree in every
// column a statement reads are still that many rows in its answer. The
// collectors drop retransmits by whole-row equality, so narrowed to the
// read columns alone — or to those plus the declared key, which names a
// place and not a row — such rows would collapse into one; each carries
// its stored row's identity instead. The baseline dedups replicas over
// stored rows and keeps them all.
func TestPruneKeepsRowsEqualInReadColumns(t *testing.T) {
	sym := plan.SymmetricHash
	opts := plan.Options{Strategy: &sym, Analyze: true}
	wantPlan := func(t *testing.T, res *pier.Result, scans ...string) {
		t.Helper()
		for _, want := range scans {
			if !strings.Contains(res.AnalyzeReport, want) {
				t.Fatalf("plan lacks %q:\n%s", want, res.AnalyzeReport)
			}
		}
	}

	// orders is keyed (node, oid), one row per key; the statement reads
	// uid alone and ten orders share each uid.
	t.Run("one row per key", func(t *testing.T) {
		cl := spillCluster(t, 4, 2101, nil)
		seedRehashJoin(t, cl.Nodes, 50, 5, 1)
		res := assertBaselineRows(t, cl.Nodes, "SELECT u.name FROM orders o JOIN users u ON o.uid = u.uid", opts, 50)
		wantPlan(t, res, "Scan orders [table:orders] cols=[uid, #row]/5")
	})

	// Twelve postings share each word and differ only in file, two topics
	// rows share each word and differ only in weight, and no statement
	// reads file or weight: equal rows at stage 0 and again among the
	// accumulated left rows of stage 1. Under the 8 KB budget the same
	// rows go through the spill files, where a pass dedups them again.
	const nWords, nFiles, nTopics = 40, 12, 2
	for _, budget := range []int64{0, 8 * 1024} {
		t.Run(fmt.Sprintf("many rows per key/budget=%d", budget), func(t *testing.T) {
			cl := spillCluster(t, 4, 2106+budget, func(cfg *pier.Config) { cfg.JoinMemBudget = budget })
			for _, sch := range []*tuple.Schema{prunePostings, pruneTopics, pruneLangs} {
				defineOnAll(t, cl.Nodes, sch)
			}
			put := func(i int, table string, row tuple.Tuple) {
				t.Helper()
				if err := cl.Nodes[i%len(cl.Nodes)].Publish(table, row); err != nil {
					t.Fatal(err)
				}
			}
			for w := 0; w < nWords; w++ {
				word := tuple.String(fmt.Sprintf("word-%d", w))
				for f := 0; f < nFiles; f++ {
					put(w+f, "postings", tuple.Tuple{word, tuple.String(fmt.Sprintf("file-%d-%d", w, f))})
				}
				// Both topics rows of a word name the same topic, a topic
				// of its own: stage 1's join values stay small groups, so a
				// budget that spills does not also have to split one value.
				topic := tuple.String(fmt.Sprintf("topic-%d", w))
				for k := 0; k < nTopics; k++ {
					put(w+k, "topics", tuple.Tuple{word, topic, tuple.Int(int64(k))})
				}
				put(w, "langs", tuple.Tuple{topic, tuple.String("en")})
				put(w+1, "langs", tuple.Tuple{topic, tuple.String("de")})
			}
			time.Sleep(400 * time.Millisecond) // let DHT puts land
			res := assertBaselineRows(t, cl.Nodes,
				"SELECT p.word, t.topic FROM postings p JOIN topics t ON p.word = t.word", opts, nWords*nFiles*nTopics)
			wantPlan(t, res, "Scan postings [table:postings] cols=[word, #row]/2", "Scan topics [table:topics] cols=[word, topic, #row]/3")
			var passes uint64
			for _, op := range res.Analysis.Ops {
				passes += op.Passes
			}
			if (passes > 0) != (budget > 0) {
				t.Fatalf("budget %d: %d spill passes:\n%s", budget, passes, res.AnalyzeReport)
			}
			res = assertBaselineRows(t, cl.Nodes,
				"SELECT COUNT(*) FROM postings p JOIN topics t ON p.word = t.word", opts, 1)
			if n, _ := res.Rows[0][0].AsFloat(); n != nWords*nFiles*nTopics {
				t.Fatalf("COUNT(*) = %v, want %d", res.Rows[0][0], nWords*nFiles*nTopics)
			}
			assertBaselineRows(t, cl.Nodes,
				"SELECT p.word, l.lang FROM postings p JOIN topics t ON p.word = t.word JOIN langs l ON t.topic = l.topic",
				opts, nWords*nFiles*nTopics*2)
		})
	}
}

var (
	// The unread column comes first, so a reader that indexed a stored
	// row with the plan's narrow positions would read it.
	pruneProfiles = tuple.MustSchema("profiles", []tuple.Column{
		{Name: "bio", Type: tuple.TString},
		{Name: "uid", Type: tuple.TInt},
		{Name: "name", Type: tuple.TString},
	}, "uid")
	pruneHops = tuple.MustSchema("hop", []tuple.Column{
		{Name: "note", Type: tuple.TString},
		{Name: "src", Type: tuple.TString},
		{Name: "dst", Type: tuple.TString},
	}, "src", "dst")
	pruneReadings = tuple.MustSchema("readings", []tuple.Column{
		{Name: "pad", Type: tuple.TString},
		{Name: "seq", Type: tuple.TString},
		{Name: "room", Type: tuple.TString},
	}, "seq")
)

func defineOnAll(t *testing.T, nodes []*pier.Node, s *tuple.Schema) {
	t.Helper()
	for _, nd := range nodes {
		if err := nd.DefineTable(s, time.Minute); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPruneFetchAndBloomRightTable: profiles is published into the DHT
// keyed on the join column and carries a bio nobody reads. A
// fetch-matches stage narrows the rows its probes return, a Bloom stage
// the rows both its phases scan; either way the answer is the
// baseline's.
func TestPruneFetchAndBloomRightTable(t *testing.T) {
	const nOrders, nProfiles = 300, 30
	cl := spillCluster(t, 4, 2102, nil)
	seedRehashJoin(t, cl.Nodes, nOrders, nProfiles, 1)
	defineOnAll(t, cl.Nodes, pruneProfiles)
	for u := 0; u < nProfiles; u++ {
		if err := cl.Nodes[u%len(cl.Nodes)].Publish("profiles", tuple.Tuple{
			tuple.String(strings.Repeat("b", 40)), tuple.Int(int64(u)), tuple.String(fmt.Sprintf("user-%d", u))}); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(400 * time.Millisecond) // let DHT puts land
	sql := "SELECT o.oid, p.name FROM orders o JOIN profiles p ON o.uid = p.uid"
	for _, strategy := range []plan.JoinStrategy{plan.FetchMatches, plan.BloomJoin} {
		strategy := strategy
		t.Run(strategy.String(), func(t *testing.T) {
			res := assertBaselineRows(t, cl.Nodes, sql, plan.Options{Strategy: &strategy, Analyze: true}, nOrders)
			for _, want := range []string{
				"Join#0 (" + strategy.String() + ")",
				"Scan orders [table:orders] cols=[oid, uid, #row]/5",
				"Scan profiles [table:profiles] cols=[uid, name, #row]/3",
			} {
				if !strings.Contains(res.AnalyzeReport, want) {
					t.Fatalf("plan lacks %q:\n%s", want, res.AnalyzeReport)
				}
			}
		})
	}
}

// TestRecursiveOverNarrowStepTable: the step table is keyed on (src,
// dst) and stores a note first that the statement never reads. The
// fixpoint gathers its rows with SELECT * and evaluates a step compiled
// against the narrow schema, so each gathered row must be narrowed
// before the step's join columns index it.
func TestRecursiveOverNarrowStepTable(t *testing.T) {
	cl := spillCluster(t, 4, 2103, nil)
	defineOnAll(t, cl.Nodes, pruneHops)
	edges := []edge{{"a", "b"}, {"b", "c"}, {"c", "d"}, {"x", "y"}, {"y", "x"}}
	for i, e := range edges {
		nd := cl.Nodes[i%len(cl.Nodes)]
		if err := nd.PublishLocal("hop", tuple.Tuple{
			tuple.String(fmt.Sprintf("note %d", i)), tuple.String(e[0]), tuple.String(e[1])}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Second)
	defer cancel()
	res, err := cl.Nodes[1].Query(ctx, `WITH RECURSIVE reach AS (
		SELECT src, dst FROM hop
		UNION
		SELECT reach.src, h.dst FROM hop h JOIN reach ON reach.dst = h.src
	) SELECT src, dst FROM reach`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != pier.ReasonEOS || res.Coverage != 1 {
		t.Fatalf("closure ended %q, coverage %v", res.Reason, res.Coverage)
	}
	got := map[edge]bool{}
	for _, r := range res.Rows {
		got[edge{r[0].S, r[1].S}] = true
	}
	if want := closureOracle(edges, nil); !reflect.DeepEqual(got, want) || len(res.Rows) != len(want) {
		t.Fatalf("closure %v (%d rows)\nwant %v", got, len(res.Rows), want)
	}
}

// TestPruneContinuousGroupBy: a continuous query admits stored rows one
// at a time as they arrive; each is narrowed to room and its identity
// before the window pipeline groups by room. The rows live before the query starts
// all fall into one tumbling window, which must count them exactly.
func TestPruneContinuousGroupBy(t *testing.T) {
	cl := spillCluster(t, 4, 2104, nil)
	defineOnAll(t, cl.Nodes, pruneReadings)
	want := map[string]float64{"attic": 6, "cellar": 4}
	i := 0
	for room, n := range want {
		for k := 0; k < int(n); k++ {
			i++
			if err := cl.Nodes[i%len(cl.Nodes)].PublishLocal("readings", tuple.Tuple{
				tuple.String(strings.Repeat("p", 30)), tuple.String(fmt.Sprintf("s%d", i)), tuple.String(room)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	cont, err := cl.Nodes[0].QueryContinuous(context.Background(),
		"SELECT room, COUNT(*) FROM readings GROUP BY room WINDOW 400 ms SLIDE 400 ms")
	if err != nil {
		t.Fatal(err)
	}
	defer cont.Stop()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case wr, ok := <-cont.Results():
			if !ok {
				t.Fatal("results channel closed early")
			}
			got := map[string]float64{}
			for _, r := range wr.Rows {
				if f, ok := r[1].AsFloat(); ok {
					got[r[0].S] = f
				}
			}
			if reflect.DeepEqual(got, want) {
				return
			}
			if len(got) > 0 {
				t.Logf("window %d: %v", wr.Seq, got)
			}
		case <-deadline:
			t.Fatalf("no window counted %v in 10 s", want)
		}
	}
}

// TestOriginWarmClusterOwnerMisses: a stage's collector keys do not
// depend on the query, so the owners the first join resolved (64
// routing partitions at each of 8 nodes) serve an identical second join
// from the batcher's cache.
func TestOriginWarmClusterOwnerMisses(t *testing.T) {
	const parts, nOrders, nUsers = 64, 4000, 1000
	cl := spillCluster(t, 8, 2105, nil)
	seedRehashJoin(t, cl.Nodes, nOrders, nUsers, 1)
	misses := func() (total uint64) {
		for _, nd := range cl.Nodes {
			total += nd.Batcher().MetricsRef().OwnerMisses.Load()
		}
		return total
	}
	sym := plan.SymmetricHash
	sql := "SELECT o.oid, u.name FROM orders o JOIN users u ON o.uid = u.uid"
	var added [2]uint64
	for i := range added {
		before := misses()
		res, err := cl.Nodes[0].QueryWithOptions(context.Background(), sql, plan.Options{Strategy: &sym})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != nOrders || res.Reason != pier.ReasonEOS {
			t.Fatalf("join %d: %d rows, ended %q", i, len(res.Rows), res.Reason)
		}
		added[i] = misses() - before
	}
	if cold := uint64(parts * len(cl.Nodes)); added[0] < cold/2 || added[0] > cold {
		t.Errorf("the first join added %d owner misses, want about %d (%d partitions × %d nodes)",
			added[0], cold, parts, len(cl.Nodes))
	}
	if added[1] > parts {
		t.Errorf("the second join added %d owner misses on a warm cluster, want ≤ %d", added[1], parts)
	}
}
