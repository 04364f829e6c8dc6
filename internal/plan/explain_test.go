package plan

import (
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
)

func TestExplainAggregatePlan(t *testing.T) {
	spec := compile(t,
		"SELECT rule, SUM(hits) AS total FROM alerts GROUP BY rule HAVING SUM(hits) > 10 ORDER BY total DESC LIMIT 10",
		Options{})
	out := spec.Explain()
	for _, want := range []string{
		"Query (one-shot)",
		"Coordinator",
		"Limit 10",
		"OrderBy",
		"DESC",
		"Having",
		"FinalAggregate",
		"PartialAggregate",
		"Project",
		"Scan alerts [table:alerts]",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("explain missing %q:\n%s", want, out)
		}
	}
}

func TestExplainJoinPlan(t *testing.T) {
	spec := compile(t,
		"SELECT a.node FROM alerts a JOIN rules r ON a.rule = r.rule WHERE a.hits > 5",
		Options{})
	out := spec.Explain()
	for _, want := range []string{"Join#0 (fetch-matches)", "a.rule = r.rule", "est_rows=", "Scan alerts", "Scan rules", "filter"} {
		if !strings.Contains(out, want) {
			t.Fatalf("explain missing %q:\n%s", want, out)
		}
	}
}

func TestExplainContinuousPlan(t *testing.T) {
	spec := compile(t, "SELECT SUM(rate) FROM traffic WINDOW 5 s SLIDE 1 s LIVE 60 s", Options{})
	out := spec.Explain()
	if !strings.Contains(out, "continuous window=5s slide=1s live=1m0s") {
		t.Fatalf("continuous header wrong:\n%s", out)
	}
}

func TestExplainDeterministic(t *testing.T) {
	spec := compile(t, "SELECT DISTINCT node FROM traffic", Options{})
	if spec.Explain() != spec.Explain() {
		t.Fatal("explain not deterministic")
	}
	if !strings.Contains(spec.Explain(), "Distinct") {
		t.Fatalf("missing Distinct:\n%s", spec.Explain())
	}
}

// TestExplainStatsAnnotation: every scan names the statistics source
// and age the optimizer costed it with.
func TestExplainStatsAnnotation(t *testing.T) {
	spec := compile(t, "SELECT node FROM traffic", Options{})
	if !strings.Contains(spec.Explain(), "Scan traffic [table:traffic] cols=[node, #row]/2 stats=default") {
		t.Fatalf("missing default stats note:\n%s", spec.Explain())
	}

	for _, tc := range []struct {
		src  catalog.StatsSource
		want string
	}{
		{catalog.StatsDeclared, "stats=declared"},
		{catalog.StatsMeasured, "stats=analyzed 12s ago"},
	} {
		sc := &spec.Scans[0]
		sc.StatsSource = tc.src
		sc.StatsAge = int64(12 * time.Second)
		if got := sc.StatsNote(); got != tc.want {
			t.Fatalf("note for %v: %q, want %q", tc.src, got, tc.want)
		}
		if !strings.Contains(spec.Explain(), tc.want) {
			t.Fatalf("explain missing %q:\n%s", tc.want, spec.Explain())
		}
	}
}
