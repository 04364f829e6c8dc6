package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6},
	} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if percentile(nil, 0.5) != 0 || median([]float64{7}) != 7 {
		t.Error("empty or single-sample percentile is wrong")
	}
}

// The driver takes quartiles with Python's statistics.quantiles(n=4);
// spread must give what it gives, or the benchmark's own steadiness
// check disagrees with the driver's.
func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	// statistics.quantiles([2, 4, 4, 5, 7, 9, 13], n=4) == [4.0, 5.0, 9.0]
	if got, want := spread([]float64{2, 4, 4, 5, 7, 9, 13}), (9.0-4.0)/5.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if spread([]float64{3}) != 0 {
		t.Error("spread of one value must be 0")
	}
}

func TestRowsAnswer(t *testing.T) {
	a := [][]interface{}{{1.0, "x"}, {2.0, "y"}, {3.0, "z"}}
	b := [][]interface{}{{3.0, "z"}, {1.0, "x"}, {2.0, "y"}}
	if rowsAnswer(a) != rowsAnswer(b) {
		t.Error("checksum depends on row order")
	}
	for name, other := range map[string][][]interface{}{
		"missing row":    a[:2],
		"duplicated row": append(append([][]interface{}{}, a...), a[0]),
		"changed value":  {{1.0, "x"}, {2.0, "y"}, {3.0, "zz"}},
		"moved boundary": {{1.0, "x"}, {2.0, "y"}, {"3", "z"}},
	} {
		if rowsAnswer(a) == rowsAnswer(other) {
			t.Errorf("%s not detected", name)
		}
	}
}

// A failure must be counted however the program reports it, and only
// an answer the program claims complete can be a wrong answer.
func TestCheck(t *testing.T) {
	rows := [][]interface{}{{1.0, "a"}}
	o := op{kind: "hot", req: server.Request{SQL: "q"}, want: rowsAnswer(rows)}
	good := server.Response{OK: true, Reason: "eos", Coverage: 1, Rows: rows}
	if f, wrong := check(o, &good); f != "" || wrong {
		t.Errorf("good response failed: %q wrong=%v", f, wrong)
	}
	for name, mutate := range map[string]func(*server.Response){
		"error":         func(r *server.Response) { r.OK = false; r.Error = "boom" },
		"reject":        func(r *server.Response) { r.OK = false; r.Reject = "overloaded" },
		"quiet-timeout": func(r *server.Response) { r.Reason = "quiet-timeout" },
		"coverage":      func(r *server.Response) { r.Coverage = 0.9 },
	} {
		r := good
		mutate(&r)
		if f, wrong := check(o, &r); f == "" || wrong {
			t.Errorf("%s: failure=%q wrong=%v, want a failure that is not a wrong answer", name, f, wrong)
		}
	}
	r := good
	r.Rows = [][]interface{}{{2.0, "a"}}
	if f, wrong := check(o, &r); f == "" || !wrong {
		t.Errorf("wrong rows: failure=%q wrong=%v", f, wrong)
	}
	ins := op{kind: "insert"}
	if f, _ := check(ins, &server.Response{OK: true}); f != "" {
		t.Errorf("acknowledged insert failed: %q", f)
	}
}

func TestDatasetIsSeeded(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a, b, c := newDataset(w, 7), newDataset(w, 7), newDataset(w, 8)
		if a.hot[0].want != b.hot[0].want || len(a.rows()) != len(b.rows()) {
			t.Errorf("%s: same seed, different data", w.name)
		}
		same := true
		for j := range a.hot {
			if a.hot[j].want != c.hot[j].want {
				same = false
			}
		}
		if same {
			t.Errorf("%s: seeds 7 and 8 give the same answers", w.name)
		}
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50s ...float64) string {
		path := filepath.Join(dir, name)
		for i, v := range p50s {
			rec := record{Workload: "serve_light", Seed: int64(i + 1), Result: result{Correct: true, Attempted: 1,
				Metrics: map[string]metric{
					"query_p50_ms":  {v, "ms"},
					"queries_per_s": {1000 / v, "1/s"},
				}}}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	spec := filepath.Join("..", "BENCHMARK.json")
	a := write("a.jsonl", 10, 10.2, 9.9)
	var out bytes.Buffer
	ok, err := compareFiles(&out, spec, a, write("same.jsonl", 10.1, 10.3, 10.0))
	if err != nil || !ok {
		t.Fatalf("runs 1%% apart: ok=%v err=%v\n%s", ok, err, out.String())
	}
	out.Reset()
	ok, err = compareFiles(&out, spec, a, write("slow.jsonl", 14, 14.2, 13.9))
	if err != nil || ok {
		t.Fatalf("runs 40%% apart passed: err=%v\n%s", err, out.String())
	}
	if n := strings.Count(out.String(), "OUTSIDE BOUND"); n != 2 {
		t.Errorf("%d pairs flagged, want latency and throughput both:\n%s", n, out.String())
	}
	// Faster is never a regression.
	if ok, _ := compareFiles(&out, spec, a, write("fast.jsonl", 5, 5.1, 4.9)); !ok {
		t.Error("an improvement was reported as outside its bound")
	}
}

// TestQuickSmoke runs all four workloads end to end with one-second
// windows and a shrunken traced pass, and holds the program to
// BENCHMARK.json: every metric named there is emitted, with the unit
// named there, for every workload.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds four clusters")
	}
	spec, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	// Spill and span files go under the working directory.
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		w, err := findWorkload(sw.Name)
		if err != nil {
			t.Fatal(err)
		}
		quick := sizes{setups: 1, warmOps: 20, ladderN: 5, analyzeN: 5, leafN: 50}
		if w.join {
			quick = sizes{setups: 1, warmOps: 3, ladderN: 1, analyzeN: 1, leafN: 50}
		}
		run, err := runWorkload(w, 1, time.Second, true, quick)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		t.Logf("%s", strings.Join(append(run.info, run.problems...), "\n"))
		if !run.res.Correct {
			t.Errorf("%s: a complete answer disagreed with the generator", w.name)
		}
		// Under `go test ./...` other packages compete for the same
		// two cores, and a starved cluster ends queries without eos.
		// The benchmark counts those as failed and reports them; this
		// test must not turn the box's load into a red tier-1, so it
		// holds a run to the numbers only when nothing failed.
		clean := run.res.Failed == 0
		if !clean {
			t.Logf("%s: %d of %d ops failed (not asserted: the test box is shared)", w.name, run.res.Failed, run.res.Attempted)
		}
		for _, m := range spec.EndToEnd {
			got, ok := run.endToEnd[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("%s: end-to-end %s: emitted=%v unit %q, BENCHMARK.json says %q", w.name, m.Name, ok, got.Unit, m.Unit)
			}
			if clean && got.Value <= 0 {
				t.Errorf("%s: end-to-end %s = %v, must never be 0", w.name, m.Name, got.Value)
			}
		}
		if len(run.endToEnd) != len(spec.EndToEnd) || len(run.perLayer) != len(spec.PerLayer) {
			t.Errorf("%s: emits %d end-to-end and %d per-layer metrics, BENCHMARK.json lists %d and %d",
				w.name, len(run.endToEnd), len(run.perLayer), len(spec.EndToEnd), len(spec.PerLayer))
		}
		for _, m := range spec.PerLayer {
			got, ok := run.perLayer[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("%s: per-layer %s: emitted=%v unit %q, BENCHMARK.json says %q", w.name, m.Name, ok, got.Unit, m.Unit)
			}
		}
		if leaked := run.perLayer["proc.goroutines_leaked"].Value; leaked != 0 {
			t.Errorf("%s: %v goroutines outlived Close", w.name, leaked)
		}
		if _, err := os.Stat(run.spanFile); err != nil {
			t.Errorf("%s: span file: %v", w.name, err)
		}
		spilled := run.perLayer["spill.bytes_per_query"].Value
		if w.joinMemBudget == 0 && spilled != 0 || clean && w.joinMemBudget > 0 && spilled == 0 {
			t.Errorf("%s: budget %d but %v bytes spilled per query", w.name, w.joinMemBudget, spilled)
		}
		if peak := run.perLayer["hybridjoin.peak_mem_kb"].Value; w.joinMemBudget > 0 && peak*1024 > 4*float64(w.joinMemBudget) {
			t.Errorf("%s: peak resident %v KB is over 4x the %d B budget", w.name, peak, w.joinMemBudget)
		}
	}
	if entries, _ := filepath.Glob(filepath.Join(scratchDir(), "spill-*")); len(entries) != 0 {
		t.Errorf("spill directories left behind: %v", entries)
	}
}
