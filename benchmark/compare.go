package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// record is one run as -out appends it: the result line plus what
// was asked for.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
	// Problems describes the ops that failed, in warm-up or the window.
	Problems []string `json:"problems,omitempty"`
}

func appendRecord(path string, r record) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// benchmarkSpec is BENCHMARK.json, the contract this program is
// written to, as far as the program and its tests read it.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(path string) (*benchmarkSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// spread is the distance between the first and third quartile as a
// share of the median — what the driver computes from ten runs, with
// the quartiles of Python's statistics.quantiles(values, n=4).
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return ratio(q(3)-q(1), median(s))
}

// byMetric groups a file's values by (workload, metric).
func byMetric(recs []record) map[[2]string][]float64 {
	out := make(map[[2]string][]float64)
	for _, r := range recs {
		for name, m := range r.Result.Metrics {
			k := [2]string{r.Workload, name}
			out[k] = append(out[k], m.Value)
		}
	}
	return out
}

// compareFiles prints, per (metric, workload) present in both files,
// the two medians, each file's spread, the relative difference and
// the bound. It reports false when an end-to-end median of b is
// worse than a's by more than the metric's bound.
func compareFiles(w io.Writer, specPath, pathA, pathB string) (bool, error) {
	spec, err := readSpec(specPath)
	if err != nil {
		return false, err
	}
	recA, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	recB, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	a, b := byMetric(recA), byMetric(recB)
	gated := make(map[string]int)
	for i, m := range spec.EndToEnd {
		gated[m.Name] = i
	}
	var keys [][2]string
	for k := range a {
		if _, ok := b[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		_, gi := gated[keys[i][1]]
		_, gj := gated[keys[j][1]]
		if gi != gj {
			return gi // end-to-end first
		}
		if keys[i][1] != keys[j][1] {
			return keys[i][1] < keys[j][1]
		}
		return keys[i][0] < keys[j][0]
	})
	ok := true
	fmt.Fprintf(w, "%-32s %-16s %4s %12s %7s %12s %7s %8s %6s\n",
		"metric", "workload", "n", "median a", "iqr a", "median b", "iqr b", "b vs a", "bound")
	for _, k := range keys {
		ma, mb := median(a[k]), median(b[k])
		diff := ratio(mb-ma, ma)
		line := fmt.Sprintf("%-32s %-16s %4d %12.4f %6.1f%% %12.4f %6.1f%% %+7.1f%%",
			k[1], k[0], len(a[k]), ma, 100*spread(a[k]), mb, 100*spread(b[k]), 100*diff)
		if i, isGated := gated[k[1]]; isGated {
			m := spec.EndToEnd[i]
			worse := diff
			if m.Better == "higher" {
				worse = -diff
			}
			line += fmt.Sprintf(" %5.0f%%", 100*m.Bound)
			if worse > m.Bound {
				line += "  OUTSIDE BOUND"
				ok = false
			}
		}
		fmt.Fprintln(w, line)
	}
	return ok, nil
}
