package monitor

import (
	"context"
	"sort"
	"testing"
	"time"

	"repro/internal/piertest"
)

func TestTable1RulesMatchPaper(t *testing.T) {
	if len(Table1Rules) != 10 {
		t.Fatalf("Table 1 has %d rules", len(Table1Rules))
	}
	// The published ordering is strictly decreasing by hits.
	for i := 1; i < len(Table1Rules); i++ {
		if Table1Rules[i].Hits >= Table1Rules[i-1].Hits {
			t.Fatalf("rules not decreasing at %d", i)
		}
	}
	if Table1Rules[0].ID != 1322 || Table1Rules[0].Hits != 465770 {
		t.Fatalf("top rule %+v", Table1Rules[0])
	}
	if Table1Rules[9].ID != 895 || Table1Rules[9].Hits != 7277 {
		t.Fatalf("bottom rule %+v", Table1Rules[9])
	}
}

func TestMultinomialSharesSumExactly(t *testing.T) {
	c, err := piertest.New(piertest.Options{N: 4, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rules := append(append([]Rule(nil), Table1Rules...), BackgroundRules...)
	if err := SeedAlerts(c.Nodes, rules, time.Minute, 7); err != nil {
		t.Fatal(err)
	}
	// Network-wide sums must equal the published counts exactly.
	res, err := c.Nodes[0].Query(context.Background(),
		"SELECT rule, SUM(hits) AS hits FROM alerts GROUP BY rule")
	if err != nil {
		t.Fatal(err)
	}
	got := map[int64]int64{}
	for _, r := range res.Rows {
		got[r[0].I] = r[1].I
	}
	for _, rule := range rules {
		if got[rule.ID] != rule.Hits {
			t.Fatalf("rule %d: got %d hits, want %d", rule.ID, got[rule.ID], rule.Hits)
		}
	}
}

func TestTable1QueryReproducesOrdering(t *testing.T) {
	c, err := piertest.New(piertest.Options{N: 6, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rules := append(append([]Rule(nil), Table1Rules...), BackgroundRules...)
	if err := SeedAlerts(c.Nodes, rules, time.Minute, 3); err != nil {
		t.Fatal(err)
	}
	res, err := c.Nodes[2].Query(context.Background(), Table1SQL)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("top-10 returned %d rows", len(res.Rows))
	}
	for i, want := range Table1Rules {
		row := res.Rows[i]
		if row[0].I != want.ID || row[1].S != want.Descr || row[2].I != want.Hits {
			t.Fatalf("row %d = %v, want %+v", i, row, want)
		}
	}
}

func TestSensorPublishesSamples(t *testing.T) {
	c, err := piertest.New(piertest.Options{N: 1, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, err := NewSensor(c.Nodes[0], SensorConfig{Period: 20 * time.Millisecond, TTL: time.Second, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s.Published() >= 5 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if s.Published() < 5 {
		t.Fatalf("sensor published %d samples", s.Published())
	}
	if got := c.Nodes[0].Store().Count("table:traffic"); got < 5 {
		t.Fatalf("store has %d samples", got)
	}
}

func TestSensorPause(t *testing.T) {
	c, err := piertest.New(piertest.Options{N: 1, Seed: 24})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, err := NewSensor(c.Nodes[0], SensorConfig{Period: 10 * time.Millisecond, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	time.Sleep(100 * time.Millisecond)
	s.Pause(true)
	n1 := s.Published()
	time.Sleep(100 * time.Millisecond)
	if s.Published() != n1 {
		t.Fatal("paused sensor kept publishing")
	}
	s.Pause(false)
	time.Sleep(100 * time.Millisecond)
	if s.Published() == n1 {
		t.Fatal("resumed sensor did not publish")
	}
}

func TestSensorRateModel(t *testing.T) {
	c, err := piertest.New(piertest.Options{N: 1, Seed: 25})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, err := NewSensor(c.Nodes[0], SensorConfig{BaseRate: 100, DiurnalAmplitude: 0.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	// The diurnal model stays within [base*(1-amp), base*(1+amp)].
	for i := 0; i < 50; i++ {
		r := s.Rate(time.Unix(int64(i), 0))
		if r < 49 || r > 151 {
			t.Fatalf("rate %v out of model bounds", r)
		}
	}
}

func TestFigure1QueryRendering(t *testing.T) {
	q := Figure1Query(5*time.Second, time.Second)
	if q != "SELECT SUM(rate) FROM traffic WINDOW 5000 ms SLIDE 1000 ms" {
		t.Fatalf("rendered %q", q)
	}
}

// TestFigure1Shape is Figure 1's failure dip: the continuous SUM of
// outbound rates holds steady, then drops when a quarter of the nodes
// fail. It compares the diurnal-corrected response fraction (a
// window's sum over the sensor model's full-network expectation),
// because the sensors' sine trend is phased on wall-clock time and raw
// sums of different windows are not comparable.
func TestFigure1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulated deployment")
	}
	const (
		n, failCount = 16, 4
		window       = time.Second
		period       = 100 * time.Millisecond
		failAt       = 2500 * time.Millisecond
		run          = 6 * time.Second
	)
	c, err := piertest.New(piertest.Options{N: n, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var model *Sensor
	for i, nd := range c.Nodes {
		s, err := NewSensor(nd, SensorConfig{Period: period, BaseRate: 10, TTL: 2 * window, Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Stop()
		if model == nil {
			model = s
		}
	}
	// fraction is a window's sum over the model's full-network sum for
	// the window closing at closeAt: one sample per period per node
	// (sample noise is mean-zero).
	fraction := func(sum float64, closeAt time.Time) float64 {
		perNode := 0.0
		for k := 1; k <= int(window/period); k++ {
			perNode += model.Rate(closeAt.Add(-window + time.Duration(k)*period))
		}
		return sum / (perNode * n)
	}
	cont, err := c.Nodes[0].QueryContinuous(context.Background(), Figure1Query(window, 500*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer cont.Stop()

	// Bucket fractions by receipt time: the plateau before the failure
	// and the trough once the failed nodes' samples have aged out.
	var pre, trough []float64
	start := time.Now()
	deadline := time.After(run)
	failed := false
	for done := false; !done; {
		if !failed && time.Since(start) >= failAt {
			failed = true
			for i := 1; i <= failCount; i++ {
				c.Net.SetDown(c.Nodes[i].Addr(), true)
			}
		}
		select {
		case wr, ok := <-cont.Results():
			if !ok {
				t.Fatal("results closed early")
			}
			if len(wr.Rows) != 1 || wr.Rows[0][0].IsNull() {
				continue
			}
			f, at := fraction(wr.Rows[0][0].F, wr.Time), time.Since(start)
			switch {
			case at > failAt-time.Second && at < failAt:
				pre = append(pre, f)
			case at > 4*time.Second:
				trough = append(trough, f)
			}
		case <-deadline:
			done = true
		}
	}
	if len(pre) == 0 || len(trough) == 0 {
		t.Fatalf("%d plateau and %d trough windows arrived", len(pre), len(trough))
	}
	preF, troughF := median(pre), median(trough)
	// 4 of 16 nodes down: expect a ~25% dip; require >10%.
	if troughF >= preF-0.1 {
		t.Fatalf("no failure dip: plateau fraction %.3f, trough %.3f", preF, troughF)
	}
	// The plateau accounts for most of the network.
	if preF < 0.6 {
		t.Fatalf("plateau fraction only %.3f", preF)
	}
	t.Logf("response fraction: plateau %.3f, trough %.3f", preF, troughF)
}

func median(xs []float64) float64 {
	sort.Float64s(xs)
	if len(xs)%2 == 1 {
		return xs[len(xs)/2]
	}
	return (xs[len(xs)/2-1] + xs[len(xs)/2]) / 2
}
