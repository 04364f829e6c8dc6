// Package monitor implements the PlanetLab-style monitoring workloads
// of the demonstration: per-node outbound-traffic sensors (Figure 1's
// data source) and Snort-style intrusion-detection alert feeds
// (Table 1's data source). The paper ran real Snort and bandwidth
// counters on ~300 PlanetLab machines; this package synthesizes
// statistically similar feeds so the identical queries run over the
// simulated testbed — the substitution recorded in DESIGN.md.
package monitor

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/internal/pier"
	"repro/internal/tuple"
)

// TrafficSchema is the per-node outbound data-rate table: each sample
// is (node, sample, rate) where sample makes consecutive readings
// distinct soft-state items.
var TrafficSchema = tuple.MustSchema("traffic", []tuple.Column{
	{Name: "node", Type: tuple.TString},
	{Name: "sample", Type: tuple.TInt},
	{Name: "rate", Type: tuple.TFloat},
}, "node", "sample")

// AlertSchema is the per-node Snort alert count table: (node, rule,
// descr, hits).
var AlertSchema = tuple.MustSchema("alerts", []tuple.Column{
	{Name: "node", Type: tuple.TString},
	{Name: "rule", Type: tuple.TInt},
	{Name: "descr", Type: tuple.TString},
	{Name: "hits", Type: tuple.TInt},
}, "node", "rule")

// Rule is one intrusion-detection rule with its network-wide hit
// count as published in the paper's Table 1.
type Rule struct {
	ID    int64
	Descr string
	Hits  int64
}

// Table1Rules reproduces the paper's Table 1: the network-wide top
// ten intrusion detection rules reported by Snort on PlanetLab.
var Table1Rules = []Rule{
	{1322, "BAD-TRAFFIC bad frag bits", 465770},
	{2189, "BAD TRAFFIC IP Proto 103 (PIM)", 123558},
	{1923, "RPC portmap proxy attempt UDP", 31491},
	{1444, "TFTP Get", 21944},
	{1917, "SCAN UPnP service discover attempt", 17565},
	{1384, "MISC UPnP malformed advertisement", 14052},
	{1321, "BAD-TRAFFIC 0 ttl", 10115},
	{1852, "WEB-MISC robots.txt access", 10094},
	{1411, "SNMP public access udp", 7778},
	{895, "WEB-CGI redirect access", 7277},
}

// BackgroundRules are lower-volume rules below the paper's top ten,
// present so the top-10 query actually has something to exclude.
var BackgroundRules = []Rule{
	{1000, "ICMP PING NMAP", 5210},
	{1001, "SCAN SSH Version map attempt", 4188},
	{1002, "WEB-IIS cmd.exe access", 3021},
	{1003, "P2P GNUTella client request", 2455},
	{1004, "CHAT IRC nick change", 1201},
	{1005, "FTP anonymous login attempt", 960},
	{1006, "SCAN Proxy Port 8080 attempt", 544},
	{1007, "DNS zone transfer TCP", 310},
}

// SeedAlerts distributes every rule's network-wide hit count across
// the given nodes' local partitions: each node receives a share drawn
// from a symmetric multinomial (deterministic given seed), so the
// per-node tables differ but sum to the published totals exactly.
func SeedAlerts(nodes []*pier.Node, rules []Rule, ttl time.Duration, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	for _, nd := range nodes {
		if err := nd.DefineTable(AlertSchema, ttl); err != nil {
			return err
		}
	}
	n := len(nodes)
	for _, rule := range rules {
		shares := multinomialShares(rng, rule.Hits, n)
		for i, nd := range nodes {
			if shares[i] == 0 {
				continue
			}
			err := nd.PublishLocal("alerts", tuple.Tuple{
				tuple.String(nd.Addr()),
				tuple.Int(rule.ID),
				tuple.String(rule.Descr),
				tuple.Int(shares[i]),
			})
			if err != nil {
				return fmt.Errorf("monitor: seeding alerts on %s: %w", nd.Addr(), err)
			}
		}
	}
	return nil
}

// multinomialShares splits total into n non-negative shares summing
// exactly to total, approximately uniform.
func multinomialShares(rng *rand.Rand, total int64, n int) []int64 {
	shares := make([]int64, n)
	if n == 0 {
		return shares
	}
	base := total / int64(n)
	for i := range shares {
		shares[i] = base
	}
	rem := total - base*int64(n)
	for i := int64(0); i < rem; i++ {
		shares[rng.Intn(n)]++
	}
	// Perturb ±25% pairwise so shares are not all equal, preserving
	// the exact sum.
	for i := 0; i+1 < n; i += 2 {
		if shares[i] == 0 {
			continue
		}
		d := int64(float64(shares[i]) * 0.25 * rng.Float64())
		shares[i] -= d
		shares[i+1] += d
	}
	return shares
}

// SensorConfig tunes a traffic sensor.
type SensorConfig struct {
	// Period between samples. Default 100ms (simulation scale; the
	// demo sampled every few seconds).
	Period time.Duration
	// BaseRate is the node's mean outbound rate (arbitrary units).
	// Default 10.
	BaseRate float64
	// DiurnalAmplitude modulates the rate with a slow sine (the
	// day/night swing visible in Figure 1). Default 0.3 (fraction
	// of BaseRate).
	DiurnalAmplitude float64
	// DiurnalPeriod is the sine's period. Default 10s (a compressed
	// "day").
	DiurnalPeriod time.Duration
	// Noise is the multiplicative jitter fraction. Default 0.1.
	Noise float64
	// TTL is each sample's soft-state lifetime; it should exceed the
	// query window. Default 2s.
	TTL time.Duration
	// Seed makes the sensor reproducible.
	Seed int64
}

func (c SensorConfig) withDefaults() SensorConfig {
	if c.Period == 0 {
		c.Period = 100 * time.Millisecond
	}
	if c.BaseRate == 0 {
		c.BaseRate = 10
	}
	if c.DiurnalAmplitude == 0 {
		c.DiurnalAmplitude = 0.3
	}
	if c.DiurnalPeriod == 0 {
		c.DiurnalPeriod = 10 * time.Second
	}
	if c.Noise == 0 {
		c.Noise = 0.1
	}
	if c.TTL == 0 {
		c.TTL = 2 * time.Second
	}
	return c
}

// Sensor periodically publishes outbound-rate samples into the
// node's local traffic partition.
type Sensor struct {
	node   *pier.Node
	cfg    SensorConfig
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu        sync.Mutex
	paused    bool
	published int64
}

// NewSensor attaches a sensor to a node (defining the traffic table
// if needed) and starts sampling.
func NewSensor(node *pier.Node, cfg SensorConfig) (*Sensor, error) {
	cfg = cfg.withDefaults()
	if err := node.DefineTable(TrafficSchema, cfg.TTL); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Sensor{node: node, cfg: cfg, cancel: cancel}
	s.wg.Add(1)
	go s.run(ctx)
	return s, nil
}

// Pause stops publishing without tearing the sensor down (simulating
// a node that stops responding at the application level).
func (s *Sensor) Pause(p bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.paused = p
}

// Published returns how many samples the sensor has emitted.
func (s *Sensor) Published() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.published
}

// Rate returns the model rate at time t (exported for tests and for
// computing expected Figure 1 series).
func (s *Sensor) Rate(t time.Time) float64 {
	c := s.cfg
	phase := 2 * math.Pi * float64(t.UnixNano()) / float64(c.DiurnalPeriod)
	return c.BaseRate * (1 + c.DiurnalAmplitude*math.Sin(phase))
}

// Stop halts the sensor.
func (s *Sensor) Stop() {
	s.cancel()
	s.wg.Wait()
}

func (s *Sensor) run(ctx context.Context) {
	defer s.wg.Done()
	rng := rand.New(rand.NewSource(s.cfg.Seed + 1))
	t := time.NewTicker(s.cfg.Period)
	defer t.Stop()
	seq := int64(0)
	for {
		select {
		case <-ctx.Done():
			return
		case now := <-t.C:
			// The check and the publish share one critical section, so
			// nothing is published once Pause(true) has returned.
			s.mu.Lock()
			if !s.paused {
				seq++
				rate := s.Rate(now) * (1 + s.cfg.Noise*(2*rng.Float64()-1))
				if s.node.PublishLocal("traffic", tuple.Tuple{
					tuple.String(s.node.Addr()),
					tuple.Int(seq),
					tuple.Float(rate),
				}) == nil {
					s.published++
				}
			}
			s.mu.Unlock()
		}
	}
}

// Table1SQL is the demo's Table 1 query.
const Table1SQL = `SELECT rule, descr, SUM(hits) AS hits
FROM alerts GROUP BY rule, descr ORDER BY hits DESC LIMIT 10`

// Figure1SQL is the demo's Figure 1 continuous query (window and
// slide are placeholders substituted by the harness).
const Figure1SQL = `SELECT SUM(rate) FROM traffic WINDOW %d ms SLIDE %d ms`

// Figure1Query renders the continuous sum with the given window and
// slide.
func Figure1Query(window, slide time.Duration) string {
	return fmt.Sprintf(Figure1SQL, window.Milliseconds(), slide.Milliseconds())
}
