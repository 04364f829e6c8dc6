package bench

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/pier"
	"repro/internal/piertest"
	"repro/internal/server"
	"repro/internal/simnet"
	"repro/internal/tuple"
)

// percentileDur is the p-th percentile (0..1) of the latency sample.
func percentileDur(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
}

// ---------------------------------------------------------------------------
// Serve: the query-service benchmark — concurrent clients against one
// pierd front door over real TCP, reporting the latency trajectory as
// concurrency grows past the admission-control bounds, plus the
// shared-scan on/off comparison for concurrent continuous queries.

// ServeConfig parameterizes the serve experiment.
type ServeConfig struct {
	N    int   // cluster size (default 16)
	Seed int64 // simulation seed (default 1)
	// MaxInFlight bounds concurrently executing queries at the
	// service; the tiers above it measure queueing (default 16 — on
	// the in-process simulation, more concurrent broadcasts than this
	// keep result traffic flowing continuously, quiescence never
	// settles, and every query runs to its max life instead).
	MaxInFlight int
	// SharedSubscribers sizes the shared-scan on/off comparison
	// (default 100).
	SharedSubscribers int
}

// ServeTier is one concurrency level's aggregate.
type ServeTier struct {
	Clients  int
	Queries  int // completed successfully
	Rejected int // shed by admission control
	Wall     time.Duration
	QPS      float64 // completed queries per wall second
	P50      time.Duration
	P95      time.Duration
	P99      time.Duration
}

// ServeSharedMode is one side of the shared-scan comparison: the given
// number of subscribers to one continuous statement, with scan sharing
// on or off.
type ServeSharedMode struct {
	Shared      bool
	Subscribers int
	// Coordinated counts underlying continuous queries launched
	// network-wide for the whole group (1 when shared, Subscribers
	// when dedicated).
	Coordinated int
	// AttachWall is the time to get every subscriber attached.
	AttachWall time.Duration
	// Delivered counts subscribers that received two windows before
	// the deadline; DeliverWall is how long the slowest of them took.
	Delivered   int
	DeliverWall time.Duration
}

// ServeResult is the whole experiment.
type ServeResult struct {
	Tiers      []ServeTier
	CacheStats engine.CacheStats
	SharedOn   ServeSharedMode
	SharedOff  ServeSharedMode
}

// Serve runs the query-service benchmark.
func Serve(cfg ServeConfig) (*ServeResult, error) {
	if cfg.N == 0 {
		cfg.N = 16
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.MaxInFlight == 0 {
		cfg.MaxInFlight = 16
	}
	if cfg.SharedSubscribers == 0 {
		cfg.SharedSubscribers = 100
	}

	nodeCfg := piertest.FastConfig()
	c, err := piertest.New(piertest.Options{
		N: cfg.N, Seed: cfg.Seed, NodeCfg: &nodeCfg,
		// Every query coordinates at the front-door node; give its
		// inbox room for the result traffic of MaxInFlight queries.
		NetCfg: &simnet.Config{InboxDepth: 1 << 16},
	})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	if err := serveSeedTables(c.Nodes); err != nil {
		return nil, err
	}

	svc := engine.New(c.Nodes[0], engine.Config{
		MaxInFlight: cfg.MaxInFlight,
		MaxQueued:   4096,
		// The 1000-client tier intentionally queues far past the
		// in-flight bound; a short timeout would shed the tail instead
		// of measuring it.
		QueueTimeout:     time.Minute,
		MaxSubscriptions: 4096,
		SharedScans:      true,
	})
	defer svc.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := server.Serve(ln, svc)
	defer srv.Close()

	// One tier: a thousand connections queueing far past MaxInFlight.
	// Light and saturated load are benchmark/'s serve_light and
	// serve_saturated, which deliberately stop short of this.
	const clients = 1000
	fmt.Printf("  tier %d clients...", clients)
	tier, err := serveTier(srv.Addr().String(), clients)
	if err != nil {
		fmt.Println()
		return nil, fmt.Errorf("tier %d: %w", clients, err)
	}
	fmt.Printf(" %d queries in %v\n", tier.Queries, tier.Wall.Round(time.Millisecond))
	out := &ServeResult{Tiers: []ServeTier{*tier}, CacheStats: svc.Cache().Stats()}

	// Shared-scan comparison: the same subscriber count, one
	// continuous statement, sharing on vs off. Uses engine sessions
	// directly — the wire adds nothing to what is being compared.
	stop := make(chan struct{})
	defer close(stop)
	go serveFeed(c.Nodes[1], stop)
	go serveFeed(c.Nodes[cfg.N/2], stop)
	onSvc := svc
	offSvc := engine.New(c.Nodes[0], engine.Config{
		MaxSubscriptions: 4096, SharedScans: false,
	})
	defer offSvc.Close()
	fmt.Printf("  shared scans on: %d subscribers...", cfg.SharedSubscribers)
	out.SharedOn, err = serveSharedMode(c.Nodes[0], onSvc, true, cfg.SharedSubscribers)
	if err != nil {
		fmt.Println()
		return nil, err
	}
	fmt.Printf(" done in %v\n", out.SharedOn.DeliverWall.Round(time.Millisecond))
	fmt.Printf("  shared scans off: %d subscribers...", cfg.SharedSubscribers)
	out.SharedOff, err = serveSharedMode(c.Nodes[0], offSvc, false, cfg.SharedSubscribers)
	if err != nil {
		fmt.Println()
		return nil, err
	}
	fmt.Printf(" done in %v\n", out.SharedOff.DeliverWall.Round(time.Millisecond))
	return out, nil
}

// serveSeedTables defines and loads the static workload tables.
func serveSeedTables(nodes []*pier.Node) error {
	traffic := tuple.MustSchema("traffic", []tuple.Column{
		{Name: "node", Type: tuple.TString},
		{Name: "rate", Type: tuple.TFloat},
	}, "node")
	alerts := tuple.MustSchema("alerts", []tuple.Column{
		{Name: "node", Type: tuple.TString},
		{Name: "rule", Type: tuple.TInt},
		{Name: "hits", Type: tuple.TInt},
	}, "node", "rule")
	stream := tuple.MustSchema("stream", []tuple.Column{
		{Name: "src", Type: tuple.TString},
		{Name: "val", Type: tuple.TInt},
	}, "src")
	for _, nd := range nodes {
		for _, s := range []*tuple.Schema{traffic, alerts, stream} {
			if err := nd.DefineTable(s, time.Minute); err != nil {
				return err
			}
		}
	}
	for i, nd := range nodes {
		if err := nd.PublishLocal("traffic", tuple.Tuple{
			tuple.String(nd.Addr()), tuple.Float(float64(10 * (i + 1))),
		}); err != nil {
			return err
		}
		for r := 0; r < 2; r++ {
			if err := nd.PublishLocal("alerts", tuple.Tuple{
				tuple.String(nd.Addr()), tuple.Int(int64(r)), tuple.Int(int64(i + r)),
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// serveFeed streams tuples into the stream table until stop closes.
func serveFeed(nd *pier.Node, stop <-chan struct{}) {
	for i := 0; ; i++ {
		select {
		case <-stop:
			return
		case <-time.After(20 * time.Millisecond):
		}
		_ = nd.PublishLocal("stream", tuple.Tuple{
			tuple.String(fmt.Sprintf("src-%d", i%4)), tuple.Int(int64(i)),
		})
	}
}

// serveStatements is the repeated one-shot workload (all cacheable, so
// steady state is parse-free).
var serveStatements = []string{
	"SELECT COUNT(*) FROM traffic",
	"SELECT SUM(rate) FROM traffic",
	"SELECT rule, COUNT(*) FROM alerts GROUP BY rule ORDER BY rule",
	"SELECT node, rate FROM traffic ORDER BY rate DESC LIMIT 5",
}

// serveTier drives one concurrency level: each client is one TCP
// connection issuing sequential queries from the shared statement set.
// Per-client query counts shrink as the tier widens so tiers finish in
// comparable wall time while the widest still has every client live at
// once.
func serveTier(addr string, clients int) (*ServeTier, error) {
	perClient := 200 / clients
	if perClient < 1 {
		perClient = 1
	}
	var (
		mu        sync.Mutex
		latencies []time.Duration
		rejected  int
		firstErr  error
	)
	start := time.Now()
	var wg sync.WaitGroup
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			lats, rej, err := serveClient(addr, ci, perClient)
			mu.Lock()
			defer mu.Unlock()
			latencies = append(latencies, lats...)
			rejected += rej
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}(ci)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	wall := time.Since(start)
	tier := &ServeTier{
		Clients:  clients,
		Queries:  len(latencies),
		Rejected: rejected,
		Wall:     wall,
		P50:      percentileDur(latencies, 0.50),
		P95:      percentileDur(latencies, 0.95),
		P99:      percentileDur(latencies, 0.99),
	}
	if wall > 0 {
		tier.QPS = float64(len(latencies)) / wall.Seconds()
	}
	return tier, nil
}

// serveClient is one benchmark client: a real TCP connection speaking
// the pierd line protocol.
func serveClient(addr string, ci, queries int) ([]time.Duration, int, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, 0, err
	}
	defer conn.Close()
	enc := json.NewEncoder(conn)
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var lats []time.Duration
	rejected := 0
	for q := 0; q < queries; q++ {
		sql := serveStatements[(ci+q)%len(serveStatements)]
		start := time.Now()
		if err := enc.Encode(server.Request{ID: uint64(q + 1), Op: "query", SQL: sql}); err != nil {
			return lats, rejected, err
		}
		if !sc.Scan() {
			return lats, rejected, fmt.Errorf("connection closed mid-run: %v", sc.Err())
		}
		var resp server.Response
		if err := json.Unmarshal(sc.Bytes(), &resp); err != nil {
			return lats, rejected, err
		}
		switch {
		case resp.OK:
			lats = append(lats, time.Since(start))
		case resp.Reject != "":
			rejected++
		default:
			return lats, rejected, fmt.Errorf("query failed: %s", resp.Error)
		}
	}
	return lats, rejected, nil
}

// serveSharedMode attaches subscribers to one continuous statement and
// measures attach cost, underlying query count, and delivery.
func serveSharedMode(front *pier.Node, svc *engine.Service, shared bool, subscribers int) (ServeSharedMode, error) {
	const sql = "SELECT src, COUNT(*) FROM stream GROUP BY src WINDOW 500 ms SLIDE 500 ms"
	mode := ServeSharedMode{Shared: shared, Subscribers: subscribers}
	before := front.Metrics.QueriesCoordinated.Load()

	sess := svc.Open()
	defer sess.Close()
	subs := make([]*engine.Subscription, 0, subscribers)
	attachStart := time.Now()
	for i := 0; i < subscribers; i++ {
		sub, err := sess.Subscribe(context.Background(), sql)
		if err != nil {
			return mode, fmt.Errorf("subscriber %d: %w", i, err)
		}
		subs = append(subs, sub)
	}
	mode.AttachWall = time.Since(attachStart)
	mode.Coordinated = int(front.Metrics.QueriesCoordinated.Load() - before)

	deliverStart := time.Now()
	// A closed channel reaches every waiter (time.After would wake
	// exactly one of the hundred goroutines selecting on it).
	deadline := make(chan struct{})
	timer := time.AfterFunc(30*time.Second, func() { close(deadline) })
	defer timer.Stop()
	var wg sync.WaitGroup
	got := make([]bool, len(subs))
	for i, sub := range subs {
		wg.Add(1)
		go func(i int, sub *engine.Subscription) {
			defer wg.Done()
			for w := 0; w < 2; w++ {
				select {
				case _, ok := <-sub.Results():
					if !ok {
						return
					}
				case <-deadline:
					return
				}
			}
			got[i] = true
		}(i, sub)
	}
	wg.Wait()
	mode.DeliverWall = time.Since(deliverStart)
	for _, ok := range got {
		if ok {
			mode.Delivered++
		}
	}
	for _, sub := range subs {
		sub.Stop()
	}
	return mode, nil
}
