// Package pier is the query processor itself: it glues an overlay
// router, the DHT storage layer, the planner, and the dataflow engine
// into the node that the paper demonstrates. A PIER node can publish
// tuples (into the DHT or into its local partition), disseminate
// queries to every node over the overlay, execute its share of any
// disseminated plan (scan, filter, partial aggregation, join
// rehashing), act as a collector for in-network joins and aggregation,
// and coordinate queries issued locally — one-shot or continuous.
package pier

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/batch"
	"repro/internal/catalog"
	"repro/internal/chord"
	"repro/internal/dataflow"
	"repro/internal/dht"
	"repro/internal/id"
	"repro/internal/obs"
	"repro/internal/overlay"
	"repro/internal/rpc"
	"repro/internal/spill"
	"repro/internal/transport"
	"repro/internal/tuple"
)

// Config assembles a node. Zero values give simulation-scale defaults.
type Config struct {
	// Chord configures the overlay.
	Chord chord.Config
	// DHT configures the storage layer.
	DHT dht.Config
	// Batch configures per-destination coalescing of routed traffic
	// (join rehashing, aggregation partials, DHT puts). Default on;
	// set Batch.Disabled to route every record individually.
	Batch batch.Config

	// CombineHold is how long a relay buffers partial aggregates for
	// in-network combining before forwarding. Default 25ms.
	CombineHold time.Duration
	// CollectorHold is how long an aggregation collector waits after
	// the last partial before finalizing a one-shot group (and the
	// settle margin after window close for continuous ones).
	// Default 150ms.
	CollectorHold time.Duration
	// Quiet is the coordinator's quiescence horizon: only the fallback
	// bound for churn and message loss, which keep the EOS ledgers from
	// reconciling. A one-shot query normally completes the instant they
	// do. Default 400ms.
	Quiet time.Duration
	// MaxQueryLife caps one-shot query duration, at the coordinator
	// and at every participant, whose state is dropped that long after
	// the query arrived. Default 15s.
	MaxQueryLife time.Duration
	// HeartbeatEvery is the longest a participant's node lets a query
	// go without re-shipping its EOS ledger to the coordinator, even
	// when nothing moved — the liveness heartbeat that churn detection
	// rides on. Default Quiet/8, so suspicion ripens well inside the
	// Quiet fallback.
	HeartbeatEvery time.Duration
	// SuspectAfter is how many consecutive missed heartbeats make the
	// coordinator suspect a member is dead and exclude it from EOS
	// completion and drain-round membership. Default 3.
	SuspectAfter int
	// BatchSize is the vectorization width of the local execution
	// pipelines: the most tuples a scan or a flushing operator puts in
	// one dataflow message. Default 256 (dataflow.DefaultBatchSize).
	BatchSize int

	// JoinMemBudget caps resident join build-state bytes per join
	// stage per node. When an in-flight join's hash tables exceed the
	// budget, whole partitions spill to temp files and re-join in
	// recursive passes after the in-memory pass drains — node RSS stays
	// bounded and queries larger than memory still complete, byte-
	// identically. 0 (default) = unbounded, never spill.
	JoinMemBudget int64
	// SpillDir overrides the spill temp-file base directory
	// (default: <os tmp>/pier-spill; each node owns a PID-stamped
	// subdirectory inside it, swept on the next start after a crash).
	SpillDir string
}

func (c Config) withDefaults() Config {
	if c.CombineHold == 0 {
		c.CombineHold = 25 * time.Millisecond
	}
	if c.CollectorHold == 0 {
		c.CollectorHold = 150 * time.Millisecond
	}
	if c.Quiet == 0 {
		c.Quiet = 400 * time.Millisecond
	}
	if c.MaxQueryLife == 0 {
		c.MaxQueryLife = 15 * time.Second
	}
	if c.HeartbeatEvery == 0 {
		c.HeartbeatEvery = c.Quiet / 8
	}
	if c.SuspectAfter == 0 {
		c.SuspectAfter = 3
	}
	if c.BatchSize == 0 {
		c.BatchSize = dataflow.DefaultBatchSize
	}
	// A route-batch delay approaching the quiescence horizon would let
	// relay-combined partials sit past the coordinator's settle clock
	// and silently drop them from one-shot results; cap it well inside.
	if c.Batch.MaxDelay > c.Quiet/4 {
		c.Batch.MaxDelay = c.Quiet / 4
	}
	return c
}

// Metrics counts node activity for the harness. Fields are obs
// counters registered on the node's registry at construction, so the
// field API (Add/Load) reads the values the metrics surface exports.
type Metrics struct {
	QueriesCoordinated  obs.Counter
	QueriesParticipated obs.Counter
	PartialsSent        obs.Counter
	PartialsCombined    obs.Counter
	JoinTuplesRehashed  obs.Counter
	FetchProbes         obs.Counter
	StrategySwitches    obs.Counter
	AutoAnalyzes        obs.Counter
	// JoinArrivals counts deliveries of rehashed join records to this
	// node: one per arriving frame's owned records, one per record that
	// arrived alone, one per replay of records buffered before their
	// query. JoinPushes counts the collector inlet pushes they made —
	// one per (query, stage, side, window) group of a delivery.
	JoinArrivals obs.Counter
	JoinPushes   obs.Counter
}

// Node is one PIER participant.
type Node struct {
	cfg     Config
	chord   *chord.Node    // the raw overlay
	router  overlay.Router // the batching wrapper all hot paths use
	batcher *batch.Batcher
	peer    *rpc.Peer
	store   *dht.Store
	cat     *catalog.Catalog

	mu      sync.Mutex
	queries map[uint64]*queryState
	stopped bool

	// spill manages this node's join overflow temp files (hybrid-hash
	// joins under Config.JoinMemBudget).
	spill *spill.Manager

	// driftMu guards the drift-triggered re-ANALYZE baselines, one
	// per table whose measured stats were installed here.
	driftMu sync.Mutex
	drift   map[string]driftMark

	// suspects is the node-level liveness registry: members a
	// coordinator role on this node has suspected dead. Trained by
	// query execution, cleared by any RPC arriving from the address;
	// it dedups the suspicion events and counters.
	suspectMu sync.Mutex
	suspects  map[string]bool

	pendMu  sync.Mutex
	pending map[uint64][]pendingMsg

	// outbox ships this node's EOS ledgers for every query it takes
	// part in (outbox.go).
	outbox ledgerOutbox

	appMu        sync.Mutex
	appBroadcast map[string]overlay.BroadcastFunc

	qidCounter atomic.Uint64
	// members is the learned member count: that of the last one-shot
	// query this node coordinated that ended eos (0 before the first).
	members atomic.Int64

	Metrics Metrics

	// reg/events are the node-wide observability surface; traces is
	// the bounded ring of recent queries' cross-node spans (see
	// trace.go). Hot completion-path handles are resolved once at
	// construction.
	reg         *obs.Registry
	events      *obs.EventLog
	traceMu     sync.Mutex
	traces      map[uint64]*traceEntry
	traceOrder  []uint64
	completions map[string]*obs.Counter
	covHist     *obs.Histogram
	drainHist   *obs.Histogram
	hbSent      *obs.Counter

	stopCh chan struct{}
	wg     sync.WaitGroup
}

// NewNode builds a PIER node on the given transport. The node joins
// no overlay until Join is called.
func NewNode(tr transport.Transport, cfg Config) (*Node, error) {
	cfg = cfg.withDefaults()
	n := &Node{
		cfg:          cfg,
		cat:          catalog.New(),
		queries:      make(map[uint64]*queryState),
		drift:        make(map[string]driftMark),
		suspects:     make(map[string]bool),
		appBroadcast: make(map[string]overlay.BroadcastFunc),
		stopCh:       make(chan struct{}),
		reg:          obs.New(),
		events:       obs.NewEventLog(512),
		traces:       make(map[uint64]*traceEntry),
	}
	if cfg.JoinMemBudget > 0 {
		sm, err := spill.NewManager(cfg.SpillDir)
		if err != nil {
			return nil, err
		}
		n.spill = sm
	}
	n.chord = chord.New(tr, cfg.Chord)
	n.peer = n.chord.Peer()
	// Always wrap: even with Batch.Disabled the wrapper demultiplexes
	// frames arriving from batching peers in a mixed cluster.
	n.batcher = batch.New(n.chord, cfg.Batch)
	n.router = n.batcher
	n.store = dht.New(n.router, n.peer, cfg.DHT, n.onRouted)
	n.batcher.SetDeliverFrame(tagJoin, n.onJoinRecords)
	n.router.SetBroadcast(n.onBroadcast)
	n.router.SetIntercept(n.onIntercept)
	n.peer.SetObs(n.reg)
	n.store.RegisterMetrics(n.reg)
	n.batcher.RegisterMetrics(n.reg)
	if n.spill != nil {
		n.spill.RegisterMetrics(n.reg)
		n.spill.SetCreateHook(func(label string) {
			n.events.Emit(obs.SevWarn, obs.EvSpillStarted, 0, "spill file created: %s", label)
		})
	}
	n.registerMetrics()
	n.registerHandlers()
	n.outbox.init()
	n.wg.Add(2)
	go n.statsDriftLoop()
	go n.shipLedgersLoop()
	return n, nil
}

// Join merges the node into the overlay via any existing member.
func (n *Node) Join(ctx context.Context, bootstrapAddr string) error {
	return n.chord.Join(ctx, bootstrapAddr)
}

// Addr returns the node's transport address.
func (n *Node) Addr() string { return n.router.Self().Addr }

// Router exposes the raw overlay (benchmarks read its metrics and
// ring state).
func (n *Node) Router() *chord.Node { return n.chord }

// Batcher exposes the route-batching layer (benchmarks read its
// metrics; applications may Flush for their own barriers).
func (n *Node) Batcher() *batch.Batcher { return n.batcher }

// flushRoutes drains pending route batches — the barrier run before
// reporting scan completion so coalesced tuples are never still
// buffered when the coordinator starts its quiescence clock.
func (n *Node) flushRoutes() { n.batcher.Flush() }

// routeRecords hands a pre-batched record vector to the route batcher
// in one call — the batch-at-a-time ship path.
func (n *Node) routeRecords(recs []batch.Record) { _ = n.batcher.RouteMany(recs) }

// learnedMembers returns the learned member count.
func (n *Node) learnedMembers() int { return int(n.members.Load()) }

// Store exposes the DHT storage layer.
func (n *Node) Store() *dht.Store { return n.store }

// Catalog exposes the local table registry.
func (n *Node) Catalog() *catalog.Catalog { return n.cat }

// Stop shuts the node down, draining before tearing down: in-flight
// queries are cancelled, their window timers stopped and continuous
// result channels closed (so blocked consumers unblock), and every
// collector pipeline is waited out — only then do the store and
// overlay stop, so no pipeline ever ships through a dead router.
func (n *Node) Stop() {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	n.stopped = true
	qs := make([]*queryState, 0, len(n.queries))
	for _, q := range n.queries {
		qs = append(qs, q)
	}
	n.mu.Unlock()
	close(n.stopCh)
	for _, q := range qs {
		q.cancel()
	}
	for _, q := range qs {
		q.stopTimers()
		q.closeResults()
		q.waitPipelines()
	}
	n.wg.Wait()
	n.store.Stop()
	n.router.Stop()
	if n.spill != nil {
		n.spill.Close()
	}
}

// SpillStats reports the node's spill activity: total bytes written
// to join overflow files and files currently live (0, 0 when no
// budget is configured).
func (n *Node) SpillStats() (written int64, live int) {
	if n.spill == nil {
		return 0, 0
	}
	return n.spill.Written.Load(), n.spill.FileCount()
}

// DefineTable registers a table schema locally so this node can plan
// queries over it and publish into it. Applications call it with the
// same schema on every node that uses the table.
func (n *Node) DefineTable(schema *tuple.Schema, ttl time.Duration) error {
	_, err := n.cat.Define(schema, ttl)
	return err
}

// SetTableStats declares planner statistics for a table on this node.
// Stats are purely local hints: the cost-based optimizer of whichever
// node coordinates a query consults its own catalog, and the chosen
// plan travels with the query.
func (n *Node) SetTableStats(table string, stats catalog.TableStats) error {
	return n.cat.SetStats(table, stats)
}

// Publish inserts a tuple into the table's DHT namespace: it is
// routed to the owner of its resource ID and replicated — PIER's
// "put" path, used by content-indexed tables like the file-sharing
// inverted index.
func (n *Node) Publish(table string, t tuple.Tuple) error {
	tbl, ok := n.cat.Lookup(table)
	if !ok {
		return fmt.Errorf("pier: unknown table %q", table)
	}
	if err := tbl.Schema.Validate(t); err != nil {
		return err
	}
	return n.store.Put(tbl.Namespace, tbl.Schema.KeyOf(t), t.Bytes(), tbl.TTL)
}

// PublishLocal inserts a tuple into this node's local partition of
// the table without any network traffic — how monitoring sensors
// contribute their samples in the paper's demo (data stays at the
// edge; queries come to the data).
func (n *Node) PublishLocal(table string, t tuple.Tuple) error {
	tbl, ok := n.cat.Lookup(table)
	if !ok {
		return fmt.Errorf("pier: unknown table %q", table)
	}
	if err := tbl.Schema.Validate(t); err != nil {
		return err
	}
	n.store.PutLocal(tbl.Namespace, tbl.Schema.KeyOf(t), t.Bytes(), tbl.TTL)
	return nil
}

// nextQueryID generates a node-unique query identifier: high bits from
// the node's address hash, low bits from a counter.
func (n *Node) nextQueryID() uint64 {
	h := id.HashString(n.Addr())
	hi := uint64(h[0])<<56 | uint64(h[1])<<48 | uint64(h[2])<<40 | uint64(h[3])<<32
	return hi | (n.qidCounter.Add(1) & 0xffffffff)
}

// Peer exposes the RPC endpoint so applications built on the node
// (file search, baselines) can register their own
// methods over the same transport.
func (n *Node) Peer() *rpc.Peer { return n.peer }

// HandleBroadcast registers an application-level broadcast handler
// for tag. Tags beginning with "pier." are reserved for the engine.
func (n *Node) HandleBroadcast(tag string, fn overlay.BroadcastFunc) {
	n.appMu.Lock()
	defer n.appMu.Unlock()
	n.appBroadcast[tag] = fn
}

// Broadcast disseminates an application message to every node.
func (n *Node) Broadcast(tag string, payload []byte) error {
	return n.router.Broadcast(tag, payload)
}

func (n *Node) appBroadcastFor(tag string) overlay.BroadcastFunc {
	n.appMu.Lock()
	defer n.appMu.Unlock()
	return n.appBroadcast[tag]
}
