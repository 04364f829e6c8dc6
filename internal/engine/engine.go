package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/pier"
	"repro/internal/plan"
	"repro/internal/sqlparser"
)

// Config tunes the service layer. Zero values give serving-scale
// defaults.
type Config struct {
	// MaxInFlight bounds concurrently executing one-shot queries
	// across all sessions. Default 64.
	MaxInFlight int
	// MaxQueued bounds queries waiting for an execution slot beyond
	// MaxInFlight; arrivals past it shed immediately. Default 256.
	MaxQueued int
	// QueueTimeout bounds how long a queued query waits for a slot
	// before shedding. Default 1s.
	QueueTimeout time.Duration
	// MaxSubscriptions bounds concurrently live continuous
	// subscriptions across all sessions. Default 256.
	MaxSubscriptions int
	// PlanCacheSize bounds the LRU plan cache. Default 128.
	PlanCacheSize int
	// SlowQuery is the latency threshold past which a completed
	// one-shot query emits a structured slow-query event into the
	// node's event log. Default 1s; negative disables the log.
	SlowQuery time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 64
	}
	if c.MaxQueued <= 0 {
		c.MaxQueued = 256
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = time.Second
	}
	if c.MaxSubscriptions <= 0 {
		c.MaxSubscriptions = 256
	}
	if c.SlowQuery == 0 {
		c.SlowQuery = time.Second
	}
	return c
}

// Reject reasons carried by RejectError.
const (
	// RejectOverloaded: both the in-flight and queue bounds are full;
	// the query was shed on arrival.
	RejectOverloaded = "overloaded"
	// RejectQueueTimeout: the query queued but no slot freed within
	// QueueTimeout.
	RejectQueueTimeout = "queue-timeout"
	// RejectTooManySubs: the subscription bound is full.
	RejectTooManySubs = "too-many-subscriptions"
	// RejectClosed: the service or session is shut down.
	RejectClosed = "closed"
)

// RejectError is a typed admission-control rejection — load shedding,
// not failure. Clients retry with backoff (or not at all).
type RejectError struct {
	Reason string
}

func (e *RejectError) Error() string { return "engine: rejected: " + e.Reason }

// IsReject reports whether err is an admission-control rejection and
// returns its reason.
func IsReject(err error) (string, bool) {
	if re, ok := err.(*RejectError); ok {
		return re.Reason, true
	}
	return "", false
}

// Metrics counts service-level activity. Fields are registry-backed
// counters registered into the node's obs.Registry at construction;
// the field API (Add/Load) is unchanged from the atomic era.
type Metrics struct {
	Admitted           obs.Counter
	Queued             obs.Counter // admissions that had to wait for a slot
	RejectedOverload   obs.Counter
	RejectedTimeout    obs.Counter
	RejectedSubs       obs.Counter
	SharedScanAttaches obs.Counter // subscriptions attached to an existing pipeline
}

// Service is the query-serving tier over one pier node: it owns
// session and query-ID allocation, the plan cache, admission control,
// shared scans, and cancellation. The node underneath stays pure
// distributed execution (and remains usable directly; the service
// does not take ownership of it).
type Service struct {
	node  *pier.Node
	cfg   Config
	cache *PlanCache

	slots  chan struct{} // in-flight semaphore
	queued atomic.Int64
	subs   atomic.Int64

	sharedMu sync.Mutex
	shared   map[string]*sharedScan

	sessMu   sync.Mutex
	sessions map[uint64]*Session
	nextSess atomic.Uint64
	closed   bool

	queueWait *obs.Histogram // slot-wait latency of queued admissions

	Metrics Metrics
}

// New builds a service over node, registering the service-level
// metric series (admission, queue depth, plan cache) into the node's
// registry.
func New(node *pier.Node, cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		node:     node,
		cfg:      cfg,
		cache:    NewPlanCache(cfg.PlanCacheSize),
		slots:    make(chan struct{}, cfg.MaxInFlight),
		shared:   make(map[string]*sharedScan),
		sessions: make(map[uint64]*Session),
	}
	s.registerMetrics(node.Obs())
	return s
}

// registerMetrics attaches the service's counters and read-time
// gauges to the node registry. Nil-safe (tests building a Service
// around a node with no registry still work).
func (s *Service) registerMetrics(reg *obs.Registry) {
	reg.RegisterCounter("engine_admitted_total", &s.Metrics.Admitted)
	reg.RegisterCounter("engine_queued_total", &s.Metrics.Queued)
	reg.RegisterCounter(obs.L("engine_rejected_total", "reason", RejectOverloaded), &s.Metrics.RejectedOverload)
	reg.RegisterCounter(obs.L("engine_rejected_total", "reason", RejectQueueTimeout), &s.Metrics.RejectedTimeout)
	reg.RegisterCounter(obs.L("engine_rejected_total", "reason", RejectTooManySubs), &s.Metrics.RejectedSubs)
	reg.RegisterCounter("engine_shared_scan_attaches_total", &s.Metrics.SharedScanAttaches)
	s.queueWait = reg.Histogram("engine_queue_wait_ns", obs.LatencyBuckets)
	reg.RegisterFunc("engine_queue_depth", func() float64 { return float64(s.queued.Load()) })
	reg.RegisterFunc("engine_subscriptions", func() float64 { return float64(s.subs.Load()) })
	reg.RegisterFunc("engine_plan_cache_hits_total", func() float64 { return float64(s.cache.Stats().Hits) })
	reg.RegisterFunc("engine_plan_cache_misses_total", func() float64 { return float64(s.cache.Stats().Misses) })
	reg.RegisterFunc("engine_plan_cache_evictions_total", func() float64 { return float64(s.cache.Stats().Evictions) })
	reg.RegisterFunc("engine_plan_cache_invalidations_total", func() float64 { return float64(s.cache.Stats().Invalidations) })
	reg.RegisterFunc("engine_plan_cache_entries", func() float64 { return float64(s.cache.Stats().Entries) })
	reg.RegisterFunc("engine_plan_cache_hit_rate", func() float64 { return s.cache.Stats().HitRate() })
}

// Node exposes the node the service runs on (the server's catalog,
// ingestion and telemetry ops use it directly).
func (s *Service) Node() *pier.Node { return s.node }

// Cache exposes the plan cache (the \cache command and the bench read
// its counters).
func (s *Service) Cache() *PlanCache { return s.cache }

// Open starts a session. Sessions are cheap; a network server opens
// one per connection.
func (s *Service) Open() *Session {
	ctx, cancel := context.WithCancel(context.Background())
	sess := &Session{
		svc:      s,
		id:       s.nextSess.Add(1),
		ctx:      ctx,
		cancel:   cancel,
		prepared: make(map[string]*Prepared),
		subs:     make(map[uint64]*Subscription),
	}
	s.sessMu.Lock()
	if s.closed {
		s.sessMu.Unlock()
		cancel()
		sess.closed = true
		return sess
	}
	s.sessions[sess.id] = sess
	s.sessMu.Unlock()
	return sess
}

// Close shuts the service down: every session closes (cancelling its
// in-flight queries and stopping its subscriptions). The underlying
// node is left running — the caller owns it.
func (s *Service) Close() {
	s.sessMu.Lock()
	if s.closed {
		s.sessMu.Unlock()
		return
	}
	s.closed = true
	open := make([]*Session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		open = append(open, sess)
	}
	s.sessMu.Unlock()
	for _, sess := range open {
		sess.Close()
	}
}

// admit acquires an execution slot, queueing up to QueueTimeout when
// the service is saturated. The returned release frees the slot.
func (s *Service) admit(ctx context.Context) (func(), error) {
	release := func() { <-s.slots }
	select {
	case s.slots <- struct{}{}:
		s.Metrics.Admitted.Add(1)
		return release, nil
	default:
	}
	if s.queued.Add(1) > int64(s.cfg.MaxQueued) {
		s.queued.Add(-1)
		s.Metrics.RejectedOverload.Add(1)
		return nil, &RejectError{Reason: RejectOverloaded}
	}
	defer s.queued.Add(-1)
	s.Metrics.Queued.Add(1)
	wait := time.Now()
	timer := time.NewTimer(s.cfg.QueueTimeout)
	defer timer.Stop()
	select {
	case s.slots <- struct{}{}:
		s.queueWait.Observe(uint64(time.Since(wait)))
		s.Metrics.Admitted.Add(1)
		return release, nil
	case <-timer.C:
		s.Metrics.RejectedTimeout.Add(1)
		return nil, &RejectError{Reason: RejectQueueTimeout}
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// resolve turns sql into an executable plan through the cache: a hit
// under the current catalog-stats epoch skips parse and optimize
// entirely. On a miss the statement parses; plain statements compile
// and cache, while non-cacheable ones (ANALYZE, WITH RECURSIVE)
// return the parsed statement instead, for the caller to delegate.
// Exactly one of spec and stmt is non-nil on success; cacheHit
// reports whether the plan came straight from the cache (the trace's
// resolve span and the slow-query log record it).
func (s *Service) resolve(sql string, opts plan.Options) (*plan.Spec, *sqlparser.SelectStmt, bool, error) {
	key, err := normalizedKey(sql, opts)
	if err != nil {
		return nil, nil, false, err
	}
	var stmt *sqlparser.SelectStmt
	spec, hit, err := s.cache.Resolve(key, s.node.Catalog().Epoch(), func() (*plan.Spec, error) {
		parsed, err := sqlparser.Parse(sql)
		if err != nil {
			return nil, err
		}
		if parsed.Analyze != nil || parsed.With != nil {
			stmt = parsed
			return nil, nil
		}
		return plan.Compile(parsed, s.node.Catalog(), opts)
	})
	if err != nil {
		return nil, nil, false, err
	}
	return spec, stmt, hit, nil
}

// SessionStats is a session's cumulative resource accounting.
type SessionStats struct {
	Queries  uint64        // one-shot queries executed
	Rows     uint64        // result rows returned
	Busy     time.Duration // summed query wall-clock
	Rejected uint64        // admission rejections
}

// Prepared is a named compiled statement.
type Prepared struct {
	Name string
	SQL  string // original text (the \cache listing shows it)
	key  string // cache key (normalized SQL + options)
	opts plan.Options
}

// Session is one client's handle on the service. Sessions own query
// cancellation: Close cancels every in-flight query and stops every
// subscription the session started. Methods are safe for concurrent
// use.
type Session struct {
	svc    *Service
	id     uint64
	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	closed   bool
	prepared map[string]*Prepared
	subs     map[uint64]*Subscription
	nextSub  atomic.Uint64
	nextQID  atomic.Uint64
	stats    SessionStats
}

// Stats snapshots the session's resource accounting.
func (se *Session) Stats() SessionStats {
	se.mu.Lock()
	defer se.mu.Unlock()
	return se.stats
}

// Close ends the session: in-flight queries cancel, subscriptions
// stop. Idempotent.
func (se *Session) Close() {
	se.mu.Lock()
	if se.closed {
		se.mu.Unlock()
		return
	}
	se.closed = true
	subs := make([]*Subscription, 0, len(se.subs))
	for _, sub := range se.subs {
		subs = append(subs, sub)
	}
	se.subs = nil
	se.mu.Unlock()
	se.cancel()
	for _, sub := range subs {
		sub.Stop()
	}
	se.svc.sessMu.Lock()
	delete(se.svc.sessions, se.id)
	se.svc.sessMu.Unlock()
}

func (se *Session) isClosed() bool {
	se.mu.Lock()
	defer se.mu.Unlock()
	return se.closed
}

// reject books a rejection into the session accounting.
func (se *Session) reject(err error) error {
	if _, ok := IsReject(err); ok {
		se.mu.Lock()
		se.stats.Rejected++
		se.mu.Unlock()
	}
	return err
}

// account books a completed one-shot query.
func (se *Session) account(res *pier.Result, d time.Duration) {
	se.mu.Lock()
	se.stats.Queries++
	if res != nil {
		se.stats.Rows += uint64(len(res.Rows))
	}
	se.stats.Busy += d
	se.mu.Unlock()
}

// queryCtx derives the execution context: cancelled when either the
// caller's context or the session closes.
func (se *Session) queryCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	qctx, cancel := context.WithCancel(ctx)
	stop := context.AfterFunc(se.ctx, cancel)
	return qctx, func() { stop(); cancel() }
}

// Query executes one statement and blocks for the result. Continuous
// statements are rejected — use Subscribe. ANALYZE and WITH RECURSIVE
// statements execute but bypass the plan cache (ANALYZE by nature
// invalidates it; recursive statements re-plan their inner queries
// every run).
func (se *Session) Query(ctx context.Context, sql string) (*pier.Result, error) {
	return se.QueryWithOptions(ctx, sql, plan.Options{})
}

// QueryWithOptions is Query with explicit planner options.
func (se *Session) QueryWithOptions(ctx context.Context, sql string, opts plan.Options) (*pier.Result, error) {
	if se.isClosed() {
		return nil, se.reject(&RejectError{Reason: RejectClosed})
	}
	admitStart := time.Now()
	release, err := se.svc.admit(ctx)
	if err != nil {
		return nil, se.reject(err)
	}
	admitEnd := time.Now()
	defer release()
	se.svc.node.Events().Emit(obs.SevInfo, obs.EvQueryAdmitted, 0,
		"session %d admitted: %s", se.id, truncateSQL(sql))
	se.nextQID.Add(1)
	qctx, cancel := se.queryCtx(ctx)
	defer cancel()
	start := admitEnd
	res, cacheHit, resolveEnd, err := se.runOneShot(qctx, sql, opts)
	if err != nil {
		return nil, err
	}
	d := time.Since(start)
	se.account(res, d)
	se.svc.noteQuery(res, sql, cacheHit, admitStart, admitEnd, resolveEnd, d)
	return res, nil
}

// runOneShot dispatches a one-shot statement: cache-resolved specs
// for plain queries, delegation for ANALYZE / WITH RECURSIVE. It
// reports whether the plan cache hit and when resolution finished,
// for the service-side trace spans.
func (se *Session) runOneShot(ctx context.Context, sql string, opts plan.Options) (*pier.Result, bool, time.Time, error) {
	spec, stmt, cacheHit, err := se.svc.resolve(sql, opts)
	resolveEnd := time.Now()
	if err != nil {
		return nil, cacheHit, resolveEnd, err
	}
	if stmt != nil {
		res, err := se.svc.node.QueryWithOptions(ctx, sql, opts)
		return res, cacheHit, resolveEnd, err
	}
	if spec.IsContinuous() {
		return nil, cacheHit, resolveEnd, fmt.Errorf("engine: continuous statement; use Subscribe")
	}
	res, err := se.svc.node.ExecuteSpec(ctx, spec)
	return res, cacheHit, resolveEnd, err
}

// noteQuery records the service-side view of a completed one-shot
// query: the resolve/admission spans join the query's assembled trace
// (the coordinator's ring absorbs them even though execution already
// returned), and queries past the SlowQuery threshold land in the
// structured event log with reason, coverage, cache behaviour, and
// peak operator memory.
func (s *Service) noteQuery(res *pier.Result, sql string, cacheHit bool, admitStart, admitEnd time.Time, resolveEnd time.Time, d time.Duration) {
	if res == nil {
		return
	}
	cache := "miss"
	if cacheHit {
		cache = "hit"
	}
	if res.QueryID != 0 {
		// Salt the buffer's ID space so service spans cannot collide
		// with the coordinator's own span IDs for the same address,
		// then stamp the real node address back on.
		buf := obs.NewSpanBuf(s.node.Addr()+"|svc", 0)
		buf.Add("admission", admitStart, admitEnd, "")
		buf.Add("resolve", admitEnd, resolveEnd, "cache="+cache)
		spans := buf.Snapshot()
		for i := range spans {
			spans[i].Node = s.node.Addr()
		}
		s.node.AddTraceSpans(res.QueryID, spans)
	}
	if s.cfg.SlowQuery > 0 && d > s.cfg.SlowQuery {
		var peak uint64
		if res.Analysis != nil {
			for _, op := range res.Analysis.Ops {
				if op.PeakMem > peak {
					peak = op.PeakMem
				}
			}
		}
		s.node.Events().Emit(obs.SevWarn, obs.EvSlowQuery, res.QueryID,
			"dur=%s reason=%s coverage=%.0f%% cache=%s peak_mem=%dB sql=%s",
			d.Round(time.Millisecond), res.Reason, res.Coverage*100, cache, peak, truncateSQL(sql))
	}
}

// truncateSQL bounds statement text embedded in event messages.
func truncateSQL(sql string) string {
	const max = 80
	if len(sql) <= max {
		return sql
	}
	return sql[:max] + "..."
}

// Prepare names a statement and compiles it into the plan cache
// eagerly, so the first Exec already hits. Re-preparing a name
// replaces it. Continuous statements may be prepared; Exec rejects
// them (use SubscribePrepared).
func (se *Session) Prepare(name, sql string, opts plan.Options) error {
	if se.isClosed() {
		return &RejectError{Reason: RejectClosed}
	}
	if name == "" {
		return fmt.Errorf("engine: prepared statement needs a name")
	}
	key, err := normalizedKey(sql, opts)
	if err != nil {
		return err
	}
	// Plain statements compile now (warming the cache); ANALYZE and
	// recursive statements become name-only bindings.
	if _, _, _, err := se.svc.resolve(sql, opts); err != nil {
		return err
	}
	se.mu.Lock()
	defer se.mu.Unlock()
	if se.closed {
		return &RejectError{Reason: RejectClosed}
	}
	se.prepared[name] = &Prepared{Name: name, SQL: sql, key: key, opts: opts}
	return nil
}

// lookupPrepared resolves a prepared name.
func (se *Session) lookupPrepared(name string) (*Prepared, error) {
	se.mu.Lock()
	defer se.mu.Unlock()
	p, ok := se.prepared[name]
	if !ok {
		return nil, fmt.Errorf("engine: no prepared statement %q", name)
	}
	return p, nil
}

// Exec runs a prepared statement.
func (se *Session) Exec(ctx context.Context, name string) (*pier.Result, error) {
	p, err := se.lookupPrepared(name)
	if err != nil {
		return nil, err
	}
	return se.QueryWithOptions(ctx, p.SQL, p.opts)
}

// Explain renders the distributed plan (through the cache, so
// repeated EXPLAIN is parse-free).
func (se *Session) Explain(sql string) (string, error) {
	spec, stmt, _, err := se.svc.resolve(sql, plan.Options{})
	if err != nil {
		return "", err
	}
	if stmt != nil {
		return "", fmt.Errorf("engine: EXPLAIN supports plain statements only")
	}
	return spec.Explain(), nil
}
