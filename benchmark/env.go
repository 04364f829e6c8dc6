package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/baseline"
	"repro/internal/engine"
	"repro/internal/pier"
	"repro/internal/piertest"
	"repro/internal/server"
	"repro/internal/simnet"
)

// env is one running system under test: an in-process simnet cluster,
// the query service over node 0 and pierd's TCP front door on a
// loopback listener. Close stops all of it and removes the spill
// directory; nothing outlives it.
type env struct {
	w        *workload
	cluster  *piertest.Cluster
	svc      *engine.Service
	srv      *server.Server
	addr     string
	spillDir string
	// warmFailure describes warm-up ops that failed ("" when none did).
	// Warm-up is not measured, so they are reported, not counted.
	warmFailure string
	mu          sync.Mutex // Close may race the signal handler's teardown
}

// liveEnv is the environment that exists right now (a run has at most
// one at a time), so the signal handler and the watchdog can tear it
// down.
var liveEnv struct {
	sync.Mutex
	e *env
}

func closeLiveEnv() {
	liveEnv.Lock()
	e := liveEnv.e
	liveEnv.Unlock()
	e.Close()
}

// The timers that decide a peer is gone are not at FastConfig's
// simulation scale. Nothing on the path of a query that completes waits
// for them, but on a busy 2-core box a goroutine can be held off the
// CPU for longer than FastConfig allows, and then the program fails an
// op no peer caused. With Quiet at 250 ms a member silent for 94 ms
// (3 heartbeats of Quiet/8) is suspected and the query ends
// churn-degraded with rows missing, and a coordinator that sees nothing
// move for 250 ms ends it quiet-timeout. With chord's call timeout at
// 250 ms a predecessor silent for 500 ms is forgotten and a successor
// silent for 750 ms marked dead, and keys change owner in mid-query.
// In probing under three CPU hogs that was 4 ops in 22 000 and one
// wrong eos answer; the driver's own sets saw 1 and 3 in 48 000. The
// benchmark measures queries, not failure detection, so both are set
// where no stall reaches them (README, Timers).
const (
	quiet      = 4 * time.Second // heartbeat 500 ms, suspect after 1.5 s silence
	rpcTimeout = 2 * time.Second // per attempt: chord's lookups, pings and stabilize calls
)

// nodeConfig and engineConfig are the effective configurations: the
// simulation-scale timers every test and pierbench experiment uses but
// for the two above, and pierd's engine defaults.
func nodeConfig(w *workload, spillDir string) pier.Config {
	cfg := piertest.FastConfig()
	cfg.Quiet = quiet
	cfg.Chord.RPC.Timeout = rpcTimeout
	cfg.JoinMemBudget = w.joinMemBudget
	cfg.SpillDir = spillDir
	return cfg
}

func engineConfig() engine.Config { return engine.Config{} }

// configHash fingerprints the effective configuration so drift shows
// in the output. The spill directory is a per-run path and is left out.
func configHash(w *workload) string {
	return hashText(fmt.Sprintf("%+v|%+v|inbox=%d", nodeConfig(w, ""), engineConfig(), inboxDepth))
}

// inboxDepth gives the coordinator's inbox room for the result traffic
// of every query in flight (the pierbench serve experiment's setting).
const inboxDepth = 1 << 16

// setUp builds the cluster, loads the data set, starts the service
// and the front door, and warms up with warmOps requests through the
// front door (plan cache, finger tables, connection set-up).
func setUp(w *workload, ds *dataset, seed int64, tmpRoot string, warmOps int) (*env, error) {
	e := &env{w: w}
	liveEnv.Lock()
	liveEnv.e = e
	liveEnv.Unlock()
	if w.joinMemBudget > 0 {
		dir, err := os.MkdirTemp(tmpRoot, "spill-")
		if err != nil {
			e.Close()
			return nil, err
		}
		e.spillDir = dir
	}
	nodeCfg := nodeConfig(w, e.spillDir)
	c, err := piertest.New(piertest.Options{
		N: w.nodes, Seed: seed, NodeCfg: &nodeCfg,
		NetCfg: &simnet.Config{InboxDepth: inboxDepth},
	})
	if err != nil {
		e.Close()
		return nil, err
	}
	e.cluster = c
	if err := e.load(ds); err != nil {
		e.Close()
		return nil, err
	}
	e.svc = engine.New(c.Nodes[0], engineConfig())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.Close()
		return nil, err
	}
	e.srv = server.Serve(ln, e.svc)
	e.addr = e.srv.Addr().String()

	warm, err := runLoad(e.addr, ds, seed^0x5eed, func(sent int) bool { return sent >= (warmOps+w.conns-1)/w.conns })
	if err != nil {
		e.Close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	if f := warm.failed(); f == len(warm.ops) {
		e.Close()
		return nil, fmt.Errorf("warm-up: all %d ops failed (%s)", f, warm.firstFailure())
	} else if f > 0 {
		e.warmFailure = fmt.Sprintf("%d of %d ops failed (%s)", f, len(warm.ops), warm.firstFailure())
	}
	return e, nil
}

func (e *env) load(ds *dataset) error {
	nodes := e.cluster.Nodes
	for i, nd := range nodes {
		if nd.Addr() != nodeName(i) {
			return fmt.Errorf("node %d is %q, generator expects %q", i, nd.Addr(), nodeName(i))
		}
		for _, s := range ds.schemas {
			if err := nd.DefineTable(s, tableTTL); err != nil {
				return err
			}
		}
	}
	for i, rows := range ds.local {
		for _, r := range rows {
			if err := nodes[i].PublishLocal(r.table, r.t); err != nil {
				return err
			}
		}
	}
	for i, r := range ds.published {
		if err := nodes[i%len(nodes)].Publish(r.table, r.t); err != nil {
			return err
		}
	}
	// DHT puts are routed asynchronously: wait until every published
	// row is stored at its owner.
	want := make(map[string]int)
	for _, r := range ds.published {
		tbl, _ := nodes[0].Catalog().Lookup(r.table)
		want[tbl.Namespace]++
	}
	deadline := time.Now().Add(20 * time.Second)
	for ns, n := range want {
		for {
			got := 0
			for _, nd := range nodes {
				got += nd.Store().Count(ns)
			}
			if got >= n {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("load: %s holds %d of %d published rows", ns, got, n)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}

// verify checks, outside every timed section, that the join plan is
// the one the workload is meant to measure and that the generator's
// expected answers agree with the centralized reference executor.
// It returns a fingerprint of the plan text.
func (e *env) verify(ds *dataset) (string, error) {
	sess := e.svc.Open()
	defer sess.Close()
	var plans strings.Builder
	for _, st := range ds.hot {
		text, err := sess.Explain(st.sql)
		if err != nil {
			return "", fmt.Errorf("explain %q: %w", st.sql, err)
		}
		if e.w.join && !strings.Contains(text, "symmetric-hash") {
			return "", fmt.Errorf("join plan is not symmetric-hash, HybridJoin would not run:\n%s", text)
		}
		plans.WriteString(text)
	}
	// Every node answers the reference executor's pull; node 0 asks.
	var ref *baseline.Centralized
	for i := len(e.cluster.Nodes) - 1; i >= 0; i-- {
		ref = baseline.NewCentralized(e.cluster.Nodes[i])
	}
	check := append([]statement(nil), ds.hot...)
	if !e.w.join {
		check = append(check, ds.missStatement(rateSpace/2))
	}
	// Each check waits out a settle timer per table it collects; run
	// them side by side so verification stays a small part of a run.
	errs := make([]error, len(check))
	var wg sync.WaitGroup
	for i, st := range check {
		wg.Add(1)
		go func(i int, st statement) {
			defer wg.Done()
			// The reference decides a table is collected when no rows
			// arrived for the settle time, so a stall on a busy box
			// makes it stop early with rows missing. That is the
			// reference falling short, not the generator: ask again
			// with a settle time no stall outlasts before believing it.
			for _, settle := range []time.Duration{400 * time.Millisecond, 3 * time.Second} {
				res, err := ref.QuerySQL(context.Background(), st.sql, settle)
				if err != nil {
					errs[i] = fmt.Errorf("reference executor: %q: %w", st.sql, err)
					return
				}
				got := rowsAnswer(jsonRows(res.Rows))
				if got == st.want {
					errs[i] = nil
					return
				}
				errs[i] = fmt.Errorf("generator and reference executor disagree on %q: reference %d rows sum %x, generator %d rows sum %x",
					st.sql, got.rows, got.sum, st.want.rows, st.want.sum)
			}
		}(i, st)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return "", err
		}
	}
	return hashText(plans.String()), nil
}

// Close tears the environment down in dependency order. Safe on a
// partly built env, on nil and when called twice.
func (e *env) Close() {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	liveEnv.Lock()
	if liveEnv.e == e {
		liveEnv.e = nil
	}
	liveEnv.Unlock()
	if e.srv != nil {
		e.srv.Close()
		e.srv = nil
	}
	if e.svc != nil {
		e.svc.Close()
		e.svc = nil
	}
	if e.cluster != nil {
		e.cluster.Close()
		e.cluster = nil
	}
	if e.spillDir != "" {
		os.RemoveAll(e.spillDir)
		e.spillDir = ""
	}
}

// scratchDir is where a run keeps its spill files and span files: a
// directory of the checkout that .gitignore names, never the repo's
// tracked tree and never the system temp directory.
func scratchDir() string { return filepath.Join(".bench_build", "run") }
