// Command pierd runs one PIER node as a network query service: the
// node speaks UDP to its overlay peers while clients connect over TCP
// with a line-oriented JSON protocol (one request object per line,
// responses matched by id, subscription windows pushed as events).
//
// Start a bootstrap node of a two-node cluster serving clients on :7070:
//
//	pierd -listen 127.0.0.1:7000 -serve 127.0.0.1:7070
//
// Join more nodes (each is also a front door):
//
//	pierd -listen 127.0.0.1:7001 -serve 127.0.0.1:7071 -join 127.0.0.1:7000
//
// Attach the interactive shell with pier -connect 127.0.0.1:7070, or
// talk to it with anything that can write JSON lines, e.g.:
//
//	printf '%s\n' \
//	  '{"id":1,"op":"create","table":"t","cols":["k:string","v:int"],"key":["k"]}' \
//	  '{"id":2,"op":"insert","table":"t","values":["a",1]}' \
//	  '{"id":3,"op":"query","sql":"SELECT COUNT(*) FROM t"}' | nc 127.0.0.1 7070
//
// Telemetry rides the same protocol: {"op":"metrics"} returns the
// node's Prometheus text exposition (plus a JSON series map),
// {"op":"trace","query":N} the assembled cross-node trace of a recent
// query (0 = most recent), and {"op":"events"} the structured event
// ring (admissions, completions, suspicions, spills, slow queries).
// -pprof optionally serves net/http/pprof.
//
// The engine layer in front of the node provides the plan cache,
// prepared statements, shared scans for concurrent continuous queries,
// and admission control: past -max-inflight concurrently executing
// queries, arrivals queue up to -queue-timeout and then shed with a
// typed "reject" field clients can back off on.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/pier"
	"repro/internal/server"
	"repro/internal/transport"
)

func main() {
	log.SetFlags(0)
	listen := flag.String("listen", "127.0.0.1:0", "UDP address for overlay traffic")
	serve := flag.String("serve", "127.0.0.1:7070", "TCP address for client connections")
	join := flag.String("join", "", "address of any existing node to join")
	maxInflight := flag.Int("max-inflight", 64, "concurrently executing one-shot queries before arrivals queue")
	maxQueued := flag.Int("max-queued", 256, "queued queries before arrivals shed immediately")
	queueTimeout := flag.Duration("queue-timeout", time.Second, "max time a queued query waits for an execution slot")
	maxSubs := flag.Int("max-subscriptions", 256, "concurrently live continuous subscriptions")
	cacheSize := flag.Int("plan-cache", engine.DefaultPlanCacheSize, "plan cache capacity (compiled statements)")
	joinMem := flag.String("join-mem", "0", "per-stage join build-state memory budget, e.g. 64kb or 1mb (0 = unlimited, never spill)")
	spillDir := flag.String("spill-dir", "", "directory for join spill temp files (default: the system temp dir)")
	slowQuery := flag.Duration("slow-query", time.Second, "log completed queries slower than this into the event ring (negative disables)")
	pprofAddr := flag.String("pprof", "", "optional net/http/pprof listen address, e.g. 127.0.0.1:6060 (empty disables)")
	flag.Parse()

	if *pprofAddr != "" {
		go func() {
			// DefaultServeMux carries the pprof handlers via the blank import.
			log.Printf("pprof: %v", http.ListenAndServe(*pprofAddr, nil))
		}()
	}

	tr, err := transport.ListenUDP(*listen)
	if err != nil {
		log.Fatal(err)
	}
	cfg := pier.Config{SpillDir: *spillDir}
	if cfg.JoinMemBudget, err = pier.ParseMemSize(*joinMem); err != nil {
		log.Fatal(err)
	}
	node, err := pier.NewNode(tr, cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer node.Stop()
	fmt.Printf("pierd node on %s\n", node.Addr())
	if *join != "" {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err := node.Join(ctx, *join)
		cancel()
		if err != nil {
			log.Fatalf("join %s: %v", *join, err)
		}
		fmt.Printf("joined overlay via %s\n", *join)
	}

	svc := engine.New(node, engine.Config{
		MaxInFlight:      *maxInflight,
		MaxQueued:        *maxQueued,
		QueueTimeout:     *queueTimeout,
		MaxSubscriptions: *maxSubs,
		PlanCacheSize:    *cacheSize,
		SlowQuery:        *slowQuery,
	})
	defer svc.Close()

	ln, err := net.Listen("tcp", *serve)
	if err != nil {
		log.Fatal(err)
	}
	srv := server.Serve(ln, svc)
	defer srv.Close()
	fmt.Printf("serving clients on %s\n", srv.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
}
