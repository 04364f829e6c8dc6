// Command pier runs one PIER node over real UDP, with an interactive
// SQL shell — the multi-process deployment path (the simulated
// testbed used by tests and benchmarks lives in internal/simnet).
//
// Start a bootstrap node of a three-node cluster:
//
//	pier -listen 127.0.0.1:7000 -members 3
//
// Join more nodes:
//
//	pier -listen 127.0.0.1:7001 -join 127.0.0.1:7000 -members 3
//
// Shell commands:
//
//	\create <table> <col:type,...> key <col,...> [ttl <dur>]
//	\insert <table> <val,...>     -- into this node's local partition
//	\put <table> <val,...>        -- into the DHT (placed by key)
//	\tables                        -- list defined tables
//	\stats                         -- print the catalog statistics (source + age)
//	\stats <table>                 -- print one table's statistics
//	\stats <table> <rows> [col=distinct ...]  -- declare optimizer statistics
//	\analyze [table ...]           -- measure statistics from the DHT (ANALYZE)
//	\explain SELECT ...            -- print the distributed plan (no execution)
//	\prepare <name> SELECT ...     -- name a statement (compiles into the plan cache)
//	\exec <name>                   -- run a prepared statement
//	\cache                         -- plan cache counters and entries
//	\metrics [prefix]              -- node metrics in Prometheus text form
//	\trace [qid]                   -- cross-node TRACE tree of a recent query (default: last)
//	\events                        -- the structured event ring (newest last)
//	\quit
//	SELECT ...                     -- one-shot query
//	ANALYZE [table, ...]           -- the SQL form of \analyze
//	SELECT ... WINDOW 5 s SLIDE 1 s  -- continuous (prints windows; \stop ends it)
//
// With -explain, every one-shot query runs as EXPLAIN ANALYZE and
// prints the per-operator pipeline counters gathered from every node.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/pier"
	"repro/internal/plan"
	"repro/internal/transport"
	"repro/internal/tuple"
)

func main() {
	log.SetFlags(0)
	listen := flag.String("listen", "127.0.0.1:0", "UDP address to listen on")
	join := flag.String("join", "", "address of any existing node to join")
	batchOn := flag.Bool("batch", true, "coalesce routed traffic (join rehash, aggregation partials, DHT puts) into per-destination frames")
	batchRecords := flag.Int("batch-records", 0, "flush a route batch at this record count (0 = default 64)")
	batchBytes := flag.Int("batch-bytes", 0, "flush a route batch at this payload byte budget (0 = default 8192)")
	batchDelay := flag.Duration("batch-delay", 0, "max time a record may wait in a route batch (0 = default 2ms; capped at a quarter of the quiescence horizon)")
	explain := flag.Bool("explain", false, "run one-shot queries as EXPLAIN ANALYZE: print the per-operator pipeline counters gathered from every node after the rows")
	members := flag.Int("members", 0, "expected cluster size, counting every pier and pierd node (required): one-shot queries complete when every member's end-of-scan ledger is in")
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
	var cfg pier.Config
	cfg.Batch.Disabled = !*batchOn
	cfg.Batch.MaxRecords = *batchRecords
	cfg.Batch.MaxBytes = *batchBytes
	cfg.Batch.MaxDelay = *batchDelay
	cfg.Members = *members
	if cfg.JoinMemBudget, err = pier.ParseMemSize(*joinMem); err != nil {
		log.Fatal(err)
	}
	cfg.SpillDir = *spillDir
	node, err := pier.NewNode(tr, cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer node.Stop()
	fmt.Printf("pier node listening on %s\n", node.Addr())
	if *join != "" {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err := node.Join(ctx, *join)
		cancel()
		if err != nil {
			log.Fatalf("join %s: %v", *join, err)
		}
		fmt.Printf("joined overlay via %s\n", *join)
	}

	svc := engine.New(node, engine.Config{SlowQuery: *slowQuery})
	defer svc.Close()
	shell(svc, *explain)
}

func shell(svc *engine.Service, explain bool) {
	node := svc.Node()
	sess := svc.Open()
	defer sess.Close()
	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("pier> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
		case line == `\quit` || line == `\q`:
			return
		case line == `\tables`:
			for _, name := range node.Catalog().Names() {
				tbl, _ := node.Catalog().Lookup(name)
				fmt.Printf("  %s (%d cols, ttl %v)\n", name, tbl.Schema.Arity(), tbl.TTL)
			}
		case strings.HasPrefix(line, `\create `):
			if err := doCreate(node, strings.TrimPrefix(line, `\create `)); err != nil {
				fmt.Println("error:", err)
			}
		case strings.HasPrefix(line, `\insert `):
			if err := doInsert(node, strings.TrimPrefix(line, `\insert `), false); err != nil {
				fmt.Println("error:", err)
			}
		case strings.HasPrefix(line, `\put `):
			if err := doInsert(node, strings.TrimPrefix(line, `\put `), true); err != nil {
				fmt.Println("error:", err)
			}
		case line == `\stats`:
			printStats(node, node.Catalog().Names())
		case strings.HasPrefix(line, `\stats `):
			if err := doStats(node, strings.TrimPrefix(line, `\stats `)); err != nil {
				fmt.Println("error:", err)
			}
		case line == `\analyze`:
			doAnalyze(node, nil)
		case strings.HasPrefix(line, `\analyze `):
			doAnalyze(node, strings.Fields(strings.TrimPrefix(line, `\analyze `)))
		case strings.HasPrefix(line, `\explain `):
			plan, err := sess.Explain(strings.TrimPrefix(line, `\explain `))
			if err != nil {
				fmt.Println("error:", err)
			} else {
				fmt.Print(plan)
			}
		case strings.HasPrefix(line, `\prepare `):
			if err := doPrepare(sess, strings.TrimPrefix(line, `\prepare `), explain); err != nil {
				fmt.Println("error:", err)
			}
		case strings.HasPrefix(line, `\exec `):
			runPrepared(sess, strings.TrimSpace(strings.TrimPrefix(line, `\exec `)), explain)
		case line == `\cache`:
			printCache(svc)
		case line == `\metrics`:
			fmt.Print(node.Obs().RenderProm())
		case strings.HasPrefix(line, `\metrics `):
			printMetrics(node, strings.TrimSpace(strings.TrimPrefix(line, `\metrics `)))
		case line == `\trace`:
			printTrace(node, 0)
		case strings.HasPrefix(line, `\trace `):
			qid, err := strconv.ParseUint(strings.TrimSpace(strings.TrimPrefix(line, `\trace `)), 10, 64)
			if err != nil {
				fmt.Println("error: usage: \\trace [qid]")
			} else {
				printTrace(node, qid)
			}
		case line == `\events`:
			for _, ev := range node.Events().Snapshot() {
				fmt.Printf("  %s %-4s %-16s q=%-6d %s\n",
					ev.Time.Format("15:04:05.000"), ev.Severity, ev.Kind, ev.Query, ev.Msg)
			}
		case strings.HasPrefix(strings.ToUpper(line), "SELECT") ||
			strings.HasPrefix(strings.ToUpper(line), "WITH") ||
			strings.HasPrefix(strings.ToUpper(line), "ANALYZE"):
			runQuery(sess, line, explain)
		default:
			fmt.Println("unrecognized command; try SELECT ..., ANALYZE, \\create, \\insert, \\put, \\tables, \\stats, \\analyze, \\explain, \\prepare, \\exec, \\cache, \\metrics, \\trace, \\events, \\quit")
		}
		fmt.Print("pier> ")
	}
}

// doCreate parses "\create name col:type,... key col,... [ttl dur]".
func doCreate(node *pier.Node, args string) error {
	fields := strings.Fields(args)
	if len(fields) < 2 {
		return fmt.Errorf("usage: \\create <table> <col:type,...> [key <col,...>] [ttl <dur>]")
	}
	name := fields[0]
	var cols []tuple.Column
	for _, part := range strings.Split(fields[1], ",") {
		ct := strings.SplitN(part, ":", 2)
		if len(ct) != 2 {
			return fmt.Errorf("column %q must be name:type", part)
		}
		var ty tuple.Type
		switch strings.ToLower(ct[1]) {
		case "string":
			ty = tuple.TString
		case "int":
			ty = tuple.TInt
		case "float":
			ty = tuple.TFloat
		case "bool":
			ty = tuple.TBool
		case "time":
			ty = tuple.TTime
		default:
			return fmt.Errorf("unknown type %q", ct[1])
		}
		cols = append(cols, tuple.Column{Name: ct[0], Type: ty})
	}
	var keyCols []string
	ttl := time.Minute
	for i := 2; i < len(fields); i++ {
		switch strings.ToLower(fields[i]) {
		case "key":
			if i+1 < len(fields) {
				keyCols = strings.Split(fields[i+1], ",")
				i++
			}
		case "ttl":
			if i+1 < len(fields) {
				d, err := time.ParseDuration(fields[i+1])
				if err != nil {
					return err
				}
				ttl = d
				i++
			}
		}
	}
	schema, err := tuple.NewSchema(name, cols, keyCols...)
	if err != nil {
		return err
	}
	return node.DefineTable(schema, ttl)
}

// printStats renders the catalog statistics table: effective stats
// per table with their provenance and age.
func printStats(node *pier.Node, tables []string) {
	if len(tables) == 0 {
		fmt.Println("(no tables defined)")
		return
	}
	fmt.Printf("%-16s %10s %-10s %-8s %s\n", "table", "rows", "source", "age", "distincts")
	for _, name := range tables {
		st, src, age := node.Catalog().StatsInfo(name)
		cols := make([]string, 0, len(st.Distinct))
		for c := range st.Distinct {
			cols = append(cols, c)
		}
		sort.Strings(cols)
		parts := make([]string, len(cols))
		for i, c := range cols {
			parts[i] = fmt.Sprintf("%s=%d", c, st.Distinct[c])
		}
		ageText := "-"
		if age > 0 {
			ageText = age.Round(time.Second).String()
		}
		fmt.Printf("%-16s %10d %-10s %-8s %s\n", name, st.Rows, src, ageText, strings.Join(parts, " "))
	}
}

// doAnalyze runs the distributed ANALYZE and prints the measured
// statistics.
func doAnalyze(node *pier.Node, tables []string) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := node.Analyze(ctx, tables...)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	names := make([]string, 0, len(res.Tables))
	for _, t := range res.Tables {
		names = append(names, t.Table)
	}
	fmt.Printf("analyzed %d tables from %d participants in %v (%s)\n",
		len(res.Tables), res.Participants, res.Duration.Round(time.Millisecond), res.Reason)
	printStats(node, names)
}

// doStats parses "\stats <table> <rows> [col=distinct ...]" and
// declares planner statistics for the cost-based join optimizer;
// with just a table name it prints that table's statistics.
func doStats(node *pier.Node, args string) error {
	fields := strings.Fields(args)
	if len(fields) == 1 {
		if _, ok := node.Catalog().Lookup(fields[0]); !ok {
			return fmt.Errorf("unknown table %q", fields[0])
		}
		printStats(node, fields[:1])
		return nil
	}
	if len(fields) < 2 {
		return fmt.Errorf("usage: \\stats [<table> [<rows> [col=distinct ...]]]")
	}
	rows, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return fmt.Errorf("bad row count %q", fields[1])
	}
	st := catalog.TableStats{Rows: rows}
	for _, f := range fields[2:] {
		cd := strings.SplitN(f, "=", 2)
		if len(cd) != 2 {
			return fmt.Errorf("distinct spec %q must be col=count", f)
		}
		d, err := strconv.ParseInt(cd[1], 10, 64)
		if err != nil {
			return fmt.Errorf("bad distinct count %q", cd[1])
		}
		if st.Distinct == nil {
			st.Distinct = make(map[string]int64)
		}
		st.Distinct[cd[0]] = d
	}
	return node.SetTableStats(fields[0], st)
}

// doInsert parses "\insert table v1,v2,..." coercing values to the
// table's column types.
func doInsert(node *pier.Node, args string, viaDHT bool) error {
	fields := strings.SplitN(args, " ", 2)
	if len(fields) != 2 {
		return fmt.Errorf("usage: \\insert <table> <val,...>")
	}
	tbl, ok := node.Catalog().Lookup(fields[0])
	if !ok {
		return fmt.Errorf("unknown table %q", fields[0])
	}
	parts := strings.Split(fields[1], ",")
	if len(parts) != tbl.Schema.Arity() {
		return fmt.Errorf("table %s has %d columns", fields[0], tbl.Schema.Arity())
	}
	t := make(tuple.Tuple, len(parts))
	for i, raw := range parts {
		raw = strings.TrimSpace(raw)
		switch tbl.Schema.Columns[i].Type {
		case tuple.TString:
			t[i] = tuple.String(raw)
		case tuple.TInt:
			v, err := strconv.ParseInt(raw, 10, 64)
			if err != nil {
				return fmt.Errorf("column %d: %w", i, err)
			}
			t[i] = tuple.Int(v)
		case tuple.TFloat:
			v, err := strconv.ParseFloat(raw, 64)
			if err != nil {
				return fmt.Errorf("column %d: %w", i, err)
			}
			t[i] = tuple.Float(v)
		case tuple.TBool:
			v, err := strconv.ParseBool(raw)
			if err != nil {
				return fmt.Errorf("column %d: %w", i, err)
			}
			t[i] = tuple.Bool(v)
		default:
			return fmt.Errorf("column %d: unsupported shell type", i)
		}
	}
	if viaDHT {
		return node.Publish(fields[0], t)
	}
	return node.PublishLocal(fields[0], t)
}

func runQuery(sess *engine.Session, sql string, explain bool) {
	if strings.Contains(strings.ToUpper(sql), "WINDOW") {
		runContinuous(sess, sql, explain)
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := sess.QueryWithOptions(ctx, sql, plan.Options{Analyze: explain})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("%v\n", res.Columns)
	for _, row := range res.Rows {
		fmt.Printf("  %v\n", row)
	}
	fmt.Printf("(%d rows, %d participants, %v%s%s)\n", len(res.Rows), res.Participants,
		res.Duration.Round(time.Millisecond), completionNote(res.Reason), coverageNote(res))
	if res.AnalyzeReport != "" {
		fmt.Print(res.AnalyzeReport)
	}
}

// completionNote renders the completion reason; anything other than a
// clean end-of-stream is flagged so a partial result set is visible as
// such in the shell.
func completionNote(reason string) string {
	switch reason {
	case "", pier.ReasonEOS:
		return ""
	case pier.ReasonQuietTimeout:
		return ", INCOMPLETE: quiet-timeout"
	case pier.ReasonChurnDegraded:
		return ", INCOMPLETE: churn-degraded"
	case pier.ReasonDeadline:
		return ", INCOMPLETE: deadline"
	default:
		return ", " + reason
	}
}

// coverageNote tags a result that reflects only part of the table
// partitions (members lost mid-query); full coverage prints nothing.
func coverageNote(res *pier.Result) string {
	if res.Coverage >= 1 {
		return ""
	}
	return fmt.Sprintf(", COVERAGE %.0f%%", res.Coverage*100)
}

func runContinuous(sess *engine.Session, sql string, explain bool) {
	sub, err := sess.SubscribeWithOptions(context.Background(), sql,
		plan.Options{Analyze: explain})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	defer sub.Stop()
	fmt.Printf("%v  (continuous; showing 10 windows)\n", sub.Columns)
	for i := 0; i < 10; i++ {
		wr, ok := <-sub.Results()
		if !ok {
			break
		}
		for _, row := range wr.Rows {
			fmt.Printf("  [w%d] %v\n", wr.Seq, row)
		}
	}
	if explain {
		// Participants re-ship counter snapshots per window, so the
		// report covers the run so far — the long-running query's
		// EXPLAIN ANALYZE.
		if a := sub.Analysis(); a != nil {
			for _, op := range a.Ops {
				fmt.Printf("  %-24s %-14s nodes=%-3d in=%-8d out=%-8d\n",
					op.Stage, op.Op, op.Nodes, op.RowsIn, op.RowsOut)
			}
		}
	}
}

// doPrepare parses "\prepare name SELECT ..." and compiles the
// statement into the plan cache under that name.
func doPrepare(sess *engine.Session, args string, explain bool) error {
	fields := strings.SplitN(strings.TrimSpace(args), " ", 2)
	if len(fields) != 2 {
		return fmt.Errorf("usage: \\prepare <name> SELECT ...")
	}
	if err := sess.Prepare(fields[0], fields[1], plan.Options{Analyze: explain}); err != nil {
		return err
	}
	fmt.Printf("prepared %q\n", fields[0])
	return nil
}

// runPrepared executes a prepared statement (subscribing when it is
// continuous).
func runPrepared(sess *engine.Session, name string, explain bool) {
	for _, p := range sess.PreparedAll() {
		if p.Name != name {
			continue
		}
		if strings.Contains(strings.ToUpper(p.SQL), "WINDOW") {
			runContinuous(sess, p.SQL, explain)
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		res, err := sess.Exec(ctx, name)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Printf("%v\n", res.Columns)
		for _, row := range res.Rows {
			fmt.Printf("  %v\n", row)
		}
		fmt.Printf("(%d rows, %d participants, %v%s%s)\n", len(res.Rows), res.Participants,
			res.Duration.Round(time.Millisecond), completionNote(res.Reason), coverageNote(res))
		return
	}
	fmt.Printf("error: no prepared statement %q\n", name)
}

// printMetrics renders the registry in Prometheus text form, filtered
// to series whose name starts with prefix.
func printMetrics(node *pier.Node, prefix string) {
	for _, line := range strings.Split(node.Obs().RenderProm(), "\n") {
		if strings.HasPrefix(line, prefix) {
			fmt.Println(line)
		}
	}
}

// printTrace renders the cross-node TRACE tree of qid (0 = the most
// recently coordinated query).
func printTrace(node *pier.Node, qid uint64) {
	tr := node.LastTrace()
	if qid != 0 {
		tr = node.Trace(qid)
	}
	if tr == nil {
		fmt.Println("no trace (only queries coordinated by this node are traced; the ring keeps the last 16)")
		return
	}
	fmt.Print(tr.Render())
}

// printCache renders the plan cache counters and the live entries with
// the stats epoch each plan was compiled under.
func printCache(svc *engine.Service) {
	st := svc.Cache().Stats()
	fmt.Printf("plan cache: %d entries, %d hits, %d misses, %d evictions, %d invalidations (hit rate %.0f%%)\n",
		st.Entries, st.Hits, st.Misses, st.Evictions, st.Invalidations, st.HitRate()*100)
	for _, e := range svc.Cache().Snapshot() {
		key := e.Key
		if i := strings.LastIndex(key, "|strat="); i >= 0 {
			key = key[:i]
		}
		fmt.Printf("  epoch=%-4d hits=%-6d %dB  %s\n", e.Epoch, e.Hits, e.Bytes, key)
	}
}
