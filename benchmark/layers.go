package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/dataflow"
	"repro/internal/obs"
	"repro/internal/physical"
	"repro/internal/plan"
	"repro/internal/server"
	"repro/internal/spill"
	"repro/internal/sqlparser"
	"repro/internal/tuple"
)

// span is one benchmark-side span: a call into a layer, timed from
// outside. Spans of one op share Op; Parent links them into a tree.
type span struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Op      uint64 `json:"op,omitempty"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Detail  string `json:"detail,omitempty"`
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) add(parent, op uint64, name string, start, end time.Time, detail string) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := uint64(len(l.spans) + 1)
	l.spans = append(l.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		StartNS: start.UnixNano(), EndNS: end.UnixNano(), Detail: detail})
	return id
}

// adopt files the program's own spans of one query (Node.Trace) under
// the benchmark-side span of the call that ran it.
func (l *spanLog) adopt(parent, op uint64, tr *obs.Trace) {
	if tr == nil {
		return
	}
	ids := make(map[uint64]uint64, len(tr.Spans))
	for _, s := range tr.Spans {
		ids[s.ID] = l.add(parent, op, s.Node+":"+s.Name, time.Unix(0, s.Start), time.Unix(0, s.End), s.Detail)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range tr.Spans {
		if p, ok := ids[s.Parent]; ok {
			l.spans[ids[s.ID]-1].Parent = p
		}
	}
}

// open starts a span that groups the spans recorded until end(id).
func (l *spanLog) open(parent uint64, name, detail string) uint64 {
	now := time.Now()
	return l.add(parent, 0, name, now, now, detail)
}

func (l *spanLog) end(id uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[id-1].EndNS = time.Now().UnixNano()
}

func (l *spanLog) write(dir, workload string) (string, error) {
	path := filepath.Join(dir, workload+".spans.json")
	buf, err := json.Marshal(l.spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, buf, 0o644)
}

// phaseKinds are the program's own span names reported as
// pier.phase.<kind>_ms (drain.rN and collect-* fold into one kind each).
var phaseKinds = []string{"disseminate", "scan", "ship", "drain", "collect", "finalize"}

// tracedPass runs after the measured window on the same cluster and
// fills m with the per-layer numbers that need calls of their own:
// the entry-point ladder, queries with analyze on, and the isolated
// leaf calls. End-to-end metrics never come from here.
func tracedPass(e *env, ds *dataset, sz sizes, m map[string]metric) (*spanLog, error) {
	log := &spanLog{}
	root := log.open(0, "traced-pass", e.w.name)
	ctx := context.Background()
	front := e.cluster.Nodes[0]

	// plan: parse + compile of the workload's statements.
	specs := make([]*plan.Spec, len(ds.hot))
	var compileUS []float64
	for round := 0; round < 20; round++ {
		for i, st := range ds.hot {
			start := time.Now()
			stmt, err := sqlparser.Parse(st.sql)
			if err != nil {
				return nil, err
			}
			spec, err := plan.Compile(stmt, front.Catalog(), plan.Options{})
			if err != nil {
				return nil, err
			}
			compileUS = append(compileUS, us(time.Since(start)))
			specs[i] = spec
		}
	}
	m["plan.compile_us"] = metric{median(compileUS), "us"}

	// The entry-point ladder: the same cache-hit statements through
	// the TCP front door, the engine session and the pier coordinator.
	// Rungs interleave so drift hits all three alike; a layer's self
	// time is its rung minus the rung below.
	cl, err := dial(e.addr)
	if err != nil {
		return nil, err
	}
	defer cl.close()
	sess := e.svc.Open()
	defer sess.Close()
	ladder := log.open(root, "ladder", "")
	var tcpMS, engineMS, pierMS []float64
	var opID uint64
	// Every ladder query's id: the program keeps the assembled traces
	// of the last few, and participants ship their spans at teardown,
	// so the traces are read after the ladder, not inside it.
	type ladderOp struct {
		span, op, query uint64
	}
	var ran []ladderOp
	timed := func(name string, into *[]float64, call func() (reason string, rows int, query uint64, err error)) error {
		opID++
		start := time.Now()
		reason, rows, query, err := call()
		end := time.Now()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		id := log.add(ladder, opID, name, start, end, fmt.Sprintf("reason=%s rows=%d", reason, rows))
		ran = append(ran, ladderOp{span: id, op: opID, query: query})
		*into = append(*into, ms(end.Sub(start)))
		return nil
	}
	for i := 0; i < sz.ladderN; i++ {
		st, spec := ds.hot[i%len(ds.hot)], specs[i%len(ds.hot)]
		if err := timed("server.tcp_query", &tcpMS, func() (string, int, uint64, error) {
			resp, err := cl.roundTrip(server.Request{Op: "query", SQL: st.sql})
			if err != nil {
				return "", 0, 0, err
			}
			if !resp.OK {
				return "", 0, 0, fmt.Errorf("%s", resp.Error)
			}
			return resp.Reason, len(resp.Rows), resp.Query, nil
		}); err != nil {
			return nil, err
		}
		if err := timed("engine.session_query", &engineMS, func() (string, int, uint64, error) {
			res, err := sess.Query(ctx, st.sql)
			if err != nil {
				return "", 0, 0, err
			}
			return res.Reason, len(res.Rows), res.QueryID, nil
		}); err != nil {
			return nil, err
		}
		if err := timed("pier.execute_spec", &pierMS, func() (string, int, uint64, error) {
			res, err := front.ExecuteSpec(ctx, spec)
			if err != nil {
				return "", 0, 0, err
			}
			return res.Reason, len(res.Rows), res.QueryID, nil
		}); err != nil {
			return nil, err
		}
	}
	log.end(ladder)
	// Per traced query, the longest span of each kind the program
	// recorded; analyze is off here, so its 200 ms grace is not in them.
	phases := map[string][]float64{}
	for _, op := range ran {
		tr := front.Trace(op.query)
		if tr == nil {
			continue // evicted: the ring keeps the last 16 queries
		}
		log.adopt(op.span, op.op, tr)
		longest := map[string]float64{}
		for _, s := range tr.Spans {
			kind := s.Name
			if strings.HasPrefix(kind, "drain.") || strings.HasPrefix(kind, "collect-") {
				kind = kind[:strings.IndexAny(kind, ".-")]
			}
			if d := ms(time.Duration(s.End - s.Start)); d > longest[kind] {
				longest[kind] = d
			}
		}
		for _, kind := range phaseKinds {
			phases[kind] = append(phases[kind], longest[kind])
		}
	}
	for _, kind := range phaseKinds {
		m["pier.phase."+kind+"_ms"] = metric{median(phases[kind]), "ms"}
	}
	m["server.self_ms"] = metric{median(tcpMS) - median(engineMS), "ms"}
	m["engine.self_ms"] = metric{median(engineMS) - median(pierMS), "ms"}
	m["pier.exec_ms"] = metric{median(pierMS), "ms"}

	// Queries with analyze on: per-operator counters from
	// Result.Analysis and the program's own spans from Node.Trace.
	analyze := log.open(root, "analyze", "")
	family := map[string][]float64{}
	var analyzeMS, rowsShipped, bytesShipped, hjBusy, hjPeak, spillBytes, spillPasses []float64
	for i := 0; i < sz.analyzeN; i++ {
		st := ds.hot[i%len(ds.hot)]
		opID++
		start := time.Now()
		res, err := sess.QueryWithOptions(ctx, st.sql, plan.Options{Analyze: true})
		end := time.Now()
		if err != nil {
			return nil, fmt.Errorf("analyze query: %w", err)
		}
		if res.Analysis == nil {
			return nil, fmt.Errorf("analyze query returned no Analysis")
		}
		analyzeMS = append(analyzeMS, ms(end.Sub(start)))
		log.add(analyze, opID, "engine.session_query.analyze", start, end, "reason="+res.Reason)
		busy := map[string]float64{}
		var shippedRows, shippedBytes, hb, hp, sb, sp float64
		for _, o := range res.Analysis.Ops {
			switch {
			case o.Op == "hybrid-join":
				hb += ms(time.Duration(o.BusyNanos))
				if float64(o.PeakMem) > hp {
					hp = float64(o.PeakMem)
				}
				sb += float64(o.Spilled)
				sp += float64(o.Passes)
			case strings.HasPrefix(o.Op, "scan"):
				busy["scan"] += ms(time.Duration(o.BusyNanos))
			case strings.HasPrefix(o.Op, "rehash."):
				busy["rehash"] += ms(time.Duration(o.BusyNanos))
			case strings.HasPrefix(o.Op, "ship-"):
				busy["ship"] += ms(time.Duration(o.BusyNanos))
				shippedRows += float64(o.RowsOut)
				shippedBytes += float64(o.BytesOut)
			case strings.HasSuffix(o.Op, "-agg"):
				busy["agg"] += ms(time.Duration(o.BusyNanos))
			}
		}
		for _, f := range []string{"scan", "rehash", "ship", "agg"} {
			family[f] = append(family[f], busy[f])
		}
		rowsShipped = append(rowsShipped, shippedRows)
		bytesShipped = append(bytesShipped, shippedBytes)
		hjBusy = append(hjBusy, hb)
		hjPeak = append(hjPeak, hp)
		spillBytes = append(spillBytes, sb)
		spillPasses = append(spillPasses, sp)
	}
	for f, v := range family {
		m["physical."+f+"_busy_ms"] = metric{median(v), "ms"}
	}
	m["physical.rows_shipped_per_query"] = metric{median(rowsShipped), "count"}
	m["physical.bytes_shipped_per_query"] = metric{median(bytesShipped), "B"}
	m["hybridjoin.busy_ms"] = metric{median(hjBusy), "ms"}
	m["hybridjoin.peak_mem_kb"] = metric{median(hjPeak) / 1024, "KB"}
	m["spill.bytes_per_query"] = metric{median(spillBytes), "B"}
	m["spill.passes_per_query"] = metric{median(spillPasses), "count"}
	// What turning analyze on costs at one entry point: the same
	// statements through the same session, sequentially, on and off.
	m["trace.overhead_frac"] = metric{ratio(median(analyzeMS)-median(engineMS), median(engineMS)), "ratio"}

	log.end(analyze)

	leaf := log.open(root, "leaf", "")
	if err := leafCalls(e, ds, sz, m, log, leaf); err != nil {
		return nil, err
	}
	log.end(leaf)
	log.end(root)
	return log, nil
}

// leafCalls measures single layers with nothing above them: an rpc
// round trip, DHT put and get, the tuple codec, and HybridJoin fed
// through two inlets with no network.
func leafCalls(e *env, ds *dataset, sz sizes, m map[string]metric, log *spanLog, parent uint64) error {
	ctx := context.Background()
	nodes := e.cluster.Nodes
	from, to := nodes[0], nodes[len(nodes)/2]

	to.Peer().Handle("bench.echo", func(_ string, req []byte) ([]byte, error) { return req, nil })
	payload := make([]byte, 64)
	var rttUS []float64
	start := time.Now()
	for i := 0; i < sz.leafN; i++ {
		t := time.Now()
		if _, err := from.Peer().Call(ctx, to.Addr(), "bench.echo", payload); err != nil {
			return fmt.Errorf("rpc echo: %w", err)
		}
		rttUS = append(rttUS, us(time.Since(t)))
	}
	log.add(parent, 0, "rpc.echo", start, time.Now(), fmt.Sprintf("calls=%d bytes=64", sz.leafN))
	m["rpc.roundtrip_us"] = metric{median(rttUS), "us"}

	// dht: only the workloads with a published table exercise it.
	var putMS, getUS []float64
	if len(ds.published) > 0 {
		tbl, _ := from.Catalog().Lookup(ds.published[0].table)
		start = time.Now()
		for i := 0; i < sz.leafN; i++ {
			r := ds.published[i%len(ds.published)]
			t := time.Now()
			if err := from.Publish(r.table, r.t); err != nil {
				return fmt.Errorf("dht put: %w", err)
			}
			putMS = append(putMS, ms(time.Since(t)))
		}
		log.add(parent, 0, "dht.put", start, time.Now(), fmt.Sprintf("calls=%d", sz.leafN))
		start = time.Now()
		for i := 0; i < sz.leafN; i++ {
			r := ds.published[i%len(ds.published)]
			t := time.Now()
			got, err := from.Store().Get(ctx, tbl.Namespace, tbl.Schema.KeyOf(r.t))
			if err != nil || len(got) == 0 {
				return fmt.Errorf("dht get of a published key: %d items, err %v", len(got), err)
			}
			getUS = append(getUS, us(time.Since(t)))
		}
		log.add(parent, 0, "dht.get", start, time.Now(), fmt.Sprintf("calls=%d", sz.leafN))
	}
	m["dht.put_ms"] = metric{median(putMS), "ms"}
	m["dht.get_us"] = metric{median(getUS), "us"}

	// tuple/wire codec over the workload's rows.
	rows := ds.rows()
	reps := 1 + 20000/len(rows)
	encoded := make([][]byte, len(rows))
	start = time.Now()
	for r := 0; r < reps; r++ {
		for i := range rows {
			encoded[i] = rows[i].t.Bytes()
		}
	}
	encNS := float64(time.Since(start)) / float64(reps*len(rows))
	var ms0, ms1 runtime.MemStats
	var dec tuple.Decoder
	runtime.ReadMemStats(&ms0)
	start = time.Now()
	for r := 0; r < reps; r++ {
		for i := range encoded {
			if _, err := dec.Decode(encoded[i]); err != nil {
				return fmt.Errorf("tuple decode: %w", err)
			}
		}
	}
	decNS := float64(time.Since(start)) / float64(reps*len(rows))
	runtime.ReadMemStats(&ms1)
	log.add(parent, 0, "tuple.codec", start, time.Now(), fmt.Sprintf("rows=%d reps=%d", len(rows), reps))
	m["tuple.encode_ns_per_row"] = metric{encNS, "ns"}
	m["tuple.decode_ns_per_row"] = metric{decNS, "ns"}
	m["tuple.decode_allocs_per_row"] = metric{float64(ms1.Mallocs-ms0.Mallocs) / float64(reps*len(rows)), "count"}

	var localNS float64
	if e.w.join {
		start = time.Now()
		n, err := isolatedHybridJoin(e, rows, ds.hot[0].want.rows)
		if err != nil {
			return err
		}
		localNS = float64(time.Since(start)) / float64(len(rows))
		log.add(parent, 0, "hybridjoin.local", start, time.Now(), fmt.Sprintf("rows_in=%d rows_out=%d", len(rows), n))
	}
	m["hybridjoin.local_ns_per_row"] = metric{localNS, "ns"}
	return nil
}

// isolatedHybridJoin feeds the workload's orders and users through two
// inlets into one physical.HybridJoin at the workload's memory budget,
// with no network, and returns the joined row count.
func isolatedHybridJoin(e *env, rows []tableRow, want int) (int, error) {
	cfg := physical.HybridJoinConfig{Budget: e.w.joinMemBudget, Label: "bench-leaf"}
	if e.w.joinMemBudget > 0 {
		mgr, err := spill.NewManager(e.spillDir)
		if err != nil {
			return 0, err
		}
		defer mgr.Close()
		cfg.Spill = mgr
	}
	p := physical.NewPipeline("bench-join")
	inL, inR := physical.NewInlet(), physical.NewInlet()
	l := p.Add("probe-src.l", inL.Source)
	r := p.Add("probe-src.r", inR.Source)
	// orders(node,oid,uid,pad) joins users(node,uid,name) on uid.
	jp := p.Add("hybrid-join", physical.HybridJoin([2]int{4, 3}, [2][]int{{2}, {1}}, cfg))
	p.Connect(l, jp)
	p.Connect(r, jp)
	joined := 0
	sink := p.Add("sink", physical.FuncSink(func(tuple.Tuple) { joined++ }))
	p.Connect(jp, sink)
	run, err := p.Start(context.Background())
	if err != nil {
		return 0, err
	}
	push := func(in *physical.Inlet, table string) {
		batch := dataflow.GetBatch()
		for _, row := range rows {
			if row.table != table {
				continue
			}
			batch = append(batch, row.t)
			if len(batch) == dataflow.DefaultBatchSize {
				in.Push(dataflow.BatchMsg(batch, 0))
				batch = dataflow.GetBatch()
			}
		}
		if len(batch) > 0 {
			in.Push(dataflow.BatchMsg(batch, 0))
		}
	}
	push(inR, "users")
	push(inL, "orders")
	// The drain marker is what makes spilled partitions re-join, as it
	// does for a query completing through the EOS protocol. It must
	// follow every row of both sides, and the two inlets are not
	// ordered against each other: wait until the join has taken all.
	fed := uint64(len(rows))
	for deadline := time.Now().Add(30 * time.Second); ; {
		if p.Stats()[2].RowsIn >= fed {
			break
		}
		if time.Now().After(deadline) {
			run.Stop()
			return 0, fmt.Errorf("isolated HybridJoin took %d of %d rows in 30s", p.Stats()[2].RowsIn, fed)
		}
		time.Sleep(200 * time.Microsecond)
	}
	inL.Push(dataflow.DrainMsg(1))
	inL.Close()
	inR.Close()
	if err := run.Wait(); err != nil {
		return 0, err
	}
	if joined != want {
		return joined, fmt.Errorf("isolated HybridJoin produced %d rows, want %d", joined, want)
	}
	return joined, nil
}
