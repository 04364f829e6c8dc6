// Package server is pierd's network front door: a line-oriented JSON
// protocol over TCP exposing the engine service — one-shot queries,
// prepared statements, continuous subscriptions, and cache/metrics
// introspection. Each connection owns one engine session, so closing
// the connection cancels its in-flight queries and stops its
// subscriptions.
//
// Requests are one JSON object per line, identified by a client-chosen
// id; responses carry the same id and may interleave (a connection can
// run queries concurrently). Subscription windows arrive as
// unsolicited events tagged with the subscription handle.
package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/pier"
	"repro/internal/plan"
	"repro/internal/tuple"
)

// Request is one client line.
type Request struct {
	ID uint64 `json:"id"`
	// Op selects the action: ping, query, prepare, exec, subscribe,
	// unsubscribe, explain, cache, create, insert, tables, stats,
	// metrics, trace, events.
	Op   string `json:"op"`
	SQL  string `json:"sql,omitempty"`  // query, prepare, subscribe, explain
	Name string `json:"name,omitempty"` // prepare, exec, subscribe
	// Query selects a query id for op trace (0 = most recent).
	Query uint64 `json:"query,omitempty"`
	// Analyze runs the statement as EXPLAIN ANALYZE (query, subscribe).
	Analyze bool   `json:"analyze,omitempty"`
	Sub     uint64 `json:"sub,omitempty"` // unsubscribe
	// Table definition / ingestion (create, insert, stats).
	Table  string   `json:"table,omitempty"`
	Cols   []string `json:"cols,omitempty"` // "name:type"
	Key    []string `json:"key,omitempty"`
	TTLMS  int64    `json:"ttl_ms,omitempty"`
	Values Values   `json:"values,omitempty"`
	// Local inserts into this node's partition instead of placing the
	// tuple in the DHT by key.
	Local bool `json:"local,omitempty"`
	// Rows and Distinct declare a table's planner statistics (stats);
	// distinct counts are keyed by column name, qualified or not.
	Rows     int64            `json:"rows,omitempty"`
	Distinct map[string]int64 `json:"distinct,omitempty"`
}

// Values is an inserted tuple. Its numbers decode as json.Number, so
// insert parses each one by its column's type and a fraction or an
// out-of-range integer is an error rather than a rounded float64.
type Values []interface{}

// UnmarshalJSON decodes the array with UseNumber.
func (v *Values) UnmarshalJSON(b []byte) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	return dec.Decode((*[]interface{})(v))
}

// Response answers one request (matched by ID).
type Response struct {
	ID    uint64 `json:"id"`
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	// Reject carries the typed admission-control reason ("overloaded",
	// "queue-timeout", ...) so clients can distinguish shedding from
	// failure and back off.
	Reject string `json:"reject,omitempty"`

	Columns []string `json:"columns,omitempty"`
	// Rows is what a client decodes the result rows into. The server
	// leaves it empty and writes the rows from the tuples (see
	// appendLine); encoding/json reads the line back into this form.
	Rows         [][]interface{} `json:"rows,omitempty"`
	Participants int             `json:"participants,omitempty"`
	// Reason reports how the query completed ("eos", "quiet-timeout",
	// "churn-degraded", "deadline") — anything but "eos" means the rows
	// may be partial.
	Reason     string  `json:"reason,omitempty"`
	DurationMS float64 `json:"duration_ms,omitempty"`
	// Coverage is the fraction of table partitions the result reflects:
	// 1.0 exactly for a full result, lower when members vanished
	// mid-query, absent when no partition was covered. CoverageByTable
	// breaks it down per scanned table.
	Coverage        float64            `json:"coverage,omitempty"`
	CoverageByTable map[string]float64 `json:"coverage_by_table,omitempty"`
	Analyze         string             `json:"analyze,omitempty"` // EXPLAIN ANALYZE report
	// Join memory accounting, summarized from the EXPLAIN ANALYZE
	// counters (set only when the query ran with analyze): the worst
	// single operator's resident high-water mark, total bytes spilled
	// to temp files, and total recursive spill passes network-wide.
	PeakMem      uint64 `json:"peak_mem,omitempty"`
	SpilledBytes uint64 `json:"spilled_bytes,omitempty"`
	SpillPasses  uint64 `json:"spill_passes,omitempty"`
	Plan         string `json:"plan,omitempty"` // explain
	Sub          uint64 `json:"sub,omitempty"`  // subscribe ack

	Cache   *engine.CacheStats      `json:"cache,omitempty"`
	Entries []engine.CacheEntryInfo `json:"entries,omitempty"`
	Addr    string                  `json:"addr,omitempty"` // ping
	Tables  []TableInfo             `json:"tables,omitempty"`

	// Query is the network-wide query id of a one-shot result; feed it
	// back through op trace to fetch the assembled cross-node trace.
	Query uint64 `json:"query,omitempty"`
	// Telemetry surface (ops metrics, trace, events).
	Metrics   string             `json:"metrics,omitempty"`    // Prometheus text exposition
	Series    map[string]float64 `json:"series,omitempty"`     // same snapshot as JSON
	Trace     json.RawMessage    `json:"trace,omitempty"`      // assembled trace document
	TraceText string             `json:"trace_text,omitempty"` // human TRACE tree
	Events    []obs.Event        `json:"events,omitempty"`     // structured event ring

	rows []tuple.Tuple // the result rows the server writes as "rows"
}

// TableInfo describes one defined table (op tables): its definition
// in create's terms and the statistics the planner uses now: declared,
// "measured" by an ANALYZE this node ran or received the broadcast of,
// or "default" (none, rows 0).
type TableInfo struct {
	Name     string           `json:"name"`
	Cols     []string         `json:"cols"` // "name:type"
	Key      []string         `json:"key,omitempty"`
	TTLMS    int64            `json:"ttl_ms"`
	Rows     int64            `json:"rows"`
	Distinct map[string]int64 `json:"distinct,omitempty"`
	Source   string           `json:"source"`
	AgeMS    int64            `json:"age_ms,omitempty"` // of measured statistics
}

// Event is an unsolicited server-to-client message (window delivery).
type Event struct {
	Event string          `json:"event"` // "window" or "end"
	Sub   uint64          `json:"sub"`
	Seq   uint64          `json:"seq,omitempty"`
	Rows  [][]interface{} `json:"rows,omitempty"` // decode side, as Response.Rows
	// Error says why a window's rows could not be encoded; the window
	// arrives without them.
	Error string `json:"error,omitempty"`

	rows []tuple.Tuple
}

// Server accepts pierd client connections.
type Server struct {
	svc *engine.Service
	ln  net.Listener

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	done  chan struct{}
}

// Serve starts accepting on ln, returning immediately. Close stops it.
func Serve(ln net.Listener, svc *engine.Service) *Server {
	s := &Server{
		svc:   svc,
		ln:    ln,
		conns: make(map[net.Conn]struct{}),
		done:  make(chan struct{}),
	}
	go s.acceptLoop()
	return s
}

// Addr is the listener's address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Close stops accepting and closes every live connection.
func (s *Server) Close() {
	close(s.done)
	s.ln.Close()
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
}

func (s *Server) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.done:
				return
			default:
				continue
			}
		}
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		go s.handle(conn)
	}
}

// clientConn is one connection's state: its engine session, its
// write-side lock (responses and events interleave from many
// goroutines), and its live subscription handles.
type clientConn struct {
	srv  *Server
	conn net.Conn
	sess *engine.Session
	ctx  context.Context

	wmu sync.Mutex
	w   *bufio.Writer

	smu  sync.Mutex
	subs map[uint64]*engine.Subscription
	next uint64
}

func (s *Server) handle(conn net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cc := &clientConn{
		srv:  s,
		conn: conn,
		sess: s.svc.Open(),
		ctx:  ctx,
		w:    bufio.NewWriter(conn),
		subs: make(map[uint64]*engine.Subscription),
	}
	defer cc.sess.Close()

	var wg sync.WaitGroup
	defer wg.Wait()
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var req Request
		if err := json.Unmarshal(line, &req); err != nil {
			cc.respond(Response{ID: 0, Error: "bad request: " + err.Error()})
			continue
		}
		// Queries block (admission queue + quiescence), so every
		// request runs in its own goroutine; the id ties the response
		// back and one connection can keep many queries in flight.
		wg.Add(1)
		go func() {
			defer wg.Done()
			cc.respond(cc.dispatch(req))
		}()
	}
}

// respond writes one response line. A response that cannot be encoded
// (a row holding a non-finite float, say) goes out as ok:false with the
// same id and the encoder's error, so no request goes unanswered.
func (cc *clientConn) respond(resp Response) {
	cc.send(resp, resp.rows, func(err error) interface{} {
		return Response{ID: resp.ID, Error: "encoding response: " + err.Error()}
	})
}

// event writes one event line; an event whose rows cannot be encoded
// goes out without them, saying why.
func (cc *clientConn) event(ev Event) {
	cc.send(ev, ev.rows, func(err error) interface{} {
		return Event{Event: ev.Event, Sub: ev.Sub, Seq: ev.Seq, Error: "encoding rows: " + err.Error()}
	})
}

// send encodes head and rows into one line outside the write lock, then
// writes it under the lock; fallback builds the line sent instead when
// encoding fails.
func (cc *clientConn) send(head interface{}, rows []tuple.Tuple, fallback func(error) interface{}) {
	bp := linePool.Get().(*[]byte)
	buf, err := appendLine((*bp)[:0], head, rows)
	if err != nil {
		buf, err = appendLine(buf[:0], fallback(err), nil)
	}
	if err == nil {
		cc.wmu.Lock()
		cc.w.Write(buf)
		cc.w.Flush()
		cc.wmu.Unlock()
	}
	*bp = buf
	linePool.Put(bp)
}

func (cc *clientConn) dispatch(req Request) Response {
	resp, err := cc.run(req)
	resp.ID = req.ID
	if err != nil {
		resp.OK = false
		resp.Error = err.Error()
		if reason, ok := engine.IsReject(err); ok {
			resp.Reject = reason
		}
		return resp
	}
	resp.OK = true
	return resp
}

func (cc *clientConn) run(req Request) (Response, error) {
	switch req.Op {
	case "ping":
		return Response{Addr: cc.srv.svc.Node().Addr()}, nil
	case "query":
		return cc.query(req)
	case "prepare":
		err := cc.sess.Prepare(req.Name, req.SQL, planOpts(req))
		return Response{}, err
	case "exec":
		start := time.Now()
		res, err := cc.sess.Exec(cc.ctx, req.Name)
		if err != nil {
			return Response{}, err
		}
		return resultResponse(res, start), nil
	case "subscribe":
		return cc.subscribe(req)
	case "unsubscribe":
		cc.smu.Lock()
		sub, ok := cc.subs[req.Sub]
		delete(cc.subs, req.Sub)
		cc.smu.Unlock()
		if !ok {
			return Response{}, fmt.Errorf("no subscription %d", req.Sub)
		}
		// An analyze subscription answers with its EXPLAIN ANALYZE
		// report: the counters of the run so far.
		report := sub.AnalyzeReport()
		sub.Stop()
		return Response{Sub: req.Sub, Analyze: report}, nil
	case "explain":
		text, err := cc.sess.Explain(req.SQL)
		if err != nil {
			return Response{}, err
		}
		return Response{Plan: text}, nil
	case "cache":
		st := cc.srv.svc.Cache().Stats()
		return Response{Cache: &st, Entries: cc.srv.svc.Cache().Snapshot()}, nil
	case "metrics":
		reg := cc.srv.svc.Node().Obs()
		return Response{Metrics: reg.RenderProm(), Series: reg.SnapshotMap()}, nil
	case "trace":
		node := cc.srv.svc.Node()
		var tr *obs.Trace
		if req.Query != 0 {
			tr = node.Trace(req.Query)
		} else {
			tr = node.LastTrace()
		}
		if tr == nil {
			return Response{}, fmt.Errorf("no trace for query %d (evicted or never coordinated here)", req.Query)
		}
		return Response{Query: tr.Query, Trace: tr.JSON(), TraceText: tr.Render()}, nil
	case "events":
		return Response{Events: cc.srv.svc.Node().Events().Snapshot()}, nil
	case "create":
		return cc.create(req)
	case "insert":
		return cc.insert(req)
	case "tables":
		return cc.tables(), nil
	case "stats":
		stats := catalog.TableStats{Rows: req.Rows, Distinct: req.Distinct}
		return Response{}, cc.srv.svc.Node().SetTableStats(req.Table, stats)
	default:
		return Response{}, fmt.Errorf("unknown op %q", req.Op)
	}
}

func planOpts(req Request) plan.Options {
	return plan.Options{Analyze: req.Analyze}
}

func (cc *clientConn) query(req Request) (Response, error) {
	start := time.Now()
	res, err := cc.sess.QueryWithOptions(cc.ctx, req.SQL, planOpts(req))
	if err != nil {
		return Response{}, err
	}
	return resultResponse(res, start), nil
}

func resultResponse(res *pier.Result, start time.Time) Response {
	resp := Response{
		Query:           res.QueryID,
		Columns:         res.Columns,
		rows:            res.Rows,
		Participants:    res.Participants,
		Reason:          res.Reason,
		DurationMS:      float64(time.Since(start)) / float64(time.Millisecond),
		Analyze:         res.AnalyzeReport,
		Coverage:        res.Coverage,
		CoverageByTable: res.CoverageByTable,
	}
	if res.Analysis != nil {
		for _, o := range res.Analysis.Ops {
			if o.PeakMem > resp.PeakMem {
				resp.PeakMem = o.PeakMem
			}
			resp.SpilledBytes += o.Spilled
			resp.SpillPasses += o.Passes
		}
	}
	return resp
}

func (cc *clientConn) subscribe(req Request) (Response, error) {
	var sub *engine.Subscription
	var err error
	if req.Name != "" {
		sub, err = cc.sess.SubscribePrepared(cc.ctx, req.Name)
	} else {
		sub, err = cc.sess.SubscribeWithOptions(cc.ctx, req.SQL, planOpts(req))
	}
	if err != nil {
		return Response{}, err
	}
	cc.smu.Lock()
	cc.next++
	handle := cc.next
	cc.subs[handle] = sub
	cc.smu.Unlock()
	// Stream windows until the subscription (or the connection) ends.
	go func() {
		for w := range sub.Results() {
			select {
			case <-cc.ctx.Done():
				sub.Stop()
				return
			default:
			}
			cc.event(Event{Event: "window", Sub: handle, Seq: w.Seq, rows: w.Rows})
		}
		cc.event(Event{Event: "end", Sub: handle})
	}()
	return Response{Sub: handle, Columns: sub.Columns}, nil
}

func (cc *clientConn) create(req Request) (Response, error) {
	node := cc.srv.svc.Node()
	cols := make([]tuple.Column, 0, len(req.Cols))
	for _, spec := range req.Cols {
		ct := strings.SplitN(spec, ":", 2)
		if len(ct) != 2 {
			return Response{}, fmt.Errorf("column %q must be name:type", spec)
		}
		ty, err := parseType(ct[1])
		if err != nil {
			return Response{}, err
		}
		cols = append(cols, tuple.Column{Name: ct[0], Type: ty})
	}
	schema, err := tuple.NewSchema(req.Table, cols, req.Key...)
	if err != nil {
		return Response{}, err
	}
	ttl := time.Minute
	if req.TTLMS > 0 {
		ttl = time.Duration(req.TTLMS) * time.Millisecond
	}
	return Response{}, node.DefineTable(schema, ttl)
}

func (cc *clientConn) insert(req Request) (Response, error) {
	node := cc.srv.svc.Node()
	tbl, ok := node.Catalog().Lookup(req.Table)
	if !ok {
		return Response{}, fmt.Errorf("unknown table %q", req.Table)
	}
	if len(req.Values) != tbl.Schema.Arity() {
		return Response{}, fmt.Errorf("table %s has %d columns, got %d values",
			req.Table, tbl.Schema.Arity(), len(req.Values))
	}
	t := make(tuple.Tuple, len(req.Values))
	for i, raw := range req.Values {
		v, err := coerce(raw, tbl.Schema.Columns[i].Type)
		if err != nil {
			return Response{}, fmt.Errorf("column %d: %w", i, err)
		}
		t[i] = v
	}
	if req.Local {
		return Response{}, node.PublishLocal(req.Table, t)
	}
	return Response{}, node.Publish(req.Table, t)
}

func (cc *clientConn) tables() Response {
	cat := cc.srv.svc.Node().Catalog()
	var out []TableInfo
	for _, name := range cat.Names() {
		tbl, ok := cat.Lookup(name)
		if !ok {
			continue // dropped since Names
		}
		st, src, age := cat.StatsInfo(name)
		info := TableInfo{Name: name, TTLMS: tbl.TTL.Milliseconds(), Rows: st.Rows,
			Distinct: st.Distinct, Source: src.String(), AgeMS: age.Milliseconds()}
		for _, c := range tbl.Schema.Columns {
			info.Cols = append(info.Cols, c.Name+":"+c.Type.String())
		}
		for _, k := range tbl.Schema.Key {
			info.Key = append(info.Key, tbl.Schema.Columns[k].Name)
		}
		out = append(out, info)
	}
	return Response{Tables: out}
}

func parseType(name string) (tuple.Type, error) {
	switch strings.ToLower(name) {
	case "string":
		return tuple.TString, nil
	case "int":
		return tuple.TInt, nil
	case "float":
		return tuple.TFloat, nil
	case "bool":
		return tuple.TBool, nil
	case "time":
		return tuple.TTime, nil
	default:
		return tuple.TNull, fmt.Errorf("unknown type %q", name)
	}
}

// coerce maps a JSON value onto a column type. Numbers arrive as
// json.Number (see Values); a string is accepted for every type, so
// both are parsed from their text.
func coerce(raw interface{}, ty tuple.Type) (tuple.Value, error) {
	var text string
	switch v := raw.(type) {
	case string:
		text = v
	case json.Number:
		if ty != tuple.TInt && ty != tuple.TFloat {
			return tuple.Value{}, fmt.Errorf("want %v, got number", ty)
		}
		text = v.String()
	case bool:
		if ty != tuple.TBool {
			return tuple.Value{}, fmt.Errorf("want %v, got bool", ty)
		}
		return tuple.Bool(v), nil
	default:
		return tuple.Value{}, fmt.Errorf("want %v, got %T", ty, raw)
	}
	switch ty {
	case tuple.TString:
		return tuple.String(text), nil
	case tuple.TInt:
		i, err := strconv.ParseInt(text, 10, 64)
		return tuple.Int(i), err
	case tuple.TFloat:
		f, err := strconv.ParseFloat(text, 64)
		if err == nil && (math.IsInf(f, 0) || math.IsNaN(f)) {
			err = fmt.Errorf("float %s has no JSON encoding", text)
		}
		return tuple.Float(f), err
	case tuple.TBool:
		b, err := strconv.ParseBool(text)
		return tuple.Bool(b), err
	case tuple.TTime:
		ts, err := time.Parse(time.RFC3339Nano, text)
		return tuple.Time(ts), err
	default:
		return tuple.Value{}, fmt.Errorf("unsupported column type %v", ty)
	}
}
