package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/piertest"
	"repro/internal/simnet"
	"repro/internal/tuple"
)

// client is a test-side protocol driver: requests get fresh ids,
// responses and events demultiplex onto channels.
type client struct {
	t      *testing.T
	conn   net.Conn
	enc    *json.Encoder
	nextID uint64
	resps  chan Response
	events chan Event
}

func dial(t *testing.T, addr string) *client {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c := &client{
		t:      t,
		conn:   conn,
		enc:    json.NewEncoder(conn),
		resps:  make(chan Response, 64),
		events: make(chan Event, 256),
	}
	t.Cleanup(func() { conn.Close() })
	go func() {
		sc := bufio.NewScanner(conn)
		sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
		for sc.Scan() {
			var probe struct {
				Event string `json:"event"`
			}
			line := append([]byte(nil), sc.Bytes()...)
			if json.Unmarshal(line, &probe) == nil && probe.Event != "" {
				var ev Event
				if json.Unmarshal(line, &ev) == nil {
					c.events <- ev
				}
				continue
			}
			var resp Response
			if json.Unmarshal(line, &resp) == nil {
				c.resps <- resp
			}
		}
		close(c.events)
	}()
	return c
}

// call sends a request and waits for its response (the protocol allows
// interleaving; the test client issues one at a time per connection).
func (c *client) call(req Request) Response {
	c.t.Helper()
	c.nextID++
	req.ID = c.nextID
	if err := c.enc.Encode(req); err != nil {
		c.t.Fatal(err)
	}
	select {
	case resp := <-c.resps:
		if resp.ID != req.ID {
			c.t.Fatalf("response id %d for request %d", resp.ID, req.ID)
		}
		return resp
	case <-time.After(30 * time.Second):
		c.t.Fatalf("no response to %s within 30s", req.Op)
		return Response{}
	}
}

func (c *client) must(req Request) Response {
	c.t.Helper()
	resp := c.call(req)
	if !resp.OK {
		c.t.Fatalf("%s failed: %s", req.Op, resp.Error)
	}
	return resp
}

// TestTwoClients is the README's quick-start as a test: client A
// defines a table and loads it through the DHT, client B queries it,
// both subscribe to the same continuous query (exercising the wire
// path for shared scans), and the cache op reports the hits.
func TestTwoClients(t *testing.T) {
	c, err := piertest.New(piertest.Options{N: 4, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	svc := engine.New(c.Nodes[0], engine.Config{})
	defer svc.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, svc)
	defer srv.Close()

	a := dial(t, srv.Addr().String())
	b := dial(t, srv.Addr().String())

	if resp := a.must(Request{Op: "ping"}); resp.Addr == "" {
		t.Fatal("ping returned no node address")
	}
	a.must(Request{Op: "create", Table: "kv",
		Cols: []string{"k:string", "v:int"}, Key: []string{"k"}, TTLMS: 60_000})
	for i := 0; i < 8; i++ {
		a.must(Request{Op: "insert", Table: "kv",
			Values: []interface{}{fmt.Sprintf("key-%d", i), i}})
	}
	// DHT puts route asynchronously; wait until B sees all eight rows.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp := b.must(Request{Op: "query", SQL: "SELECT COUNT(*) FROM kv"})
		if len(resp.Rows) == 1 && resp.Rows[0][0] == float64(8) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("client B never saw all rows: %v", resp.Rows)
		}
		time.Sleep(100 * time.Millisecond)
	}

	// Prepared statements are per-connection session state.
	b.must(Request{Op: "prepare", Name: "big", SQL: "SELECT k, v FROM kv WHERE v >= 5 ORDER BY v"})
	resp := b.must(Request{Op: "exec", Name: "big"})
	if len(resp.Rows) != 3 || resp.Rows[0][1] != float64(5) {
		t.Fatalf("exec rows %v", resp.Rows)
	}
	if resp := a.call(Request{Op: "exec", Name: "big"}); resp.OK {
		t.Fatal("client A executed client B's prepared statement")
	}

	if resp := b.must(Request{Op: "explain", SQL: "SELECT COUNT(*) FROM kv"}); resp.Plan == "" {
		t.Fatal("explain returned no plan")
	}

	// Both clients subscribe to the same continuous statement; the
	// second rides the first's scan pipeline.
	feeder := dial(t, srv.Addr().String())
	stopFeed := make(chan struct{})
	defer close(stopFeed)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stopFeed:
				return
			case <-time.After(20 * time.Millisecond):
			}
			feeder.call(Request{Op: "insert", Table: "kv", Local: true,
				Values: []interface{}{fmt.Sprintf("live-%d", i), 100 + i}})
		}
	}()
	const contSQL = "SELECT COUNT(*) FROM kv WINDOW 300 ms SLIDE 300 ms"
	subA := a.must(Request{Op: "subscribe", SQL: contSQL})
	subB := b.must(Request{Op: "subscribe", SQL: contSQL})
	if got := svc.Metrics.SharedScanAttaches.Load(); got != 1 {
		t.Fatalf("%d attaches to the shared scan, want 1 (the second subscriber)", got)
	}
	for name, cl := range map[string]*client{"A": a, "B": b} {
		select {
		case ev := <-cl.events:
			if ev.Event != "window" {
				t.Fatalf("client %s: first event %q, want window", name, ev.Event)
			}
		case <-time.After(15 * time.Second):
			t.Fatalf("client %s received no window in 15s", name)
		}
	}
	a.must(Request{Op: "unsubscribe", Sub: subA.Sub})
	b.must(Request{Op: "unsubscribe", Sub: subB.Sub})

	// The cache op shows the repeated statements hitting.
	cache := a.must(Request{Op: "cache"})
	if cache.Cache == nil || cache.Cache.Hits == 0 {
		t.Fatalf("cache stats %+v, want hits > 0", cache.Cache)
	}
	if len(cache.Entries) == 0 {
		t.Fatal("cache op listed no entries")
	}

	// Closing a connection mid-subscription must not wedge the server:
	// the session cleanup stops the subscription.
	d := dial(t, srv.Addr().String())
	d.must(Request{Op: "subscribe", SQL: contSQL})
	d.conn.Close()
	time.Sleep(100 * time.Millisecond)
	e := dial(t, srv.Addr().String())
	if resp := e.must(Request{Op: "query", SQL: "SELECT COUNT(*) FROM kv"}); len(resp.Rows) != 1 {
		t.Fatalf("server unhealthy after abrupt disconnect: %v", resp.Rows)
	}
}

// TestTelemetryOps round-trips the observability surface over the
// wire: after a query, `metrics` returns the node's registry (both as
// Prometheus text and as a series map), `trace` returns the query's
// assembled cross-node trace by the id the query response carried, and
// `events` returns the structured ring.
func TestTelemetryOps(t *testing.T) {
	c, err := piertest.New(piertest.Options{N: 4, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	svc := engine.New(c.Nodes[0], engine.Config{})
	defer svc.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, svc)
	defer srv.Close()

	a := dial(t, srv.Addr().String())
	a.must(Request{Op: "create", Table: "kv",
		Cols: []string{"k:string", "v:int"}, Key: []string{"k"}, TTLMS: 60_000})
	for i := 0; i < 4; i++ {
		a.must(Request{Op: "insert", Table: "kv", Local: true,
			Values: []interface{}{fmt.Sprintf("key-%d", i), i}})
	}
	q := a.must(Request{Op: "query", SQL: "SELECT COUNT(*) FROM kv"})
	if q.Query == 0 {
		t.Fatal("query response carries no query id")
	}

	m := a.must(Request{Op: "metrics"})
	for _, series := range []string{
		"pier_queries_coordinated_total", "engine_admitted_total",
		"engine_plan_cache_hit_rate", "dht_puts_total", "batch_frames_out_total",
		`pier_completions_total{reason="eos"}`, "rpc_calls_total",
	} {
		if !strings.Contains(m.Metrics, series) {
			t.Errorf("metrics text missing %s", series)
		}
	}
	if m.Series["pier_queries_coordinated_total"] < 1 {
		t.Fatalf("series map: pier_queries_coordinated_total = %v, want >= 1",
			m.Series["pier_queries_coordinated_total"])
	}

	// By id, and as "most recent" with no id.
	for _, req := range []Request{{Op: "trace", Query: q.Query}, {Op: "trace"}} {
		tr := a.must(req)
		if tr.Query != q.Query {
			t.Fatalf("trace op returned query %d, want %d", tr.Query, q.Query)
		}
		if !strings.Contains(tr.TraceText, "(coordinator)") {
			t.Fatalf("trace text:\n%s", tr.TraceText)
		}
		var decoded struct {
			Coord string            `json:"coordinator"`
			Spans []json.RawMessage `json:"spans"`
		}
		if err := json.Unmarshal(tr.Trace, &decoded); err != nil {
			t.Fatalf("trace JSON: %v", err)
		}
		if decoded.Coord == "" || len(decoded.Spans) == 0 {
			t.Fatalf("trace JSON coord=%q spans=%d", decoded.Coord, len(decoded.Spans))
		}
	}
	if resp := a.call(Request{Op: "trace", Query: 999999}); resp.OK {
		t.Fatal("trace of an unknown query must fail")
	}

	ev := a.must(Request{Op: "events"})
	var admitted bool
	for _, e := range ev.Events {
		if e.Kind == obs.EvQueryAdmitted {
			admitted = true
		}
	}
	if !admitted {
		t.Fatalf("event ring has no %s event: %+v", obs.EvQueryAdmitted, ev.Events)
	}
}

// TestRejectSurfacesOnWire pins the typed reject field: a saturated
// service answers with ok=false and the machine-readable reason.
func TestRejectSurfacesOnWire(t *testing.T) {
	// A 40ms message delay holds the slot past the queue timeout: on an
	// undelayed network the query releases it in milliseconds and the
	// service never saturates.
	c, err := piertest.New(piertest.Options{N: 2, Seed: 42, NetCfg: &simnet.Config{MinLatency: 40 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	svc := engine.New(c.Nodes[0], engine.Config{
		MaxInFlight: 1, MaxQueued: 1, QueueTimeout: 50 * time.Millisecond,
	})
	defer svc.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, svc)
	defer srv.Close()

	a := dial(t, srv.Addr().String())
	a.must(Request{Op: "create", Table: "t",
		Cols: []string{"k:string", "v:int"}, Key: []string{"k"}, TTLMS: 60_000})

	// Three concurrent queries on one connection: a slot-holder, a
	// queue-timeout, and an immediate shed. Which query lands in which
	// state is scheduling-dependent; the wire contract is that exactly
	// one succeeds and the rejects carry typed reasons.
	ids := make([]uint64, 3)
	for i := range ids {
		a.nextID++
		ids[i] = a.nextID
		if err := a.enc.Encode(Request{ID: ids[i], Op: "query", SQL: "SELECT COUNT(*) FROM t"}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(20 * time.Millisecond) // order arrivals
	}
	okCount, rejects := 0, map[string]int{}
	for i := 0; i < 3; i++ {
		select {
		case resp := <-a.resps:
			if resp.OK {
				okCount++
			} else {
				if resp.Reject == "" {
					t.Fatalf("rejection without typed reason: %+v", resp)
				}
				rejects[resp.Reject]++
			}
		case <-time.After(30 * time.Second):
			t.Fatal("missing responses")
		}
	}
	if okCount != 1 || rejects[engine.RejectQueueTimeout] != 1 || rejects[engine.RejectOverloaded] != 1 {
		t.Fatalf("ok=%d rejects=%v, want 1 ok, 1 queue-timeout, 1 overloaded", okCount, rejects)
	}
}

// TestThousandConnections: a thousand connections each send one query
// at once, queueing far past the service's in-flight bound. Every one
// is answered, ok or rejected with a typed reason; none errors and
// none hangs.
func TestThousandConnections(t *testing.T) {
	c, err := piertest.New(piertest.Options{N: 4, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	svc := engine.New(c.Nodes[0], engine.Config{
		MaxInFlight: 16, MaxQueued: 4096, QueueTimeout: time.Minute,
	})
	defer svc.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, svc)
	defer srv.Close()
	addr := srv.Addr().String()

	a := dial(t, addr)
	a.must(Request{Op: "create", Table: "t",
		Cols: []string{"k:string", "v:int"}, Key: []string{"k"}, TTLMS: 60_000})
	for i := 0; i < 4; i++ {
		a.must(Request{Op: "insert", Table: "t", Values: []interface{}{fmt.Sprintf("key-%d", i), i}})
	}
	statements := []string{
		"SELECT COUNT(*) FROM t",
		"SELECT SUM(v) FROM t",
		"SELECT k, v FROM t ORDER BY v DESC LIMIT 2",
	}

	const conns = 1000
	// ask sends one query on a fresh connection and reads its answer.
	ask := func(i int) (Response, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return Response{}, err
		}
		defer conn.Close()
		if err := conn.SetDeadline(time.Now().Add(2 * time.Minute)); err != nil {
			return Response{}, err
		}
		req := Request{ID: 1, Op: "query", SQL: statements[i%len(statements)]}
		if err := json.NewEncoder(conn).Encode(req); err != nil {
			return Response{}, err
		}
		sc := bufio.NewScanner(conn)
		if !sc.Scan() {
			return Response{}, fmt.Errorf("no answer: %v", sc.Err())
		}
		var resp Response
		err = json.Unmarshal(sc.Bytes(), &resp)
		return resp, err
	}
	type answer struct {
		resp Response
		err  error
	}
	answers := make(chan answer, conns)
	for i := 0; i < conns; i++ {
		go func(i int) {
			resp, err := ask(i)
			answers <- answer{resp, err}
		}(i)
	}
	ok, rejects := 0, map[string]int{}
	for i := 0; i < conns; i++ {
		ans := <-answers
		switch {
		case ans.err != nil:
			t.Fatalf("connection failed: %v", ans.err)
		case ans.resp.OK:
			ok++
		case ans.resp.Reject != "":
			rejects[ans.resp.Reject]++
		default:
			t.Fatalf("query failed: %s", ans.resp.Error)
		}
	}
	t.Logf("%d of %d answered ok, rejected %v", ok, conns, rejects)
}

// TestCreateAndInsertInputs holds create's and insert's input checks:
// a bad definition is refused, and an inserted value is parsed by its
// column's type — exactly, or refused. A JSON number never passes
// through float64, so a fraction, an integer past 2^53 and one past
// int64 are told apart; a string parses the way a number does.
func TestCreateAndInsertInputs(t *testing.T) {
	c, err := piertest.New(piertest.Options{N: 2, Seed: 44})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	svc := engine.New(c.Nodes[0], engine.Config{})
	defer svc.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, svc)
	defer srv.Close()
	a := dial(t, srv.Addr().String())

	for _, bad := range []Request{
		{Cols: []string{"a:quux"}},
		{Cols: []string{"col-without-type"}},
		{Cols: []string{"a:int"}, Key: []string{"missing_col"}},
	} {
		bad.Op, bad.Table = "create", "bad"
		if resp := a.call(bad); resp.OK {
			t.Errorf("create %v %v succeeded", bad.Cols, bad.Key)
		}
	}
	a.must(Request{Op: "create", Table: "t", Key: []string{"k"},
		Cols: []string{"k:string", "i:int", "f:float", "b:bool", "at:time"}})

	const at = "2026-01-02T03:04:05Z"
	n := func(s string) json.Number { return json.Number(s) }
	cases := []struct {
		table  string
		values []interface{}
		want   string // the stored row as %v prints it; "" = refused
	}{
		{"t", []interface{}{"plain", n("42"), n("2.5"), true, at}, "[plain 42 2.5 true " + at + "]"},
		{"t", []interface{}{"text", "42", "2.5", "true", at}, "[text 42 2.5 true " + at + "]"},
		{"t", []interface{}{"exact", n("9007199254740993"), n("1e300"), false, at}, "[exact 9007199254740993 1e+300 false " + at + "]"},
		{"t", []interface{}{"min", n("-9223372036854775808"), n("-0.5"), "false", at}, "[min -9223372036854775808 -0.5 false " + at + "]"},
		{"t", []interface{}{"fraction", n("2.5"), n("1"), true, at}, ""},
		{"t", []interface{}{"negfraction", n("-0.9"), n("1"), true, at}, ""},
		{"t", []interface{}{"exponent", n("1e300"), n("1"), true, at}, ""},
		{"t", []interface{}{"overflow", n("9223372036854775808"), n("1"), true, at}, ""},
		{"t", []interface{}{"notanint", "x", n("1"), true, at}, ""},
		{"t", []interface{}{"floatrange", n("1"), n("1e400"), true, at}, ""},
		{"t", []interface{}{"nan", n("1"), "NaN", true, at}, ""},
		{"t", []interface{}{"numberbool", n("1"), n("1"), n("1"), at}, ""},
		{"t", []interface{}{n("7"), n("1"), n("1"), true, at}, ""},
		{"t", []interface{}{"badtime", n("1"), n("1"), true, "yesterday"}, ""},
		{"t", []interface{}{"arity", n("1")}, ""},
		{"missing", []interface{}{"a", n("1")}, ""},
	}
	for _, tc := range cases {
		resp := a.call(Request{Op: "insert", Table: tc.table, Local: true, Values: tc.values})
		if tc.want == "" {
			if resp.OK {
				t.Errorf("insert %v succeeded, want refused", tc.values)
			}
			continue
		}
		if !resp.OK {
			t.Errorf("insert %v: %s", tc.values, resp.Error)
		}
	}
	stored := map[string]string{}
	for _, it := range c.Nodes[0].Store().LScan("table:t") {
		row, err := tuple.FromBytes(it.Payload)
		if err != nil {
			t.Fatal(err)
		}
		stored[row[0].S] = fmt.Sprintf("[%s %d %g %t %s]",
			row[0].S, row[1].I, row[2].F, row[3].B, row[4].AsTime().UTC().Format(time.RFC3339))
	}
	for _, tc := range cases {
		if key, _ := tc.values[0].(string); tc.want != "" && stored[key] != tc.want {
			t.Errorf("stored %q, want %q", stored[key], tc.want)
		}
	}
	if len(stored) != 4 {
		t.Errorf("%d rows stored, want 4: %v", len(stored), stored)
	}
}
