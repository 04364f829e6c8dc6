package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/pier"
	"repro/internal/piertest"
	"repro/internal/server"
	"repro/internal/tuple"
)

const prompt = "pier> "

// serve starts a cluster and serves its node 0 on 127.0.0.1:0, as
// pierd does.
func serve(t *testing.T, opts piertest.Options) (*piertest.Cluster, string) {
	t.Helper()
	c, err := piertest.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	svc := engine.New(c.Nodes[0], engine.Config{})
	t.Cleanup(svc.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.Serve(ln, svc)
	t.Cleanup(srv.Close)
	return c, srv.Addr().String()
}

// session drives shell over pipes: a command goes in as one line and
// what the shell prints for it is read up to its next prompt.
type session struct {
	t    *testing.T
	in   *io.PipeWriter
	out  *bufio.Reader
	done chan struct{}
}

func attach(t *testing.T, addr string, explain bool) *session {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	inR, inW := io.Pipe()
	outR, outW := io.Pipe()
	s := &session{t: t, in: inW, out: bufio.NewReader(outR), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		shell(inR, outW, conn, explain)
		outW.Close()
	}()
	t.Cleanup(func() {
		inW.Close()
		io.Copy(io.Discard, outR)
		<-s.done
		conn.Close()
	})
	if got := s.read(); got != "" {
		t.Fatalf("shell printed %q before its first prompt", got)
	}
	return s
}

// read returns what the shell prints up to its next prompt.
func (s *session) read() string {
	s.t.Helper()
	var buf []byte
	for !bytes.HasSuffix(buf, []byte(prompt)) {
		b, err := s.out.ReadByte()
		if err != nil {
			s.t.Fatalf("shell output ended (%v) after %q", err, buf)
		}
		buf = append(buf, b)
	}
	return string(buf[:len(buf)-len(prompt)])
}

// do runs one command and returns its output.
func (s *session) do(cmd string) string {
	s.t.Helper()
	if _, err := fmt.Fprintln(s.in, cmd); err != nil {
		s.t.Fatal(err)
	}
	return s.read()
}

// want runs cmd and fails unless its output holds every part; with no
// parts, unless it prints nothing.
func (s *session) want(cmd string, parts ...string) string {
	s.t.Helper()
	out := s.do(cmd)
	if len(parts) == 0 && out != "" {
		s.t.Fatalf("%s: %s", cmd, out)
	}
	for _, p := range parts {
		if !strings.Contains(out, p) {
			s.t.Fatalf("%s: output lacks %q:\n%s", cmd, p, out)
		}
	}
	return out
}

// until repeats cmd until its output holds part.
func (s *session) until(cmd, part string) {
	s.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		out := s.do(cmd)
		if strings.Contains(out, part) {
			return
		}
		if time.Now().After(deadline) {
			s.t.Fatalf("%s: output never held %q; last:\n%s", cmd, part, out)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// feed inserts a row into node's local partition of table (k:string,
// v:int) every 10ms until the test ends, so windows have rows to
// report.
func feed(t *testing.T, node *pier.Node, table string) {
	stop := make(chan struct{})
	done := make(chan struct{})
	t.Cleanup(func() { close(stop); <-done })
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(10 * time.Millisecond):
			}
			node.PublishLocal(table, tuple.Tuple{tuple.String(fmt.Sprintf("s%d", i%3)), tuple.Int(int64(i))})
		}
	}()
}

// TestShellCommands drives every shell command against a live pierd
// front door.
func TestShellCommands(t *testing.T) {
	c, addr := serve(t, piertest.Options{N: 3, Seed: 51})
	s := attach(t, addr, false)

	const at = "2026-01-02T03:04:05Z"
	s.want(`\create kv k:string,v:int,f:float,b:bool,at:time key k ttl 5m`)
	s.want(`\tables`, "kv (5 cols, ttl 5m0s)")
	s.want(`\insert kv hello, 42, 2.5, true, ` + at)
	s.want(`\insert kv big, 9007199254740993, 0.5, false, ` + at)
	s.want(`SELECT k, v, f, b, at FROM kv WHERE k = 'hello'`,
		"[k v f b at]", "[hello 42 2.5 true "+at+"]", "(1 rows, 3 participants")
	s.want(`SELECT v FROM kv WHERE k = 'big'`, "[9007199254740993]")
	s.want(`\put kv placed, 7, 1.5, false, ` + at)
	s.until(`SELECT v FROM kv WHERE k = 'placed'`, "[7]")

	s.want(`\explain SELECT COUNT(*) FROM kv`, "Query (one-shot)", "Coordinator")
	s.want(`\explain SELECT nope FROM`, "error:")
	s.want(`\prepare cnt SELECT COUNT(*) FROM kv`, `prepared "cnt"`)
	s.want(`\exec cnt`, "[3]", "(1 rows")
	s.want(`\exec nope`, "error:")
	s.want(`\cache`, "plan cache:", "hits", "SELECT COUNT(*) FROM kv")

	s.want(`\analyze kv`, "[table rows column distinct]", "[kv 3 ")
	s.want(`ANALYZE kv`, "[table rows column distinct]")
	s.want(`\create link src:string,dst:string key src,dst`)
	s.want(`\insert link a,b`)
	s.want(`\insert link b,c`)
	s.want(`WITH RECURSIVE reach AS (SELECT src, dst FROM link UNION SELECT reach.src, l.dst FROM link l JOIN reach ON reach.dst = l.src) SELECT src, dst FROM reach ORDER BY src, dst`,
		"[a b]", "[a c]", "[b c]", "(3 rows")

	out := s.want(`\metrics engine_`, "engine_admitted_total")
	for _, l := range strings.Split(strings.TrimSpace(out), "\n") {
		if !strings.HasPrefix(l, "engine_") {
			t.Fatalf(`\metrics engine_ printed %q`, l)
		}
	}
	s.want(`\metrics`, "pier_queries_coordinated_total", "dht_puts_total")
	s.want(`\trace`, "(coordinator)")
	s.want(`\trace 999999`, "error: no trace")
	s.want(`\trace x`, "error: usage")
	s.want(`\events`, "query-admitted")

	// A continuous statement prints 10 windows and ends its
	// subscription, typed or prepared.
	s.want(`\create stream k:string,v:int key k`)
	feed(t, c.Nodes[0], "stream")
	const live = "SELECT COUNT(*) FROM stream WINDOW 100 ms SLIDE 100 ms"
	s.want(live, "(continuous; showing 10 windows)", "[w")
	s.want(`\prepare live `+live, `prepared "live"`)
	s.want(`\exec live`, "(continuous; showing 10 windows)", "[w")
	s.want(`\nonsense`, "error: unrecognized command")

	if _, err := fmt.Fprintln(s.in, `\quit`); err != nil {
		t.Fatal(err)
	}
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		t.Fatal(`shell did not return on \quit`)
	}
}

// TestDoCreate: \create defines a table on the node pierd serves,
// with its columns, key and ttl.
func TestDoCreate(t *testing.T) {
	c, addr := serve(t, piertest.Options{N: 1, Seed: 55})
	s := attach(t, addr, false)
	s.want(`\create sensors name:string,temp:float,count:int key name ttl 30s`)
	s.want(`\tables`, "sensors (3 cols, ttl 30s)")
	tbl, ok := c.Nodes[0].Catalog().Lookup("sensors")
	if !ok {
		t.Fatal("table not defined")
	}
	if tbl.Schema.Arity() != 3 || tbl.TTL != 30*time.Second {
		t.Fatalf("%+v", tbl)
	}
	if len(tbl.Schema.Key) != 1 || tbl.Schema.Key[0] != 0 {
		t.Fatalf("key %v", tbl.Schema.Key)
	}
}

// TestDoCreateErrors: a malformed \create prints an error and defines
// nothing.
func TestDoCreateErrors(t *testing.T) {
	c, addr := serve(t, piertest.Options{N: 1, Seed: 56})
	s := attach(t, addr, false)
	for _, cmd := range []string{
		`\create`,
		`\create t`,
		`\create t col-without-type`,
		`\create t a:quux`,
		`\create t a:int key missing_col`,
		`\create t a:int ttl notaduration`,
	} {
		s.want(cmd, "error:")
	}
	s.want(`\create t`, "error: usage")
	s.want(`\create t a:quux`, "quux")
	if _, ok := c.Nodes[0].Catalog().Lookup("t"); ok {
		t.Fatal("a failed create defined t")
	}
}

// TestDoInsert: \insert values travel as text and are parsed by their
// column's type, a time column and an int past 2^53 included.
func TestDoInsert(t *testing.T) {
	c, addr := serve(t, piertest.Options{N: 1, Seed: 57})
	s := attach(t, addr, false)
	const at = "2026-01-02T03:04:05Z"
	s.want(`\create kv k:string,v:int,f:float,b:bool,at:time key k`)
	s.want(`\insert kv hello, 42, 2.5, true, ` + at)
	s.want(`\insert kv big, 9007199254740993, 0.5, false, ` + at)
	if items := c.Nodes[0].Store().LScan("table:kv"); len(items) != 2 {
		t.Fatalf("%d items", len(items))
	}
	s.want(`SELECT k, v, f, b, at FROM kv WHERE k = 'hello'`, "[hello 42 2.5 true "+at+"]", "(1 rows")
	s.want(`SELECT v FROM kv WHERE k = 'big'`, "[9007199254740993]")
}

// TestDoInsertErrors: an unknown table, a wrong number of values, a
// value its column cannot hold and a missing row each print an error
// and store nothing.
func TestDoInsertErrors(t *testing.T) {
	c, addr := serve(t, piertest.Options{N: 1, Seed: 58})
	s := attach(t, addr, false)
	s.want(`\create kv k:string,v:int key k`)
	for _, cmd := range []string{
		`\insert missingtable a,1`,
		`\insert kv onlyonevalue`,
		`\insert kv a,notanint`,
		`\insert kv a,1.5`,
		`\insert kv`,
	} {
		s.want(cmd, "error:")
	}
	s.want(`\insert kv`, "error: usage")
	if items := c.Nodes[0].Store().LScan("table:kv"); len(items) != 0 {
		t.Fatalf("failed inserts stored %d items", len(items))
	}
}

// TestShellExplain: under -explain a query, a prepared statement and a
// subscription each print their EXPLAIN ANALYZE report.
func TestShellExplain(t *testing.T) {
	c, addr := serve(t, piertest.Options{N: 2, Seed: 52})
	s := attach(t, addr, true)
	s.want(`\create kv k:string,v:int key k`)
	s.want(`\insert kv a,1`)
	s.want(`SELECT COUNT(*) FROM kv`, "[1]", "EXPLAIN ANALYZE", "completion: eos")
	s.want(`\prepare cnt SELECT COUNT(*) FROM kv`, `prepared "cnt"`)
	s.want(`\exec cnt`, "[1]", "EXPLAIN ANALYZE")
	feed(t, c.Nodes[0], "kv")
	s.want("SELECT COUNT(*) FROM kv WINDOW 100 ms SLIDE 100 ms", "[w", "EXPLAIN ANALYZE", "fan-out")
}

// TestStatsDisplayAndQualifiedNames: declared statistics accept
// qualified column names and show under their base name.
func TestStatsDisplayAndQualifiedNames(t *testing.T) {
	_, addr := serve(t, piertest.Options{N: 2, Seed: 53})
	s := attach(t, addr, false)
	s.want(`\stats`, "(no tables defined)")
	s.want(`\create t k:string,v:int key k`)
	s.want(`\create u k:string key k`)
	s.want(`\stats t`, "default")
	s.want(`\stats t 100 t.v=40`)
	out := s.want(`\stats t`, "declared", "100", "v=40")
	if strings.Contains(out, "u ") {
		t.Fatalf(`\stats t printed another table:\n%s`, out)
	}
	s.want(`\stats`, "table", "t ", "u ")
	s.want(`\stats missing`, "error: unknown table")
	s.want(`\stats t many`, "error: bad row count")
	s.want(`\stats t 1 v`, "error: distinct spec")
	s.want(`\stats missing 1`, "error:")
}

// TestCoverageNote: a result short of every member's partitions is
// flagged. One of three nodes is down while the ring still delegates
// to it, so a query ends churn-degraded with two thirds of the
// partitions.
func TestCoverageNote(t *testing.T) {
	c, addr := serve(t, piertest.Options{N: 3, Seed: 54})
	s := attach(t, addr, false)
	s.want(`\create kv k:string,v:int key k`)
	s.want(`\insert kv a,1`)
	c.Net.SetDown(c.Nodes[2].Addr(), true)
	s.want(`SELECT COUNT(*) FROM kv`, "[1]", ", INCOMPLETE: churn-degraded, COVERAGE 67%)")
	if got := notes("eos", 1); got != "" {
		t.Fatalf("a full result is flagged %q", got)
	}
	if got := notes("eos", 0); got != ", COVERAGE 0%" {
		t.Fatalf("a result that covered no partition is flagged %q", got)
	}
}
