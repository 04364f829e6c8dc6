// Command pier is an interactive SQL shell for a PIER cluster. It is a
// client of one pierd node's line-JSON front door (internal/server):
// every command is one request to that node, which takes the query
// for the whole cluster.
//
// Start pierd nodes (see cmd/pierd), then attach to any of them:
//
//	pier -connect 127.0.0.1:7070
//
// Shell commands:
//
//	\create <table> <col:type,...> key <col,...> [ttl <dur>]
//	\insert <table> <val,...>     -- into the node's local partition
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
//	SELECT ... WINDOW 5 s SLIDE 1 s  -- continuous (prints 10 windows, then ends it)
//
// Tables are per node: \create defines a table on the node the shell
// is attached to. With -explain, every query and subscription runs as
// EXPLAIN ANALYZE and prints the per-operator pipeline counters
// gathered from every node.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/server"
)

func main() {
	log.SetFlags(0)
	connect := flag.String("connect", "127.0.0.1:7070", "client address of the pierd node to attach to (its -serve)")
	explain := flag.Bool("explain", false, "run queries as EXPLAIN ANALYZE: print the per-operator pipeline counters gathered from every node after the rows")
	flag.Parse()

	conn, err := net.Dial("tcp", *connect)
	if err != nil {
		log.Fatal(err)
	}
	defer conn.Close()
	shell(os.Stdin, os.Stdout, conn, *explain)
}

// errLost marks a failed read or write on the connection: the shell
// cannot go on.
var errLost = errors.New("connection to pierd lost")

// shell reads commands from in, sends each to the pierd node on conn
// and prints what it answers to out.
func shell(in io.Reader, out io.Writer, conn net.Conn, explain bool) {
	c := &client{conn: conn, lines: bufio.NewScanner(conn), out: out,
		explain: explain, continuous: make(map[string]bool)}
	c.lines.Buffer(make([]byte, 0, 64*1024), 64<<20)
	sc := bufio.NewScanner(in)
	fmt.Fprint(out, "pier> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == `\quit` || line == `\q` {
			return
		}
		if err := c.run(line); err != nil {
			fmt.Fprintln(out, "error:", err)
			if errors.Is(err, errLost) {
				return
			}
		}
		fmt.Fprint(out, "pier> ")
	}
}

// client is the shell's end of one pierd connection. The shell has
// one request in flight at a time, so the next response answers it;
// subscription windows arrive as events in between.
type client struct {
	conn    net.Conn
	lines   *bufio.Scanner
	out     io.Writer
	explain bool
	nextID  uint64
	// continuous records which of the connection's prepared
	// statements are continuous: \exec subscribes to those.
	continuous map[string]bool
}

func (c *client) run(line string) error {
	cmd, arg, _ := strings.Cut(line, " ")
	arg = strings.TrimSpace(arg)
	switch cmd {
	case "":
		return nil
	case `\create`:
		return c.create(arg)
	case `\insert`:
		return c.insert(arg, true)
	case `\put`:
		return c.insert(arg, false)
	case `\tables`:
		tables, err := c.tables()
		for _, t := range tables {
			fmt.Fprintf(c.out, "  %s (%d cols, ttl %v)\n", t.Name, len(t.Cols), ms(t.TTLMS))
		}
		return err
	case `\stats`:
		return c.stats(strings.Fields(arg))
	case `\analyze`:
		return c.query("ANALYZE " + strings.Join(strings.Fields(arg), ", "))
	case `\explain`:
		resp, err := c.call(server.Request{Op: "explain", SQL: arg})
		fmt.Fprint(c.out, resp.Plan)
		return err
	case `\prepare`:
		name, sql, ok := strings.Cut(arg, " ")
		if !ok {
			return errors.New(`usage: \prepare <name> SELECT ...`)
		}
		if _, err := c.call(server.Request{Op: "prepare", Name: name, SQL: sql, Analyze: c.explain}); err != nil {
			return err
		}
		c.continuous[name] = isContinuous(sql)
		fmt.Fprintf(c.out, "prepared %q\n", name)
		return nil
	case `\exec`:
		if c.continuous[arg] {
			return c.subscribe(server.Request{Op: "subscribe", Name: arg})
		}
		resp, err := c.call(server.Request{Op: "exec", Name: arg})
		if err == nil {
			c.printResult(resp)
		}
		return err
	case `\cache`:
		resp, err := c.call(server.Request{Op: "cache"})
		if err != nil {
			return err
		}
		st := resp.Cache
		fmt.Fprintf(c.out, "plan cache: %d entries, %d hits, %d misses, %d evictions, %d invalidations (hit rate %.0f%%)\n",
			st.Entries, st.Hits, st.Misses, st.Evictions, st.Invalidations, st.HitRate()*100)
		for _, e := range resp.Entries {
			key, _, _ := strings.Cut(e.Key, "|strat=")
			fmt.Fprintf(c.out, "  epoch=%-4d hits=%-6d %dB  %s\n", e.Epoch, e.Hits, e.Bytes, key)
		}
		return nil
	case `\metrics`:
		resp, err := c.call(server.Request{Op: "metrics"})
		for _, l := range strings.SplitAfter(resp.Metrics, "\n") {
			if strings.HasPrefix(l, arg) {
				fmt.Fprint(c.out, l)
			}
		}
		return err
	case `\trace`:
		req := server.Request{Op: "trace"}
		if arg != "" {
			qid, err := strconv.ParseUint(arg, 10, 64)
			if err != nil {
				return errors.New(`usage: \trace [qid]`)
			}
			req.Query = qid
		}
		resp, err := c.call(req)
		fmt.Fprint(c.out, resp.TraceText)
		return err
	case `\events`:
		resp, err := c.call(server.Request{Op: "events"})
		for _, ev := range resp.Events {
			fmt.Fprintf(c.out, "  %s %-4s %-16s q=%-6d %s\n",
				ev.Time.Format("15:04:05.000"), ev.Severity, ev.Kind, ev.Query, ev.Msg)
		}
		return err
	}
	switch strings.ToUpper(cmd) {
	case "SELECT", "WITH", "ANALYZE":
		return c.query(line)
	}
	return errors.New(`unrecognized command; try SELECT ..., ANALYZE, \create, \insert, \put, \tables, \stats, \analyze, \explain, \prepare, \exec, \cache, \metrics, \trace, \events, \quit`)
}

// call sends req and returns its response; a response with ok false
// comes back with its error.
func (c *client) call(req server.Request) (server.Response, error) {
	c.nextID++
	req.ID = c.nextID
	line, err := json.Marshal(req)
	if err != nil {
		return server.Response{}, err
	}
	if _, err := c.conn.Write(append(line, '\n')); err != nil {
		return server.Response{}, fmt.Errorf("%w: %v", errLost, err)
	}
	for {
		ev, resp, err := c.read()
		if err != nil {
			return server.Response{}, err
		}
		// Events of a subscription ended a moment ago may still come.
		if ev == nil && resp.ID == req.ID {
			if !resp.OK {
				return resp, errors.New(resp.Error)
			}
			return resp, nil
		}
	}
}

// read decodes the next line from the server: a window event, or else
// a response. Numbers decode as json.Number, so an int64 prints as it
// was stored.
func (c *client) read() (*server.Event, server.Response, error) {
	var resp server.Response
	if !c.lines.Scan() {
		err := c.lines.Err()
		if err == nil {
			err = io.EOF
		}
		return nil, resp, fmt.Errorf("%w: %v", errLost, err)
	}
	var ev server.Event
	if err := decode(c.lines.Bytes(), &ev); err != nil {
		return nil, resp, err
	}
	if ev.Event != "" {
		return &ev, resp, nil
	}
	return nil, resp, decode(c.lines.Bytes(), &resp)
}

func decode(line []byte, v interface{}) error {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.UseNumber()
	return dec.Decode(v)
}

// create sends "\create name col:type,... [key col,...] [ttl dur]".
func (c *client) create(arg string) error {
	fields := strings.Fields(arg)
	if len(fields) < 2 || len(fields)%2 != 0 {
		return errors.New(`usage: \create <table> <col:type,...> [key <col,...>] [ttl <dur>]`)
	}
	req := server.Request{Op: "create", Table: fields[0], Cols: strings.Split(fields[1], ",")}
	for i := 2; i < len(fields); i += 2 {
		switch strings.ToLower(fields[i]) {
		case "key":
			req.Key = strings.Split(fields[i+1], ",")
		case "ttl":
			d, err := time.ParseDuration(fields[i+1])
			if err != nil {
				return err
			}
			req.TTLMS = d.Milliseconds()
		default:
			return fmt.Errorf("unknown clause %q; want key or ttl", fields[i])
		}
	}
	_, err := c.call(req)
	return err
}

// insert sends "\insert table v1,v2,...": the node parses each value
// by its column's type.
func (c *client) insert(arg string, local bool) error {
	table, vals, ok := strings.Cut(arg, " ")
	if !ok {
		return errors.New(`usage: \insert <table> <val,...>`)
	}
	var values []interface{}
	for _, v := range strings.Split(vals, ",") {
		values = append(values, strings.TrimSpace(v))
	}
	_, err := c.call(server.Request{Op: "insert", Table: table, Values: values, Local: local})
	return err
}

func (c *client) tables() ([]server.TableInfo, error) {
	resp, err := c.call(server.Request{Op: "tables"})
	return resp.Tables, err
}

// stats prints every table's statistics, or one table's, or declares
// a table's: "<table> <rows> [col=distinct ...]".
func (c *client) stats(fields []string) error {
	if len(fields) >= 2 {
		req := server.Request{Op: "stats", Table: fields[0], Distinct: make(map[string]int64)}
		var err error
		if req.Rows, err = strconv.ParseInt(fields[1], 10, 64); err != nil {
			return fmt.Errorf("bad row count %q", fields[1])
		}
		for _, f := range fields[2:] {
			col, d, ok := strings.Cut(f, "=")
			if !ok {
				return fmt.Errorf("distinct spec %q must be col=count", f)
			}
			if req.Distinct[col], err = strconv.ParseInt(d, 10, 64); err != nil {
				return fmt.Errorf("bad distinct count %q", d)
			}
		}
		_, err = c.call(req)
		return err
	}
	tables, err := c.tables()
	if err != nil {
		return err
	}
	if len(fields) == 1 {
		i := 0
		for i < len(tables) && tables[i].Name != fields[0] {
			i++
		}
		if i == len(tables) {
			return fmt.Errorf("unknown table %q", fields[0])
		}
		tables = tables[i : i+1]
	}
	if len(tables) == 0 {
		fmt.Fprintln(c.out, "(no tables defined)")
		return nil
	}
	fmt.Fprintf(c.out, "%-16s %10s %-10s %-8s %s\n", "table", "rows", "source", "age", "distincts")
	for _, t := range tables {
		cols := make([]string, 0, len(t.Distinct))
		for col, d := range t.Distinct {
			cols = append(cols, fmt.Sprintf("%s=%d", col, d))
		}
		sort.Strings(cols)
		age := "-"
		if t.AgeMS > 0 {
			age = ms(t.AgeMS).Round(time.Second).String()
		}
		fmt.Fprintf(c.out, "%-16s %10d %-10s %-8s %s\n", t.Name, t.Rows, t.Source, age, strings.Join(cols, " "))
	}
	return nil
}

// query runs a one-shot statement, or subscribes to a continuous one.
func (c *client) query(sql string) error {
	if isContinuous(sql) {
		return c.subscribe(server.Request{Op: "subscribe", SQL: sql, Analyze: c.explain})
	}
	resp, err := c.call(server.Request{Op: "query", SQL: sql, Analyze: c.explain})
	if err == nil {
		c.printResult(resp)
	}
	return err
}

func isContinuous(sql string) bool { return strings.Contains(strings.ToUpper(sql), "WINDOW") }

func (c *client) printResult(resp server.Response) {
	fmt.Fprintf(c.out, "%v\n", resp.Columns)
	for _, row := range resp.Rows {
		fmt.Fprintf(c.out, "  %v\n", row)
	}
	d := time.Duration(resp.DurationMS * float64(time.Millisecond))
	fmt.Fprintf(c.out, "(%d rows, %d participants, %v%s)\n", len(resp.Rows), resp.Participants,
		d.Round(time.Millisecond), notes(resp.Reason, resp.Coverage))
	fmt.Fprint(c.out, resp.Analyze)
}

// notes flags a result that may be partial: a completion other than a
// clean end-of-stream, and coverage of less than every table partition
// (down to none at all).
func notes(reason string, coverage float64) string {
	var s string
	if reason != "" && reason != "eos" {
		s = ", INCOMPLETE: " + reason
	}
	if coverage < 1 {
		s += fmt.Sprintf(", COVERAGE %.0f%%", coverage*100)
	}
	return s
}

// subscribe prints 10 windows of a continuous statement, then ends the
// subscription (printing its EXPLAIN ANALYZE report under -explain).
func (c *client) subscribe(req server.Request) error {
	ack, err := c.call(req)
	if err != nil {
		return err
	}
	fmt.Fprintf(c.out, "%v  (continuous; showing 10 windows)\n", ack.Columns)
	for shown := 0; shown < 10; {
		ev, _, err := c.read()
		if err != nil {
			return err
		}
		if ev == nil || ev.Sub != ack.Sub {
			continue
		}
		if ev.Event == "end" {
			break
		}
		if ev.Error != "" {
			fmt.Fprintf(c.out, "  [w%d] error: %s\n", ev.Seq, ev.Error)
		}
		for _, row := range ev.Rows {
			fmt.Fprintf(c.out, "  [w%d] %v\n", ev.Seq, row)
		}
		shown++
	}
	resp, err := c.call(server.Request{Op: "unsubscribe", Sub: ack.Sub})
	fmt.Fprint(c.out, resp.Analyze)
	return err
}

func ms(n int64) time.Duration { return time.Duration(n) * time.Millisecond }
