package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/server"
	"repro/internal/tuple"
)

// opResult is one completed client op.
type opResult struct {
	kind    string
	at      time.Duration // when it completed, from the start of the load
	latency time.Duration // request written -> response parsed and checked
	decode  time.Duration // the generator's own JSON decode, inside latency
	bytes   int           // response line length
	rows    int
	// failure is empty for a success; otherwise why the op counts as
	// failed. wrong marks an answer the system claimed complete (eos,
	// full coverage) that disagrees with the generator's expectation.
	failure string
	wrong   bool
}

type loadResult struct {
	ops     []opResult
	elapsed time.Duration // first request sent -> last response checked
}

func (r *loadResult) failed() int {
	n := 0
	for i := range r.ops {
		if r.ops[i].failure != "" {
			n++
		}
	}
	return n
}

// failures describes every failed op, earliest first.
func (r *loadResult) failures() []string {
	var failed []*opResult
	for i := range r.ops {
		if r.ops[i].failure != "" {
			failed = append(failed, &r.ops[i])
		}
	}
	sort.Slice(failed, func(a, b int) bool { return failed[a].at < failed[b].at })
	out := make([]string, len(failed))
	for i, o := range failed {
		out[i] = fmt.Sprintf("%s op at %.2fs after %.1fms: %s", o.kind, o.at.Seconds(), ms(o.latency), o.failure)
	}
	return out
}

// firstFailure describes the earliest failed op, "" when none failed.
func (r *loadResult) firstFailure() string {
	if f := r.failures(); len(f) > 0 {
		return f[0]
	}
	return ""
}

// latencies returns the latencies (ms) of the successful ops keep
// selects.
func (r *loadResult) latencies(keep func(kind string) bool) []float64 {
	var out []float64
	for i := range r.ops {
		if o := &r.ops[i]; o.failure == "" && keep(o.kind) {
			out = append(out, ms(o.latency))
		}
	}
	return out
}

func isQuery(kind string) bool  { return kind != "insert" }
func isInsert(kind string) bool { return kind == "insert" }

// client is one pierd connection speaking the line-JSON protocol.
type client struct {
	conn net.Conn
	enc  *json.Encoder
	sc   *bufio.Scanner
	next uint64
}

func dial(addr string) (*client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(conn)
	// A 16 000-row join answer is one ~400 KB line.
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	return &client{conn: conn, enc: json.NewEncoder(conn), sc: sc}, nil
}

func (c *client) close() { c.conn.Close() }

func (c *client) send(req server.Request) (uint64, error) {
	c.next++
	req.ID = c.next
	return req.ID, c.enc.Encode(req)
}

// recv reads one response line, returning it decoded with the line
// length and the time the decode took.
func (c *client) recv() (*server.Response, int, time.Duration, error) {
	if !c.sc.Scan() {
		err := c.sc.Err()
		if err == nil {
			err = fmt.Errorf("connection closed")
		}
		return nil, 0, 0, err
	}
	line := c.sc.Bytes()
	start := time.Now()
	var resp server.Response
	if err := json.Unmarshal(line, &resp); err != nil {
		return nil, len(line), 0, err
	}
	return &resp, len(line), time.Since(start), nil
}

// check decides whether a response is a success for the op that
// asked for it.
func check(o op, resp *server.Response) (failure string, wrong bool) {
	switch {
	case resp.Reject != "":
		return "rejected: " + resp.Reject, false
	case !resp.OK:
		return "error: " + resp.Error, false
	case o.kind == "insert":
		return "", false
	}
	got := rowsAnswer(resp.Rows)
	complete := resp.Reason == "eos" && resp.Coverage >= 1
	switch {
	case !complete:
		return fmt.Sprintf("incomplete: reason=%s coverage=%.3f rows=%d want %d", resp.Reason, resp.Coverage, got.rows, o.want.rows), false
	case got != o.want:
		return fmt.Sprintf("wrong answer to %q: %d rows sum %x, want %d rows sum %x", o.req.SQL, got.rows, got.sum, o.want.rows, o.want.sum), true
	}
	return "", false
}

// runLoad drives the workload's closed loop against addr: every
// connection keeps depth requests outstanding (it sends depth
// requests, then reads one response and sends one request) until
// stop(sent) says so, then drains what is outstanding. Every op sent
// is in the result.
func runLoad(addr string, ds *dataset, seed int64, stop func(sent int) bool) (*loadResult, error) {
	w := ds.w
	clients := make([]*client, w.conns)
	for i := range clients {
		c, err := dial(addr)
		if err != nil {
			for _, c := range clients[:i] {
				c.close()
			}
			return nil, err
		}
		clients[i] = c
	}
	results := make([][]opResult, w.conns)
	errs := make([]error, w.conns)
	var wg sync.WaitGroup
	start := time.Now()
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			defer c.close()
			rng := rand.New(rand.NewSource(seed*1009 + int64(i)))
			results[i], errs[i] = c.loop(ds, rng, w.depth, start, stop)
		}(i, c)
	}
	wg.Wait()
	out := &loadResult{elapsed: time.Since(start)}
	for i := range results {
		out.ops = append(out.ops, results[i]...)
		if errs[i] != nil {
			return out, errs[i]
		}
	}
	return out, nil
}

type pendingOp struct {
	op   op
	sent time.Time
}

func (c *client) loop(ds *dataset, rng *rand.Rand, depth int, start time.Time, stop func(sent int) bool) ([]opResult, error) {
	pending := make(map[uint64]pendingOp, depth)
	var out []opResult
	sent := 0
	issue := func() error {
		o := ds.nextOp(rng)
		t := time.Now()
		id, err := c.send(o.req)
		if err != nil {
			return err
		}
		pending[id] = pendingOp{op: o, sent: t}
		sent++
		return nil
	}
	for len(pending) < depth && !stop(sent) {
		if err := issue(); err != nil {
			return out, err
		}
	}
	for len(pending) > 0 {
		resp, n, dec, err := c.recv()
		if err != nil {
			// The connection is gone: everything outstanding failed.
			for _, p := range pending {
				out = append(out, opResult{kind: p.op.kind, failure: "transport: " + err.Error()})
			}
			return out, nil
		}
		p, ok := pending[resp.ID]
		if !ok {
			return out, fmt.Errorf("response for unknown request id %d", resp.ID)
		}
		delete(pending, resp.ID)
		failure, wrong := check(p.op, resp)
		now := time.Now()
		out = append(out, opResult{
			kind: p.op.kind, at: now.Sub(start), latency: now.Sub(p.sent), decode: dec,
			bytes: n, rows: len(resp.Rows), failure: failure, wrong: wrong,
		})
		if !stop(sent) {
			if err := issue(); err != nil {
				return out, err
			}
		}
	}
	return out, nil
}

// roundTrip is one sequential request/response (the traced pass).
func (c *client) roundTrip(req server.Request) (*server.Response, error) {
	id, err := c.send(req)
	if err != nil {
		return nil, err
	}
	resp, _, _, err := c.recv()
	if err != nil {
		return nil, err
	}
	if resp.ID != id {
		return nil, fmt.Errorf("response id %d, want %d", resp.ID, id)
	}
	return resp, nil
}

// jsonRows renders tuples in the shape a pierd client decodes them to.
func jsonRows(rows []tuple.Tuple) [][]interface{} {
	out := make([][]interface{}, len(rows))
	for i, r := range rows {
		row := make([]interface{}, len(r))
		for j, v := range r {
			switch v.Kind {
			case tuple.TInt:
				row[j] = float64(v.I)
			case tuple.TFloat:
				row[j] = v.F
			case tuple.TString:
				row[j] = v.S
			case tuple.TBool:
				row[j] = v.B
			}
		}
		out[i] = row
	}
	return out
}
