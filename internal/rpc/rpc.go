// Package rpc layers request/response semantics over the unreliable
// datagram transports. It supplies exactly what the overlays need and
// nothing more: correlation of responses to requests, per-attempt
// timeouts, bounded retries, and one-way notifications.
//
// Reliability is end to end: a lost request or response is recovered
// by retransmission, so handlers must be idempotent — the same PIER
// soft-state discipline that makes duplicate tuples harmless.
package rpc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/wire"
)

// ErrTimeout is returned by Call when every attempt expired without a
// response.
var ErrTimeout = errors.New("rpc: timeout")

// ErrClosed is returned after the peer shuts down.
var ErrClosed = errors.New("rpc: closed")

// RemoteError wraps an error string produced by the remote handler.
type RemoteError struct {
	Method string
	Msg    string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("rpc: remote %s: %s", e.Method, e.Msg)
}

// Handler serves one method. The returned bytes become the response
// payload; a non-nil error is transported to the caller as a
// RemoteError. Handlers run on a reused worker of the peer's set (see
// Go), never on the transport's dispatch goroutine; they may block and
// may issue nested calls. req is a slice of the datagram, which the
// handler may keep (the transport never reuses it) but must not write:
// a retransmitted request reaches a second run of the handler as the
// same slice, possibly while the first still reads it.
type Handler func(from string, req []byte) ([]byte, error)

// Config tunes the client side.
type Config struct {
	// Timeout bounds each attempt. Zero means 500ms.
	Timeout time.Duration
	// Retries is the number of retransmissions after the first
	// attempt. Zero means 2.
	Retries int
	// NoRetry disables retransmission entirely (Retries = 0 then
	// means 0 rather than the default).
	NoRetry bool
}

func (c Config) withDefaults() Config {
	if c.Timeout == 0 {
		c.Timeout = 500 * time.Millisecond
	}
	if c.NoRetry {
		c.Retries = 0
	} else if c.Retries == 0 {
		c.Retries = 2
	}
	return c
}

const (
	kindRequest byte = iota
	kindResponse
	kindOneway
)

type pendingCall struct {
	ch chan callResult
}

type callResult struct {
	payload []byte
	err     error
}

// Peer is one node's RPC endpoint. It is safe for concurrent use.
type Peer struct {
	tr  transport.Transport
	cfg Config

	mu       sync.Mutex
	handlers map[string]Handler
	pending  map[uint64]*pendingCall
	closed   bool

	nextID atomic.Uint64

	workers workerSet

	obs     atomic.Pointer[obs.Registry]
	methods sync.Map // method → *methodMetrics
}

// methodMetrics holds one method's registry handles so the per-call
// cost is a sync.Map load plus a few atomic adds.
type methodMetrics struct {
	calls   *obs.Counter
	oneways *obs.Counter
	bytes   *obs.Counter
	retries *obs.Counter
	errors  *obs.Counter
	latency *obs.Histogram
}

// SetObs attaches a metrics registry. Overlays construct the Peer, so
// the owning node wires observability in after the fact; until then
// (and on nil) instrumentation is skipped.
func (p *Peer) SetObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	p.obs.Store(reg)
}

// method returns the cached metric bundle for a method, or nil when no
// registry is attached.
func (p *Peer) method(method string) *methodMetrics {
	reg := p.obs.Load()
	if reg == nil {
		return nil
	}
	if m, ok := p.methods.Load(method); ok {
		return m.(*methodMetrics)
	}
	m := &methodMetrics{
		calls:   reg.Counter(obs.L("rpc_calls_total", "method", method)),
		oneways: reg.Counter(obs.L("rpc_oneways_total", "method", method)),
		bytes:   reg.Counter(obs.L("rpc_sent_bytes_total", "method", method)),
		retries: reg.Counter(obs.L("rpc_retries_total", "method", method)),
		errors:  reg.Counter(obs.L("rpc_errors_total", "method", method)),
		latency: reg.Histogram(obs.L("rpc_latency_ns", "method", method), obs.LatencyBuckets),
	}
	got, _ := p.methods.LoadOrStore(method, m)
	return got.(*methodMetrics)
}

// New wraps a transport. The peer takes over the transport's handler;
// callers must not call SetHandler afterwards.
func New(tr transport.Transport, cfg Config) *Peer {
	p := &Peer{
		tr:       tr,
		cfg:      cfg.withDefaults(),
		handlers: make(map[string]Handler),
		pending:  make(map[uint64]*pendingCall),
	}
	tr.SetHandler(p.onDatagram)
	return p
}

// Addr returns the underlying transport address.
func (p *Peer) Addr() string { return p.tr.Addr() }

// Handle registers a handler for method. Registration after the first
// inbound message is allowed; unknown methods are answered with an
// error.
func (p *Peer) Handle(method string, h Handler) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.handlers[method] = h
}

// Close shuts down the peer, fails all in-flight calls, and waits for
// its parked workers to exit.
func (p *Peer) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	pend := p.pending
	p.pending = make(map[uint64]*pendingCall)
	p.mu.Unlock()
	for _, pc := range pend {
		select {
		case pc.ch <- callResult{err: ErrClosed}:
		default:
		}
	}
	err := p.tr.Close()
	p.workers.close()
	return err
}

// encodeFrame builds a datagram whose body is head followed by tail,
// in one allocation of exactly its size: a caller holding a header and
// a payload hands both over instead of joining them first.
func encodeFrame(kind byte, reqID uint64, method string, isErr bool, head, tail []byte) []byte {
	size := 1 + 8 + wire.UvarintLen(uint64(len(method))) + len(method)
	if kind == kindResponse {
		size++
	}
	body := len(head) + len(tail)
	size += wire.UvarintLen(uint64(body)) + body
	w := wire.NewWriter(size)
	w.Byte(kind)
	w.Uint64(reqID)
	switch kind {
	case kindRequest, kindOneway:
		w.String(method)
	case kindResponse:
		w.Bool(isErr)
		w.String(method)
	}
	w.Uvarint(uint64(body))
	w.Raw(head)
	w.Raw(tail)
	return w.Bytes()
}

// Call sends a request and waits for the response, retransmitting on
// per-attempt timeout. The context bounds the whole call.
func (p *Peer) Call(ctx context.Context, to, method string, req []byte) ([]byte, error) {
	return p.call(ctx, to, method, req, false)
}

// CallOnce sends a request exactly once and waits for the response
// until the context ends. It never retransmits, so a slow handler runs
// once: for methods whose effect must not repeat.
func (p *Peer) CallOnce(ctx context.Context, to, method string, req []byte) ([]byte, error) {
	return p.call(ctx, to, method, req, true)
}

func (p *Peer) call(ctx context.Context, to, method string, req []byte, once bool) ([]byte, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrClosed
	}
	id := p.nextID.Add(1)
	pc := &pendingCall{ch: make(chan callResult, 1)}
	p.pending[id] = pc
	p.mu.Unlock()

	defer func() {
		p.mu.Lock()
		delete(p.pending, id)
		p.mu.Unlock()
	}()

	frame := encodeFrame(kindRequest, id, method, false, req, nil)
	mm := p.method(method)
	var start time.Time
	if mm != nil {
		mm.calls.Inc()
		start = time.Now()
	}
	attempts := p.cfg.Retries + 1
	// CallOnce arms no timer: only the response or ctx ends its wait.
	var timer *time.Timer
	var expired <-chan time.Time
	if once {
		attempts = 1
	} else {
		timer = time.NewTimer(p.cfg.Timeout)
		defer timer.Stop()
		expired = timer.C
	}
	for a := 0; a < attempts; a++ {
		if a > 0 {
			timer.Reset(p.cfg.Timeout) // it fired, and the wait below took its tick
		}
		if mm != nil {
			mm.bytes.Add(uint64(len(frame)))
			if a > 0 {
				mm.retries.Inc()
			}
		}
		if err := p.tr.Send(to, frame); err != nil {
			if mm != nil {
				mm.errors.Inc()
			}
			return nil, fmt.Errorf("rpc: call %s on %s: %w", method, to, err)
		}
		select {
		case res := <-pc.ch:
			if mm != nil {
				if res.err != nil {
					mm.errors.Inc()
				}
				mm.latency.Observe(uint64(time.Since(start)))
			}
			return res.payload, res.err
		case <-ctx.Done():
			if mm != nil {
				mm.errors.Inc()
			}
			return nil, ctx.Err()
		case <-expired:
			// fall through to retransmit
		}
	}
	if mm != nil {
		mm.errors.Inc()
	}
	return nil, fmt.Errorf("%w: %s on %s after %d attempts", ErrTimeout, method, to, attempts)
}

// Notify sends a one-way message with no response and no retry.
func (p *Peer) Notify(to, method string, req []byte) error {
	return p.NotifyParts(to, method, req, nil)
}

// NotifyParts is Notify of the body head followed by tail, framed in
// one allocation and one copy of each: a relay passes its header as
// head and the payload it forwards as tail, without joining them first.
func (p *Peer) NotifyParts(to, method string, head, tail []byte) error {
	p.mu.Lock()
	closed := p.closed
	p.mu.Unlock()
	if closed {
		return ErrClosed
	}
	frame := encodeFrame(kindOneway, 0, method, false, head, tail)
	if mm := p.method(method); mm != nil {
		mm.oneways.Inc()
		mm.bytes.Add(uint64(len(frame)))
	}
	return p.tr.Send(to, frame)
}

// onDatagram owns payload (the transport contract), so bodies are
// handed to handlers and callers as subslices of it, never copied. A
// retransmitted request arrives as the same slice each time, which is
// why no handler writes into its request.
func (p *Peer) onDatagram(from string, payload []byte) {
	r := wire.NewReader(payload)
	kind := r.Byte()
	reqID := r.Uint64()
	switch kind {
	case kindRequest:
		method := r.String()
		req := r.BytesLP()
		if r.Err() != nil {
			return // corrupt frame: drop
		}
		p.Go(func() { p.serve(from, reqID, method, req) })
	case kindOneway:
		method := r.BytesLP()
		req := r.BytesLP()
		if r.Err() != nil {
			return
		}
		p.mu.Lock()
		h := p.handlers[string(method)] // no allocation: a map index converts in place
		p.mu.Unlock()
		if h == nil {
			return
		}
		p.Go(func() {
			// One-way: response and error are discarded.
			_, _ = h(from, req)
		})
	case kindResponse:
		isErr := r.Bool()
		method := r.BytesLP()
		body := r.BytesLP()
		if r.Err() != nil {
			return
		}
		p.mu.Lock()
		pc := p.pending[reqID]
		p.mu.Unlock()
		if pc == nil {
			return // late or duplicate response
		}
		res := callResult{payload: body}
		if isErr {
			res = callResult{err: &RemoteError{Method: string(method), Msg: string(body)}}
		}
		select {
		case pc.ch <- res:
		default: // duplicate response from a retransmitted request
		}
	}
}

func (p *Peer) serve(from string, reqID uint64, method string, req []byte) {
	p.mu.Lock()
	h := p.handlers[method]
	p.mu.Unlock()
	var (
		resp []byte
		err  error
	)
	if h == nil {
		err = fmt.Errorf("unknown method %q", method)
	} else {
		resp, err = h(from, req)
	}
	var frame []byte
	if err != nil {
		frame = encodeFrame(kindResponse, reqID, method, true, []byte(err.Error()), nil)
	} else {
		frame = encodeFrame(kindResponse, reqID, method, false, resp, nil)
	}
	_ = p.tr.Send(from, frame) // best effort; caller retries
}
