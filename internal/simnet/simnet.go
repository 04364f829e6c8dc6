// Package simnet is the simulated wide-area network that stands in
// for PlanetLab in this reproduction. It implements the
// transport.Transport interface with configurable per-message latency,
// probabilistic loss, network partitions, and per-node up/down state
// (churn), and it accounts every message and byte so the benchmark
// harness can report communication costs.
//
// The simulation is intentionally faithful to what PIER assumes of the
// Internet and nothing more: datagrams are unordered, unreliable, and
// unacknowledged. Failures drop messages silently — senders observe
// only timeouts, exactly as on the real network.
package simnet

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/transport"
)

// Config parameterizes the simulated network.
type Config struct {
	// MinLatency and MaxLatency bound the uniform per-message
	// one-way delay. Both zero means synchronous-queue delivery
	// (still asynchronous with respect to the sender).
	MinLatency, MaxLatency time.Duration
	// LatencyFn, if non-nil, overrides the uniform model; it is
	// called with the sender and receiver addresses and the
	// network's RNG lock held, so it must not block.
	LatencyFn func(from, to string, rng *rand.Rand) time.Duration
	// LossRate is the probability in [0,1] that any message is
	// silently dropped in flight.
	LossRate float64
	// Seed makes the simulation reproducible. Zero means seed 1.
	Seed int64
	// InboxDepth bounds each endpoint's receive queue; messages
	// arriving at a full inbox are dropped (receiver livelock
	// protection, as in PIER's event loops). Zero means 4096.
	InboxDepth int
}

// Stats counts traffic through the network. Dropped includes loss,
// partition drops, down-node drops, and inbox overflows.
type Stats struct {
	Sent      uint64
	Delivered uint64
	Dropped   uint64
	BytesSent uint64
}

// NodeStats counts traffic per endpoint, letting experiments measure
// e.g. the bandwidth arriving at an aggregation root.
type NodeStats struct {
	MsgsOut, MsgsIn   uint64
	BytesOut, BytesIn uint64
}

// Network is a collection of simulated endpoints.
type Network struct {
	cfg Config

	mu        sync.Mutex
	rng       *rand.Rand
	endpoints map[string]*Endpoint
	down      map[string]bool
	group     map[string]int // partition group; default 0
	latFactor float64        // latency multiplier; 0 or 1 means none
	stats     Stats
	perNode   map[string]*NodeStats
	closed    bool
}

// New creates a simulated network.
func New(cfg Config) *Network {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.InboxDepth == 0 {
		cfg.InboxDepth = 4096
	}
	if cfg.MaxLatency < cfg.MinLatency {
		cfg.MaxLatency = cfg.MinLatency
	}
	return &Network{
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		endpoints: make(map[string]*Endpoint),
		down:      make(map[string]bool),
		group:     make(map[string]int),
		perNode:   make(map[string]*NodeStats),
	}
}

// Endpoint creates (or returns an error for a duplicate) the endpoint
// named addr. Names are free-form; "node7" is typical.
func (n *Network) Endpoint(addr string) (*Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, transport.ErrClosed
	}
	if _, ok := n.endpoints[addr]; ok {
		return nil, fmt.Errorf("simnet: duplicate endpoint %q", addr)
	}
	ep := &Endpoint{
		net:   n,
		addr:  addr,
		inbox: make(chan datagram, n.cfg.InboxDepth),
		done:  make(chan struct{}),
	}
	n.endpoints[addr] = ep
	n.perNode[addr] = &NodeStats{}
	go ep.dispatch()
	return ep, nil
}

// SetDown marks a node down (true) or up (false). A down node neither
// sends nor receives; in-flight messages to it are dropped on arrival.
func (n *Network) SetDown(addr string, down bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.down[addr] = down
}

// IsDown reports the node's current up/down state.
func (n *Network) IsDown(addr string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.down[addr]
}

// Partition splits the network: nodes listed in groups[i] join
// partition group i+1; unlisted nodes remain in group 0. Messages
// cross groups only by being dropped.
func (n *Network) Partition(groups ...[]string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.group = make(map[string]int)
	for i, g := range groups {
		for _, addr := range g {
			n.group[addr] = i + 1
		}
	}
}

// Heal removes all partitions.
func (n *Network) Heal() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.group = make(map[string]int)
}

// Stats returns a snapshot of aggregate traffic counters.
func (n *Network) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// PerNode returns a snapshot of one endpoint's counters.
func (n *Network) PerNode(addr string) NodeStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	if s, ok := n.perNode[addr]; ok {
		return *s
	}
	return NodeStats{}
}

// ResetStats zeroes all counters; experiments call it after warmup.
func (n *Network) ResetStats() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stats = Stats{}
	for _, s := range n.perNode {
		*s = NodeStats{}
	}
}

// Close shuts down every endpoint.
func (n *Network) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	eps := make([]*Endpoint, 0, len(n.endpoints))
	for _, ep := range n.endpoints {
		eps = append(eps, ep)
	}
	n.mu.Unlock()
	for _, ep := range eps {
		ep.Close()
	}
}

type datagram struct {
	from    string
	payload []byte
}

// Endpoint is one simulated node's network attachment.
type Endpoint struct {
	net  *Network
	addr string

	mu      sync.Mutex
	handler transport.Handler
	closed  bool

	inbox chan datagram
	done  chan struct{}
}

var _ transport.Transport = (*Endpoint)(nil)

// Addr returns the endpoint's address.
func (e *Endpoint) Addr() string { return e.addr }

// SetHandler installs the inbound handler.
func (e *Endpoint) SetHandler(h transport.Handler) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.handler = h
}

// Close detaches the endpoint; queued messages are discarded.
func (e *Endpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.mu.Unlock()
	close(e.done)
	return nil
}

// Send routes a datagram through the simulated network.
func (e *Endpoint) Send(addr string, payload []byte) error {
	if len(payload) > transport.MaxDatagram {
		return fmt.Errorf("simnet: %d-byte payload exceeds MaxDatagram", len(payload))
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return transport.ErrClosed
	}
	e.mu.Unlock()

	n := e.net
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return transport.ErrClosed
	}
	dst, ok := n.endpoints[addr]
	if !ok {
		n.mu.Unlock()
		return fmt.Errorf("%w: %s", transport.ErrUnreachable, addr)
	}
	n.stats.Sent++
	n.stats.BytesSent += uint64(len(payload))
	if s := n.perNode[e.addr]; s != nil {
		s.MsgsOut++
		s.BytesOut += uint64(len(payload))
	}
	drop := n.down[e.addr] || n.down[addr] ||
		n.group[e.addr] != n.group[addr] ||
		(n.cfg.LossRate > 0 && n.rng.Float64() < n.cfg.LossRate)
	var delay time.Duration
	if !drop {
		if n.cfg.LatencyFn != nil {
			delay = n.cfg.LatencyFn(e.addr, addr, n.rng)
		} else if n.cfg.MaxLatency > n.cfg.MinLatency {
			delay = n.cfg.MinLatency + time.Duration(n.rng.Int63n(int64(n.cfg.MaxLatency-n.cfg.MinLatency)))
		} else {
			delay = n.cfg.MinLatency
		}
		if n.latFactor > 0 && n.latFactor != 1 {
			delay = time.Duration(float64(delay) * n.latFactor)
		}
	}
	if drop {
		n.stats.Dropped++
		n.mu.Unlock()
		return nil // silent, like the real network
	}
	n.mu.Unlock()

	msg := datagram{from: e.addr, payload: payload} // handed over: no copy (transport.Transport)
	deliver := func() {
		// Re-check down state at arrival: a node that crashed while
		// the message was in flight must not receive it.
		n.mu.Lock()
		dead := n.down[addr] || n.closed
		if dead {
			n.stats.Dropped++
			n.mu.Unlock()
			return
		}
		n.mu.Unlock()
		select {
		case dst.inbox <- msg:
		default:
			n.mu.Lock()
			n.stats.Dropped++
			n.mu.Unlock()
		}
	}
	if delay <= 0 {
		deliver()
	} else {
		time.AfterFunc(delay, deliver)
	}
	return nil
}

func (e *Endpoint) dispatch() {
	for {
		select {
		case <-e.done:
			return
		case m := <-e.inbox:
			e.mu.Lock()
			h := e.handler
			e.mu.Unlock()
			if h == nil {
				continue
			}
			n := e.net
			n.mu.Lock()
			n.stats.Delivered++
			if s := n.perNode[e.addr]; s != nil {
				s.MsgsIn++
				s.BytesIn += uint64(len(m.payload))
			}
			n.mu.Unlock()
			h(m.from, m.payload)
		}
	}
}

// SetLossRate changes the message loss probability at runtime —
// experiments converge a healthy overlay first, then degrade it.
func (n *Network) SetLossRate(p float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cfg.LossRate = p
}

// SetLatencyFactor scales every subsequent message delay by f
// (latency storms: f > 1 stretches delivery, f == 1 restores it).
// Values <= 0 are treated as 1.
func (n *Network) SetLatencyFactor(f float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.latFactor = f
}

// LatencyFactor returns the current latency multiplier (1 when unset).
func (n *Network) LatencyFactor() float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.latFactor <= 0 {
		return 1
	}
	return n.latFactor
}

// PlanetLabLatency returns a LatencyFn resembling wide-area RTT
// structure: a deterministic per-pair base delay in [min, max] (same
// pair, same base — geography doesn't move) plus ±20% jitter.
func PlanetLabLatency(min, max time.Duration) func(from, to string, rng *rand.Rand) time.Duration {
	return func(from, to string, rng *rand.Rand) time.Duration {
		if max <= min {
			return min
		}
		a, b := from, to
		if a > b {
			a, b = b, a
		}
		h := uint64(14695981039346656037)
		for _, c := range []byte(a + "|" + b) {
			h = (h ^ uint64(c)) * 1099511628211
		}
		span := uint64(max - min)
		base := time.Duration(h%span) + min
		jitter := time.Duration(float64(base) * 0.2 * (2*rng.Float64() - 1))
		return base + jitter
	}
}
