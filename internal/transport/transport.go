// Package transport defines the datagram transport abstraction that
// every overlay and the query engine send messages through, plus a
// real UDP implementation and an in-process loopback. The simulated
// wide-area network used for large experiments lives in
// internal/simnet and implements the same interface.
package transport

import "errors"

// ErrClosed is returned by Send after the transport is closed.
var ErrClosed = errors.New("transport: closed")

// ErrUnreachable is returned when the destination address cannot be
// delivered to at all (unknown simulated node, bad address). Losses and
// partitions do NOT return errors — they silently drop, exactly as the
// real network does; timeouts are the caller's business.
var ErrUnreachable = errors.New("transport: unreachable")

// Handler receives an inbound datagram. Implementations call the
// handler from a dedicated goroutine. The handler owns the payload: no
// transport reuses or writes it afterwards, so the handler may keep it
// (or slices of it) past its return. It must not write to it either,
// since a payload sent twice arrives as one shared slice.
type Handler func(from string, payload []byte)

// Transport is an unreliable, unordered datagram endpoint — the
// weakest primitive the Internet offers, and all PIER assumes.
type Transport interface {
	// Addr returns the endpoint's own address, usable as a
	// destination by peers.
	Addr() string
	// Send transmits payload to the peer at addr. Delivery is best
	// effort: a nil error means the datagram was handed to the
	// network, not that it arrived. The caller hands payload over and
	// never writes to it again; an implementation may deliver that
	// very slice to the receiving Handler (simnet does), so nothing is
	// copied on the way.
	Send(addr string, payload []byte) error
	// SetHandler installs the inbound datagram handler. It must be
	// called before the first Send/receive and at most once.
	SetHandler(h Handler)
	// Close releases resources. Subsequent Sends fail with ErrClosed.
	Close() error
}

// MaxDatagram is the largest payload any transport must carry. The
// engine fragments nothing: messages above this are a programming
// error, caught in tests.
const MaxDatagram = 60 * 1024
