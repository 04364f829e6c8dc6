// Package overlay defines the routing interface that PIER's DHT layer
// is written against. The paper stresses that "DHT" is a catch-all for
// a family of schemes (it cites CAN, Bamboo, and Chord); accordingly,
// everything above this interface is overlay-agnostic. The seam is
// implemented by internal/chord and by batch.Batcher, which wraps a
// Router to coalesce routed records per destination.
package overlay

import (
	"context"
	"errors"

	"repro/internal/id"
	"repro/internal/wire"
)

// Node identifies a participant: its overlay identifier and its
// transport address.
type Node struct {
	ID   id.ID
	Addr string
}

// IsZero reports whether the node is unset.
func (n Node) IsZero() bool { return n.Addr == "" }

// Encode appends the node to w.
func (n Node) Encode(w *wire.Writer) {
	w.Raw(n.ID[:])
	w.String(n.Addr)
}

// DecodeNode reads a node written by Encode.
func DecodeNode(r *wire.Reader) Node {
	var n Node
	copy(n.ID[:], r.Raw(id.Bytes))
	n.Addr = r.String()
	return n
}

// DeliverFunc is the upcall fired on the node responsible for key when
// a routed message arrives. tag demultiplexes between subsystems (DHT
// store, aggregation, query dissemination) sharing the overlay.
type DeliverFunc func(from Node, key id.ID, tag string, payload []byte)

// InterceptFunc is the upcall fired at every intermediate hop of a
// routed message, before forwarding. It may rewrite the payload (this
// is how in-network aggregation combines partial results en route) and
// may suppress forwarding entirely by returning forward=false.
type InterceptFunc func(key id.ID, tag string, payload []byte) (newPayload []byte, forward bool)

// BroadcastFunc is the upcall fired on every node reached by a
// Broadcast. A broadcast spreads as a tree: depth is this node's
// distance from the initiator (0 there) and fanout the number of nodes
// this one delegates to next, failed sends included, so every node
// reached is counted exactly once by its parent's fanout.
type BroadcastFunc func(from Node, tag string, payload []byte, depth, fanout int)

// ErrStopped is returned by operations on a stopped router.
var ErrStopped = errors.New("overlay: stopped")

// Router is the multi-hop key-based routing layer.
type Router interface {
	// Self returns this node's identity.
	Self() Node
	// Lookup resolves the node currently responsible for key,
	// returning it along with the number of hops the resolution
	// took (the paper's O(log n) claim is measured through this).
	Lookup(ctx context.Context, key id.ID) (Node, int, error)
	// Route forwards payload hop by hop toward the owner of key,
	// firing Intercept at relays and Deliver at the owner. Delivery
	// is best effort.
	Route(key id.ID, tag string, payload []byte) error
	// Owns reports whether this node is currently responsible for key:
	// a Route of it would deliver here without a hop.
	Owns(key id.ID) bool
	// Predecessor returns the node before this one, whose key range
	// ends where this node's begins (zero while unknown).
	Predecessor() Node
	// Broadcast disseminates payload to (best effort) every node in
	// the overlay in O(log n) depth. PIER uses this for query
	// dissemination.
	Broadcast(tag string, payload []byte) error
	// SetDeliver installs the owner upcall. Must be set before Join.
	SetDeliver(fn DeliverFunc)
	// SetIntercept installs the per-hop upcall (may be nil).
	SetIntercept(fn InterceptFunc)
	// SetBroadcast installs the broadcast upcall.
	SetBroadcast(fn BroadcastFunc)
	// Neighbors returns the replication candidates for locally-owned
	// keys: Chord's successor list.
	Neighbors() []Node
	// Stop halts maintenance and closes the endpoint.
	Stop()
}
