package wire

import "fmt"

// EosChannel identifies one logical record channel of a query and the
// cumulative per-channel accounting a node has observed on it. The
// engine runs three channel families: result rows to the coordinator
// (kind 0), aggregation partials toward collectors (kind 1), and
// rehashed join tuples per (stage, side) (kind 2). Sent counts records
// a node put on the wire for the channel; Recv counts records it
// delivered into local pipelines. Relays that combine in-network fold
// their absorbed and emitted records into the same books at emit time,
// so the network-wide sums balance exactly when nothing is in flight
// or buffered anywhere.
type EosChannel struct {
	// Kind is the channel family: 0 rows, 1 agg, 2 join.
	Kind uint8
	// Stage and Side locate a join channel (0 otherwise).
	Stage uint8
	Side  uint8
	// Sent and Recv are cumulative record counts.
	Sent uint64
	Recv uint64
}

// EosFrame is one node's end-of-stream ledger for a query: the done
// frame of the deterministic completion protocol. A participant ships
// it once its scan has drained and its route batches have flushed, and
// re-ships whenever its counters or drain round advance; the
// coordinator declares the query complete when every expected member's
// ledger reports ScanDone, the current drain round is acknowledged and
// Settled, and all channel books balance.
type EosFrame struct {
	// Query identifies the query.
	Query uint64
	// Addr is the reporting node's transport address.
	Addr string
	// Seq is the sender's monotone ship counter. Ledgers travel as
	// fire-and-forget datagrams (a lost one is repaired by the next
	// heartbeat), so the coordinator uses Seq to discard reordered
	// stale frames instead of relying on in-order delivery.
	Seq uint64
	// Depth and Fanout place the node in the query broadcast's tree
	// (its hops from the coordinator, the nodes it passed the query
	// on to): the coordinator counts the query's members from them.
	Depth, Fanout uint64
	// ScanDone reports that the node's participant pipeline has run to
	// end-of-stream and its route batches were flushed.
	ScanDone bool
	// DrainRound is the highest coordinator-issued drain round this
	// node has fully acknowledged (markers flushed through every local
	// collector pipeline).
	DrainRound uint64
	// Settled reports that the node delivered no join or aggregation
	// record into a local pipeline since round DrainRound's cut, so
	// the round's markers went out behind everything it ever received
	// there. It is evaluated when the frame is built, from the counts
	// in Channels, and is false before the first round.
	Settled bool
	// Channels holds the node's per-channel accounting, sorted by
	// (kind, stage, side) for deterministic encoding.
	Channels []EosChannel
	// Scans is the node's per-table coverage record: one entry per
	// table the query scans, Served true once this node's partition
	// of that table ran to end-of-stream without error. The
	// coordinator folds these into the result's coverage fraction.
	Scans []EosScan
}

// EosScan reports whether a node served its partition of one scanned
// table (each node holds one partition of each table under the DHT
// placement, so coverage is served-partitions / member count).
type EosScan struct {
	Table  string
	Served bool
}

// MaxEosScans bounds a frame's scan list against corrupt input.
const MaxEosScans = 64

// MaxEosDepth bounds a frame's Depth and Fanout against corrupt input.
const MaxEosDepth = 1 << 12

// MaxEosChannels bounds a frame's channel list against corrupt input
// (2 fixed families + join stages well past the planner's table cap).
const MaxEosChannels = 256

// Encode appends the frame to w.
func (f *EosFrame) Encode(w *Writer) {
	w.Uint64(f.Query)
	w.String(f.Addr)
	w.Uvarint(f.Seq)
	w.Uvarint(f.Depth)
	w.Uvarint(f.Fanout)
	w.Bool(f.ScanDone)
	w.Uvarint(f.DrainRound)
	w.Bool(f.Settled)
	w.Uvarint(uint64(len(f.Channels)))
	for _, ch := range f.Channels {
		w.Byte(ch.Kind)
		w.Byte(ch.Stage)
		w.Byte(ch.Side)
		w.Uvarint(ch.Sent)
		w.Uvarint(ch.Recv)
	}
	w.Uvarint(uint64(len(f.Scans)))
	for _, sc := range f.Scans {
		w.String(sc.Table)
		w.Bool(sc.Served)
	}
}

// Bytes serializes the frame into a fresh buffer.
func (f *EosFrame) Bytes() []byte {
	w := NewWriter(32 + 16*len(f.Channels))
	f.Encode(w)
	return w.Bytes()
}

// DecodeEosFrame reads a frame written by Encode.
func DecodeEosFrame(r *Reader) (*EosFrame, error) {
	f := &EosFrame{
		Query:    r.Uint64(),
		Addr:     r.String(),
		Seq:      r.Uvarint(),
		Depth:    r.Uvarint(),
		Fanout:   r.Uvarint(),
		ScanDone: r.Bool(),
	}
	if f.Depth > MaxEosDepth || f.Fanout > MaxEosDepth {
		return nil, fmt.Errorf("wire: eos frame at depth %d with fan-out %d", f.Depth, f.Fanout)
	}
	f.DrainRound = r.Uvarint()
	f.Settled = r.Bool()
	n := int(r.Uvarint())
	if n > MaxEosChannels {
		return nil, fmt.Errorf("wire: eos frame with %d channels", n)
	}
	for i := 0; i < n; i++ {
		f.Channels = append(f.Channels, EosChannel{
			Kind:  r.Byte(),
			Stage: r.Byte(),
			Side:  r.Byte(),
			Sent:  r.Uvarint(),
			Recv:  r.Uvarint(),
		})
	}
	ns := int(r.Uvarint())
	if ns > MaxEosScans {
		return nil, fmt.Errorf("wire: eos frame with %d scans", ns)
	}
	for i := 0; i < ns; i++ {
		f.Scans = append(f.Scans, EosScan{
			Table:  r.String(),
			Served: r.Bool(),
		})
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return f, nil
}

// EosFrameFromBytes decodes a frame, rejecting trailing bytes.
func EosFrameFromBytes(buf []byte) (*EosFrame, error) {
	r := NewReader(buf)
	f, err := DecodeEosFrame(r)
	if err != nil {
		return nil, err
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return f, nil
}

// EncodeDrain frames a coordinator-issued drain round broadcast.
func EncodeDrain(qid, round uint64) []byte {
	w := NewWriter(16)
	w.Uint64(qid)
	w.Uvarint(round)
	return w.Bytes()
}

// DecodeDrain reads a drain broadcast.
func DecodeDrain(buf []byte) (qid, round uint64, err error) {
	r := NewReader(buf)
	qid = r.Uint64()
	round = r.Uvarint()
	err = r.Done()
	return
}
