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

// EncodedLen is the length Encode writes.
func (f *EosFrame) EncodedLen() int {
	n := 8 + UvarintLen(uint64(len(f.Addr))) + len(f.Addr) + UvarintLen(f.Seq) +
		UvarintLen(f.Depth) + UvarintLen(f.Fanout) + 1 + UvarintLen(f.DrainRound) + 1 +
		UvarintLen(uint64(len(f.Channels))) + UvarintLen(uint64(len(f.Scans)))
	for _, ch := range f.Channels {
		n += 3 + UvarintLen(ch.Sent) + UvarintLen(ch.Recv)
	}
	for _, sc := range f.Scans {
		n += UvarintLen(uint64(len(sc.Table))) + len(sc.Table) + 1
	}
	return n
}

// decode reads a frame written by Encode into f. Its channels and scans
// are appended to chans and scans, which it returns grown, so frames
// decoded in a row share two arrays.
func (f *EosFrame) decode(r *Reader, chans []EosChannel, scans []EosScan) ([]EosChannel, []EosScan, error) {
	*f = EosFrame{
		Query:    r.Uint64(),
		Addr:     r.String(),
		Seq:      r.Uvarint(),
		Depth:    r.Uvarint(),
		Fanout:   r.Uvarint(),
		ScanDone: r.Bool(),
	}
	if f.Depth > MaxEosDepth || f.Fanout > MaxEosDepth {
		return chans, scans, fmt.Errorf("wire: eos frame at depth %d with fan-out %d", f.Depth, f.Fanout)
	}
	f.DrainRound = r.Uvarint()
	f.Settled = r.Bool()
	n := int(r.Uvarint())
	if n > MaxEosChannels {
		return chans, scans, fmt.Errorf("wire: eos frame with %d channels", n)
	}
	first := len(chans)
	for i := 0; i < n; i++ {
		chans = append(chans, EosChannel{
			Kind:  r.Byte(),
			Stage: r.Byte(),
			Side:  r.Byte(),
			Sent:  r.Uvarint(),
			Recv:  r.Uvarint(),
		})
	}
	if n > 0 {
		f.Channels = chans[first:len(chans):len(chans)]
	}
	ns := int(r.Uvarint())
	if ns > MaxEosScans {
		return chans, scans, fmt.Errorf("wire: eos frame with %d scans", ns)
	}
	first = len(scans)
	for i := 0; i < ns && r.Err() == nil; i++ {
		scans = append(scans, EosScan{Table: r.String(), Served: r.Bool()})
	}
	if ns > 0 {
		f.Scans = scans[first:len(scans):len(scans)]
	}
	return chans, scans, r.Err()
}

// A ledger datagram carries the frames one node sends one coordinator
// at once, for every query the two share: a frame count, then the
// frames as Encode writes them. EosBatch builds it; DecodeEosFrames
// reads it.

// MaxEosFrames bounds a ledger datagram's frame count against corrupt
// input (a datagram's frames are each at least minEosFrameLen bytes,
// which bounds the count of a real one well below this).
const MaxEosFrames = 1 << 12

// minEosFrameLen is the shortest frame Encode writes: an empty address
// and no channels or scans.
const minEosFrameLen = 17

// EosBatch builds one ledger datagram a frame at a time. The zero value
// is empty; Reset empties it for reuse, keeping its buffer.
type EosBatch struct {
	body Writer
	n    int
	head [10]byte
}

// Add appends one frame.
func (b *EosBatch) Add(f *EosFrame) {
	f.Encode(&b.body)
	b.n++
}

// Len is the number of frames added.
func (b *EosBatch) Len() int { return b.n }

// Size is the datagram's length so far.
func (b *EosBatch) Size() int { return UvarintLen(uint64(b.n)) + b.body.Len() }

// Parts returns the datagram as its count and its frames, to be sent
// one after the other (rpc.Peer.NotifyParts). Both are valid until the
// next Add or Reset.
func (b *EosBatch) Parts() (head, body []byte) {
	w := Writer{buf: b.head[:0]}
	w.Uvarint(uint64(b.n))
	return w.buf, b.body.buf
}

// Reset empties the batch.
func (b *EosBatch) Reset() {
	b.body.Reset()
	b.n = 0
}

// DecodeEosFrames reads a ledger datagram, rejecting trailing bytes.
// The frames' channel lists share one array and their scan lists
// another.
func DecodeEosFrames(buf []byte) ([]EosFrame, error) {
	r := NewReader(buf)
	n := r.Uvarint()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if n == 0 || n > MaxEosFrames || n > uint64(r.Remaining()/minEosFrameLen) {
		return nil, fmt.Errorf("wire: eos datagram of %d frames in %d bytes", n, r.Remaining())
	}
	frames := make([]EosFrame, n)
	chans := make([]EosChannel, 0, 4*n)
	scans := make([]EosScan, 0, n)
	var err error
	for i := range frames {
		if chans, scans, err = frames[i].decode(r, chans, scans); err != nil {
			return nil, err
		}
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return frames, nil
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
