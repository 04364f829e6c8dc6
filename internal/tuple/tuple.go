// Package tuple defines the typed relational values, tuples, and
// schemas that flow through the query engine, together with their
// wire encoding and the hashing used to partition tuples across the
// DHT's key space.
package tuple

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/id"
	"repro/internal/wire"
)

// Type enumerates the value types the engine supports.
type Type uint8

// Value type tags. TNull is distinct (SQL NULL) rather than a null of
// a specific type; comparisons treat NULL as smaller than everything.
const (
	TNull Type = iota
	TBool
	TInt
	TFloat
	TString
	TBytes
	TTime
	TID
)

// String names the type for error messages and EXPLAIN output.
func (t Type) String() string {
	switch t {
	case TNull:
		return "null"
	case TBool:
		return "bool"
	case TInt:
		return "int"
	case TFloat:
		return "float"
	case TString:
		return "string"
	case TBytes:
		return "bytes"
	case TTime:
		return "time"
	case TID:
		return "id"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Value is one typed scalar. The zero Value is NULL. It is 40 bytes
// with one pointer (TestValueSize): every operator copies values row
// by row and the collector scans what it retains, so the kinds no hot
// path reads share the five fields the hot kinds need (DESIGN.md
// "What a value costs").
type Value struct {
	Kind Type
	// Exactly one of the following is meaningful, selected by Kind.
	B bool
	I int64   // TInt; TTime as Unix nanoseconds, zeroTimeNanos for the zero time
	F float64 // TFloat
	S string  // TString; the payload of TBytes and TID (read through AsBytes, AsID)
}

// zeroTimeNanos stands for the zero time.Time, which has no Unix
// nanosecond reading — the same sentinel wire.Writer.Time puts on the
// wire, so a TTime value encodes as its I field.
const zeroTimeNanos = math.MinInt64

// Null returns the SQL NULL value.
func Null() Value { return Value{} }

// Bool wraps a boolean.
func Bool(b bool) Value { return Value{Kind: TBool, B: b} }

// Int wraps an integer.
func Int(i int64) Value { return Value{Kind: TInt, I: i} }

// Float wraps a double.
func Float(f float64) Value { return Value{Kind: TFloat, F: f} }

// String wraps a string.
func String(s string) Value { return Value{Kind: TString, S: s} }

// Bytes wraps a copy of a byte string.
func Bytes(b []byte) Value { return Value{Kind: TBytes, S: string(b)} }

// Time wraps a timestamp at nanosecond precision. Location and
// monotonic reading are dropped, as the wire always dropped them.
func Time(t time.Time) Value {
	if t.IsZero() {
		return Value{Kind: TTime, I: zeroTimeNanos}
	}
	return Value{Kind: TTime, I: t.UnixNano()}
}

// IDVal wraps an overlay identifier.
func IDVal(v id.ID) Value { return Value{Kind: TID, S: string(v[:])} }

// AsBytes returns a copy of a TBytes value's payload.
func (v Value) AsBytes() []byte { return []byte(v.S) }

// AsTime returns a TTime value's timestamp, in the local zone.
func (v Value) AsTime() time.Time {
	if v.I == zeroTimeNanos {
		return time.Time{}
	}
	return time.Unix(0, v.I)
}

// AsID returns a TID value's identifier.
func (v Value) AsID() id.ID {
	var out id.ID
	copy(out[:], v.S)
	return out
}

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.Kind == TNull }

// AsFloat coerces numeric values to float64 for arithmetic; ok is
// false for non-numeric kinds.
func (v Value) AsFloat() (float64, bool) {
	switch v.Kind {
	case TInt:
		return float64(v.I), true
	case TFloat:
		return v.F, true
	default:
		return 0, false
	}
}

// typeRank orders values of different kinds for total ordering:
// NULL < bool < numeric < string < bytes < time < id.
func typeRank(t Type) int {
	switch t {
	case TNull:
		return 0
	case TBool:
		return 1
	case TInt, TFloat:
		return 2
	case TString:
		return 3
	case TBytes:
		return 4
	case TTime:
		return 5
	case TID:
		return 6
	default:
		return 7
	}
}

// Compare totally orders values: within a kind natural order; across
// kinds by type rank, except that ints and floats compare numerically.
func (v Value) Compare(o Value) int {
	ra, rb := typeRank(v.Kind), typeRank(o.Kind)
	if ra != rb {
		if ra < rb {
			return -1
		}
		return 1
	}
	switch v.Kind {
	case TNull:
		return 0
	case TBool:
		switch {
		case v.B == o.B:
			return 0
		case !v.B:
			return -1
		default:
			return 1
		}
	case TInt, TFloat:
		if v.Kind == TInt && o.Kind == TInt {
			return cmp.Compare(v.I, o.I)
		}
		a, _ := v.AsFloat()
		b, _ := o.AsFloat()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		default:
			return 0
		}
	case TString, TBytes:
		return strings.Compare(v.S, o.S)
	case TID:
		return v.AsID().Cmp(o.AsID())
	case TTime:
		// The zero time sorts first, as it does under time.Time.Before.
		return cmp.Compare(v.I, o.I)
	default:
		return 0
	}
}

// Equal reports deep equality (numeric cross-kind equality included,
// matching Compare).
func (v Value) Equal(o Value) bool { return v.Compare(o) == 0 }

// Encode appends the value, self-describing, to w.
func (v Value) Encode(w *wire.Writer) {
	w.Byte(byte(v.Kind))
	switch v.Kind {
	case TNull:
	case TBool:
		w.Bool(v.B)
	case TInt:
		w.Varint(v.I)
	case TFloat:
		w.Float64(v.F)
	case TString, TBytes:
		w.String(v.S)
	case TTime:
		w.Varint(v.I)
	case TID:
		x := v.AsID()
		w.Raw(x[:])
	}
}

// DecodeValue reads one value written by Encode.
func DecodeValue(r *wire.Reader) Value {
	kind := Type(r.Byte())
	switch kind {
	case TNull:
		return Null()
	case TBool:
		return Bool(r.Bool())
	case TInt:
		return Int(r.Varint())
	case TFloat:
		return Float(r.Float64())
	case TString:
		return String(r.String())
	case TBytes:
		return Value{Kind: TBytes, S: r.String()}
	case TTime:
		return Value{Kind: TTime, I: r.Varint()}
	case TID:
		return Value{Kind: TID, S: string(r.Raw(id.Bytes))}
	default:
		// Poison the reader so the frame decode fails loudly.
		r.Raw(-1)
		return Null()
	}
}

// skipValue steps over one value written by Encode without building
// it; an unknown kind tag poisons the reader as in DecodeValue.
func skipValue(r *wire.Reader) {
	switch Type(r.Byte()) {
	case TNull:
	case TBool:
		r.Byte()
	case TInt, TTime:
		r.Varint()
	case TFloat:
		r.Raw(8)
	case TString, TBytes:
		r.BytesLP()
	case TID:
		r.Raw(id.Bytes)
	default:
		r.Raw(-1)
	}
}

// String renders the value for display.
func (v Value) String() string {
	switch v.Kind {
	case TNull:
		return "NULL"
	case TBool:
		return strconv.FormatBool(v.B)
	case TInt:
		return strconv.FormatInt(v.I, 10)
	case TFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case TString:
		return v.S
	case TBytes:
		return fmt.Sprintf("0x%x", v.S)
	case TTime:
		return v.AsTime().Format(time.RFC3339Nano)
	case TID:
		return v.AsID().Short()
	default:
		return "?"
	}
}

// hashInto feeds the value's canonical bytes into parts for key
// hashing. Ints and floats that compare equal hash differently only
// if their kinds differ — so hash keys should come from columns of a
// consistent declared type, which the planner guarantees.
func (v Value) hashInto(w *wire.Writer) { v.Encode(w) }

// Tuple is one row: a flat slice of values.
type Tuple []Value

// Clone copies the tuple's slots; payloads are strings and shared.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Equal reports element-wise equality.
func (t Tuple) Equal(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if !t[i].Equal(o[i]) {
			return false
		}
	}
	return true
}

// Project returns the tuple restricted to cols (by index).
func (t Tuple) Project(cols []int) Tuple {
	out := make(Tuple, len(cols))
	for i, c := range cols {
		out[i] = t[c]
	}
	return out
}

// Concat returns t followed by o (for join outputs).
func (t Tuple) Concat(o Tuple) Tuple {
	out := make(Tuple, 0, len(t)+len(o))
	out = append(out, t...)
	return append(out, o...)
}

// Compare orders tuples lexicographically over cols; descending
// columns are marked in desc.
func (t Tuple) Compare(o Tuple, cols []int, desc []bool) int {
	for i, c := range cols {
		cmp := t[c].Compare(o[c])
		if cmp == 0 {
			continue
		}
		if len(desc) > i && desc[i] {
			return -cmp
		}
		return cmp
	}
	return 0
}

// Encode appends the tuple to w.
func (t Tuple) Encode(w *wire.Writer) {
	w.Uvarint(uint64(len(t)))
	for _, v := range t {
		v.Encode(w)
	}
}

// EncodedLen is the length of the tuple's encoding (Encode), counted
// without encoding it — what a byte budget on encoded rows reads.
func (t Tuple) EncodedLen() int {
	n := wire.UvarintLen(uint64(len(t)))
	for _, v := range t {
		n++ // kind
		switch v.Kind {
		case TBool:
			n++
		case TInt, TTime:
			n += wire.UvarintLen(uint64(v.I<<1) ^ uint64(v.I>>63)) // zigzag
		case TFloat:
			n += 8
		case TString, TBytes:
			n += wire.UvarintLen(uint64(len(v.S))) + len(v.S)
		case TID:
			n += id.Bytes
		}
	}
	return n
}

// DecodeTuple reads a tuple written by Encode.
func DecodeTuple(r *wire.Reader) Tuple {
	n := r.Uvarint()
	if n > 4096 {
		r.Raw(-1) // poison: absurd arity
		return nil
	}
	out := make(Tuple, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, DecodeValue(r))
	}
	return out
}

// Bytes encodes the tuple into a fresh buffer.
func (t Tuple) Bytes() []byte {
	w := wire.GetWriter()
	t.Encode(w)
	out := append([]byte(nil), w.Bytes()...)
	wire.PutWriter(w)
	return out
}

// FromBytes decodes a tuple from buf, rejecting trailing garbage.
func FromBytes(buf []byte) (Tuple, error) {
	r := wire.NewReader(buf)
	t := DecodeTuple(r)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("tuple: decode: %w", err)
	}
	return t, nil
}

// Decoder decodes a stream of stored payloads with amortized
// allocation: one reused wire.Reader and tuple value slots drawn from
// shared arena blocks instead of one slice per tuple. Decoded tuples
// remain valid indefinitely (they pin their arena block) and are
// capped so appending to one can never write into a neighbor's slots.
// Not safe for concurrent use; give each scan worker its own.
type Decoder struct {
	r     wire.Reader
	arena []Value
}

// Arena blocks grow geometrically from decoderMinBlock slots up to
// decoderBlock: a scan that decodes a handful of rows allocates a few
// hundred bytes, not a ~200KB block that the GC must zero and scan
// (short per-query decoders are the common case on every node), while
// long streams still amortize to one allocation per decoderBlock
// values.
const (
	decoderMinBlock = 64
	decoderBlock    = 4096
)

// Decode decodes one payload written by Tuple.Encode, rejecting
// trailing garbage.
func (d *Decoder) Decode(buf []byte) (Tuple, error) {
	d.r.Reset(buf)
	n := d.r.Uvarint()
	if n > 4096 {
		return nil, fmt.Errorf("tuple: decode: absurd arity %d", n)
	}
	d.reserve(int(n))
	lo := len(d.arena)
	for i := uint64(0); i < n; i++ {
		d.arena = append(d.arena, DecodeValue(&d.r))
	}
	return d.finish(lo)
}

// RowIDColumn names the column a narrowed row carries its identity in.
// No SQL identifier contains '#', so no statement can read it.
const RowIDColumn = "#row"

// RowID is the identity of one stored row, given its encoding: 64 bits
// of hash, the same on every node. The store tells two items of one
// resource id apart by the hash of their payloads, and nothing else
// does — a table's declared key places a row, it does not name it — so
// a row that has dropped columns carries this in their place, and two
// stored rows that differ only in a dropped column stay two rows under
// whole-row comparison.
func RowID(payload []byte) Value { return Int(int64(wire.Hash64(payload))) }

// Narrow keeps cols (ascending indexes into stored) of a decoded stored
// row. All of them is the row itself; fewer is those columns followed
// by the row's RowID. DecodeCols is the same rule over an encoded row.
func Narrow(stored Tuple, cols []int) Tuple {
	if len(cols) == len(stored) {
		return stored
	}
	out := make(Tuple, len(cols)+1)
	for i, c := range cols {
		out[i] = stored[c]
	}
	out[len(cols)] = RowID(stored.Bytes())
	return out
}

// DecodeCols decodes a payload of exactly arity values into what
// Decode, an arity check and Narrow(cols) return, except that a value
// not kept is stepped over and never built — no string is allocated
// for a column the plan does not read. The checks are Decode's: a bad
// kind tag in a skipped column and trailing bytes still fail the row.
func (d *Decoder) DecodeCols(buf []byte, arity int, cols []int) (Tuple, error) {
	d.r.Reset(buf)
	if n := d.r.Uvarint(); n != uint64(arity) {
		return nil, fmt.Errorf("tuple: decode: arity %d, want %d", n, arity)
	}
	if len(cols) < arity {
		d.reserve(len(cols) + 1)
	} else {
		d.reserve(len(cols))
	}
	lo := len(d.arena)
	next := 0
	for i := 0; i < arity; i++ {
		if next < len(cols) && cols[next] == i {
			d.arena = append(d.arena, DecodeValue(&d.r))
			next++
		} else {
			skipValue(&d.r)
		}
	}
	if len(cols) < arity {
		d.arena = append(d.arena, RowID(buf))
	}
	return d.finish(lo)
}

// Reserve sizes the next arena block for n values (at most
// decoderBlock) when the current one has less room: a reader that knows
// how many rows it will decode, and how wide, allocates once instead of
// growing from decoderMinBlock.
func (d *Decoder) Reserve(n int) {
	if n = min(n, decoderBlock); cap(d.arena)-len(d.arena) < n {
		d.arena = make([]Value, 0, n)
	}
}

// reserve makes room for n more values in the current arena block,
// starting a new block when it is full.
func (d *Decoder) reserve(n int) {
	if cap(d.arena)-len(d.arena) >= n {
		return
	}
	size := 2 * cap(d.arena)
	if size < decoderMinBlock {
		size = decoderMinBlock
	}
	if size > decoderBlock {
		size = decoderBlock
	}
	if n > size {
		size = n
	}
	d.arena = make([]Value, 0, size)
}

// finish caps the values appended since lo into one tuple, or gives
// their slots back when the payload was malformed or had bytes left.
func (d *Decoder) finish(lo int) (Tuple, error) {
	if err := d.r.Done(); err != nil {
		d.arena = d.arena[:lo]
		return nil, fmt.Errorf("tuple: decode: %w", err)
	}
	hi := len(d.arena)
	return Tuple(d.arena[lo:hi:hi]), nil
}

// DecodeRecords decodes the records of one frame into tuples that share
// a single arena block. The block is sized from the first record's
// arity — a frame carries one schema's rows — and never beyond one
// value per payload byte, so a corrupt arity cannot ask for more than
// the frame could hold; rows of another arity still decode, from
// further blocks.
func DecodeRecords(recs [][]byte) ([]Tuple, error) {
	if len(recs) == 0 {
		return nil, nil
	}
	var d Decoder
	d.r.Reset(recs[0])
	want := d.r.Uvarint() * uint64(len(recs))
	size := 0
	for _, rec := range recs {
		size += len(rec)
	}
	if want > uint64(size) {
		want = uint64(size)
	}
	d.arena = make([]Value, 0, want)
	out := make([]Tuple, len(recs))
	for i, rec := range recs {
		t, err := d.Decode(rec)
		if err != nil {
			return nil, err
		}
		out[i] = t
	}
	return out, nil
}

// ConcatInto appends l ++ r (the join output) drawn from arena,
// returning the capped tuple and the grown arena — the batch loop's
// amortized form of Concat: one arena allocation serves a whole batch
// of joined rows, and the cap stops append write-through between
// neighbors.
func ConcatInto(arena []Value, l, r Tuple) (Tuple, []Value) {
	lo := len(arena)
	arena = append(arena, l...)
	arena = append(arena, r...)
	hi := len(arena)
	return Tuple(arena[lo:hi:hi]), arena
}

// HashKey hashes the projection of t onto cols into the identifier
// space — the DHT partitioning function for rehash joins and
// group-by placement. Allocation-free: the scratch encode runs on a
// pooled writer.
func (t Tuple) HashKey(cols []int) id.ID {
	w := wire.GetWriter()
	for _, c := range cols {
		t[c].hashInto(w)
	}
	h := id.Hash(w.Bytes())
	wire.PutWriter(w)
	return h
}

// AppendKey appends the canonical key encoding of the projection of t
// onto cols — byte-identical to Project(cols).Bytes(), without
// materializing the projected tuple. The hot-path form used for join
// and group-by map keys over a pooled writer.
func (t Tuple) AppendKey(w *wire.Writer, cols []int) {
	w.Uvarint(uint64(len(cols)))
	for _, c := range cols {
		t[c].Encode(w)
	}
}

// valueHeaderSize is the in-memory size of one Value struct on a
// 64-bit platform (TestValueSize holds it to unsafe.Sizeof), so a
// memory budget accounts what is resident.
const valueHeaderSize = 40

// MemSize estimates the resident heap bytes a retained tuple pins:
// the slot array plus any out-of-line string/byte payloads. Used by
// memory-budgeted operators (hybrid-hash join) to account build state
// against pier.Config.JoinMemBudget.
func (t Tuple) MemSize() int64 {
	size := int64(len(t)) * valueHeaderSize
	for _, v := range t {
		size += int64(len(v.S))
	}
	return size
}

// String renders the row as (a, b, c).
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Column describes one attribute of a schema.
type Column struct {
	Name string
	Type Type
}

// Schema names a relation and its columns. Key lists the column
// indexes whose values form the resource identifier under which a
// tuple is published into the DHT (the paper's "namespace + resource
// ID" addressing).
type Schema struct {
	Name    string
	Columns []Column
	Key     []int
}

// NewSchema builds a schema; key columns are named.
func NewSchema(name string, cols []Column, keyCols ...string) (*Schema, error) {
	s := &Schema{Name: name, Columns: cols}
	for _, kc := range keyCols {
		i := s.ColIndex(kc)
		if i < 0 {
			return nil, fmt.Errorf("tuple: schema %s: key column %q not found", name, kc)
		}
		s.Key = append(s.Key, i)
	}
	return s, nil
}

// MustSchema is NewSchema, panicking on error; for static schemas.
func MustSchema(name string, cols []Column, keyCols ...string) *Schema {
	s, err := NewSchema(name, cols, keyCols...)
	if err != nil {
		panic(err)
	}
	return s
}

// BaseName strips any binding qualifier off a column name
// ("t.rate" → "rate") — the canonical key declared statistics,
// measured sketches, and gossip digests all agree on.
func BaseName(name string) string {
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		return name[i+1:]
	}
	return name
}

// ColIndex returns the index of the named column, or -1. Both bare
// ("rate") and qualified ("traffic.rate") names are accepted.
func (s *Schema) ColIndex(name string) int {
	for i, c := range s.Columns {
		if c.Name == name {
			return i
		}
	}
	if i := strings.IndexByte(name, '.'); i >= 0 {
		if name[:i] == s.Name {
			return s.ColIndex(name[i+1:])
		}
		return -1
	}
	// Qualified columns matched by suffix.
	for i, c := range s.Columns {
		if j := strings.IndexByte(c.Name, '.'); j >= 0 && c.Name[j+1:] == name {
			return i
		}
	}
	return -1
}

// Arity returns the number of columns.
func (s *Schema) Arity() int { return len(s.Columns) }

// Qualify returns a copy of the schema with every column name
// prefixed by alias ("t.col"), as the planner does for joins.
func (s *Schema) Qualify(alias string) *Schema {
	out := &Schema{Name: alias, Key: append([]int(nil), s.Key...)}
	out.Columns = make([]Column, len(s.Columns))
	for i, c := range s.Columns {
		name := c.Name
		if j := strings.IndexByte(name, '.'); j >= 0 {
			name = name[j+1:]
		}
		out.Columns[i] = Column{Name: alias + "." + name, Type: c.Type}
	}
	return out
}

// Concat merges two schemas (join output).
func (s *Schema) Concat(o *Schema) *Schema {
	out := &Schema{Name: s.Name + "_" + o.Name}
	out.Columns = append(append([]Column(nil), s.Columns...), o.Columns...)
	return out
}

// KeyOf computes the resource identifier for a tuple under this
// schema: the hash of its key columns (or the whole tuple when no key
// is declared).
func (s *Schema) KeyOf(t Tuple) id.ID {
	if len(s.Key) == 0 {
		return id.Hash(t.Bytes())
	}
	return t.HashKey(s.Key)
}

// Validate checks a tuple's arity and value kinds against the schema
// (NULL is accepted anywhere).
func (s *Schema) Validate(t Tuple) error {
	if len(t) != len(s.Columns) {
		return fmt.Errorf("tuple: arity %d does not match schema %s (%d columns)", len(t), s.Name, len(s.Columns))
	}
	for i, v := range t {
		if v.Kind == TNull {
			continue
		}
		want := s.Columns[i].Type
		if v.Kind != want && !(v.Kind == TInt && want == TFloat) {
			return fmt.Errorf("tuple: column %s has kind %v, want %v", s.Columns[i].Name, v.Kind, want)
		}
	}
	return nil
}

// EncodeSchema appends the schema to w so query plans can carry their
// table definitions to remote nodes.
func EncodeSchema(w *wire.Writer, s *Schema) {
	w.String(s.Name)
	w.Uvarint(uint64(len(s.Columns)))
	for _, c := range s.Columns {
		w.String(c.Name)
		w.Byte(byte(c.Type))
	}
	w.Uvarint(uint64(len(s.Key)))
	for _, k := range s.Key {
		w.Uvarint(uint64(k))
	}
}

// DecodeSchema reads a schema written by EncodeSchema.
func DecodeSchema(r *wire.Reader) (*Schema, error) {
	s := &Schema{Name: r.String()}
	ncols := int(r.Uvarint())
	if ncols > 4096 {
		return nil, fmt.Errorf("tuple: schema with %d columns", ncols)
	}
	for i := 0; i < ncols; i++ {
		s.Columns = append(s.Columns, Column{Name: r.String(), Type: Type(r.Byte())})
	}
	nkey := int(r.Uvarint())
	if nkey > ncols {
		return nil, fmt.Errorf("tuple: schema with %d key columns", nkey)
	}
	for i := 0; i < nkey; i++ {
		k := int(r.Uvarint())
		if k >= ncols {
			return nil, fmt.Errorf("tuple: key column %d out of range", k)
		}
		s.Key = append(s.Key, k)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return s, nil
}
