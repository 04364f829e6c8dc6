// Package stats implements PIER's distributed statistics sketches:
// per-table, per-partition summaries — a row counter, a HyperLogLog
// distinct-counter per column, and a bottom-k (KMV) row sample — that
// merge deterministically, so the ANALYZE gather can combine
// per-partition sketches in any order and every node arrives at the
// same network-wide estimate. All statistics are soft state in the
// paper's sense: measured, TTL'd, refreshed by re-measuring, never
// stored in a global persistent catalog.
package stats

import (
	"fmt"
	"sort"

	"repro/internal/tuple"
	"repro/internal/wire"
)

// DefaultSampleK is the bottom-k row-sample capacity.
const DefaultSampleK = 64

// MaxColumns bounds the per-table column sketches; receivers reject
// anything larger, so builders truncate here rather than encode
// sketches the whole network would silently drop. Row counts stay
// exact regardless — only distinct estimates for columns past the
// cap are unavailable.
const MaxColumns = 256

// ColumnSketch is one column's distinct-counter.
type ColumnSketch struct {
	// Name is the base (unqualified) column name — the key the
	// catalog and optimizer use for distinct estimates.
	Name string
	HLL  *HLL
}

// TableSketch summarizes one table's partition (or, after merging,
// the whole table).
type TableSketch struct {
	Table string
	// Rows counts the tuples observed.
	Rows int64
	// Cols holds one distinct-counter per column, in schema order.
	Cols []ColumnSketch
	// Sample is the bottom-k row sample.
	Sample *Sample
}

// NewTableSketch creates an empty sketch over the given base column
// names (truncated to MaxColumns).
func NewTableSketch(table string, cols []string) *TableSketch {
	if len(cols) > MaxColumns {
		cols = cols[:MaxColumns]
	}
	s := &TableSketch{Table: table, Sample: NewSample(DefaultSampleK)}
	for _, c := range cols {
		s.Cols = append(s.Cols, ColumnSketch{Name: c, HLL: NewHLL()})
	}
	return s
}

// Add observes one tuple: count it, feed every column's
// distinct-counter, and offer the row to the sample. Tuples with the
// wrong arity only count rows (best effort, like scans; tables wider
// than MaxColumns sketch their first MaxColumns columns).
func (s *TableSketch) Add(t tuple.Tuple) {
	s.Rows++
	if len(t) != len(s.Cols) && !(len(s.Cols) == MaxColumns && len(t) > MaxColumns) {
		return
	}
	w := wire.GetWriter()
	for i := range s.Cols {
		w.Reset()
		t[i].Encode(w)
		s.Cols[i].HLL.Add(w.Bytes())
	}
	w.Reset()
	t.Encode(w)
	enc := w.Bytes()
	s.Sample.Add(wire.Hash64(enc), enc)
	wire.PutWriter(w)
}

// Distincts returns every column's distinct estimate.
func (s *TableSketch) Distincts() map[string]int64 {
	out := make(map[string]int64, len(s.Cols))
	for i := range s.Cols {
		out[s.Cols[i].Name] = s.Cols[i].HLL.Estimate()
	}
	return out
}

// Merge folds another partition's sketch of the same table in.
// Columns match by name; a sketch from a node with a conflicting
// schema errors rather than silently corrupting estimates.
func (s *TableSketch) Merge(o *TableSketch) error {
	if o.Table != s.Table {
		return fmt.Errorf("stats: merging sketch of %q into %q", o.Table, s.Table)
	}
	if len(o.Cols) != len(s.Cols) {
		return fmt.Errorf("stats: sketch of %q has %d columns, want %d", o.Table, len(o.Cols), len(s.Cols))
	}
	for i := range s.Cols {
		if s.Cols[i].Name != o.Cols[i].Name {
			return fmt.Errorf("stats: sketch column %q, want %q", o.Cols[i].Name, s.Cols[i].Name)
		}
	}
	s.Rows += o.Rows
	for i := range s.Cols {
		s.Cols[i].HLL.Merge(o.Cols[i].HLL)
	}
	s.Sample.Merge(o.Sample)
	return nil
}

// Encode appends the sketch to w.
func (s *TableSketch) Encode(w *wire.Writer) {
	w.String(s.Table)
	w.Varint(s.Rows)
	w.Uvarint(uint64(len(s.Cols)))
	for i := range s.Cols {
		w.String(s.Cols[i].Name)
		s.Cols[i].HLL.Encode(w)
	}
	s.Sample.Encode(w)
}

// Bytes serializes the sketch into a fresh buffer.
func (s *TableSketch) Bytes() []byte {
	w := wire.NewWriter(256)
	s.Encode(w)
	return w.Bytes()
}

// DecodeTableSketch reads a sketch written by Encode.
func DecodeTableSketch(r *wire.Reader) (*TableSketch, error) {
	s := &TableSketch{}
	s.Table = r.String()
	s.Rows = r.Varint()
	n := int(r.Uvarint())
	if n > MaxColumns {
		return nil, fmt.Errorf("stats: sketch with %d columns", n)
	}
	for i := 0; i < n; i++ {
		name := r.String()
		h, err := DecodeHLL(r)
		if err != nil {
			return nil, err
		}
		s.Cols = append(s.Cols, ColumnSketch{Name: name, HLL: h})
	}
	var err error
	if s.Sample, err = DecodeSample(r); err != nil {
		return nil, err
	}
	return s, r.Err()
}

// TableSketchFromBytes decodes one sketch, rejecting trailing bytes.
func TableSketchFromBytes(buf []byte) (*TableSketch, error) {
	r := wire.NewReader(buf)
	s, err := DecodeTableSketch(r)
	if err != nil {
		return nil, err
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return s, nil
}

// ---------------------------------------------------------------------------
// Bottom-k (KMV) row sample

// SampleItem is one sampled row with its hash rank.
type SampleItem struct {
	Hash uint64
	Row  []byte
}

// Sample keeps the k rows with the smallest hash of their canonical
// encoding — a uniform sample without replacement whose merge (union,
// keep k smallest) is deterministic and order-independent, unlike a
// classic randomized reservoir.
type Sample struct {
	K     int
	Items []SampleItem // sorted by Hash ascending, hashes unique
}

// NewSample creates an empty bottom-k sample.
func NewSample(k int) *Sample {
	if k < 1 {
		k = 1
	}
	return &Sample{K: k}
}

// Add offers one row.
func (s *Sample) Add(hash uint64, row []byte) {
	i := sort.Search(len(s.Items), func(i int) bool { return s.Items[i].Hash >= hash })
	if i < len(s.Items) && s.Items[i].Hash == hash {
		return // duplicate row (or hash collision): already represented
	}
	if len(s.Items) >= s.K && i >= s.K {
		return
	}
	row = append([]byte(nil), row...)
	s.Items = append(s.Items, SampleItem{})
	copy(s.Items[i+1:], s.Items[i:])
	s.Items[i] = SampleItem{Hash: hash, Row: row}
	if len(s.Items) > s.K {
		s.Items = s.Items[:s.K]
	}
}

// Merge unions another sample in, keeping the k smallest hashes.
// Capacity takes the larger of the two k's, so a small-capacity peer
// sketch arriving first can never permanently truncate the merged
// network-wide sample.
func (s *Sample) Merge(o *Sample) {
	if o == nil {
		return
	}
	if o.K > s.K {
		s.K = o.K
	}
	for _, it := range o.Items {
		s.Add(it.Hash, it.Row)
	}
}

// Rows decodes the sampled rows (best effort).
func (s *Sample) Rows() []tuple.Tuple {
	out := make([]tuple.Tuple, 0, len(s.Items))
	for _, it := range s.Items {
		if t, err := tuple.FromBytes(it.Row); err == nil {
			out = append(out, t)
		}
	}
	return out
}

// Clone deep-copies the sample.
func (s *Sample) Clone() *Sample {
	c := &Sample{K: s.K, Items: make([]SampleItem, len(s.Items))}
	for i, it := range s.Items {
		c.Items[i] = SampleItem{Hash: it.Hash, Row: append([]byte(nil), it.Row...)}
	}
	return c
}

// Encode appends the sample to w.
func (s *Sample) Encode(w *wire.Writer) {
	w.Uvarint(uint64(s.K))
	w.Uvarint(uint64(len(s.Items)))
	for _, it := range s.Items {
		w.Uint64(it.Hash)
		w.BytesLP(it.Row)
	}
}

// DecodeSample reads a sample written by Encode, enforcing the
// in-memory invariants (strictly ascending unique hashes, sane
// capacity) — merge adopts decoded samples verbatim, so a malformed
// peer sketch must fail the decode rather than corrupt the
// accumulator's binary-search inserts.
func DecodeSample(r *wire.Reader) (*Sample, error) {
	k := int(r.Uvarint())
	n := int(r.Uvarint())
	if k < 1 || k > 1<<16 || n > k {
		if err := r.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("stats: sample k=%d n=%d", k, n)
	}
	s := &Sample{K: k}
	for i := 0; i < n; i++ {
		h := r.Uint64()
		row := append([]byte(nil), r.BytesLP()...)
		if i > 0 && h <= s.Items[i-1].Hash {
			if err := r.Err(); err != nil {
				return nil, err
			}
			return nil, fmt.Errorf("stats: sample items not strictly ascending")
		}
		s.Items = append(s.Items, SampleItem{Hash: h, Row: row})
	}
	return s, r.Err()
}
