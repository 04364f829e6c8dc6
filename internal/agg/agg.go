// Package agg holds the aggregate state shared by every layer that
// folds values: the planner names aggregates with AggSpec, the
// physical PartialAgg/FinalAgg operators, the relay combiners and the
// centralized baseline fold them with Accumulator. State is mergeable
// (AVG carries sum and count), which is what lets aggregation run
// partial at the leaves, combine in the network and finish at a
// collector. Besides the five SQL aggregates there are two states the
// engine gathers with for itself — a Bloom filter (the Bloom join's
// phase 1) and a table sketch (ANALYZE) — so both run as ordinary
// one-shot aggregate queries. AggFunc's numeric values travel inside
// encoded plans.
package agg

import (
	"fmt"

	"repro/internal/bloom"
	"repro/internal/stats"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// AggFunc enumerates aggregate functions.
type AggFunc int

// Aggregate functions.
const (
	Count AggFunc = iota
	Sum
	Avg
	Min
	Max
	// Bloom folds whole rows into a Bloom filter of FilterBits bits;
	// filters merge by OR. It has no SQL name: the Bloom join gathers
	// its phase-1 filters with it.
	Bloom
	// Sketch folds whole rows into a stats.TableSketch (row count,
	// per-column HyperLogLog, bottom-k sample); sketches merge with
	// TableSketch.Merge. It has no SQL name: ANALYZE gathers with it.
	Sketch
)

func (f AggFunc) String() string {
	return [...]string{"COUNT", "SUM", "AVG", "MIN", "MAX", "BLOOM", "SKETCH"}[f]
}

// Valid reports whether f is a known aggregate function.
func (f AggFunc) Valid() bool { return f >= Count && f <= Sketch }

// The one Bloom filter geometry: every site builds with it, so any two
// filters OR together.
const (
	FilterBits   = 8192
	FilterHashes = 4
)

// NewBloom returns an empty filter of the shared geometry.
func NewBloom() *bloom.Filter { return bloom.NewWithBits(FilterBits, FilterHashes) }

// BloomOf decodes a Bloom state or final value.
func BloomOf(v tuple.Value) (*bloom.Filter, error) {
	if v.Kind != tuple.TBytes {
		return nil, fmt.Errorf("agg: BLOOM state of kind %s", v.Kind)
	}
	r := wire.NewReader(v.AsBytes())
	f, err := bloom.Decode(r)
	if err != nil {
		return nil, err
	}
	return f, r.Done()
}

// SketchOf decodes a Sketch state or final value. Its table and column
// names are empty: the aggregate sees rows, not a schema, so the
// caller names them.
func SketchOf(v tuple.Value) (*stats.TableSketch, error) {
	if v.Kind != tuple.TBytes {
		return nil, fmt.Errorf("agg: SKETCH state of kind %s", v.Kind)
	}
	return stats.TableSketchFromBytes(v.AsBytes())
}

// AggSpec is one aggregate: Func applied to column ArgCol (-1 means
// COUNT(*), and the whole row for Bloom and Sketch).
type AggSpec struct {
	Func   AggFunc
	ArgCol int
}

// StateWidth returns how many state columns the spec occupies in a
// partial tuple.
func (s AggSpec) StateWidth() int {
	if s.Func == Avg {
		return 2 // sum, count
	}
	return 1
}

type aggState struct {
	count int64
	sumI  int64
	sumF  float64
	isF   bool
	min   tuple.Value
	max   tuple.Value
	seen  bool
	// filter and sketch hold the Bloom and Sketch states; nil until a
	// row or a state arrives.
	filter *bloom.Filter
	sketch *stats.TableSketch
}

func (st *aggState) addRaw(spec AggSpec, t tuple.Tuple) error {
	switch spec.Func {
	case Bloom:
		if st.filter == nil {
			st.filter = NewBloom()
		}
		w := wire.GetWriter()
		t.Encode(w) // the bytes BloomProbe hashes: AppendKey over every column
		st.filter.Add(w.Bytes())
		wire.PutWriter(w)
		return nil
	case Sketch:
		if st.sketch == nil {
			st.sketch = stats.NewTableSketch("", make([]string, len(t)))
		}
		st.sketch.Add(t)
		return nil
	}
	if spec.ArgCol < 0 {
		st.count++
		return nil
	}
	v := t[spec.ArgCol]
	if v.IsNull() {
		return nil // SQL: aggregates skip NULLs
	}
	st.count++
	switch spec.Func {
	case Sum, Avg:
		switch v.Kind {
		case tuple.TInt:
			st.sumI += v.I
		case tuple.TFloat:
			st.isF = true
			st.sumF += v.F
		default:
			return fmt.Errorf("agg: %s over %s column", spec.Func, v.Kind)
		}
	case Min:
		if !st.seen || v.Compare(st.min) < 0 {
			st.min = v
		}
	case Max:
		if !st.seen || v.Compare(st.max) > 0 {
			st.max = v
		}
	}
	st.seen = true
	return nil
}

func (st *aggState) sumValue() tuple.Value {
	if st.isF {
		return tuple.Float(st.sumF + float64(st.sumI))
	}
	return tuple.Int(st.sumI)
}

// blob encodes a Bloom or Sketch state (NULL before any row).
func (st *aggState) blob(spec AggSpec) tuple.Value {
	switch {
	case spec.Func == Bloom && st.filter != nil:
		w := wire.NewWriter(st.filter.SizeBytes() + 8)
		st.filter.Encode(w)
		return tuple.Bytes(w.Bytes())
	case spec.Func == Sketch && st.sketch != nil:
		return tuple.Bytes(st.sketch.Bytes())
	}
	return tuple.Null()
}

// partial emits the mergeable state columns.
func (st *aggState) partial(spec AggSpec) []tuple.Value {
	switch spec.Func {
	case Bloom, Sketch:
		return []tuple.Value{st.blob(spec)}
	case Count:
		return []tuple.Value{tuple.Int(st.count)}
	case Sum:
		if st.count == 0 {
			return []tuple.Value{tuple.Null()}
		}
		return []tuple.Value{st.sumValue()}
	case Avg:
		if st.count == 0 {
			return []tuple.Value{tuple.Null(), tuple.Int(0)}
		}
		return []tuple.Value{st.sumValue(), tuple.Int(st.count)}
	case Min:
		if !st.seen {
			return []tuple.Value{tuple.Null()}
		}
		return []tuple.Value{st.min}
	case Max:
		if !st.seen {
			return []tuple.Value{tuple.Null()}
		}
		return []tuple.Value{st.max}
	}
	return nil
}

// final emits the user-visible result column.
func (st *aggState) final(spec AggSpec) tuple.Value {
	switch spec.Func {
	case Bloom, Sketch:
		return st.blob(spec)
	case Count:
		return tuple.Int(st.count)
	case Sum:
		if st.count == 0 {
			return tuple.Null()
		}
		return st.sumValue()
	case Avg:
		if st.count == 0 {
			return tuple.Null()
		}
		sum, _ := st.sumValue().AsFloat()
		return tuple.Float(sum / float64(st.count))
	case Min:
		if !st.seen {
			return tuple.Null()
		}
		return st.min
	case Max:
		if !st.seen {
			return tuple.Null()
		}
		return st.max
	}
	return tuple.Null()
}

// mergeState folds one partial-state tuple segment into st.
func (st *aggState) mergeState(spec AggSpec, vals []tuple.Value) error {
	switch spec.Func {
	case Bloom:
		if vals[0].IsNull() {
			return nil
		}
		f, err := BloomOf(vals[0])
		if err != nil {
			return err
		}
		if st.filter == nil {
			st.filter = NewBloom()
		}
		return st.filter.Or(f)
	case Sketch:
		if vals[0].IsNull() {
			return nil
		}
		sk, err := SketchOf(vals[0])
		if err != nil {
			return err
		}
		if st.sketch == nil {
			st.sketch = sk
			return nil
		}
		return st.sketch.Merge(sk)
	case Count:
		if !vals[0].IsNull() {
			st.count += vals[0].I
		}
	case Sum:
		if vals[0].IsNull() {
			return nil
		}
		st.count++ // presence marker: at least one non-null contributed
		switch vals[0].Kind {
		case tuple.TInt:
			st.sumI += vals[0].I
		case tuple.TFloat:
			st.isF = true
			st.sumF += vals[0].F
		default:
			return fmt.Errorf("agg: bad SUM state kind %s", vals[0].Kind)
		}
	case Avg:
		if vals[0].IsNull() {
			return nil
		}
		switch vals[0].Kind {
		case tuple.TInt:
			st.sumI += vals[0].I
		case tuple.TFloat:
			st.isF = true
			st.sumF += vals[0].F
		}
		st.count += vals[1].I
	case Min:
		if vals[0].IsNull() {
			return nil
		}
		if !st.seen || vals[0].Compare(st.min) < 0 {
			st.min = vals[0]
		}
		st.seen = true
	case Max:
		if vals[0].IsNull() {
			return nil
		}
		if !st.seen || vals[0].Compare(st.max) > 0 {
			st.max = vals[0]
		}
		st.seen = true
	}
	if spec.Func != Count {
		st.seen = true
	}
	return nil
}

// Accumulator folds raw tuples and partial states for one group — the
// building block of the physical aggregation operators, PIER's
// in-network relay combiners and the centralized baseline.
type Accumulator struct {
	aggs   []AggSpec
	states []aggState
}

// NewAccumulator creates an accumulator over the given specs.
func NewAccumulator(aggs []AggSpec) *Accumulator {
	return &Accumulator{aggs: aggs, states: make([]aggState, len(aggs))}
}

// AddRaw folds one raw work tuple (Proj output) into the state.
func (a *Accumulator) AddRaw(t tuple.Tuple) error {
	for i, spec := range a.aggs {
		if err := a.states[i].addRaw(spec, t); err != nil {
			return err
		}
	}
	return nil
}

// MergeStates folds the state segment of a partial tuple (the values
// after the group columns).
func (a *Accumulator) MergeStates(vals []tuple.Value) error {
	off := 0
	for i, spec := range a.aggs {
		w := spec.StateWidth()
		if off+w > len(vals) {
			return fmt.Errorf("agg: partial state too short: %d values for spec %d", len(vals), i)
		}
		if err := a.states[i].mergeState(spec, vals[off:off+w]); err != nil {
			return err
		}
		off += w
	}
	return nil
}

// StateValues emits the mergeable partial representation.
func (a *Accumulator) StateValues() []tuple.Value {
	var out []tuple.Value
	for i, spec := range a.aggs {
		out = append(out, a.states[i].partial(spec)...)
	}
	return out
}

// FinalValues emits the user-visible results.
func (a *Accumulator) FinalValues() []tuple.Value {
	out := make([]tuple.Value, len(a.aggs))
	for i, spec := range a.aggs {
		out[i] = a.states[i].final(spec)
	}
	return out
}

// StateWidth returns the total width of the state segment.
func StateWidth(aggs []AggSpec) int {
	w := 0
	for _, a := range aggs {
		w += a.StateWidth()
	}
	return w
}
