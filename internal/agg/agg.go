// Package agg holds the aggregate state shared by every layer that
// folds values: the planner names aggregates with AggSpec, the
// physical PartialAgg/FinalAgg operators, the relay combiners and the
// centralized baseline fold them with Accumulator. State is mergeable
// (AVG carries sum and count), which is what lets aggregation run
// partial at the leaves, combine in the network and finish at a
// collector. The package imports only tuple: AggFunc's numeric values
// travel inside encoded plans.
package agg

import (
	"fmt"

	"repro/internal/tuple"
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
)

func (f AggFunc) String() string {
	return [...]string{"COUNT", "SUM", "AVG", "MIN", "MAX"}[f]
}

// AggSpec is one aggregate: Func applied to column ArgCol (-1 means
// COUNT(*)).
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
}

func (st *aggState) addRaw(spec AggSpec, t tuple.Tuple) error {
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

// partial emits the mergeable state columns.
func (st *aggState) partial(spec AggSpec) []tuple.Value {
	switch spec.Func {
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
