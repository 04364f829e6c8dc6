package plan

import (
	"fmt"

	"repro/internal/agg"
	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// Plans are disseminated to every node with the query, so the spec
// has a complete wire encoding.

// Encode appends the spec to w.
func (s *Spec) Encode(w *wire.Writer) {
	w.Uvarint(uint64(len(s.Scans)))
	for i := range s.Scans {
		sc := &s.Scans[i]
		w.String(sc.Table)
		w.String(sc.Namespace)
		w.Uvarint(uint64(sc.Stored))
		encodeInts(w, sc.Cols)
		tuple.EncodeSchema(w, sc.Schema)
		expr.Encode(w, sc.Where)
		w.Byte(byte(sc.StatsSource))
		w.Varint(sc.StatsAge)
	}
	w.Uvarint(uint64(len(s.Joins)))
	for i := range s.Joins {
		j := &s.Joins[i]
		w.Byte(byte(j.Strategy))
		encodeInts(w, j.LeftCols)
		encodeInts(w, j.RightCols)
		w.Varint(j.EstLeft)
		w.Varint(j.EstRight)
		w.Varint(j.EstRows)
	}
	expr.Encode(w, s.PostFilter)
	w.Uvarint(uint64(len(s.Proj)))
	for _, e := range s.Proj {
		expr.Encode(w, e)
	}
	encodeInts(w, s.GroupCols)
	w.Uvarint(uint64(len(s.Aggs)))
	for _, a := range s.Aggs {
		w.Byte(byte(a.Func))
		w.Varint(int64(a.ArgCol))
	}
	encodeInts(w, s.OutPerm)
	w.Uvarint(uint64(len(s.OutNames)))
	for _, n := range s.OutNames {
		w.String(n)
	}
	expr.Encode(w, s.Having)
	encodeInts(w, s.OrderCols)
	w.Uvarint(uint64(len(s.OrderDesc)))
	for _, d := range s.OrderDesc {
		w.Bool(d)
	}
	w.Varint(int64(s.Limit))
	w.Bool(s.Distinct)
	w.Varint(s.Window)
	w.Varint(s.Slide)
	w.Varint(s.Live)
	w.Bool(s.Analyze)
}

// Bytes serializes the spec into a fresh buffer.
func (s *Spec) Bytes() []byte {
	w := wire.NewWriter(512)
	s.Encode(w)
	return w.Bytes()
}

// Decode reads a spec written by Encode.
func Decode(r *wire.Reader) (*Spec, error) {
	s := &Spec{}
	nScans := int(r.Uvarint())
	if nScans > MaxTables {
		return nil, fmt.Errorf("plan: %d scans in spec", nScans)
	}
	for i := 0; i < nScans; i++ {
		var sc ScanSpec
		sc.Table = r.String()
		sc.Namespace = r.String()
		stored := r.Uvarint()
		if stored > 4096 {
			return nil, fmt.Errorf("plan: scan %d over %d stored columns", i, stored)
		}
		sc.Stored = int(stored)
		var err error
		if sc.Cols, err = decodeInts(r); err != nil {
			return nil, err
		}
		if sc.Schema, err = tuple.DecodeSchema(r); err != nil {
			return nil, err
		}
		// Cols drive tuple.Narrow and the decoder's column walk on
		// every node, and the schema names what they yield: the kept
		// columns, then the row identity if any was dropped.
		want := len(sc.Cols)
		if want < sc.Stored {
			want++
		}
		if want != sc.Schema.Arity() {
			return nil, fmt.Errorf("plan: scan %d keeps %d of %d stored columns under a %d-column schema",
				i, len(sc.Cols), sc.Stored, sc.Schema.Arity())
		}
		for p, c := range sc.Cols {
			if c < 0 || c >= sc.Stored || (p > 0 && c <= sc.Cols[p-1]) {
				return nil, fmt.Errorf("plan: scan %d kept columns %v not ascending inside %d", i, sc.Cols, sc.Stored)
			}
		}
		sc.Where, err = expr.Decode(r)
		if err != nil {
			return nil, err
		}
		sc.StatsSource = catalog.StatsSource(r.Byte())
		if sc.StatsSource > catalog.StatsDeclared {
			return nil, fmt.Errorf("plan: unknown stats source %d", sc.StatsSource)
		}
		sc.StatsAge = r.Varint()
		s.Scans = append(s.Scans, sc)
	}
	nJoins := int(r.Uvarint())
	wantJoins := 0
	if nScans > 1 {
		wantJoins = nScans - 1
	}
	if nJoins != wantJoins {
		return nil, fmt.Errorf("plan: %d join stages for %d scans", nJoins, nScans)
	}
	var err error
	for i := 0; i < nJoins; i++ {
		var j JoinSpec
		j.Strategy = JoinStrategy(r.Byte())
		if j.Strategy > BloomJoin {
			return nil, fmt.Errorf("plan: unknown join strategy %d", j.Strategy)
		}
		if j.LeftCols, err = decodeInts(r); err != nil {
			return nil, err
		}
		if j.RightCols, err = decodeInts(r); err != nil {
			return nil, err
		}
		// Column indexes drive Tuple.Project and probe ordering on
		// every node; reject out-of-range or mismatched lists here so
		// a corrupt spec fails the decode instead of panicking an
		// executor.
		if len(j.LeftCols) == 0 || len(j.LeftCols) != len(j.RightCols) {
			return nil, fmt.Errorf("plan: join stage %d has %d left / %d right columns",
				i, len(j.LeftCols), len(j.RightCols))
		}
		leftArity, rightArity := s.LeftArity(i), s.Scans[i+1].Schema.Arity()
		for p := range j.LeftCols {
			if j.LeftCols[p] < 0 || j.LeftCols[p] >= leftArity {
				return nil, fmt.Errorf("plan: join stage %d left column %d out of range", i, j.LeftCols[p])
			}
			if j.RightCols[p] < 0 || j.RightCols[p] >= rightArity {
				return nil, fmt.Errorf("plan: join stage %d right column %d out of range", i, j.RightCols[p])
			}
		}
		j.EstLeft = r.Varint()
		j.EstRight = r.Varint()
		j.EstRows = r.Varint()
		s.Joins = append(s.Joins, j)
	}
	s.PostFilter, err = expr.Decode(r)
	if err != nil {
		return nil, err
	}
	nProj := int(r.Uvarint())
	if nProj > 4096 {
		return nil, fmt.Errorf("plan: %d projections", nProj)
	}
	for i := 0; i < nProj; i++ {
		e, err := expr.Decode(r)
		if err != nil {
			return nil, err
		}
		if e == nil {
			return nil, fmt.Errorf("plan: absent projection %d", i)
		}
		s.Proj = append(s.Proj, e)
	}
	if s.GroupCols, err = decodeInts(r); err != nil {
		return nil, err
	}
	// Group columns and aggregate arguments index the Proj output on
	// every node that runs the plan, and the function names a state
	// the accumulator knows: a query broadcast is outside input, so a
	// spec no executor could run fails here rather than panicking one.
	for _, g := range s.GroupCols {
		if g < 0 || g >= len(s.Proj) {
			return nil, fmt.Errorf("plan: group column %d outside %d projections", g, len(s.Proj))
		}
	}
	nAggs := int(r.Uvarint())
	if nAggs > 256 {
		return nil, fmt.Errorf("plan: %d aggregates", nAggs)
	}
	for i := 0; i < nAggs; i++ {
		fn := agg.AggFunc(r.Byte())
		arg := int(r.Varint())
		if r.Err() == nil && (!fn.Valid() || arg < -1 || arg >= len(s.Proj)) {
			return nil, fmt.Errorf("plan: aggregate %d is function %d over column %d of %d projections", i, int(fn), arg, len(s.Proj))
		}
		s.Aggs = append(s.Aggs, agg.AggSpec{Func: fn, ArgCol: arg})
	}
	if s.OutPerm, err = decodeInts(r); err != nil {
		return nil, err
	}
	nNames := int(r.Uvarint())
	if nNames > 4096 {
		return nil, fmt.Errorf("plan: %d output names", nNames)
	}
	for i := 0; i < nNames; i++ {
		s.OutNames = append(s.OutNames, r.String())
	}
	if s.Having, err = expr.Decode(r); err != nil {
		return nil, err
	}
	if s.OrderCols, err = decodeInts(r); err != nil {
		return nil, err
	}
	nDesc := int(r.Uvarint())
	if nDesc > 4096 {
		return nil, fmt.Errorf("plan: %d order flags", nDesc)
	}
	for i := 0; i < nDesc; i++ {
		s.OrderDesc = append(s.OrderDesc, r.Bool())
	}
	s.Limit = int(r.Varint())
	s.Distinct = r.Bool()
	s.Window = r.Varint()
	s.Slide = r.Varint()
	s.Live = r.Varint()
	s.Analyze = r.Bool()
	if err := r.Err(); err != nil {
		return nil, err
	}
	return s, nil
}

// FromBytes decodes a spec, rejecting trailing bytes.
func FromBytes(buf []byte) (*Spec, error) {
	r := wire.NewReader(buf)
	s, err := Decode(r)
	if err != nil {
		return nil, err
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return s, nil
}

func encodeInts(w *wire.Writer, xs []int) {
	w.Uvarint(uint64(len(xs)))
	for _, x := range xs {
		w.Varint(int64(x))
	}
}

func decodeInts(r *wire.Reader) ([]int, error) {
	n := int(r.Uvarint())
	if n > 4096 {
		return nil, fmt.Errorf("plan: int list of %d", n)
	}
	var out []int
	for i := 0; i < n; i++ {
		out = append(out, int(r.Varint()))
	}
	return out, r.Err()
}
