package plan

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/agg"
	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/tuple"
)

// randSpec builds an arbitrary (structurally valid) join-tree spec:
// 1..5 scans, per-stage strategies and join columns, optional
// filters, aggregates, ordering, continuous clauses, and Analyze.
// Everything the wire codec carries is exercised.
func randSpec(r *rand.Rand) *Spec {
	nScans := 1 + r.Intn(5)
	s := &Spec{Limit: -1}
	for i := 0; i < nScans; i++ {
		arity := 1 + r.Intn(4)
		cols := make([]tuple.Column, arity)
		for c := range cols {
			cols[c] = tuple.Column{Name: fmt.Sprintf("t%d.c%d", i, c), Type: tuple.TInt}
		}
		sch := &tuple.Schema{Name: fmt.Sprintf("t%d", i), Columns: cols}
		if r.Intn(2) == 0 {
			sch.Key = []int{r.Intn(arity)}
		}
		// Half the scans keep every stored column; the rest drop one to
		// three, in order, and carry the row identity as their last.
		stored, kept := arity, arity
		if r.Intn(2) == 0 {
			stored, kept = arity+r.Intn(3), arity-1
		}
		keptCols := r.Perm(stored)[:kept]
		sort.Ints(keptCols)
		sc := ScanSpec{
			Table:       fmt.Sprintf("t%d", i),
			Namespace:   fmt.Sprintf("table:t%d", i),
			Stored:      stored,
			Cols:        keptCols,
			Schema:      sch,
			StatsSource: catalog.StatsSource(r.Intn(int(catalog.StatsDeclared) + 1)),
			StatsAge:    int64(r.Intn(120)) * 1e9,
		}
		if r.Intn(3) == 0 {
			sc.Where = &expr.Cmp{Op: expr.GT,
				L: &expr.Col{Name: cols[0].Name, Index: 0},
				R: expr.NewLit(tuple.Int(int64(r.Intn(100))))}
		}
		s.Scans = append(s.Scans, sc)
	}
	for k := 0; k < nScans-1; k++ {
		j := JoinSpec{
			Strategy: JoinStrategy(r.Intn(3)),
			EstLeft:  int64(r.Intn(10000)),
			EstRight: int64(r.Intn(10000)),
			EstRows:  int64(r.Intn(100000)),
		}
		if j.Strategy == BloomJoin && k > 0 {
			j.Strategy = SymmetricHash
		}
		nPreds := 1 + r.Intn(2)
		for p := 0; p < nPreds; p++ {
			j.LeftCols = append(j.LeftCols, r.Intn(s.LeftArity(k)))
			j.RightCols = append(j.RightCols, r.Intn(s.Scans[k+1].Schema.Arity()))
		}
		s.Joins = append(s.Joins, j)
	}
	if r.Intn(3) == 0 {
		s.PostFilter = &expr.Cmp{Op: expr.NE,
			L: &expr.Col{Name: "x", Index: r.Intn(s.LeftArity(nScans - 1))},
			R: expr.NewLit(tuple.Int(7))}
	}
	nProj := 1 + r.Intn(3)
	for i := 0; i < nProj; i++ {
		s.Proj = append(s.Proj, &expr.Col{Name: fmt.Sprintf("p%d", i), Index: i % s.LeftArity(nScans-1)})
		s.OutPerm = append(s.OutPerm, i)
		s.OutNames = append(s.OutNames, fmt.Sprintf("out%d", i))
	}
	if r.Intn(2) == 0 {
		s.GroupCols = []int{0}
		s.Aggs = []agg.AggSpec{{Func: agg.AggFunc(r.Intn(5)), ArgCol: -1 + r.Intn(nProj+1)}}
		if r.Intn(2) == 0 {
			s.Having = &expr.Cmp{Op: expr.GE,
				L: &expr.Col{Name: "h", Index: 1}, R: expr.NewLit(tuple.Int(3))}
		}
	}
	if r.Intn(2) == 0 {
		s.OrderCols = []int{0}
		s.OrderDesc = []bool{r.Intn(2) == 0}
		s.Limit = r.Intn(50)
	}
	s.Distinct = r.Intn(4) == 0
	if r.Intn(3) == 0 {
		s.Window = int64(1+r.Intn(10)) * 1e9
		s.Slide = int64(1+r.Intn(10)) * 1e8
		s.Live = int64(r.Intn(60)) * 1e9
	}
	s.Analyze = r.Intn(2) == 0
	return s
}

// TestSpecCodecRandomTrees round-trips arbitrary join trees:
// encode → decode → encode must be byte-identical, and the decoded
// structure must match stage for stage.
func TestSpecCodecRandomTrees(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		spec := randSpec(r)
		buf := spec.Bytes()
		decoded, err := FromBytes(buf)
		if err != nil {
			t.Fatalf("iter %d: decode: %v", i, err)
		}
		if !bytes.Equal(decoded.Bytes(), buf) {
			t.Fatalf("iter %d: codec not idempotent", i)
		}
		if len(decoded.Scans) != len(spec.Scans) || len(decoded.Joins) != len(spec.Joins) {
			t.Fatalf("iter %d: tree shape changed", i)
		}
		for k := range spec.Joins {
			if decoded.Joins[k].Strategy != spec.Joins[k].Strategy ||
				decoded.Joins[k].EstRows != spec.Joins[k].EstRows {
				t.Fatalf("iter %d: stage %d changed across codec", i, k)
			}
			if fmt.Sprint(decoded.Joins[k].LeftCols) != fmt.Sprint(spec.Joins[k].LeftCols) ||
				fmt.Sprint(decoded.Joins[k].RightCols) != fmt.Sprint(spec.Joins[k].RightCols) {
				t.Fatalf("iter %d: stage %d join cols changed", i, k)
			}
		}
		for k := range spec.Scans {
			if decoded.Scans[k].Stored != spec.Scans[k].Stored ||
				fmt.Sprint(decoded.Scans[k].Cols) != fmt.Sprint(spec.Scans[k].Cols) {
				t.Fatalf("iter %d: scan %d kept columns changed across codec", i, k)
			}
		}
		if decoded.Analyze != spec.Analyze {
			t.Fatalf("iter %d: Analyze flag lost", i)
		}
	}
}

// keptSpec encodes a one-scan spec that keeps cols of stored columns
// under a three-column schema.
func keptSpec(stored int, cols []int) []byte {
	sch := &tuple.Schema{Name: "t", Columns: []tuple.Column{{Name: "a"}, {Name: "b"}, {Name: "c"}}}
	s := &Spec{Limit: -1, Scans: []ScanSpec{{Table: "t", Namespace: "table:t", Stored: stored, Cols: cols, Schema: sch}},
		Proj: []expr.Expr{&expr.Col{Name: "a", Index: 0}}, OutPerm: []int{0}, OutNames: []string{"a"}}
	return s.Bytes()
}

// badKeptColumns returns one encoded spec per kind of kept-column list
// the decoder refuses: out of order, outside the stored arity, and of
// another length than the schema allows — a narrowed scan's schema is
// one longer than its list, for the row identity, a whole scan's
// exactly as long.
func badKeptColumns() map[string][]byte {
	return map[string][]byte{
		"descending":  keptSpec(4, []int{2, 0}),
		"repeated":    keptSpec(4, []int{1, 1}),
		"outside":     keptSpec(4, []int{0, 4}),
		"negative":    keptSpec(4, []int{-1, 0}),
		"no identity": keptSpec(4, []int{0, 1, 2}),
		"too short":   keptSpec(3, []int{0}),
	}
}

// TestSpecCodecRefusesBadKeptColumns: Cols drive tuple.Narrow and the
// decoder's column walk on every node, so a list the planner could not
// have produced fails the decode; the lists it does produce pass.
func TestSpecCodecRefusesBadKeptColumns(t *testing.T) {
	for name, buf := range badKeptColumns() {
		if _, err := FromBytes(buf); err == nil {
			t.Errorf("%s kept-column list accepted", name)
		}
	}
	for name, buf := range map[string][]byte{"narrowed": keptSpec(4, []int{0, 2}), "whole": keptSpec(3, []int{0, 1, 2})} {
		if _, err := FromBytes(buf); err != nil {
			t.Errorf("%s kept-column list refused: %v", name, err)
		}
	}
}

// aggSpec encodes a one-scan spec with one projection, grouped by
// group, aggregating with fn over arg.
func aggSpec(group []int, fn agg.AggFunc, arg int) []byte {
	s := &Spec{Limit: -1, Scans: []ScanSpec{{Table: "t", Namespace: "table:t", Stored: 1, Cols: []int{0},
		Schema: &tuple.Schema{Name: "t", Columns: []tuple.Column{{Name: "a"}}}}},
		Proj: []expr.Expr{&expr.Col{Name: "a", Index: 0}}, GroupCols: group,
		Aggs: []agg.AggSpec{{Func: fn, ArgCol: arg}}, OutPerm: []int{0}, OutNames: []string{"x"}}
	return s.Bytes()
}

// badAggregates returns one encoded spec per aggregate the decoder
// refuses: a function no accumulator knows (AggFunc.String would
// panic), an argument or a group column outside the projection
// (Accumulator.AddRaw and Tuple.Project would).
func badAggregates() map[string][]byte {
	return map[string][]byte{
		"unknown function": aggSpec(nil, agg.AggFunc(9), 0),
		"argument past":    aggSpec(nil, agg.Sum, 40),
		"argument below":   aggSpec(nil, agg.Sum, -2),
		"group past":       aggSpec([]int{1}, agg.Count, -1),
		"group negative":   aggSpec([]int{-1}, agg.Count, -1),
	}
}

// TestSpecCodecRefusesBadAggregates: a query broadcast is outside
// input, so an aggregate no node could run fails the decode; every
// known function over the whole row or a projected column passes.
func TestSpecCodecRefusesBadAggregates(t *testing.T) {
	for name, buf := range badAggregates() {
		if _, err := FromBytes(buf); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	for fn := agg.Count; fn <= agg.Sketch; fn++ {
		for _, arg := range []int{-1, 0} {
			if _, err := FromBytes(aggSpec([]int{0}, fn, arg)); err != nil {
				t.Errorf("%s(#%d) refused: %v", fn, arg, err)
			}
		}
	}
}

// FuzzSpecCodec feeds arbitrary bytes to the decoder: it must never
// panic, and anything it accepts must re-encode to a stable canonical
// form (decode(encode(x)) == x for the encoded form).
func FuzzSpecCodec(f *testing.F) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 16; i++ {
		f.Add(randSpec(r).Bytes())
	}
	for _, buf := range badKeptColumns() {
		f.Add(buf)
	}
	for _, buf := range badAggregates() {
		f.Add(buf)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x03})
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := FromBytes(data)
		if err != nil {
			return
		}
		_ = spec.Explain() // names every aggregate
		canonical := spec.Bytes()
		again, err := FromBytes(canonical)
		if err != nil {
			t.Fatalf("canonical form rejected: %v", err)
		}
		if !bytes.Equal(again.Bytes(), canonical) {
			t.Fatal("canonical form not a fixed point")
		}
	})
}
