package agg

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tuple"
)

var allFuncs = []AggSpec{
	{Func: Sum, ArgCol: 1},
	{Func: Count, ArgCol: -1},
	{Func: Avg, ArgCol: 1},
	{Func: Min, ArgCol: 1},
	{Func: Max, ArgCol: 1},
}

// groupRaw folds (group, value) rows into one accumulator per group —
// the complete, single-site aggregation.
func groupRaw(t testing.TB, rows []tuple.Tuple, specs []AggSpec) map[string]*Accumulator {
	t.Helper()
	groups := map[string]*Accumulator{}
	for _, r := range rows {
		acc := groups[r[0].S]
		if acc == nil {
			acc = NewAccumulator(specs)
			groups[r[0].S] = acc
		}
		if err := acc.AddRaw(r); err != nil {
			t.Fatal(err)
		}
	}
	return groups
}

// mergeSites partially aggregates each site's rows, then merges the
// sites' state segments per group — the in-network aggregation tree.
func mergeSites(t testing.TB, sites [][]tuple.Tuple, specs []AggSpec) map[string]*Accumulator {
	t.Helper()
	final := map[string]*Accumulator{}
	for _, site := range sites {
		for g, partial := range groupRaw(t, site, specs) {
			acc := final[g]
			if acc == nil {
				acc = NewAccumulator(specs)
				final[g] = acc
			}
			state := partial.StateValues()
			if len(state) != StateWidth(specs) {
				t.Fatalf("state segment is %d wide, StateWidth says %d", len(state), StateWidth(specs))
			}
			if err := acc.MergeStates(state); err != nil {
				t.Fatal(err)
			}
		}
	}
	return final
}

func sameFinals(a, b map[string]*Accumulator) bool {
	if len(a) != len(b) {
		return false
	}
	for g, acc := range a {
		other, ok := b[g]
		if !ok || !tuple.Tuple(acc.FinalValues()).Equal(tuple.Tuple(other.FinalValues())) {
			return false
		}
	}
	return true
}

func aggRows() []tuple.Tuple {
	// (group, value)
	return []tuple.Tuple{
		{tuple.String("x"), tuple.Int(10)},
		{tuple.String("y"), tuple.Int(1)},
		{tuple.String("x"), tuple.Int(20)},
		{tuple.String("y"), tuple.Int(3)},
		{tuple.String("x"), tuple.Int(30)},
	}
}

func TestAccumulatorComplete(t *testing.T) {
	got := groupRaw(t, aggRows(), allFuncs)
	if len(got) != 2 {
		t.Fatalf("got %d groups", len(got))
	}
	x := got["x"].FinalValues()
	if x[0].I != 60 || x[1].I != 3 || x[2].F != 20.0 || x[3].I != 10 || x[4].I != 30 {
		t.Fatalf("x aggregates wrong: %v", x)
	}
	y := got["y"].FinalValues()
	if y[0].I != 4 || y[1].I != 2 || y[2].F != 2.0 {
		t.Fatalf("y aggregates wrong: %v", y)
	}
}

func TestAccumulatorPartialFinalEqualsComplete(t *testing.T) {
	rows := aggRows()
	got := mergeSites(t, [][]tuple.Tuple{rows[:2], rows[2:]}, allFuncs)
	if want := groupRaw(t, rows, allFuncs); !sameFinals(got, want) {
		t.Fatalf("two sites merged differ from one site complete")
	}
}

func TestAccumulatorNullsSkipped(t *testing.T) {
	rows := []tuple.Tuple{
		{tuple.String("g"), tuple.Null()},
		{tuple.String("g"), tuple.Int(4)},
	}
	specs := []AggSpec{{Func: Sum, ArgCol: 1}, {Func: Count, ArgCol: 1}, {Func: Count, ArgCol: -1}}
	for name, groups := range map[string]map[string]*Accumulator{
		"complete":      groupRaw(t, rows, specs),
		"partial+final": mergeSites(t, [][]tuple.Tuple{rows[:1], rows[1:]}, specs),
	} {
		r := groups["g"].FinalValues()
		if r[0].I != 4 || r[1].I != 1 || r[2].I != 2 {
			t.Fatalf("%s: null handling wrong: %v", name, r)
		}
	}
}

// TestAccumulatorEmptyGroupAll: a group-all accumulator that saw no
// row finishes as COUNT 0 and NULL for everything else, and its state
// segment is the identity of MergeStates. (That no group forms at all
// over an empty input is the PartialAgg operator's behaviour, tested
// in internal/physical.)
func TestAccumulatorEmptyGroupAll(t *testing.T) {
	empty := NewAccumulator(allFuncs)
	fin := empty.FinalValues()
	if fin[1].I != 0 || fin[1].IsNull() {
		t.Fatalf("empty COUNT(*) = %v", fin[1])
	}
	for _, i := range []int{0, 2, 3, 4} {
		if !fin[i].IsNull() {
			t.Fatalf("empty %s = %v, want NULL", allFuncs[i].Func, fin[i])
		}
	}
	full := groupRaw(t, aggRows(), allFuncs)["x"]
	before := tuple.Tuple(full.FinalValues()).Clone()
	if err := full.MergeStates(empty.StateValues()); err != nil {
		t.Fatal(err)
	}
	if !before.Equal(tuple.Tuple(full.FinalValues())) {
		t.Fatalf("merging an empty state changed %v to %v", before, full.FinalValues())
	}
}

func TestAccumulatorRejectsBadInput(t *testing.T) {
	acc := NewAccumulator([]AggSpec{{Func: Sum, ArgCol: 0}})
	if err := acc.AddRaw(tuple.Tuple{tuple.String("not a number")}); err == nil {
		t.Fatal("SUM over a string accepted")
	}
	if err := NewAccumulator(allFuncs).MergeStates([]tuple.Value{tuple.Int(1)}); err == nil {
		t.Fatal("short state segment accepted")
	}
}

// TestPropDistributedAggEqualsLocal: splitting any input across any
// number of partial sites and final-merging equals one-site complete
// aggregation — the associativity PIER's in-network trees rely on.
func TestPropDistributedAggEqualsLocal(t *testing.T) {
	f := func(vals []int16, groups []bool, sites uint8) bool {
		if len(vals) == 0 {
			return true
		}
		nSites := int(sites)%4 + 1
		rows := make([]tuple.Tuple, len(vals))
		split := make([][]tuple.Tuple, nSites)
		for i, v := range vals {
			g := "a"
			if i < len(groups) && groups[i] {
				g = "b"
			}
			rows[i] = tuple.Tuple{tuple.String(g), tuple.Int(int64(v))}
			split[i%nSites] = append(split[i%nSites], rows[i])
		}
		return sameFinals(mergeSites(t, split, allFuncs), groupRaw(t, rows, allFuncs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPropAccumulatorMergeAssociative: merging partial states in any
// grouping order yields the same finals.
func TestPropAccumulatorMergeAssociative(t *testing.T) {
	specs := []AggSpec{
		{Func: Sum, ArgCol: 0},
		{Func: Avg, ArgCol: 0},
		{Func: Min, ArgCol: 0},
		{Func: Max, ArgCol: 0},
		{Func: Count, ArgCol: -1},
	}
	f := func(vals []int16, seed int64) bool {
		if len(vals) < 2 {
			return true
		}
		rows := make([]tuple.Tuple, len(vals))
		for i, v := range vals {
			rows[i] = tuple.Tuple{tuple.Int(int64(v))}
		}
		// Flat: every row is its own partial, merged sequentially.
		flat := NewAccumulator(specs)
		for _, r := range rows {
			one := NewAccumulator(specs)
			if err := one.AddRaw(r); err != nil {
				return false
			}
			if err := flat.MergeStates(one.StateValues()); err != nil {
				return false
			}
		}
		// Tree: random binary grouping.
		rng := rand.New(rand.NewSource(seed))
		accs := make([]*Accumulator, len(rows))
		for i, r := range rows {
			accs[i] = NewAccumulator(specs)
			if err := accs[i].AddRaw(r); err != nil {
				return false
			}
		}
		for len(accs) > 1 {
			i := rng.Intn(len(accs) - 1)
			if err := accs[i].MergeStates(accs[i+1].StateValues()); err != nil {
				return false
			}
			accs = append(accs[:i+1], accs[i+2:]...)
		}
		a, b := flat.FinalValues(), accs[0].FinalValues()
		for i := range a {
			if !a[i].Equal(b[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
