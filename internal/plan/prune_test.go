package plan

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/sqlparser"
	"repro/internal/tuple"
)

// pruneCatalog holds the benchmark's join tables (orders carries a wide
// pad column no statement reads), a third table for a chain keyed on
// its join column, and a table with no declared key.
func pruneCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	for _, s := range []*tuple.Schema{
		tuple.MustSchema("orders", []tuple.Column{
			{Name: "node", Type: tuple.TString},
			{Name: "oid", Type: tuple.TInt},
			{Name: "uid", Type: tuple.TInt},
			{Name: "item", Type: tuple.TInt},
			{Name: "pad", Type: tuple.TString},
		}, "node", "oid"),
		tuple.MustSchema("users", []tuple.Column{
			{Name: "node", Type: tuple.TString},
			{Name: "uid", Type: tuple.TInt},
			{Name: "name", Type: tuple.TString},
		}, "node", "uid"),
		tuple.MustSchema("items", []tuple.Column{
			{Name: "item", Type: tuple.TInt},
			{Name: "price", Type: tuple.TFloat},
			{Name: "blurb", Type: tuple.TString},
		}, "item"),
		tuple.MustSchema("log", []tuple.Column{
			{Name: "at", Type: tuple.TInt},
			{Name: "line", Type: tuple.TString},
		}),
	} {
		if _, err := cat.Define(s, time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

// kept renders each scan's kept columns as "table:[cols]/stored key=[..]".
func kept(spec *Spec) string {
	var parts []string
	for i := range spec.Scans {
		sc := &spec.Scans[i]
		names := make([]string, len(sc.Schema.Columns))
		for c, col := range sc.Schema.Columns {
			names[c] = tuple.BaseName(col.Name)
		}
		parts = append(parts, fmt.Sprintf("%s:%v=%v/%d key=%v", sc.Table, names, sc.Cols, sc.Stored, sc.Schema.Key))
	}
	return strings.Join(parts, " ")
}

// TestKeptColumns: a scan keeps, in stored order, the columns the
// statement reads anywhere, and its schema ends in the row identity
// when that is not all of them; the declared key survives only whole.
// SELECT * keeps everything.
func TestKeptColumns(t *testing.T) {
	sym := SymmetricHash
	for _, tc := range []struct {
		name, sql, want string
	}{
		{"the benchmark join: pad and the unread key column node are never decoded",
			"SELECT o.oid, u.name FROM orders o JOIN users u ON o.uid = u.uid",
			"orders:[oid uid #row]=[1 2]/5 key=[] users:[uid name #row]=[1 2]/3 key=[]"},
		{"SELECT * keeps every column of every table",
			"SELECT * FROM orders o JOIN users u ON o.uid = u.uid",
			"orders:[node oid uid item pad]=[0 1 2 3 4]/5 key=[0 1] users:[node uid name]=[0 1 2]/3 key=[0 1]"},
		{"a table with no declared key prunes like any other",
			"SELECT at FROM log",
			"log:[at #row]=[0]/2 key=[]"},
		{"every column read: the stored row as it is, no identity column",
			"SELECT line FROM log WHERE at > 3",
			"log:[at line]=[0 1]/2 key=[]"},
		{"a key nobody reads goes; the narrow schema declares none",
			"SELECT price FROM items",
			"items:[price #row]=[1]/3 key=[]"},
		{"a key read whole is remapped onto the kept columns",
			"SELECT oid, item FROM orders WHERE node = 'n1'",
			"orders:[node oid item #row]=[0 1 3]/5 key=[0 1]"},
		{"no column read at all: the identity alone",
			"SELECT COUNT(*) FROM orders",
			"orders:[#row]=[]/5 key=[]"},
		{"a column read only by a pushed-down WHERE",
			"SELECT o.oid FROM orders o JOIN users u ON o.uid = u.uid WHERE o.item > 3",
			"orders:[oid uid item #row]=[1 2 3]/5 key=[] users:[uid #row]=[1]/3 key=[]"},
		{"columns read by GROUP BY, an aggregate argument, HAVING and ORDER BY",
			"SELECT uid, SUM(item) AS total FROM orders GROUP BY uid HAVING SUM(item) > 10 ORDER BY total",
			"orders:[uid item #row]=[2 3]/5 key=[]"},
		{"a select-item alias in ORDER BY resolves to no column",
			"SELECT price AS pad FROM items ORDER BY pad",
			"items:[price #row]=[1]/3 key=[]"},
	} {
		spec := compileWith(t, pruneCatalog(t), tc.sql, Options{Strategy: &sym})
		if got := kept(spec); got != tc.want {
			t.Errorf("%s\n  %s\n  kept %s\n  want %s", tc.name, tc.sql, got, tc.want)
		}
		for i := range spec.Scans {
			sc := &spec.Scans[i]
			stored := make(tuple.Tuple, sc.Stored)
			if row, ok := sc.Narrow(stored); !ok || len(row) != sc.Schema.Arity() {
				t.Errorf("%s: scan %s narrows to %d values under a %d-column schema", tc.name, sc.Table, len(row), sc.Schema.Arity())
			}
		}
		if _, err := FromBytes(spec.Bytes()); err != nil {
			t.Errorf("%s: the codec refuses the compiled spec: %v", tc.name, err)
		}
	}
}

// TestReadColumnsCoversEveryClause: the names are gathered before the
// statement is validated, from every clause that can name a column —
// ORDER BY and HAVING included, though a valid statement can only repeat
// there what its select list already reads.
func TestReadColumnsCoversEveryClause(t *testing.T) {
	stmt, err := sqlparser.Parse("SELECT a, SUM(b) FROM t JOIN u ON c = d WHERE e > 1 GROUP BY f HAVING MAX(g) > 2 ORDER BY h")
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(readColumns(stmt), " ")
	if got != "a b e c d f g h" {
		t.Fatalf("read columns %q", got)
	}
}

// TestKeptColumnsThreeTableChain: every predicate, join column and
// projection of a chain indexes the narrow accumulated schema — stage
// 1's left columns count kept columns of both earlier scans, not stored
// ones.
func TestKeptColumnsThreeTableChain(t *testing.T) {
	sym := SymmetricHash
	spec := compileWith(t, pruneCatalog(t),
		"SELECT o.oid, u.name, i.price FROM orders o JOIN users u ON o.uid = u.uid JOIN items i ON o.item = i.item",
		Options{Strategy: &sym})
	want := "orders:[oid uid item #row]=[1 2 3]/5 key=[] users:[uid name #row]=[1 2]/3 key=[] items:[item price #row]=[0 1]/3 key=[0]"
	if got := kept(spec); got != want {
		t.Fatalf("kept %s\nwant %s", got, want)
	}
	if spec.LeftArity(1) != 7 {
		t.Fatalf("stage 1 left arity %d, want 4 + 3 narrow columns", spec.LeftArity(1))
	}
	left := spec.LeftSchema(1)
	for k, wantL := range []string{"o.uid", "o.item"} {
		j := &spec.Joins[k]
		if len(j.LeftCols) != 1 || left.Columns[j.LeftCols[0]].Name != wantL {
			t.Fatalf("stage %d left column %v of %v, want %s", k, j.LeftCols, left.Columns, wantL)
		}
	}
	if got := spec.Scans[2].Schema.Columns[spec.Joins[1].RightCols[0]].Name; got != "i.item" {
		t.Fatalf("stage 1 right column %s", got)
	}
	// The projection reads oid, name, price out of the 10-column joined
	// row and none of the three identities.
	row := tuple.Tuple{
		tuple.Int(11), tuple.Int(22), tuple.Int(33), tuple.Int(-1),
		tuple.Int(22), tuple.String("ann"), tuple.Int(-2),
		tuple.Int(33), tuple.Float(9.5), tuple.Int(-3),
	}
	var out []string
	for _, e := range spec.Proj {
		v, err := e.Eval(row)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, v.String())
	}
	if strings.Join(out, ",") != "11,ann,9.5" {
		t.Fatalf("projection over the narrow joined row: %v", out)
	}
	if ex := spec.Explain(); !strings.Contains(ex, "Scan orders [table:orders] cols=[oid, uid, item, #row]/5") ||
		!strings.Contains(ex, "Scan users [table:users] cols=[uid, name, #row]/3") {
		t.Fatalf("EXPLAIN does not name the kept columns:\n%s", ex)
	}
}

// TestAmbiguousNamesResolveAsBefore: pruning looks names up through
// the same Schema.ColIndex the predicates and the select list use, so a
// bare name two tables share keeps a column on each side and then
// resolves — or fails — exactly as it did.
func TestAmbiguousNamesResolveAsBefore(t *testing.T) {
	cat := pruneCatalog(t)
	stmt, err := sqlparser.Parse("SELECT oid FROM orders o JOIN users u ON uid = uid")
	if err != nil {
		t.Fatal(err)
	}
	_, err = Compile(stmt, cat, Options{})
	if err == nil || err.Error() != "plan: joins require at least one equality predicate between the tables" {
		t.Fatalf("ambiguous join columns: %v", err)
	}
	// A bare name in the select list and the WHERE takes the first table
	// that has it, as it did over full rows.
	sym := SymmetricHash
	spec := compileWith(t, cat, "SELECT uid, name FROM orders o JOIN users u ON o.uid = u.uid WHERE uid > 3", Options{Strategy: &sym})
	if got := kept(spec); got != "orders:[uid #row]=[2]/5 key=[] users:[uid name #row]=[1 2]/3 key=[]" {
		t.Fatalf("kept %s", got)
	}
	if spec.Scans[0].Where == nil || spec.Scans[1].Where != nil {
		t.Fatalf("bare uid filter not pushed into the first table alone:\n%s", spec.Explain())
	}
	row := tuple.Tuple{tuple.Int(7), tuple.Int(-1), tuple.Int(8), tuple.String("bob"), tuple.Int(-2)}
	if v, err := spec.Proj[0].Eval(row); err != nil || v.I != 7 {
		t.Fatalf("bare uid projects %v (%v), want the orders side's 7", v, err)
	}
}

// TestNarrowAgreesWithDecodeCols: the two forms of the one rule — a
// decoded stored row through ScanSpec.Narrow, an encoded one through
// tuple.Decoder.DecodeCols — yield the same plan row and refuse the
// same rows.
func TestNarrowAgreesWithDecodeCols(t *testing.T) {
	spec := compileWith(t, pruneCatalog(t), "SELECT price FROM items", Options{})
	sc := &spec.Scans[0]
	var d tuple.Decoder
	stored := tuple.Tuple{tuple.Int(4), tuple.Float(2.5), tuple.String("never read")}
	fromTuple, ok := sc.Narrow(stored)
	fromBytes, err := d.DecodeCols(stored.Bytes(), sc.Stored, sc.Cols)
	if !ok || err != nil || !fromTuple.Equal(fromBytes) || len(fromTuple) != 2 || !fromTuple[1].Equal(tuple.RowID(stored.Bytes())) {
		t.Fatalf("narrow %v (%v), decode %v (%v)", fromTuple, ok, fromBytes, err)
	}
	for _, other := range []tuple.Tuple{stored[:2], append(stored.Clone(), tuple.Int(1))} {
		if _, ok := sc.Narrow(other); ok {
			t.Fatalf("Narrow took a %d-column row for a 3-column table", len(other))
		}
		if _, err := d.DecodeCols(other.Bytes(), sc.Stored, sc.Cols); err == nil {
			t.Fatalf("DecodeCols took a %d-column row for a 3-column table", len(other))
		}
	}
}
