// Package expr implements the scalar expression language shared by
// the SQL front end, the planner, and the physical operators:
// column references, literals, comparison and boolean operators,
// arithmetic, and a small function library.
//
// NULL semantics are the pragmatic subset PIER's queries need:
// comparisons involving NULL are false, arithmetic involving NULL is
// NULL, and IS NULL tests explicitly.
package expr

import (
	"fmt"
	"strings"

	"repro/internal/tuple"
)

// Expr is a scalar expression evaluated against one tuple.
type Expr interface {
	// Eval computes the expression over t.
	Eval(t tuple.Tuple) (tuple.Value, error)
	// String renders the expression for EXPLAIN output.
	String() string
	// Walk visits the expression tree (self first).
	Walk(fn func(Expr))
}

// Col references a column. The planner resolves Name to Index against
// the operator's input schema via Resolve; Index -1 means unresolved.
type Col struct {
	Name  string
	Index int
}

// NewCol returns an unresolved column reference.
func NewCol(name string) *Col { return &Col{Name: name, Index: -1} }

// Eval returns the referenced value.
func (c *Col) Eval(t tuple.Tuple) (tuple.Value, error) {
	if c.Index < 0 || c.Index >= len(t) {
		return tuple.Null(), fmt.Errorf("expr: column %q unresolved (index %d, arity %d)", c.Name, c.Index, len(t))
	}
	return t[c.Index], nil
}

func (c *Col) String() string { return c.Name }

// Walk visits c.
func (c *Col) Walk(fn func(Expr)) { fn(c) }

// Lit is a literal value.
type Lit struct {
	V tuple.Value
}

// NewLit wraps a value as a literal expression.
func NewLit(v tuple.Value) *Lit { return &Lit{V: v} }

// Eval returns the literal.
func (l *Lit) Eval(tuple.Tuple) (tuple.Value, error) { return l.V, nil }

func (l *Lit) String() string {
	if l.V.Kind == tuple.TString {
		return "'" + l.V.S + "'"
	}
	return l.V.String()
}

// Walk visits l.
func (l *Lit) Walk(fn func(Expr)) { fn(l) }

// CmpOp enumerates comparison operators.
type CmpOp int

// Comparison operators.
const (
	EQ CmpOp = iota
	NE
	LT
	LE
	GT
	GE
)

func (o CmpOp) String() string {
	return [...]string{"=", "<>", "<", "<=", ">", ">="}[o]
}

// Cmp compares two sub-expressions. Comparisons where either side is
// NULL evaluate to false.
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// Eval applies the comparison.
func (c *Cmp) Eval(t tuple.Tuple) (tuple.Value, error) {
	l, err := c.L.Eval(t)
	if err != nil {
		return tuple.Null(), err
	}
	r, err := c.R.Eval(t)
	if err != nil {
		return tuple.Null(), err
	}
	if l.IsNull() || r.IsNull() {
		return tuple.Bool(false), nil
	}
	cmp := l.Compare(r)
	var out bool
	switch c.Op {
	case EQ:
		out = cmp == 0
	case NE:
		out = cmp != 0
	case LT:
		out = cmp < 0
	case LE:
		out = cmp <= 0
	case GT:
		out = cmp > 0
	case GE:
		out = cmp >= 0
	}
	return tuple.Bool(out), nil
}

func (c *Cmp) String() string {
	return fmt.Sprintf("(%s %s %s)", c.L, c.Op, c.R)
}

// Walk visits c then its children.
func (c *Cmp) Walk(fn func(Expr)) { fn(c); c.L.Walk(fn); c.R.Walk(fn) }

// ArithOp enumerates arithmetic operators.
type ArithOp int

// Arithmetic operators.
const (
	Add ArithOp = iota
	Sub
	Mul
	Div
	Mod
)

func (o ArithOp) String() string {
	return [...]string{"+", "-", "*", "/", "%"}[o]
}

// Arith combines two numeric sub-expressions. Integer inputs stay
// integer (except Div by non-divisor, which promotes to float);
// any float input promotes the result.
type Arith struct {
	Op   ArithOp
	L, R Expr
}

// Eval applies the operator.
func (a *Arith) Eval(t tuple.Tuple) (tuple.Value, error) {
	l, err := a.L.Eval(t)
	if err != nil {
		return tuple.Null(), err
	}
	r, err := a.R.Eval(t)
	if err != nil {
		return tuple.Null(), err
	}
	if l.IsNull() || r.IsNull() {
		return tuple.Null(), nil
	}
	if a.Op == Add && l.Kind == tuple.TString && r.Kind == tuple.TString {
		return tuple.String(l.S + r.S), nil
	}
	if l.Kind == tuple.TInt && r.Kind == tuple.TInt {
		switch a.Op {
		case Add:
			return tuple.Int(l.I + r.I), nil
		case Sub:
			return tuple.Int(l.I - r.I), nil
		case Mul:
			return tuple.Int(l.I * r.I), nil
		case Div:
			if r.I == 0 {
				return tuple.Null(), fmt.Errorf("expr: division by zero")
			}
			if l.I%r.I == 0 {
				return tuple.Int(l.I / r.I), nil
			}
			return tuple.Float(float64(l.I) / float64(r.I)), nil
		case Mod:
			if r.I == 0 {
				return tuple.Null(), fmt.Errorf("expr: modulo by zero")
			}
			return tuple.Int(l.I % r.I), nil
		}
	}
	lf, lok := l.AsFloat()
	rf, rok := r.AsFloat()
	if !lok || !rok {
		return tuple.Null(), fmt.Errorf("expr: %s applied to %s and %s", a.Op, l.Kind, r.Kind)
	}
	switch a.Op {
	case Add:
		return tuple.Float(lf + rf), nil
	case Sub:
		return tuple.Float(lf - rf), nil
	case Mul:
		return tuple.Float(lf * rf), nil
	case Div:
		if rf == 0 {
			return tuple.Null(), fmt.Errorf("expr: division by zero")
		}
		return tuple.Float(lf / rf), nil
	case Mod:
		return tuple.Null(), fmt.Errorf("expr: %% requires integers")
	}
	return tuple.Null(), fmt.Errorf("expr: unknown arith op %d", a.Op)
}

func (a *Arith) String() string {
	return fmt.Sprintf("(%s %s %s)", a.L, a.Op, a.R)
}

// Walk visits a then its children.
func (a *Arith) Walk(fn func(Expr)) { fn(a); a.L.Walk(fn); a.R.Walk(fn) }

// And is boolean conjunction (short-circuiting).
type And struct{ L, R Expr }

// Eval applies conjunction.
func (a *And) Eval(t tuple.Tuple) (tuple.Value, error) {
	l, err := a.L.Eval(t)
	if err != nil {
		return tuple.Null(), err
	}
	if !truthy(l) {
		return tuple.Bool(false), nil
	}
	r, err := a.R.Eval(t)
	if err != nil {
		return tuple.Null(), err
	}
	return tuple.Bool(truthy(r)), nil
}

func (a *And) String() string { return fmt.Sprintf("(%s AND %s)", a.L, a.R) }

// Walk visits a then its children.
func (a *And) Walk(fn func(Expr)) { fn(a); a.L.Walk(fn); a.R.Walk(fn) }

// Or is boolean disjunction (short-circuiting).
type Or struct{ L, R Expr }

// Eval applies disjunction.
func (o *Or) Eval(t tuple.Tuple) (tuple.Value, error) {
	l, err := o.L.Eval(t)
	if err != nil {
		return tuple.Null(), err
	}
	if truthy(l) {
		return tuple.Bool(true), nil
	}
	r, err := o.R.Eval(t)
	if err != nil {
		return tuple.Null(), err
	}
	return tuple.Bool(truthy(r)), nil
}

func (o *Or) String() string { return fmt.Sprintf("(%s OR %s)", o.L, o.R) }

// Walk visits o then its children.
func (o *Or) Walk(fn func(Expr)) { fn(o); o.L.Walk(fn); o.R.Walk(fn) }

// Not negates its operand.
type Not struct{ E Expr }

// Eval applies negation.
func (n *Not) Eval(t tuple.Tuple) (tuple.Value, error) {
	v, err := n.E.Eval(t)
	if err != nil {
		return tuple.Null(), err
	}
	return tuple.Bool(!truthy(v)), nil
}

func (n *Not) String() string { return fmt.Sprintf("(NOT %s)", n.E) }

// Walk visits n then its child.
func (n *Not) Walk(fn func(Expr)) { fn(n); n.E.Walk(fn) }

// IsNull tests for SQL NULL; Negate inverts (IS NOT NULL).
type IsNull struct {
	E      Expr
	Negate bool
}

// Eval applies the null test.
func (i *IsNull) Eval(t tuple.Tuple) (tuple.Value, error) {
	v, err := i.E.Eval(t)
	if err != nil {
		return tuple.Null(), err
	}
	return tuple.Bool(v.IsNull() != i.Negate), nil
}

func (i *IsNull) String() string {
	if i.Negate {
		return fmt.Sprintf("(%s IS NOT NULL)", i.E)
	}
	return fmt.Sprintf("(%s IS NULL)", i.E)
}

// Walk visits i then its child.
func (i *IsNull) Walk(fn func(Expr)) { fn(i); i.E.Walk(fn) }

// Func applies a named builtin to its arguments.
type Func struct {
	Name string
	Args []Expr
}

// Eval dispatches to the builtin.
func (f *Func) Eval(t tuple.Tuple) (tuple.Value, error) {
	args := make([]tuple.Value, len(f.Args))
	for i, a := range f.Args {
		v, err := a.Eval(t)
		if err != nil {
			return tuple.Null(), err
		}
		args[i] = v
	}
	fn, ok := builtins[strings.ToUpper(f.Name)]
	if !ok {
		return tuple.Null(), fmt.Errorf("expr: unknown function %q", f.Name)
	}
	return fn(args)
}

func (f *Func) String() string {
	parts := make([]string, len(f.Args))
	for i, a := range f.Args {
		parts[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", strings.ToUpper(f.Name), strings.Join(parts, ", "))
}

// Walk visits f then its children.
func (f *Func) Walk(fn func(Expr)) {
	fn(f)
	for _, a := range f.Args {
		a.Walk(fn)
	}
}

var builtins = map[string]func([]tuple.Value) (tuple.Value, error){
	"LOWER": func(args []tuple.Value) (tuple.Value, error) {
		if err := arity("LOWER", args, 1); err != nil {
			return tuple.Null(), err
		}
		if args[0].IsNull() {
			return tuple.Null(), nil
		}
		return tuple.String(strings.ToLower(args[0].S)), nil
	},
	"UPPER": func(args []tuple.Value) (tuple.Value, error) {
		if err := arity("UPPER", args, 1); err != nil {
			return tuple.Null(), err
		}
		if args[0].IsNull() {
			return tuple.Null(), nil
		}
		return tuple.String(strings.ToUpper(args[0].S)), nil
	},
	"LENGTH": func(args []tuple.Value) (tuple.Value, error) {
		if err := arity("LENGTH", args, 1); err != nil {
			return tuple.Null(), err
		}
		switch args[0].Kind {
		case tuple.TString, tuple.TBytes:
			return tuple.Int(int64(len(args[0].S))), nil
		case tuple.TNull:
			return tuple.Null(), nil
		default:
			return tuple.Null(), fmt.Errorf("expr: LENGTH of %s", args[0].Kind)
		}
	},
	"ABS": func(args []tuple.Value) (tuple.Value, error) {
		if err := arity("ABS", args, 1); err != nil {
			return tuple.Null(), err
		}
		switch args[0].Kind {
		case tuple.TInt:
			if args[0].I < 0 {
				return tuple.Int(-args[0].I), nil
			}
			return args[0], nil
		case tuple.TFloat:
			if args[0].F < 0 {
				return tuple.Float(-args[0].F), nil
			}
			return args[0], nil
		case tuple.TNull:
			return tuple.Null(), nil
		default:
			return tuple.Null(), fmt.Errorf("expr: ABS of %s", args[0].Kind)
		}
	},
	"COALESCE": func(args []tuple.Value) (tuple.Value, error) {
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return tuple.Null(), nil
	},
}

func arity(name string, args []tuple.Value, want int) error {
	if len(args) != want {
		return fmt.Errorf("expr: %s takes %d argument(s), got %d", name, want, len(args))
	}
	return nil
}

func truthy(v tuple.Value) bool {
	return v.Kind == tuple.TBool && v.B
}

// Truthy reports whether v is boolean true — the predicate test used
// by selection operators.
func Truthy(v tuple.Value) bool { return truthy(v) }

// Resolve binds every column reference in e to an index in schema,
// returning an error listing the first unresolvable name.
func Resolve(e Expr, schema *tuple.Schema) error {
	var firstErr error
	e.Walk(func(x Expr) {
		c, ok := x.(*Col)
		if !ok {
			return
		}
		i := schema.ColIndex(c.Name)
		if i < 0 && firstErr == nil {
			firstErr = fmt.Errorf("expr: column %q not in schema %s", c.Name, schema.Name)
			return
		}
		c.Index = i
	})
	return firstErr
}

// Columns returns the distinct column names referenced by e.
func Columns(e Expr) []string {
	seen := map[string]bool{}
	var out []string
	e.Walk(func(x Expr) {
		if c, ok := x.(*Col); ok && !seen[c.Name] {
			seen[c.Name] = true
			out = append(out, c.Name)
		}
	})
	return out
}

// Conjuncts splits a predicate into its AND-ed factors, the unit the
// optimizer pushes down independently.
func Conjuncts(e Expr) []Expr {
	if a, ok := e.(*And); ok {
		return append(Conjuncts(a.L), Conjuncts(a.R)...)
	}
	return []Expr{e}
}

// AndAll rebuilds a conjunction from factors (nil for none).
func AndAll(es []Expr) Expr {
	if len(es) == 0 {
		return nil
	}
	out := es[0]
	for _, e := range es[1:] {
		out = &And{L: out, R: e}
	}
	return out
}
