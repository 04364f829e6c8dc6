package sqlparser

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/expr"
	"repro/internal/tuple"
)

// SelectItem is one output column: an expression and optional alias.
type SelectItem struct {
	Expr  expr.Expr
	Alias string
}

// TableRef names an input relation with an optional alias.
type TableRef struct {
	Name  string
	Alias string
}

// Binding returns the name the query refers to this table by.
func (t TableRef) Binding() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr expr.Expr
	Desc bool
}

// WithRecursive is the recursive CTE form:
// WITH RECURSIVE name AS (base UNION [ALL] step) outer-select.
type WithRecursive struct {
	Name string
	Base *SelectStmt
	Step *SelectStmt
}

// AnalyzeStmt is the `ANALYZE [table, ...]` statement: measure
// table statistics from the DHT and install them in the catalog. An
// empty table list means every table the node has defined.
type AnalyzeStmt struct {
	Tables []string
}

// SelectStmt is the parsed single-block query.
type SelectStmt struct {
	Distinct bool
	Star     bool
	Items    []SelectItem
	From     []TableRef
	JoinOn   expr.Expr // set when JOIN ... ON syntax was used
	Where    expr.Expr
	GroupBy  []string
	Having   expr.Expr
	OrderBy  []OrderItem
	Limit    int // -1 when absent

	// Continuous-query clauses: WINDOW makes the query continuous
	// over a sliding window; SLIDE defaults to WINDOW (tumbling);
	// LIVE bounds the query's total lifetime (0 = until cancelled).
	Window time.Duration
	Slide  time.Duration
	Live   time.Duration

	With *WithRecursive

	// Analyze, when non-nil, marks the whole statement as an ANALYZE
	// — no other clause is meaningful.
	Analyze *AnalyzeStmt
}

// IsContinuous reports whether the statement is a continuous query.
func (s *SelectStmt) IsContinuous() bool { return s.Window > 0 }

// countStarSentinel marks COUNT(*) in the AST (no argument).
type countStarSentinel struct{}

func (countStarSentinel) Eval(tuple.Tuple) (tuple.Value, error) {
	return tuple.Null(), fmt.Errorf("sql: COUNT(*) sentinel evaluated")
}
func (countStarSentinel) String() string          { return "*" }
func (countStarSentinel) Walk(fn func(expr.Expr)) {}

// IsCountStar reports whether e is the COUNT(*) argument sentinel.
func IsCountStar(e expr.Expr) bool {
	_, ok := e.(countStarSentinel)
	return ok
}

// Parse parses one statement.
func Parse(input string) (*SelectStmt, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	// Optional trailing semicolon.
	if p.peek().kind == tkOp && p.peek().text == ";" {
		p.next()
	}
	if p.peek().kind != tkEOF {
		return nil, p.errf("unexpected %s after statement", p.peek())
	}
	return stmt, nil
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("sql: "+format, args...)
}

func (p *parser) acceptKeyword(kw string) bool {
	if p.peek().kind == tkKeyword && p.peek().text == kw {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errf("expected %s, found %s", kw, p.peek())
	}
	return nil
}

func (p *parser) acceptOp(op string) bool {
	if p.peek().kind == tkOp && p.peek().text == op {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectOp(op string) error {
	if !p.acceptOp(op) {
		return p.errf("expected %q, found %s", op, p.peek())
	}
	return nil
}

func (p *parser) expectIdent() (string, error) {
	if p.peek().kind != tkIdent {
		return "", p.errf("expected identifier, found %s", p.peek())
	}
	return p.next().text, nil
}

func (p *parser) parseStatement() (*SelectStmt, error) {
	if p.acceptKeyword("ANALYZE") {
		stmt := &SelectStmt{Limit: -1, Analyze: &AnalyzeStmt{}}
		if p.peek().kind != tkIdent {
			return stmt, nil // bare ANALYZE: every defined table
		}
		for {
			name, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			stmt.Analyze.Tables = append(stmt.Analyze.Tables, name)
			if !p.acceptOp(",") {
				break
			}
		}
		return stmt, nil
	}
	if p.acceptKeyword("WITH") {
		if err := p.expectKeyword("RECURSIVE"); err != nil {
			return nil, err
		}
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AS"); err != nil {
			return nil, err
		}
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		base, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("UNION"); err != nil {
			return nil, err
		}
		p.acceptKeyword("ALL")
		step, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		outer, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		outer.With = &WithRecursive{Name: name, Base: base, Step: step}
		return outer, nil
	}
	return p.parseSelect()
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	stmt := &SelectStmt{Limit: -1}
	stmt.Distinct = p.acceptKeyword("DISTINCT")

	// Select list.
	if p.acceptOp("*") {
		stmt.Star = true
	} else {
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := SelectItem{Expr: e}
			if p.acceptKeyword("AS") {
				alias, err := p.expectIdent()
				if err != nil {
					return nil, err
				}
				item.Alias = alias
			} else if p.peek().kind == tkIdent {
				item.Alias = p.next().text
			}
			stmt.Items = append(stmt.Items, item)
			if !p.acceptOp(",") {
				break
			}
		}
	}

	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	first, err := p.parseTableRef()
	if err != nil {
		return nil, err
	}
	stmt.From = append(stmt.From, first)
	for {
		if p.acceptOp(",") {
			ref, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			stmt.From = append(stmt.From, ref)
			continue
		}
		if p.acceptKeyword("INNER") {
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
		} else if !p.acceptKeyword("JOIN") {
			break
		}
		ref, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		stmt.From = append(stmt.From, ref)
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		on, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if stmt.JoinOn == nil {
			stmt.JoinOn = on
		} else {
			stmt.JoinOn = &expr.And{L: stmt.JoinOn, R: on}
		}
	}

	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = e
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			col, err := p.parseColumnName()
			if err != nil {
				return nil, err
			}
			stmt.GroupBy = append(stmt.GroupBy, col)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKeyword("HAVING") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Having = e
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			stmt.OrderBy = append(stmt.OrderBy, item)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKeyword("LIMIT") {
		if p.peek().kind != tkNumber {
			return nil, p.errf("expected number after LIMIT, found %s", p.peek())
		}
		n, err := strconv.Atoi(p.next().text)
		if err != nil || n < 0 {
			return nil, p.errf("bad LIMIT value")
		}
		stmt.Limit = n
	}
	if p.acceptKeyword("WINDOW") {
		d, err := p.parseDuration()
		if err != nil {
			return nil, err
		}
		stmt.Window = d
		if p.acceptKeyword("SLIDE") {
			s, err := p.parseDuration()
			if err != nil {
				return nil, err
			}
			stmt.Slide = s
		} else {
			stmt.Slide = d
		}
	}
	if p.acceptKeyword("LIVE") {
		d, err := p.parseDuration()
		if err != nil {
			return nil, err
		}
		stmt.Live = d
	}
	return stmt, nil
}

func (p *parser) parseTableRef() (TableRef, error) {
	name, err := p.expectIdent()
	if err != nil {
		return TableRef{}, err
	}
	ref := TableRef{Name: name}
	if p.acceptKeyword("AS") {
		alias, err := p.expectIdent()
		if err != nil {
			return TableRef{}, err
		}
		ref.Alias = alias
	} else if p.peek().kind == tkIdent {
		ref.Alias = p.next().text
	}
	return ref, nil
}

// parseColumnName parses ident or ident.ident.
func (p *parser) parseColumnName() (string, error) {
	name, err := p.expectIdent()
	if err != nil {
		return "", err
	}
	if p.acceptOp(".") {
		col, err := p.expectIdent()
		if err != nil {
			return "", err
		}
		return name + "." + col, nil
	}
	return name, nil
}

// parseDuration parses NUMBER IDENT where IDENT is a unit (ms, s, m,
// h), e.g. "WINDOW 5 s" or the fused "5s" (number token then ident).
func (p *parser) parseDuration() (time.Duration, error) {
	if p.peek().kind != tkNumber {
		return 0, p.errf("expected duration, found %s", p.peek())
	}
	numText := p.next().text
	val, err := strconv.ParseFloat(numText, 64)
	if err != nil {
		return 0, p.errf("bad duration value %q", numText)
	}
	if p.peek().kind != tkIdent {
		return 0, p.errf("expected duration unit after %s", numText)
	}
	unit := strings.ToLower(p.next().text)
	var mult time.Duration
	switch unit {
	case "ms":
		mult = time.Millisecond
	case "s", "sec", "seconds":
		mult = time.Second
	case "m", "min", "minutes":
		mult = time.Minute
	case "h":
		mult = time.Hour
	default:
		return 0, p.errf("unknown duration unit %q", unit)
	}
	return time.Duration(val * float64(mult)), nil
}

// ---------------------------------------------------------------------------
// Expression parsing (precedence climbing)

func (p *parser) parseExpr() (expr.Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (expr.Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &expr.Or{L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (expr.Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &expr.And{L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (expr.Expr, error) {
	if p.acceptKeyword("NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &expr.Not{E: e}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (expr.Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	if p.acceptKeyword("IS") {
		negate := p.acceptKeyword("NOT")
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		return &expr.IsNull{E: l, Negate: negate}, nil
	}
	ops := map[string]expr.CmpOp{
		"=": expr.EQ, "<>": expr.NE, "!=": expr.NE,
		"<": expr.LT, "<=": expr.LE, ">": expr.GT, ">=": expr.GE,
	}
	if p.peek().kind == tkOp {
		if op, ok := ops[p.peek().text]; ok {
			p.next()
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &expr.Cmp{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *parser) parseAdditive() (expr.Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptOp("+"):
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = &expr.Arith{Op: expr.Add, L: l, R: r}
		case p.acceptOp("-"):
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = &expr.Arith{Op: expr.Sub, L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseMultiplicative() (expr.Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptOp("*"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &expr.Arith{Op: expr.Mul, L: l, R: r}
		case p.acceptOp("/"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &expr.Arith{Op: expr.Div, L: l, R: r}
		case p.acceptOp("%"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &expr.Arith{Op: expr.Mod, L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseUnary() (expr.Expr, error) {
	if p.acceptOp("-") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &expr.Arith{Op: expr.Sub, L: expr.NewLit(tuple.Int(0)), R: e}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (expr.Expr, error) {
	t := p.peek()
	switch t.kind {
	case tkNumber:
		p.next()
		if strings.ContainsRune(t.text, '.') {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, p.errf("bad float literal %q", t.text)
			}
			return expr.NewLit(tuple.Float(f)), nil
		}
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad integer literal %q", t.text)
		}
		return expr.NewLit(tuple.Int(i)), nil
	case tkString:
		p.next()
		return expr.NewLit(tuple.String(t.text)), nil
	case tkKeyword:
		switch t.text {
		case "NULL":
			p.next()
			return expr.NewLit(tuple.Null()), nil
		case "TRUE":
			p.next()
			return expr.NewLit(tuple.Bool(true)), nil
		case "FALSE":
			p.next()
			return expr.NewLit(tuple.Bool(false)), nil
		}
		return nil, p.errf("unexpected keyword %s in expression", t)
	case tkIdent:
		p.next()
		// Function call?
		if p.acceptOp("(") {
			var args []expr.Expr
			if p.acceptOp("*") {
				// COUNT(*) and friends.
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
				return &expr.Func{Name: strings.ToUpper(t.text), Args: []expr.Expr{countStarSentinel{}}}, nil
			}
			if !p.acceptOp(")") {
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					args = append(args, a)
					if !p.acceptOp(",") {
						break
					}
				}
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
			}
			return &expr.Func{Name: strings.ToUpper(t.text), Args: args}, nil
		}
		// Qualified column?
		if p.acceptOp(".") {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			return expr.NewCol(t.text + "." + col), nil
		}
		return expr.NewCol(t.text), nil
	case tkOp:
		if t.text == "(" {
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errf("unexpected %s in expression", t)
}
