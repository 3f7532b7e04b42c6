// Package expr provides the small typed expression language used by Filter
// and Projection operators: column references, literals, comparisons,
// boolean connectives, arithmetic, IN-lists and string predicates.
//
// Expressions compile against an f-Block into per-row closures running over
// the block's contiguous columns (BindBlock) — a node of the f-Tree, or the
// one node of a de-factored tree — or against any other Binding (Bind).
package expr

import (
	"fmt"
	"strings"

	"ges/internal/core"
	"ges/internal/vector"
)

// CmpOp is a comparison operator.
type CmpOp uint8

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

// ArithOp is an arithmetic operator.
type ArithOp uint8

// Arithmetic operators.
const (
	Add ArithOp = iota
	Sub
	Mul
	Div
)

func (o ArithOp) String() string { return [...]string{"+", "-", "*", "/"}[o] }

// Expr is a node of an expression tree.
type Expr interface {
	fmt.Stringer
	// Columns appends the names of all referenced columns to dst.
	Columns(dst []string) []string
}

// Col references an attribute by name.
type Col struct{ Name string }

func (c Col) String() string                { return c.Name }
func (c Col) Columns(dst []string) []string { return append(dst, c.Name) }

// Lit is a constant.
type Lit struct{ Val vector.Value }

func (l Lit) String() string                { return l.Val.String() }
func (l Lit) Columns(dst []string) []string { return dst }

// Param is a placeholder for the Idx-th element of a per-execution
// parameter vector (the $k literals the service's parameterized plan cache
// normalizes out of query text). Cached plan skeletons carry Params;
// SubstParams replaces them with Lits before the plan executes, so the
// compiled evaluators and the vectorized filter fast paths only ever see
// constants.
type Param struct{ Idx int }

func (p Param) String() string                { return fmt.Sprintf("$%d", p.Idx) }
func (p Param) Columns(dst []string) []string { return dst }

// SubstParams returns e with every Param replaced by the matching literal.
// Nodes without parameters are returned as-is, so shared plan skeletons are
// never mutated.
func SubstParams(e Expr, params []vector.Value) Expr {
	switch n := e.(type) {
	case Param:
		if n.Idx >= 0 && n.Idx < len(params) {
			return Lit{Val: params[n.Idx]}
		}
		return n
	case Cmp:
		return Cmp{Op: n.Op, L: SubstParams(n.L, params), R: SubstParams(n.R, params)}
	case And:
		return And{L: SubstParams(n.L, params), R: SubstParams(n.R, params)}
	case Or:
		return Or{L: SubstParams(n.L, params), R: SubstParams(n.R, params)}
	case Not:
		return Not{X: SubstParams(n.X, params)}
	case Arith:
		return Arith{Op: n.Op, L: SubstParams(n.L, params), R: SubstParams(n.R, params)}
	case In:
		return In{X: SubstParams(n.X, params), List: n.List}
	case StrPred:
		return StrPred{Op: n.Op, L: SubstParams(n.L, params), R: n.R}
	default:
		return e
	}
}

// HasParams reports whether e contains any Param node.
func HasParams(e Expr) bool {
	switch n := e.(type) {
	case Param:
		return true
	case Cmp:
		return HasParams(n.L) || HasParams(n.R)
	case And:
		return HasParams(n.L) || HasParams(n.R)
	case Or:
		return HasParams(n.L) || HasParams(n.R)
	case Not:
		return HasParams(n.X)
	case Arith:
		return HasParams(n.L) || HasParams(n.R)
	case In:
		return HasParams(n.X)
	case StrPred:
		return HasParams(n.L)
	default:
		return false
	}
}

// Cmp compares two sub-expressions.
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

func (c Cmp) String() string { return fmt.Sprintf("(%s %s %s)", c.L, c.Op, c.R) }
func (c Cmp) Columns(dst []string) []string {
	return c.R.Columns(c.L.Columns(dst))
}

// And is logical conjunction.
type And struct{ L, R Expr }

func (a And) String() string { return fmt.Sprintf("(%s AND %s)", a.L, a.R) }
func (a And) Columns(dst []string) []string {
	return a.R.Columns(a.L.Columns(dst))
}

// Or is logical disjunction.
type Or struct{ L, R Expr }

func (o Or) String() string { return fmt.Sprintf("(%s OR %s)", o.L, o.R) }
func (o Or) Columns(dst []string) []string {
	return o.R.Columns(o.L.Columns(dst))
}

// Not negates a boolean sub-expression.
type Not struct{ X Expr }

func (n Not) String() string                { return fmt.Sprintf("(NOT %s)", n.X) }
func (n Not) Columns(dst []string) []string { return n.X.Columns(dst) }

// Arith combines two numeric sub-expressions.
type Arith struct {
	Op   ArithOp
	L, R Expr
}

func (a Arith) String() string { return fmt.Sprintf("(%s %s %s)", a.L, a.Op, a.R) }
func (a Arith) Columns(dst []string) []string {
	return a.R.Columns(a.L.Columns(dst))
}

// In tests membership of X in a literal list.
type In struct {
	X    Expr
	List []vector.Value
}

func (i In) String() string {
	parts := make([]string, len(i.List))
	for j, v := range i.List {
		parts[j] = v.String()
	}
	return fmt.Sprintf("(%s IN [%s])", i.X, strings.Join(parts, ","))
}
func (i In) Columns(dst []string) []string { return i.X.Columns(dst) }

// StrOp is a string predicate operator.
type StrOp uint8

// String predicate operators.
const (
	Contains StrOp = iota
	StartsWith
	EndsWith
)

// StrPred applies a string predicate to L with literal pattern R.
type StrPred struct {
	Op StrOp
	L  Expr
	R  string
}

func (s StrPred) String() string {
	name := [...]string{"CONTAINS", "STARTS WITH", "ENDS WITH"}[s.Op]
	return fmt.Sprintf("(%s %s %q)", s.L, name, s.R)
}
func (s StrPred) Columns(dst []string) []string { return s.L.Columns(dst) }

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

// Getter produces the value of one expression for row i of some bound data
// source.
type Getter func(i int) vector.Value

// Binding resolves column names to per-row getters.
type Binding interface {
	// Bind returns a getter for the named column, or an error when the
	// column is not present in the bound source.
	Bind(name string) (Getter, error)
}

// blockBinding binds names to columns of an f-Block.
type blockBinding struct{ b *core.FBlock }

func (bb blockBinding) Bind(name string) (Getter, error) {
	c := bb.b.ColumnByName(name)
	if c == nil {
		return nil, fmt.Errorf("expr: column %q not in block schema %v", name, bb.b.Schema())
	}
	return c.Get, nil
}

// Bind compiles e against an arbitrary binding (used by the fused
// expand-filter predicate, which binds column names to vertex property
// reads).
func Bind(e Expr, b Binding) (Getter, error) { return compile(e, b) }

// BindBlock compiles e against an f-Block.
func BindBlock(e Expr, b *core.FBlock) (Getter, error) {
	return compile(e, blockBinding{b})
}

func compile(e Expr, bind Binding) (Getter, error) {
	switch n := e.(type) {
	case Col:
		return bind.Bind(n.Name)
	case Lit:
		v := n.Val
		return func(int) vector.Value { return v }, nil
	case Cmp:
		l, err := compile(n.L, bind)
		if err != nil {
			return nil, err
		}
		op := n.Op
		// A literal right operand is compared in place: no getter of its own
		// to allocate when binding, or to call per row.
		if lit, ok := n.R.(Lit); ok {
			v := lit.Val
			return func(i int) vector.Value { return vector.Bool(holds(op, vector.Compare(l(i), v))) }, nil
		}
		r, err := compile(n.R, bind)
		if err != nil {
			return nil, err
		}
		return func(i int) vector.Value { return vector.Bool(holds(op, vector.Compare(l(i), r(i)))) }, nil
	case And:
		l, err := compile(n.L, bind)
		if err != nil {
			return nil, err
		}
		r, err := compile(n.R, bind)
		if err != nil {
			return nil, err
		}
		return func(i int) vector.Value {
			if !l(i).AsBool() {
				return vector.Bool(false)
			}
			return vector.Bool(r(i).AsBool())
		}, nil
	case Or:
		l, err := compile(n.L, bind)
		if err != nil {
			return nil, err
		}
		r, err := compile(n.R, bind)
		if err != nil {
			return nil, err
		}
		return func(i int) vector.Value {
			if l(i).AsBool() {
				return vector.Bool(true)
			}
			return vector.Bool(r(i).AsBool())
		}, nil
	case Not:
		x, err := compile(n.X, bind)
		if err != nil {
			return nil, err
		}
		return func(i int) vector.Value { return vector.Bool(!x(i).AsBool()) }, nil
	case Arith:
		l, err := compile(n.L, bind)
		if err != nil {
			return nil, err
		}
		r, err := compile(n.R, bind)
		if err != nil {
			return nil, err
		}
		op := n.Op
		return func(i int) vector.Value { return evalArith(op, l(i), r(i)) }, nil
	case In:
		x, err := compile(n.X, bind)
		if err != nil {
			return nil, err
		}
		list := n.List
		return func(i int) vector.Value {
			v := x(i)
			for _, item := range list {
				if vector.Equal(v, item) {
					return vector.Bool(true)
				}
			}
			return vector.Bool(false)
		}, nil
	case StrPred:
		l, err := compile(n.L, bind)
		if err != nil {
			return nil, err
		}
		op, pat := n.Op, n.R
		return func(i int) vector.Value {
			s := l(i).S
			var ok bool
			switch op {
			case Contains:
				ok = strings.Contains(s, pat)
			case StartsWith:
				ok = strings.HasPrefix(s, pat)
			case EndsWith:
				ok = strings.HasSuffix(s, pat)
			}
			return vector.Bool(ok)
		}, nil
	case Param:
		return nil, fmt.Errorf("expr: unbound parameter $%d — plans with parameters must pass through SubstParams before execution", n.Idx)
	default:
		return nil, fmt.Errorf("expr: unsupported expression %T", e)
	}
}

// holds reports whether a comparison whose vector.Compare result is c
// satisfies op.
func holds(op CmpOp, c int) bool {
	switch op {
	case EQ:
		return c == 0
	case NE:
		return c != 0
	case LT:
		return c < 0
	case LE:
		return c <= 0
	case GT:
		return c > 0
	case GE:
		return c >= 0
	}
	return false
}

func evalArith(op ArithOp, a, b vector.Value) vector.Value {
	if a.Kind == vector.KindFloat64 || b.Kind == vector.KindFloat64 {
		af, bf := asFloat(a), asFloat(b)
		switch op {
		case Add:
			return vector.Float64(af + bf)
		case Sub:
			return vector.Float64(af - bf)
		case Mul:
			return vector.Float64(af * bf)
		case Div:
			if bf == 0 {
				return vector.Float64(0)
			}
			return vector.Float64(af / bf)
		}
	}
	switch op {
	case Add:
		return vector.Int64(a.I + b.I)
	case Sub:
		return vector.Int64(a.I - b.I)
	case Mul:
		return vector.Int64(a.I * b.I)
	case Div:
		if b.I == 0 {
			return vector.Int64(0)
		}
		return vector.Int64(a.I / b.I)
	}
	return vector.Value{}
}

func asFloat(v vector.Value) float64 {
	if v.Kind == vector.KindFloat64 {
		return v.F
	}
	return float64(v.I)
}

// ---------------------------------------------------------------------------
// Convenience constructors
// ---------------------------------------------------------------------------

// C returns a column reference.
func C(name string) Expr { return Col{Name: name} }

// LInt returns an int64 literal.
func LInt(v int64) Expr { return Lit{Val: vector.Int64(v)} }

// LStr returns a string literal.
func LStr(v string) Expr { return Lit{Val: vector.String_(v)} }

// LDate returns a date literal (days since epoch).
func LDate(days int64) Expr { return Lit{Val: vector.Date(days)} }

// Gt builds l > r.
func Gt(l, r Expr) Expr { return Cmp{Op: GT, L: l, R: r} }

// Ge builds l >= r.
func Ge(l, r Expr) Expr { return Cmp{Op: GE, L: l, R: r} }

// Lt builds l < r.
func Lt(l, r Expr) Expr { return Cmp{Op: LT, L: l, R: r} }

// Le builds l <= r.
func Le(l, r Expr) Expr { return Cmp{Op: LE, L: l, R: r} }

// Eq builds l = r.
func Eq(l, r Expr) Expr { return Cmp{Op: EQ, L: l, R: r} }

// Ne builds l <> r.
func Ne(l, r Expr) Expr { return Cmp{Op: NE, L: l, R: r} }
