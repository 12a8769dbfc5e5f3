package sql

import (
	"fmt"
	"strings"
)

// Expr is an unresolved scalar expression tree, produced by the SQL parser
// or the DataFrame API. Binding an expression against a schema type-checks
// it and compiles it to a closure (the engine's stand-in for Spark's runtime
// code generation: after Bind there is no per-row tree interpretation of
// column lookups or type dispatch — each node picked its concrete evaluation
// path once).
type Expr interface {
	// String renders the expression in SQL-ish syntax, used for error
	// messages, plan explain output and derived column names.
	String() string
	// Bind resolves column references against schema and returns a typed,
	// compiled evaluator.
	Bind(schema Schema) (BoundExpr, error)
	// Children returns the direct sub-expressions.
	Children() []Expr
	// WithChildren returns a copy of the node with the given children; the
	// optimizer uses it for bottom-up rewrites.
	WithChildren(children []Expr) Expr
}

// BoundExpr is a resolved, compiled expression: a result type plus an
// evaluator closure over rows of the schema it was bound against.
type BoundExpr struct {
	Type Type
	Eval func(Row) Value
}

// ---------------------------------------------------------------- Column

// Column references a column by (possibly qualified) name.
type Column struct{ Name string }

// Col is shorthand for a column reference expression.
func Col(name string) *Column { return &Column{Name: name} }

func (c *Column) String() string                    { return c.Name }
func (c *Column) Children() []Expr                  { return nil }
func (c *Column) WithChildren(children []Expr) Expr { return c }

// Bind resolves the column to an ordinal and compiles a direct index load.
func (c *Column) Bind(schema Schema) (BoundExpr, error) {
	idx, err := schema.Resolve(c.Name)
	if err != nil {
		return BoundExpr{}, err
	}
	t := schema.Field(idx).Type
	return BoundExpr{Type: t, Eval: func(r Row) Value { return r[idx] }}, nil
}

// ---------------------------------------------------------------- Literal

// Literal is a constant value with an explicit type.
type Literal struct {
	Val  Value
	Type Type
}

// Lit builds a literal from a Go value, normalizing convenience types
// (int, time.Time, time.Duration, ...).
func Lit(v any) *Literal {
	nv := Normalize(v)
	return &Literal{Val: nv, Type: TypeOf(nv)}
}

// TimestampLit builds a timestamp literal from a microsecond value.
func TimestampLit(us int64) *Literal { return &Literal{Val: us, Type: TypeTimestamp} }

// IntervalLit builds an interval literal from a microsecond duration.
func IntervalLit(us int64) *Literal { return &Literal{Val: us, Type: TypeInterval} }

func (l *Literal) String() string {
	switch l.Type {
	case TypeString:
		return fmt.Sprintf("'%v'", l.Val)
	case TypeTimestamp:
		return fmt.Sprintf("TIMESTAMP '%s'", FormatTimestamp(l.Val.(int64)))
	case TypeInterval:
		return fmt.Sprintf("INTERVAL %d µs", l.Val)
	default:
		return AsString(l.Val)
	}
}
func (l *Literal) Children() []Expr                  { return nil }
func (l *Literal) WithChildren(children []Expr) Expr { return l }

func (l *Literal) Bind(Schema) (BoundExpr, error) {
	v := l.Val
	return BoundExpr{Type: l.Type, Eval: func(Row) Value { return v }}, nil
}

// ---------------------------------------------------------------- Alias

// Alias names the result of a sub-expression (SELECT expr AS name).
type Alias struct {
	Child Expr
	Name  string
}

// As wraps an expression with an output name.
func As(child Expr, name string) *Alias { return &Alias{Child: child, Name: name} }

func (a *Alias) String() string   { return fmt.Sprintf("%s AS %s", a.Child, a.Name) }
func (a *Alias) Children() []Expr { return []Expr{a.Child} }
func (a *Alias) WithChildren(children []Expr) Expr {
	return &Alias{Child: children[0], Name: a.Name}
}
func (a *Alias) Bind(schema Schema) (BoundExpr, error) { return a.Child.Bind(schema) }

// OutputName derives the column name an expression produces in a projection.
// A bare window() expression is named "window", matching Spark.
func OutputName(e Expr) string {
	switch x := e.(type) {
	case *Alias:
		return x.Name
	case *Column:
		name := x.Name
		if i := strings.LastIndexByte(name, '.'); i >= 0 {
			return name[i+1:]
		}
		return name
	case *WindowExpr:
		return "window"
	default:
		return e.String()
	}
}

// ---------------------------------------------------------------- BinaryOp

// BinOp identifies a binary operator.
type BinOp int

// Binary operators.
const (
	OpEq BinOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpAnd
	OpOr
	OpLike
)

var binOpNames = map[BinOp]string{
	OpEq: "=", OpNe: "<>", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
	OpAnd: "AND", OpOr: "OR", OpLike: "LIKE",
}

// Binary is a binary operator expression.
type Binary struct {
	Op   BinOp
	L, R Expr
}

// NewBinary builds a binary operator node.
func NewBinary(op BinOp, l, r Expr) *Binary { return &Binary{Op: op, L: l, R: r} }

// Convenience builders used by the DataFrame API and tests.
func Eq(l, r Expr) *Binary  { return NewBinary(OpEq, l, r) }
func Ne(l, r Expr) *Binary  { return NewBinary(OpNe, l, r) }
func Lt(l, r Expr) *Binary  { return NewBinary(OpLt, l, r) }
func Le(l, r Expr) *Binary  { return NewBinary(OpLe, l, r) }
func Gt(l, r Expr) *Binary  { return NewBinary(OpGt, l, r) }
func Ge(l, r Expr) *Binary  { return NewBinary(OpGe, l, r) }
func Add(l, r Expr) *Binary { return NewBinary(OpAdd, l, r) }
func Sub(l, r Expr) *Binary { return NewBinary(OpSub, l, r) }
func Mul(l, r Expr) *Binary { return NewBinary(OpMul, l, r) }
func Div(l, r Expr) *Binary { return NewBinary(OpDiv, l, r) }
func And(l, r Expr) *Binary { return NewBinary(OpAnd, l, r) }
func Or(l, r Expr) *Binary  { return NewBinary(OpOr, l, r) }

func (b *Binary) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L, binOpNames[b.Op], b.R)
}
func (b *Binary) Children() []Expr { return []Expr{b.L, b.R} }
func (b *Binary) WithChildren(children []Expr) Expr {
	return &Binary{Op: b.Op, L: children[0], R: children[1]}
}

// Bind type-checks the operands and compiles a specialized evaluator for
// the operand types, so the per-row path has no type switches for the
// common int64/float64/string cases.
func (b *Binary) Bind(schema Schema) (BoundExpr, error) {
	l, err := b.L.Bind(schema)
	if err != nil {
		return BoundExpr{}, err
	}
	r, err := b.R.Bind(schema)
	if err != nil {
		return BoundExpr{}, err
	}
	switch b.Op {
	case OpAnd:
		return bindLogical(l, r, true)
	case OpOr:
		return bindLogical(l, r, false)
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		return bindComparison(b.Op, l, r, b)
	case OpLike:
		return bindLike(l, r, b)
	default:
		return bindArith(b.Op, l, r, b)
	}
}

// bindLogical implements SQL three-valued AND/OR.
func bindLogical(l, r BoundExpr, isAnd bool) (BoundExpr, error) {
	le, re := l.Eval, r.Eval
	eval := func(row Row) Value {
		lv, rv := le(row), re(row)
		lb, lok := lv.(bool)
		rb, rok := rv.(bool)
		if isAnd {
			if lok && !lb || rok && !rb {
				return false
			}
			if lok && rok {
				return true
			}
			return nil
		}
		if lok && lb || rok && rb {
			return true
		}
		if lok && rok {
			return false
		}
		return nil
	}
	return BoundExpr{Type: TypeBool, Eval: eval}, nil
}

func bindComparison(op BinOp, l, r BoundExpr, src Expr) (BoundExpr, error) {
	if _, ok := CommonType(l.Type, r.Type); !ok {
		return BoundExpr{}, fmt.Errorf("sql: cannot compare %s and %s in %s", l.Type, r.Type, src)
	}
	le, re := l.Eval, r.Eval
	var test func(int) bool
	switch op {
	case OpEq:
		test = func(c int) bool { return c == 0 }
	case OpNe:
		test = func(c int) bool { return c != 0 }
	case OpLt:
		test = func(c int) bool { return c < 0 }
	case OpLe:
		test = func(c int) bool { return c <= 0 }
	case OpGt:
		test = func(c int) bool { return c > 0 }
	case OpGe:
		test = func(c int) bool { return c >= 0 }
	}
	// Fast paths for the hot comparisons.
	if l.Type == TypeInt64 && r.Type == TypeInt64 || l.Type == TypeTimestamp && r.Type == TypeTimestamp {
		eval := func(row Row) Value {
			lv, rv := le(row), re(row)
			li, lok := lv.(int64)
			ri, rok := rv.(int64)
			if !lok || !rok {
				return nil
			}
			return test(cmpOrdered(li, ri))
		}
		return BoundExpr{Type: TypeBool, Eval: eval}, nil
	}
	if l.Type == TypeString && r.Type == TypeString {
		eval := func(row Row) Value {
			lv, rv := le(row), re(row)
			ls, lok := lv.(string)
			rs, rok := rv.(string)
			if !lok || !rok {
				return nil
			}
			return test(strings.Compare(ls, rs))
		}
		return BoundExpr{Type: TypeBool, Eval: eval}, nil
	}
	eval := func(row Row) Value {
		lv, rv := le(row), re(row)
		if lv == nil || rv == nil {
			return nil
		}
		return test(Compare(lv, rv))
	}
	return BoundExpr{Type: TypeBool, Eval: eval}, nil
}

func bindLike(l, r BoundExpr, src Expr) (BoundExpr, error) {
	if l.Type != TypeString && l.Type != TypeNull || r.Type != TypeString && r.Type != TypeNull {
		return BoundExpr{}, fmt.Errorf("sql: LIKE requires string operands in %s", src)
	}
	le, re := l.Eval, r.Eval
	eval := func(row Row) Value {
		lv, rv := le(row), re(row)
		ls, lok := lv.(string)
		rs, rok := rv.(string)
		if !lok || !rok {
			return nil
		}
		return likeMatch(ls, rs)
	}
	return BoundExpr{Type: TypeBool, Eval: eval}, nil
}

// likeMatch implements SQL LIKE with % (any run) and _ (any one rune).
func likeMatch(s, pattern string) bool {
	// Iterative two-pointer match with backtracking on the last %.
	var si, pi int
	star, match := -1, 0
	for si < len(s) {
		if pi < len(pattern) && (pattern[pi] == '_' || pattern[pi] == s[si]) {
			si++
			pi++
		} else if pi < len(pattern) && pattern[pi] == '%' {
			star = pi
			match = si
			pi++
		} else if star >= 0 {
			pi = star + 1
			match++
			si = match
		} else {
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}

func bindArith(op BinOp, l, r BoundExpr, src Expr) (BoundExpr, error) {
	le, re := l.Eval, r.Eval
	// Timestamp ± interval arithmetic.
	tsInterval := func(resType Type, f func(a, b int64) int64) (BoundExpr, error) {
		eval := func(row Row) Value {
			lv, rv := le(row), re(row)
			li, lok := lv.(int64)
			ri, rok := rv.(int64)
			if !lok || !rok {
				return nil
			}
			return f(li, ri)
		}
		return BoundExpr{Type: resType, Eval: eval}, nil
	}
	switch {
	case l.Type == TypeTimestamp && r.Type == TypeInterval && op == OpAdd:
		return tsInterval(TypeTimestamp, func(a, b int64) int64 { return a + b })
	case l.Type == TypeInterval && r.Type == TypeTimestamp && op == OpAdd:
		return tsInterval(TypeTimestamp, func(a, b int64) int64 { return a + b })
	case l.Type == TypeTimestamp && r.Type == TypeInterval && op == OpSub:
		return tsInterval(TypeTimestamp, func(a, b int64) int64 { return a - b })
	case l.Type == TypeTimestamp && r.Type == TypeTimestamp && op == OpSub:
		return tsInterval(TypeInterval, func(a, b int64) int64 { return a - b })
	case l.Type == TypeInterval && r.Type == TypeInterval && (op == OpAdd || op == OpSub):
		if op == OpAdd {
			return tsInterval(TypeInterval, func(a, b int64) int64 { return a + b })
		}
		return tsInterval(TypeInterval, func(a, b int64) int64 { return a - b })
	}
	if op == OpAdd && l.Type == TypeString && r.Type == TypeString {
		eval := func(row Row) Value {
			lv, rv := le(row), re(row)
			ls, lok := lv.(string)
			rs, rok := rv.(string)
			if !lok || !rok {
				return nil
			}
			return ls + rs
		}
		return BoundExpr{Type: TypeString, Eval: eval}, nil
	}
	lNum := l.Type.Numeric() || l.Type == TypeNull
	rNum := r.Type.Numeric() || r.Type == TypeNull
	if !lNum || !rNum {
		return BoundExpr{}, fmt.Errorf("sql: operator %s requires numeric operands, got %s and %s in %s",
			binOpNames[op], l.Type, r.Type, src)
	}
	// Division always produces double, as in Spark SQL.
	if op == OpDiv {
		eval := func(row Row) Value {
			lf, lok := AsFloat64(le(row))
			rf, rok := AsFloat64(re(row))
			if !lok || !rok || rf == 0 {
				return nil
			}
			return lf / rf
		}
		return BoundExpr{Type: TypeFloat64, Eval: eval}, nil
	}
	if l.Type == TypeInt64 && r.Type == TypeInt64 {
		var f func(a, b int64) Value
		switch op {
		case OpAdd:
			f = func(a, b int64) Value { return a + b }
		case OpSub:
			f = func(a, b int64) Value { return a - b }
		case OpMul:
			f = func(a, b int64) Value { return a * b }
		case OpMod:
			f = func(a, b int64) Value {
				if b == 0 {
					return nil
				}
				return a % b
			}
		}
		eval := func(row Row) Value {
			lv, rv := le(row), re(row)
			li, lok := lv.(int64)
			ri, rok := rv.(int64)
			if !lok || !rok {
				return nil
			}
			return f(li, ri)
		}
		return BoundExpr{Type: TypeInt64, Eval: eval}, nil
	}
	var f func(a, b float64) Value
	switch op {
	case OpAdd:
		f = func(a, b float64) Value { return a + b }
	case OpSub:
		f = func(a, b float64) Value { return a - b }
	case OpMul:
		f = func(a, b float64) Value { return a * b }
	case OpMod:
		f = func(a, b float64) Value {
			// Guard the truncated divisor, not b itself: 0 < b < 1
			// truncates to 0 and would panic the integer modulo.
			if int64(b) == 0 {
				return nil
			}
			return float64(int64(a) % int64(b))
		}
	}
	eval := func(row Row) Value {
		lf, lok := AsFloat64(le(row))
		rf, rok := AsFloat64(re(row))
		if !lok || !rok {
			return nil
		}
		return f(lf, rf)
	}
	return BoundExpr{Type: TypeFloat64, Eval: eval}, nil
}

// ---------------------------------------------------------------- Unary

// UnOp identifies a unary operator.
type UnOp int

// Unary operators.
const (
	OpNot UnOp = iota
	OpNeg
	OpIsNull
	OpIsNotNull
)

// Unary is a unary operator expression.
type Unary struct {
	Op    UnOp
	Child Expr
}

// Not negates a boolean expression.
func Not(e Expr) *Unary { return &Unary{Op: OpNot, Child: e} }

// Neg arithmetically negates an expression.
func Neg(e Expr) *Unary { return &Unary{Op: OpNeg, Child: e} }

// IsNull tests an expression for SQL NULL.
func IsNull(e Expr) *Unary { return &Unary{Op: OpIsNull, Child: e} }

// IsNotNull tests an expression for non-NULL.
func IsNotNull(e Expr) *Unary { return &Unary{Op: OpIsNotNull, Child: e} }

func (u *Unary) String() string {
	switch u.Op {
	case OpNot:
		return fmt.Sprintf("(NOT %s)", u.Child)
	case OpNeg:
		return fmt.Sprintf("(-%s)", u.Child)
	case OpIsNull:
		return fmt.Sprintf("(%s IS NULL)", u.Child)
	default:
		return fmt.Sprintf("(%s IS NOT NULL)", u.Child)
	}
}
func (u *Unary) Children() []Expr { return []Expr{u.Child} }
func (u *Unary) WithChildren(children []Expr) Expr {
	return &Unary{Op: u.Op, Child: children[0]}
}

func (u *Unary) Bind(schema Schema) (BoundExpr, error) {
	c, err := u.Child.Bind(schema)
	if err != nil {
		return BoundExpr{}, err
	}
	ce := c.Eval
	switch u.Op {
	case OpNot:
		eval := func(row Row) Value {
			v := ce(row)
			b, ok := v.(bool)
			if !ok {
				return nil
			}
			return !b
		}
		return BoundExpr{Type: TypeBool, Eval: eval}, nil
	case OpNeg:
		if !c.Type.Numeric() && c.Type != TypeNull && c.Type != TypeInterval {
			return BoundExpr{}, fmt.Errorf("sql: cannot negate %s in %s", c.Type, u)
		}
		eval := func(row Row) Value {
			switch v := ce(row).(type) {
			case int64:
				return -v
			case float64:
				return -v
			default:
				return nil
			}
		}
		return BoundExpr{Type: c.Type, Eval: eval}, nil
	case OpIsNull:
		eval := func(row Row) Value { return ce(row) == nil }
		return BoundExpr{Type: TypeBool, Eval: eval}, nil
	default: // OpIsNotNull
		eval := func(row Row) Value { return ce(row) != nil }
		return BoundExpr{Type: TypeBool, Eval: eval}, nil
	}
}

// ---------------------------------------------------------------- Cast

// CastExpr converts its child to a target type with SQL CAST semantics.
type CastExpr struct {
	Child Expr
	To    Type
}

// NewCast builds a CAST(child AS to) expression.
func NewCast(child Expr, to Type) *CastExpr { return &CastExpr{Child: child, To: to} }

func (c *CastExpr) String() string   { return fmt.Sprintf("CAST(%s AS %s)", c.Child, c.To) }
func (c *CastExpr) Children() []Expr { return []Expr{c.Child} }
func (c *CastExpr) WithChildren(children []Expr) Expr {
	return &CastExpr{Child: children[0], To: c.To}
}

func (c *CastExpr) Bind(schema Schema) (BoundExpr, error) {
	child, err := c.Child.Bind(schema)
	if err != nil {
		return BoundExpr{}, err
	}
	to := c.To
	if child.Type == to {
		return child, nil
	}
	ce := child.Eval
	return BoundExpr{Type: to, Eval: func(row Row) Value { return Cast(ce(row), to) }}, nil
}

// ---------------------------------------------------------------- CASE

// WhenClause is one WHEN condition THEN result arm of a CASE expression.
type WhenClause struct {
	When Expr
	Then Expr
}

// Case is a searched CASE expression with an optional ELSE.
type Case struct {
	Whens []WhenClause
	Else  Expr // may be nil, meaning ELSE NULL
}

func (c *Case) String() string {
	var b strings.Builder
	b.WriteString("CASE")
	for _, w := range c.Whens {
		fmt.Fprintf(&b, " WHEN %s THEN %s", w.When, w.Then)
	}
	if c.Else != nil {
		fmt.Fprintf(&b, " ELSE %s", c.Else)
	}
	b.WriteString(" END")
	return b.String()
}

func (c *Case) Children() []Expr {
	var out []Expr
	for _, w := range c.Whens {
		out = append(out, w.When, w.Then)
	}
	if c.Else != nil {
		out = append(out, c.Else)
	}
	return out
}

func (c *Case) WithChildren(children []Expr) Expr {
	out := &Case{Whens: make([]WhenClause, len(c.Whens))}
	for i := range c.Whens {
		out.Whens[i] = WhenClause{When: children[2*i], Then: children[2*i+1]}
	}
	if c.Else != nil {
		out.Else = children[2*len(c.Whens)]
	}
	return out
}

func (c *Case) Bind(schema Schema) (BoundExpr, error) {
	type arm struct {
		when func(Row) Value
		then func(Row) Value
	}
	arms := make([]arm, len(c.Whens))
	resType := TypeNull
	for i, w := range c.Whens {
		cond, err := w.When.Bind(schema)
		if err != nil {
			return BoundExpr{}, err
		}
		if cond.Type != TypeBool && cond.Type != TypeNull {
			return BoundExpr{}, fmt.Errorf("sql: CASE WHEN condition must be boolean, got %s", cond.Type)
		}
		then, err := w.Then.Bind(schema)
		if err != nil {
			return BoundExpr{}, err
		}
		var ok bool
		if resType, ok = CommonType(resType, then.Type); !ok {
			return BoundExpr{}, fmt.Errorf("sql: incompatible CASE branch types in %s", c)
		}
		arms[i] = arm{when: cond.Eval, then: then.Eval}
	}
	var elseEval func(Row) Value
	if c.Else != nil {
		e, err := c.Else.Bind(schema)
		if err != nil {
			return BoundExpr{}, err
		}
		var ok bool
		if resType, ok = CommonType(resType, e.Type); !ok {
			return BoundExpr{}, fmt.Errorf("sql: incompatible CASE ELSE type in %s", c)
		}
		elseEval = e.Eval
	}
	eval := func(row Row) Value {
		for _, a := range arms {
			if b, ok := a.when(row).(bool); ok && b {
				return a.then(row)
			}
		}
		if elseEval != nil {
			return elseEval(row)
		}
		return nil
	}
	return BoundExpr{Type: resType, Eval: eval}, nil
}

// ---------------------------------------------------------------- IN

// InList is "child IN (lit, lit, ...)".
type InList struct {
	Child Expr
	List  []Expr
}

func (in *InList) String() string {
	parts := make([]string, len(in.List))
	for i, e := range in.List {
		parts[i] = e.String()
	}
	return fmt.Sprintf("(%s IN (%s))", in.Child, strings.Join(parts, ", "))
}
func (in *InList) Children() []Expr { return append([]Expr{in.Child}, in.List...) }
func (in *InList) WithChildren(children []Expr) Expr {
	return &InList{Child: children[0], List: children[1:]}
}

func (in *InList) Bind(schema Schema) (BoundExpr, error) {
	child, err := in.Child.Bind(schema)
	if err != nil {
		return BoundExpr{}, err
	}
	evals := make([]func(Row) Value, len(in.List))
	for i, e := range in.List {
		b, err := e.Bind(schema)
		if err != nil {
			return BoundExpr{}, err
		}
		if _, ok := CommonType(child.Type, b.Type); !ok {
			return BoundExpr{}, fmt.Errorf("sql: IN list element %s has incompatible type %s", e, b.Type)
		}
		evals[i] = b.Eval
	}
	ce := child.Eval
	eval := func(row Row) Value {
		v := ce(row)
		if v == nil {
			return nil
		}
		sawNull := false
		for _, le := range evals {
			lv := le(row)
			if lv == nil {
				sawNull = true
				continue
			}
			if Compare(v, lv) == 0 {
				return true
			}
		}
		if sawNull {
			return nil
		}
		return false
	}
	return BoundExpr{Type: TypeBool, Eval: eval}, nil
}

// ---------------------------------------------------------------- Walk helpers

// WalkExpr calls fn on e and every descendant, pre-order.
func WalkExpr(e Expr, fn func(Expr)) {
	fn(e)
	for _, c := range e.Children() {
		WalkExpr(c, fn)
	}
}

// TransformExpr rewrites an expression bottom-up: children first, then fn on
// the (possibly rebuilt) node.
func TransformExpr(e Expr, fn func(Expr) Expr) Expr {
	children := e.Children()
	if len(children) > 0 {
		newChildren := make([]Expr, len(children))
		changed := false
		for i, c := range children {
			newChildren[i] = TransformExpr(c, fn)
			if newChildren[i] != c {
				changed = true
			}
		}
		if changed {
			e = e.WithChildren(newChildren)
		}
	}
	return fn(e)
}

// SplitConjuncts flattens a tree of ANDs into its conjuncts.
func SplitConjuncts(e Expr) []Expr {
	if b, ok := e.(*Binary); ok && b.Op == OpAnd {
		return append(SplitConjuncts(b.L), SplitConjuncts(b.R)...)
	}
	return []Expr{e}
}
