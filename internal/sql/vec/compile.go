package vec

import (
	"slices"

	"structream/internal/sql"
)

// Program is a compiled expression over column batches. Run evaluates it
// to one vector per batch: through its kernel chain, densely over [0, Len),
// when every node has a kernel and every column it reads arrives in its
// schema's kind; otherwise lane by lane over the live lanes through the
// bound expression. The selection vector is applied at stage boundaries
// (filters, materialization), not inside kernels. Programs hold no
// per-batch state and are safe for concurrent use across map tasks.
type Program struct {
	Type   sql.Type
	kernel func(*Batch) *Vector // nil when some node has no kernel
	eval   func(sql.Row) sql.Value
	col    int    // a bare column reference's position, else -1
	reads  []int  // the columns the expression reads, ascending
	kinds  []Kind // the kind the kernels expect of each
}

// Run evaluates the program over b. A bare column reference hands back the
// column's vector as it arrived.
func (p *Program) Run(b *Batch) *Vector {
	if p.col >= 0 {
		return b.Cols[p.col]
	}
	if p.kernel == nil {
		return p.lanes(b)
	}
	for i, c := range p.reads {
		if b.Cols[c].Kind != p.kinds[i] {
			return p.lanes(b) // a column drifted from its schema's kind
		}
	}
	return p.kernel(b)
}

// Lanewise reports whether the program has no kernel chain: every batch
// runs it lane by lane.
func (p *Program) Lanewise() bool { return p.kernel == nil && p.col < 0 }

// lanes evaluates the bound expression over b's live lanes, boxing the
// columns it reads into one scratch row. The result is a vector of the
// declared type's kind, or KindAny once a value does not fit that kind;
// dead lanes hold garbage (NULL, in a boxed result).
func (p *Program) lanes(b *Batch) *Vector {
	row := make(sql.Row, len(b.Cols))
	out := b.NewVector(KindOf(p.Type), b.Len)
	if out.Kind == KindAny {
		clear(out.Anys)
	}
	lane := func(i int) {
		for _, c := range p.reads {
			row[c] = b.Cols[c].Get(i)
		}
		v := p.eval(row)
		if !out.put(i, v, b.Len) {
			out = boxLanes(b, out, i)
			out.Anys[i] = v
		}
	}
	if b.Sel != nil {
		for _, i := range b.Sel {
			lane(int(i))
		}
	} else {
		for i := 0; i < b.Len; i++ {
			lane(i)
		}
	}
	return out
}

// boxLanes copies the live lanes of v before lane stop into a boxed vector
// drawn for b.
func boxLanes(b *Batch, v *Vector, stop int) *Vector {
	out := b.NewVector(KindAny, b.Len)
	clear(out.Anys)
	if b.Sel == nil {
		for i := 0; i < stop; i++ {
			out.Anys[i] = v.Get(i)
		}
		return out
	}
	for _, i := range b.Sel {
		if int(i) == stop {
			break
		}
		out.Anys[i] = v.Get(int(i))
	}
	return out
}

// Compile binds an expression against the given input schema and, where
// every node falls inside the kernel subset (column refs, literals,
// comparisons, LIKE, arithmetic, AND/OR/NOT, IS [NOT] NULL, negation),
// translates it into a kernel chain reproducing exactly the semantics of its
// Bind. Anything else — CASE, IN, CAST, function calls — runs lane by lane.
// The error is Bind's.
func Compile(e sql.Expr, schema sql.Schema) (*Program, error) {
	bound, err := e.Bind(schema)
	if err != nil {
		return nil, err
	}
	p := &Program{Type: bound.Type, eval: bound.Eval, col: -1}
	sql.WalkExpr(e, func(x sql.Expr) {
		if c, ok := x.(*sql.Column); ok {
			if idx, err := schema.Resolve(c.Name); err == nil && !slices.Contains(p.reads, idx) {
				p.reads = append(p.reads, idx)
			}
		}
	})
	slices.Sort(p.reads)
	for _, c := range p.reads {
		p.kinds = append(p.kinds, KindOf(schema.Field(c).Type))
	}
	for x := e; ; {
		a, ok := x.(*sql.Alias)
		if !ok {
			if c, ok := x.(*sql.Column); ok {
				p.col, _ = schema.Resolve(c.Name)
			}
			break
		}
		x = a.Child
	}
	if n, ok := compileNode(e, schema); ok {
		p.kernel = n.vector
	}
	return p, nil
}

// CompileAll compiles every expression.
func CompileAll(exprs []sql.Expr, schema sql.Schema) ([]*Program, error) {
	progs := make([]*Program, len(exprs))
	for i, e := range exprs {
		p, err := Compile(e, schema)
		if err != nil {
			return nil, err
		}
		progs[i] = p
	}
	return progs, nil
}

// node is one compiled sub-expression. Constants stay unmaterialized so
// parent operators can pick vector-constant kernels; node.vector
// broadcasts them when a parent needs a full vector.
type node struct {
	typ      sql.Type
	isConst  bool
	constVal sql.Value
	run      func(*Batch) *Vector
}

func (n node) vector(b *Batch) *Vector {
	if n.isConst {
		return b.Broadcast(n.constVal, KindOf(n.typ))
	}
	return n.run(b)
}

// constNull reports whether the operand is a known NULL: either typed
// TypeNull (a bare NULL literal, or a column of a NULL-typed projection
// whose every value is nil) or a constant folding to nil.
func (n node) constNull() bool {
	return n.typ == sql.TypeNull || (n.isConst && n.constVal == nil)
}

// allNullNode evaluates to an all-NULL vector of t — the vector form of
// the row path returning nil for every row.
func allNullNode(t sql.Type) node {
	return node{typ: t, run: func(b *Batch) *Vector {
		v := b.NewVector(KindOf(t), b.Len)
		if v.Kind == KindAny {
			clear(v.Anys) // a nil cell is KindAny's NULL
		} else {
			v.EnsureNulls(b.Len).SetAll()
		}
		return v
	}}
}

func compileNode(e sql.Expr, schema sql.Schema) (node, bool) {
	switch x := e.(type) {
	case *sql.Alias:
		return compileNode(x.Child, schema)
	case *sql.Column:
		idx, err := schema.Resolve(x.Name)
		if err != nil {
			return node{}, false
		}
		t := schema.Field(idx).Type
		return node{typ: t, run: func(b *Batch) *Vector { return b.Cols[idx] }}, true
	case *sql.Literal:
		return node{typ: x.Type, isConst: true, constVal: x.Val}, true
	case *sql.Binary:
		l, ok := compileNode(x.L, schema)
		if !ok {
			return node{}, false
		}
		r, ok := compileNode(x.R, schema)
		if !ok {
			return node{}, false
		}
		switch x.Op {
		case sql.OpAnd, sql.OpOr:
			return compileLogical(l, r, x.Op == sql.OpAnd)
		case sql.OpEq, sql.OpNe, sql.OpLt, sql.OpLe, sql.OpGt, sql.OpGe:
			return compileComparison(x.Op, l, r)
		case sql.OpLike:
			return compileLike(l, r)
		default:
			return compileArith(x.Op, l, r)
		}
	case *sql.Unary:
		c, ok := compileNode(x.Child, schema)
		if !ok {
			return node{}, false
		}
		return compileUnary(x.Op, c)
	default:
		// CASE, IN, CAST, LIKE, functions, window exprs: lane by lane.
		return node{}, false
	}
}

// compileLogical builds three-valued AND/OR. Operands must be bool-kind
// or known NULL (bindLogical treats any non-bool value as NULL; for
// typed vectors only NULL-typed operands can hit that path).
func compileLogical(l, r node, isAnd bool) (node, bool) {
	operand := func(n node) (func(*Batch) *Vector, bool) {
		if n.constNull() {
			an := allNullNode(sql.TypeBool)
			return an.run, true
		}
		if KindOf(n.typ) != KindBool {
			return nil, false
		}
		return n.vector, true
	}
	lf, ok := operand(l)
	if !ok {
		return node{}, false
	}
	rf, ok := operand(r)
	if !ok {
		return node{}, false
	}
	return node{typ: sql.TypeBool, run: func(b *Batch) *Vector {
		return logical(b, lf(b), rf(b), isAnd)
	}}, true
}

func compileComparison(op sql.BinOp, l, r node) (node, bool) {
	if _, ok := sql.CommonType(l.typ, r.typ); !ok {
		return node{}, false
	}
	// A known-NULL operand makes every lane NULL (the generic row path
	// returns nil whenever either side is nil; the typed fast paths do
	// the same via their failed assertions).
	if l.constNull() || r.constNull() {
		return allNullNode(sql.TypeBool), true
	}
	lk, rk := KindOf(l.typ), KindOf(r.typ)
	switch {
	case lk == KindInt64 && rk == KindInt64:
		return cmpNode(op, l, r, func(n node) func(*Batch) ([]int64, Bitmap) {
			return func(b *Batch) ([]int64, Bitmap) {
				v := n.vector(b)
				return v.Int64s, v.Nulls
			}
		}, func(v sql.Value) int64 { return v.(int64) }), true
	case (lk == KindInt64 || lk == KindFloat64) && (rk == KindInt64 || rk == KindFloat64):
		// Mixed or float comparison: both sides widen to float64, matching
		// sql.Compare's numeric promotion.
		return cmpNode(op, l, r, func(n node) func(*Batch) ([]float64, Bitmap) {
			return func(b *Batch) ([]float64, Bitmap) {
				v := n.vector(b)
				return asFloat64s(b, v), v.Nulls
			}
		}, constFloat), true
	case lk == KindString && rk == KindString:
		if op == sql.OpEq || op == sql.OpNe {
			return strEqNode(l, r, op == sql.OpNe), true
		}
		return cmpNode(op, l, r, func(n node) func(*Batch) ([]string, Bitmap) {
			return func(b *Batch) ([]string, Bitmap) {
				v := n.vector(b)
				return v.Strings, v.Nulls
			}
		}, func(v sql.Value) string { return v.(string) }), true
	case lk == KindBool && rk == KindBool:
		// false < true, via the int kernel on widened lanes.
		return cmpNode(op, l, r, func(n node) func(*Batch) ([]int64, Bitmap) {
			return func(b *Batch) ([]int64, Bitmap) {
				v := n.vector(b)
				return boolsToInt64(b, v.Bools), v.Nulls
			}
		}, func(v sql.Value) int64 {
			if v.(bool) {
				return 1
			}
			return 0
		}), true
	default:
		// Window/Any operands would take sql.Compare's reflective paths;
		// they run lane by lane.
		return node{}, false
	}
}

// compileLike matches strings against LIKE patterns; a NULL operand makes
// every lane NULL, as the bound form's failed string assertion does.
func compileLike(l, r node) (node, bool) {
	if l.constNull() || r.constNull() {
		return allNullNode(sql.TypeBool), true
	}
	if KindOf(l.typ) != KindString || KindOf(r.typ) != KindString {
		return node{}, false
	}
	if r.isConst {
		pattern := r.constVal.(string)
		return node{typ: sql.TypeBool, run: func(b *Batch) *Vector {
			av := l.vector(b)
			out := b.NewVector(KindBool, b.Len)
			for i, s := range av.Strings[:b.Len] {
				out.Bools[i] = sql.LikeMatch(s, pattern)
			}
			out.Nulls = av.Nulls
			return out
		}}, true
	}
	return node{typ: sql.TypeBool, run: func(b *Batch) *Vector {
		av, pv := l.vector(b), r.vector(b)
		out := b.NewVector(KindBool, b.Len)
		for i := 0; i < b.Len; i++ {
			out.Bools[i] = sql.LikeMatch(av.Strings[i], pv.Strings[i])
		}
		out.Nulls = UnionNulls(b.Len, av.Nulls, pv.Nulls)
		return out
	}}, true
}

// strEqNode wires string = / <> to the equality kernels, constant-aware
// like cmpNode (equality is symmetric, so a constant on either side takes
// the vector-constant form).
func strEqNode(l, r node, ne bool) node {
	if l.isConst {
		l, r = r, l
	}
	if r.isConst {
		c := r.constVal.(string)
		return node{typ: sql.TypeBool, run: func(b *Batch) *Vector {
			av := l.vector(b)
			out := b.NewVector(KindBool, b.Len)
			eqStrVC(av.Strings[:b.Len], c, ne, out.Bools)
			out.Nulls = av.Nulls
			return out
		}}
	}
	return node{typ: sql.TypeBool, run: func(b *Batch) *Vector {
		av, bv := l.vector(b), r.vector(b)
		out := b.NewVector(KindBool, b.Len)
		eqStrVV(av.Strings[:b.Len], bv.Strings[:b.Len], ne, out.Bools)
		out.Nulls = UnionNulls(b.Len, av.Nulls, bv.Nulls)
		return out
	}}
}

// constFloat coerces an int64 or float64 constant, mirroring AsFloat64.
func constFloat(v sql.Value) float64 {
	if f, ok := v.(float64); ok {
		return f
	}
	return float64(v.(int64))
}

// cmpNode wires the constant-aware comparison forms for one element
// type: slab(n) extracts an operand's lanes+nulls, conv coerces a
// non-nil constant.
func cmpNode[T ordered](op sql.BinOp, l, r node, slab func(node) func(*Batch) ([]T, Bitmap), conv func(sql.Value) T) node {
	switch {
	case r.isConst:
		c := conv(r.constVal)
		lf := slab(l)
		return node{typ: sql.TypeBool, run: func(b *Batch) *Vector {
			a, nulls := lf(b)
			out := b.NewVector(KindBool, b.Len)
			cmpVC(op, a[:b.Len], c, out.Bools)
			out.Nulls = nulls
			return out
		}}
	case l.isConst:
		c := conv(l.constVal)
		rf := slab(r)
		fop := flipCmp(op)
		return node{typ: sql.TypeBool, run: func(b *Batch) *Vector {
			a, nulls := rf(b)
			out := b.NewVector(KindBool, b.Len)
			cmpVC(fop, a[:b.Len], c, out.Bools)
			out.Nulls = nulls
			return out
		}}
	default:
		lf, rf := slab(l), slab(r)
		return node{typ: sql.TypeBool, run: func(b *Batch) *Vector {
			a, an := lf(b)
			bb, bn := rf(b)
			out := b.NewVector(KindBool, b.Len)
			cmpVV(op, a[:b.Len], bb[:b.Len], out.Bools)
			out.Nulls = UnionNulls(b.Len, an, bn)
			return out
		}}
	}
}

func compileArith(op sql.BinOp, l, r node) (node, bool) {
	// Timestamp ± interval special cases (all int64 lanes underneath). A
	// constant NULL operand fails the row path's type assertion on every
	// row, so the whole result is NULL.
	tsArith := func(op sql.BinOp, resType sql.Type) (node, bool) {
		if l.constNull() || r.constNull() {
			return allNullNode(resType), true
		}
		return intArithNode(op, resType, l, r), true
	}
	switch {
	case l.typ == sql.TypeTimestamp && r.typ == sql.TypeInterval && op == sql.OpAdd,
		l.typ == sql.TypeInterval && r.typ == sql.TypeTimestamp && op == sql.OpAdd:
		return tsArith(sql.OpAdd, sql.TypeTimestamp)
	case l.typ == sql.TypeTimestamp && r.typ == sql.TypeInterval && op == sql.OpSub:
		return tsArith(sql.OpSub, sql.TypeTimestamp)
	case l.typ == sql.TypeTimestamp && r.typ == sql.TypeTimestamp && op == sql.OpSub:
		return tsArith(sql.OpSub, sql.TypeInterval)
	case l.typ == sql.TypeInterval && r.typ == sql.TypeInterval && (op == sql.OpAdd || op == sql.OpSub):
		return tsArith(op, sql.TypeInterval)
	}
	if op == sql.OpAdd && l.typ == sql.TypeString && r.typ == sql.TypeString {
		return concatNode(l, r), true
	}
	lNum := l.typ.Numeric() || l.typ == sql.TypeNull
	rNum := r.typ.Numeric() || r.typ == sql.TypeNull
	if !lNum || !rNum {
		return node{}, false
	}
	if op == sql.OpDiv {
		return divNode(l, r), true
	}
	if l.constNull() || r.constNull() {
		// Row path: failed assertion / AsFloat64 on nil → nil every row.
		if l.typ == sql.TypeInt64 && r.typ == sql.TypeInt64 {
			return allNullNode(sql.TypeInt64), true
		}
		return allNullNode(sql.TypeFloat64), true
	}
	if l.typ == sql.TypeInt64 && r.typ == sql.TypeInt64 {
		if op == sql.OpMod {
			return intModNode(l, r), true
		}
		return intArithNode(op, sql.TypeInt64, l, r), true
	}
	if op == sql.OpMod {
		return floatModNode(l, r), true
	}
	return floatArithNode(op, l, r), true
}

// intArithNode wires +, -, * over int64 lanes (also timestamps and
// intervals) with wrap-around overflow like the row path.
func intArithNode(op sql.BinOp, resType sql.Type, l, r node) node {
	switch {
	case r.isConst:
		c := r.constVal.(int64)
		return node{typ: resType, run: func(b *Batch) *Vector {
			av := l.vector(b)
			out := b.NewVector(KindInt64, b.Len)
			arithVC(op, av.Int64s[:b.Len], c, out.Int64s)
			out.Nulls = av.Nulls
			return out
		}}
	case l.isConst:
		c := l.constVal.(int64)
		return node{typ: resType, run: func(b *Batch) *Vector {
			bv := r.vector(b)
			out := b.NewVector(KindInt64, b.Len)
			arithCV(op, c, bv.Int64s[:b.Len], out.Int64s)
			out.Nulls = bv.Nulls
			return out
		}}
	default:
		return node{typ: resType, run: func(b *Batch) *Vector {
			av, bv := l.vector(b), r.vector(b)
			out := b.NewVector(KindInt64, b.Len)
			arithVV(op, av.Int64s[:b.Len], bv.Int64s[:b.Len], out.Int64s)
			out.Nulls = UnionNulls(b.Len, av.Nulls, bv.Nulls)
			return out
		}}
	}
}

// floatArithNode wires +, -, * over float lanes with int operands
// widened, mirroring the AsFloat64 coercion of the row path.
func floatArithNode(op sql.BinOp, l, r node) node {
	switch {
	case r.isConst:
		c := constFloat(r.constVal)
		return node{typ: sql.TypeFloat64, run: func(b *Batch) *Vector {
			av := l.vector(b)
			out := b.NewVector(KindFloat64, b.Len)
			arithVC(op, asFloat64s(b, av), c, out.Float64s)
			out.Nulls = av.Nulls
			return out
		}}
	case l.isConst:
		c := constFloat(l.constVal)
		return node{typ: sql.TypeFloat64, run: func(b *Batch) *Vector {
			bv := r.vector(b)
			out := b.NewVector(KindFloat64, b.Len)
			arithCV(op, c, asFloat64s(b, bv), out.Float64s)
			out.Nulls = bv.Nulls
			return out
		}}
	default:
		return node{typ: sql.TypeFloat64, run: func(b *Batch) *Vector {
			av, bv := l.vector(b), r.vector(b)
			out := b.NewVector(KindFloat64, b.Len)
			arithVV(op, asFloat64s(b, av), asFloat64s(b, bv), out.Float64s)
			out.Nulls = UnionNulls(b.Len, av.Nulls, bv.Nulls)
			return out
		}}
	}
}

// divNode: division always yields float64 and a zero divisor yields
// NULL (not ±Inf), exactly like the row path's AsFloat64-based eval.
// NaN divisors are NOT zero, so those lanes divide through to NaN.
func divNode(l, r node) node {
	if l.constNull() || r.constNull() {
		return allNullNode(sql.TypeFloat64)
	}
	if r.isConst {
		c := constFloat(r.constVal)
		if c == 0 {
			return allNullNode(sql.TypeFloat64)
		}
		return node{typ: sql.TypeFloat64, run: func(b *Batch) *Vector {
			av := l.vector(b)
			out := b.NewVector(KindFloat64, b.Len)
			a := asFloat64s(b, av)
			for i := range out.Float64s {
				out.Float64s[i] = a[i] / c
			}
			out.Nulls = av.Nulls
			return out
		}}
	}
	return node{typ: sql.TypeFloat64, run: func(b *Batch) *Vector {
		av, bv := l.vector(b), r.vector(b)
		out := b.NewVector(KindFloat64, b.Len)
		a, d := asFloat64s(b, av), asFloat64s(b, bv)
		for i := range out.Float64s {
			out.Float64s[i] = a[i] / d[i]
		}
		nulls := UnionNulls(b.Len, av.Nulls, bv.Nulls)
		for i, x := range d {
			if x == 0 {
				if nulls == nil {
					nulls = NewBitmap(b.Len)
				}
				nulls.Set(i)
			}
		}
		out.Nulls = nulls
		return out
	}}
}

// intModNode guards every lane's divisor: b == 0 → NULL (never a
// panic), including dead and NULL lanes whose slots hold garbage.
func intModNode(l, r node) node {
	if r.isConst {
		c := r.constVal.(int64)
		if c == 0 {
			return allNullNode(sql.TypeInt64)
		}
		return node{typ: sql.TypeInt64, run: func(b *Batch) *Vector {
			av := l.vector(b)
			out := b.NewVector(KindInt64, b.Len)
			for i, x := range av.Int64s[:b.Len] {
				out.Int64s[i] = x % c
			}
			out.Nulls = av.Nulls
			return out
		}}
	}
	return node{typ: sql.TypeInt64, run: func(b *Batch) *Vector {
		av, bv := l.vector(b), r.vector(b)
		out := b.NewVector(KindInt64, b.Len)
		nulls := UnionNulls(b.Len, av.Nulls, bv.Nulls)
		for i := 0; i < b.Len; i++ {
			d := bv.Int64s[i]
			if d == 0 {
				if nulls == nil {
					nulls = NewBitmap(b.Len)
				}
				nulls.Set(i)
				continue
			}
			out.Int64s[i] = av.Int64s[i] % d
		}
		out.Nulls = nulls
		return out
	}}
}

// floatModNode reproduces the row path's float64(int64(a) % int64(b)):
// a zero divisor is NULL, and a fractional divisor in (-1, 1) panics on
// integer division by zero exactly as the row path does. Because that
// panic is observable it must only fire for LIVE lanes, so this is the
// one kernel that walks the selection vector instead of running dense.
func floatModNode(l, r node) node {
	mod := func(out *Vector, a, d []float64, nulls *Bitmap, n, i int) {
		// Like the row path, the truncated divisor is the guard: 0 < d < 1
		// truncates to 0 and must yield NULL, not a divide panic.
		d64 := int64(d[i])
		if d64 == 0 {
			if *nulls == nil {
				*nulls = NewBitmap(n)
			}
			nulls.Set(i)
			return
		}
		out.Float64s[i] = float64(int64(a[i]) % d64)
	}
	return node{typ: sql.TypeFloat64, run: func(b *Batch) *Vector {
		av, bv := l.vector(b), r.vector(b)
		out := b.NewVector(KindFloat64, b.Len)
		a, d := asFloat64s(b, av), asFloat64s(b, bv)
		nulls := UnionNulls(b.Len, av.Nulls, bv.Nulls)
		if b.Sel != nil {
			for _, i := range b.Sel {
				if !nulls.Get(int(i)) {
					mod(out, a, d, &nulls, b.Len, int(i))
				}
			}
		} else {
			for i := 0; i < b.Len; i++ {
				if !nulls.Get(i) {
					mod(out, a, d, &nulls, b.Len, i)
				}
			}
		}
		out.Nulls = nulls
		return out
	}}
}

// concatNode implements string + string; concatenation at NULL lanes
// runs on empty-string garbage and is masked by the bitmap.
func concatNode(l, r node) node {
	if l.constNull() || r.constNull() {
		return allNullNode(sql.TypeString)
	}
	switch {
	case r.isConst:
		c := r.constVal.(string)
		return node{typ: sql.TypeString, run: func(b *Batch) *Vector {
			av := l.vector(b)
			out := b.NewVector(KindString, b.Len)
			for i, s := range av.Strings[:b.Len] {
				out.Strings[i] = s + c
			}
			out.Nulls = av.Nulls
			return out
		}}
	case l.isConst:
		c := l.constVal.(string)
		return node{typ: sql.TypeString, run: func(b *Batch) *Vector {
			bv := r.vector(b)
			out := b.NewVector(KindString, b.Len)
			for i, s := range bv.Strings[:b.Len] {
				out.Strings[i] = c + s
			}
			out.Nulls = bv.Nulls
			return out
		}}
	default:
		return node{typ: sql.TypeString, run: func(b *Batch) *Vector {
			av, bv := l.vector(b), r.vector(b)
			out := b.NewVector(KindString, b.Len)
			for i := 0; i < b.Len; i++ {
				out.Strings[i] = av.Strings[i] + bv.Strings[i]
			}
			out.Nulls = UnionNulls(b.Len, av.Nulls, bv.Nulls)
			return out
		}}
	}
}

func compileUnary(op sql.UnOp, c node) (node, bool) {
	switch op {
	case sql.OpNot:
		if c.constNull() {
			return allNullNode(sql.TypeBool), true
		}
		if KindOf(c.typ) != KindBool {
			// Bind returns nil for non-bool values; for typed columns that
			// means every lane, but Bind only produces NOT over bool or
			// null — anything else runs lane by lane.
			return node{}, false
		}
		return node{typ: sql.TypeBool, run: func(b *Batch) *Vector {
			return notKernel(b, c.vector(b))
		}}, true
	case sql.OpNeg:
		if c.constNull() {
			return allNullNode(c.typ), true
		}
		switch KindOf(c.typ) {
		case KindInt64:
			return node{typ: c.typ, run: func(b *Batch) *Vector {
				av := c.vector(b)
				out := b.NewVector(KindInt64, b.Len)
				for i, x := range av.Int64s[:b.Len] {
					out.Int64s[i] = -x
				}
				out.Nulls = av.Nulls
				return out
			}}, true
		case KindFloat64:
			return node{typ: c.typ, run: func(b *Batch) *Vector {
				av := c.vector(b)
				out := b.NewVector(KindFloat64, b.Len)
				for i, x := range av.Float64s[:b.Len] {
					out.Float64s[i] = -x
				}
				out.Nulls = av.Nulls
				return out
			}}, true
		default:
			return node{}, false
		}
	case sql.OpIsNull:
		return node{typ: sql.TypeBool, run: func(b *Batch) *Vector {
			return isNullKernel(b, c.vector(b), false)
		}}, true
	case sql.OpIsNotNull:
		return node{typ: sql.TypeBool, run: func(b *Batch) *Vector {
			return isNullKernel(b, c.vector(b), true)
		}}, true
	}
	return node{}, false
}
