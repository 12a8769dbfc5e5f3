package physical

import (
	"structream/internal/sql"
	"structream/internal/sql/logical"
	"structream/internal/sql/vec"
)

// This file is the ColumnBatch variant of the fused pipeline: the same
// filter/project/window chain as the row BatchFuncs, expressed as VecOps
// over column batches. Stages stay columnar end to end; rows are
// materialized only at the boundary where a consumer needs []sql.Value
// (the sink, a shuffle, or a non-vectorizable downstream stage).

// VecOp is one vectorized pipeline stage: it maps a column batch to a
// column batch. Implementations never mutate their input batch's
// vectors; they produce new vectors or narrow the selection.
type VecOp interface {
	Apply(*vec.Batch) *vec.Batch
}

// VecSource is an optional extension of RowSource for inputs that can
// serve column batches directly (colfmt segments, codec-framed bus
// topics). NextVec returns the next batch columnar when possible; a
// batch whose stored types drift from the schema comes back as rows
// instead (exactly one of batch/rows is non-nil). (nil, nil, nil) is EOF.
type VecSource interface {
	NextVec() (*vec.Batch, []sql.Row, error)
}

// ---------------------------------------------------------------- filter

type vecFilter struct{ cond *vec.Program }

// NewVecFilter keeps positions where the predicate is TRUE (false and
// NULL both drop, like FilterFunc's `.(bool)` assertion).
func NewVecFilter(cond *vec.Program) VecOp { return &vecFilter{cond: cond} }

func (f *vecFilter) Apply(b *vec.Batch) *vec.Batch {
	cond := f.cond.Run(b)
	return &vec.Batch{Schema: b.Schema, Cols: b.Cols, Len: b.Len, Sel: vec.FilterSel(b, cond)}
}

// ---------------------------------------------------------------- project

type vecProject struct {
	progs  []*vec.Program
	schema sql.Schema
}

// NewVecProject computes one output vector per projection expression.
// Column picks are zero-copy; computed columns evaluate densely and the
// selection vector carries over untouched.
func NewVecProject(progs []*vec.Program, schema sql.Schema) VecOp {
	return &vecProject{progs: progs, schema: schema}
}

func (p *vecProject) Apply(b *vec.Batch) *vec.Batch {
	cols := make([]*vec.Vector, len(p.progs))
	for i, prog := range p.progs {
		cols[i] = prog.Run(b)
	}
	return &vec.Batch{Schema: p.schema, Cols: cols, Len: b.Len, Sel: b.Sel}
}

// ---------------------------------------------------------------- window

type vecWindow struct {
	time        *vec.Program
	size, slide int64
	schema      sql.Schema
}

// NewVecWindow appends a tumbling-window column computed from an int64
// event-time program. Rows whose event time is NULL drop (as in the row
// path); sliding windows (size != slide) explode rows and stay on the
// row path, so callers must not build this op for them.
func NewVecWindow(time *vec.Program, w *sql.WindowExpr, schema sql.Schema) VecOp {
	return &vecWindow{time: time, size: w.Size, slide: w.Slide, schema: schema}
}

func (w *vecWindow) Apply(b *vec.Batch) *vec.Batch {
	tv := w.time.Run(b)
	wcol := vec.NewVector(vec.KindWindow, b.Len)
	ts := tv.Int64s
	slide, size := w.slide, w.size
	assign := func(i int) {
		t := ts[i]
		start := t - ((t%slide)+slide)%slide
		wcol.WStarts[i] = start
		wcol.WEnds[i] = start + size
	}
	if b.Sel != nil {
		// A selection upstream (a filter, a join) usually leaves a minority
		// of lanes live; the dead ones keep zero bounds nobody reads.
		for _, i := range b.Sel {
			assign(int(i))
		}
	} else {
		for i := 0; i < b.Len; i++ {
			assign(i)
		}
	}
	sel := b.Sel
	if tv.Nulls != nil {
		// NULL event times drop, exactly like the row path's failed
		// int64 assertion.
		sel = make([]int32, 0, b.NumLive())
		if b.Sel != nil {
			for _, i := range b.Sel {
				if !tv.Nulls.Get(int(i)) {
					sel = append(sel, i)
				}
			}
		} else {
			for i := 0; i < b.Len; i++ {
				if !tv.Nulls.Get(i) {
					sel = append(sel, int32(i))
				}
			}
		}
	}
	cols := make([]*vec.Vector, 0, len(b.Cols)+1)
	cols = append(cols, b.Cols...)
	cols = append(cols, wcol)
	return &vec.Batch{Schema: w.schema, Cols: cols, Len: b.Len, Sel: sel}
}

// ----------------------------------------------------------- materialize

// EmitBatchRows materializes the live rows of a column batch through
// emit, arena-backed. This is the single row/column boundary: each cell
// boxes exactly once, and consecutive equal windows share one boxed
// sql.Window (event times usually arrive roughly ordered).
func EmitBatchRows(b *vec.Batch, emit func(sql.Row)) {
	if b.NumLive() == 0 {
		return
	}
	arena := NewRowArena(len(b.Cols))
	getters := make([]func(int) sql.Value, len(b.Cols))
	for c, v := range b.Cols {
		getters[c] = columnGetter(v)
	}
	if b.Sel != nil {
		for _, i := range b.Sel {
			r := arena.Next()
			for c, g := range getters {
				r[c] = g(int(i))
			}
			emit(r)
		}
		return
	}
	for i := 0; i < b.Len; i++ {
		r := arena.Next()
		for c, g := range getters {
			r[c] = g(i)
		}
		emit(r)
	}
}

// columnGetter returns a boxing accessor specialized to the vector's
// kind, avoiding a kind switch per cell.
func columnGetter(v *vec.Vector) func(int) sql.Value {
	switch v.Kind {
	case vec.KindInt64:
		vals, nulls := v.Int64s, v.Nulls
		return func(i int) sql.Value {
			if nulls.Get(i) {
				return nil
			}
			return vals[i]
		}
	case vec.KindFloat64:
		vals, nulls := v.Float64s, v.Nulls
		return func(i int) sql.Value {
			if nulls.Get(i) {
				return nil
			}
			return vals[i]
		}
	case vec.KindBool:
		vals, nulls := v.Bools, v.Nulls
		return func(i int) sql.Value {
			if nulls.Get(i) {
				return nil
			}
			return vals[i]
		}
	case vec.KindString:
		vals, nulls := v.Strings, v.Nulls
		return func(i int) sql.Value {
			if nulls.Get(i) {
				return nil
			}
			return vals[i]
		}
	case vec.KindWindow:
		starts, ends, nulls := v.WStarts, v.WEnds, v.Nulls
		var cs, ce int64
		var cached sql.Value
		return func(i int) sql.Value {
			if nulls.Get(i) {
				return nil
			}
			s, e := starts[i], ends[i]
			if cached == nil || s != cs || e != ce {
				cs, ce, cached = s, e, sql.Window{Start: s, End: e}
			}
			return cached
		}
	default:
		vals := v.Anys
		return func(i int) sql.Value { return vals[i] }
	}
}

// ------------------------------------------------------------ batch plan

// vecFusedOp is the ColumnBatch variant of fusedOp for batch execution:
// it pulls row batches (or column batches, when the source supports
// NextVec) from the scan leaf, runs the vectorized ops, and materializes
// rows at its output boundary. A batch whose dynamic types drift from
// the schema falls back to the composed row BatchFunc, so results are
// identical either way.
type vecFusedOp struct {
	src       RowSource
	srcSchema sql.Schema
	schema    sql.Schema
	ops       []VecOp
	rowFn     BatchFunc
}

func (f *vecFusedOp) Schema() sql.Schema { return f.schema }
func (f *vecFusedOp) Open() error        { return nil }
func (f *vecFusedOp) Close() error       { return f.src.Close() }

func (f *vecFusedOp) Next() ([]sql.Row, error) {
	vs, hasVec := f.src.(VecSource)
	for {
		var vb *vec.Batch
		if hasVec {
			b, rows, err := vs.NextVec()
			if err != nil {
				return nil, err
			}
			if b == nil && rows == nil {
				return nil, nil
			}
			if b == nil {
				// Type drift: the source already failed to vectorize this
				// batch, so run it straight through the row pipeline.
				out := f.rowFn(rows)
				if len(out) == 0 {
					continue
				}
				return out, nil
			}
			vb = b
		} else {
			rows, err := f.src.Next()
			if err != nil {
				return nil, err
			}
			if rows == nil {
				return nil, nil
			}
			b, ok := vec.FromRows(f.srcSchema, rows)
			if !ok {
				out := f.rowFn(rows)
				if len(out) == 0 {
					continue
				}
				return out, nil
			}
			vb = b
		}
		for _, op := range f.ops {
			vb = op.Apply(vb)
		}
		var out []sql.Row
		EmitBatchRows(vb, func(r sql.Row) { out = append(out, r) })
		if len(out) == 0 {
			continue
		}
		return out, nil
	}
}

// TryCompileVec lowers a plan to the vectorized batch pipeline when it
// is a chain of Filter/Project/WindowAssign(tumbling)/WithWatermark/
// SubqueryAlias nodes over a Scan and every expression compiles to
// kernels. ok=false (with no error) means "use Compile instead"; the
// plan is outside the vectorizable shape or an expression needs the row
// path. Plans with no vectorizable stage also return ok=false — a bare
// scan gains nothing from the columnar detour.
func TryCompileVec(plan logical.Plan, resolve ScanResolver) (Operator, bool, error) {
	// Walk down to the scan, collecting stage nodes top-down.
	var chain []logical.Plan
	cur := plan
	var scan *logical.Scan
walk:
	for {
		switch n := cur.(type) {
		case *logical.Filter:
			chain = append(chain, n)
			cur = n.Child
		case *logical.Project:
			chain = append(chain, n)
			cur = n.Child
		case *logical.WindowAssign:
			if n.Window.Size != n.Window.Slide {
				return nil, false, nil // sliding windows explode rows
			}
			chain = append(chain, n)
			cur = n.Child
		case *logical.WithWatermark:
			cur = n.Child // batch no-op, like Compile
		case *logical.SubqueryAlias:
			chain = append(chain, n)
			cur = n.Child
		case *logical.Scan:
			scan = n
			break walk
		default:
			return nil, false, nil
		}
	}
	src, err := resolve(scan)
	if err != nil {
		return nil, false, err
	}
	schema := src.Schema()
	srcSchema := schema
	var ops []VecOp
	var fns []BatchFunc
	stages := 0
	// Build bottom-up (reverse of the collected chain).
	for i := len(chain) - 1; i >= 0; i-- {
		switch n := chain[i].(type) {
		case *logical.SubqueryAlias:
			schema = schema.Qualify(n.Alias)
		case *logical.Filter:
			b, err := n.Cond.Bind(schema)
			if err != nil {
				return nil, false, err
			}
			prog, ok := vec.Compile(n.Cond, schema)
			if !ok {
				return nil, false, nil
			}
			ops = append(ops, NewVecFilter(prog))
			fns = append(fns, FilterFunc(b.Eval))
			stages++
		case *logical.Project:
			evals, out, err := BindProjection(n.Exprs, schema)
			if err != nil {
				return nil, false, err
			}
			progs, ok := vec.CompileAll(n.Exprs, schema)
			if !ok {
				return nil, false, nil
			}
			ops = append(ops, NewVecProject(progs, out))
			fns = append(fns, ProjectFunc(evals))
			schema = out
			stages++
		case *logical.WindowAssign:
			t, err := n.Window.Time.Bind(schema)
			if err != nil {
				return nil, false, err
			}
			prog, ok := vec.Compile(n.Window.Time, schema)
			if !ok || vec.KindOf(prog.Type) != vec.KindInt64 {
				return nil, false, nil
			}
			out := schema.Concat(sql.Schema{Fields: []sql.Field{{Name: n.Name, Type: sql.TypeWindow}}})
			ops = append(ops, NewVecWindow(prog, n.Window, out))
			fns = append(fns, WindowAssignFunc(t.Eval, n.Window))
			schema = out
			stages++
		}
	}
	if stages == 0 {
		return nil, false, nil
	}
	rowFn := fns[0]
	for _, fn := range fns[1:] {
		inner, outer := rowFn, fn
		rowFn = func(rows []sql.Row) []sql.Row { return outer(inner(rows)) }
	}
	return &vecFusedOp{src: src, srcSchema: srcSchema, schema: schema, ops: ops, rowFn: rowFn}, true, nil
}
