package physical

import (
	"structream/internal/sql"
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

// ---------------------------------------------------------------- filter

type vecFilter struct{ cond *vec.Program }

// NewVecFilter keeps positions where the predicate is TRUE (false and
// NULL both drop, like FilterFunc's `.(bool)` assertion).
func NewVecFilter(cond *vec.Program) VecOp { return &vecFilter{cond: cond} }

func (f *vecFilter) Apply(b *vec.Batch) *vec.Batch {
	cond := f.cond.Run(b)
	return b.Derive(b.Schema, b.Cols, b.Len, vec.FilterSel(b, cond))
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
	return b.Derive(p.schema, cols, b.Len, b.Sel)
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
	wcol := b.NewVector(vec.KindWindow, b.Len)
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
		// of lanes live; the dead ones keep garbage bounds nobody reads.
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
		sel = b.NewSel(b.NumLive())[:0]
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
	return b.Derive(w.schema, cols, b.Len, sel)
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
