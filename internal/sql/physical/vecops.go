package physical

import (
	"structream/internal/sql"
	"structream/internal/sql/vec"
)

// This file is the ColumnBatch form of the fused map pipeline: the
// filter/project/window chain of the row BatchFuncs, expressed as VecOps
// over column batches. A streaming map task runs only these; rows are
// materialized (vec.Batch.AppendRows) only where a consumer needs
// []sql.Value (a sink, the shuffle).

// VecOp is one vectorized pipeline stage: it maps a column batch to a
// column batch. Implementations never mutate their input batch's
// vectors; they produce new vectors or narrow the selection.
type VecOp interface {
	Apply(*vec.Batch) *vec.Batch
	// Programs lists the expressions the op evaluates.
	Programs() []*vec.Program
}

// ---------------------------------------------------------------- filter

type vecFilter struct{ cond *vec.Program }

// NewVecFilter keeps positions where the predicate is TRUE (false and
// NULL both drop, like FilterFunc's `.(bool)` assertion).
func NewVecFilter(cond *vec.Program) VecOp { return &vecFilter{cond: cond} }

func (f *vecFilter) Programs() []*vec.Program { return []*vec.Program{f.cond} }

func (f *vecFilter) Apply(b *vec.Batch) *vec.Batch {
	cond := f.cond.Run(b)
	return b.Derive(b.Schema, b.Cols, b.Len, vec.FilterSel(b, cond))
}

// ---------------------------------------------------------------- project

type vecProject struct {
	progs  []*vec.Program
	schema sql.Schema
	keyed  bool // the input columns follow the computed ones
}

// NewVecProject computes one output vector per projection expression.
// Column picks are zero-copy; computed columns evaluate densely and the
// selection vector carries over untouched.
func NewVecProject(progs []*vec.Program, schema sql.Schema) VecOp {
	return &vecProject{progs: progs, schema: schema}
}

// NewVecKeyed computes the key columns and lays them ahead of the input's:
// each row leaves keyed, the key values and then the row.
func NewVecKeyed(keys []*vec.Program, schema sql.Schema) VecOp {
	return &vecProject{progs: keys, schema: schema, keyed: true}
}

func (p *vecProject) Programs() []*vec.Program { return p.progs }

func (p *vecProject) Apply(b *vec.Batch) *vec.Batch {
	cols := make([]*vec.Vector, len(p.progs), len(p.progs)+len(b.Cols))
	for i, prog := range p.progs {
		cols[i] = prog.Run(b)
	}
	if p.keyed {
		cols = append(cols, b.Cols...)
	}
	return b.Derive(p.schema, cols, b.Len, b.Sel)
}

// ---------------------------------------------------------------- window

type vecWindow struct {
	time        *vec.Program
	size, slide int64
	schema      sql.Schema
}

// NewVecWindow appends the window column computed from an event-time
// program: a tumbling window's in place, a sliding window's by explode. Rows
// whose event time is NULL, or not an int64, drop (as WindowAssignFunc's
// failed assertion drops them).
func NewVecWindow(time *vec.Program, w *sql.WindowExpr, schema sql.Schema) VecOp {
	return &vecWindow{time: time, size: w.Size, slide: w.Slide, schema: schema}
}

func (w *vecWindow) Programs() []*vec.Program { return []*vec.Program{w.time} }

func (w *vecWindow) Apply(b *vec.Batch) *vec.Batch {
	tv := w.time.Run(b)
	if w.size != w.slide || tv.Kind != vec.KindInt64 {
		return w.explode(b, tv)
	}
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

// explode gathers each live lane once per window its event time falls in,
// oldest window first (sql.WindowExpr.Windows' order), into a dense batch.
// It is the sliding window's form, and any window's over an event time that
// drifted from int64.
func (w *vecWindow) explode(b *vec.Batch, tv *vec.Vector) *vec.Batch {
	per := int((w.size + w.slide - 1) / w.slide)
	from := b.NewSel(b.NumLive() * per)[:0]
	starts := b.NewVector(vec.KindInt64, b.NumLive()*per).Int64s[:0]
	lane := func(i int) {
		var t int64
		switch {
		case tv.Kind == vec.KindInt64 && !tv.Nulls.Get(i):
			t = tv.Int64s[i]
		default:
			x, ok := tv.Get(i).(int64)
			if !ok {
				return
			}
			t = x
		}
		last := t - ((t%w.slide)+w.slide)%w.slide
		first := last
		for first-w.slide > t-w.size {
			first -= w.slide
		}
		for s := first; s <= last; s += w.slide {
			from, starts = append(from, int32(i)), append(starts, s)
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
	n := len(from)
	cols := make([]*vec.Vector, 0, len(b.Cols)+1)
	for _, v := range b.Cols {
		if v != nil {
			v = b.Gather(v, from, nil, n)
		}
		cols = append(cols, v)
	}
	wcol := b.NewVector(vec.KindWindow, n)
	for j, s := range starts {
		wcol.WStarts[j], wcol.WEnds[j] = s, s+w.size
	}
	return b.Derive(w.schema, append(cols, wcol), n, nil)
}
