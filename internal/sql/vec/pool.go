package vec

import (
	"sync"

	"structream/internal/sql"
)

// recycler supplies every slab one map task writes into — its decode
// columns and every vector and selection a kernel or stage derives from
// them — and takes them all back when the task releases its batch. A map
// task's slabs are its largest allocations (one per column or selection,
// sized for the whole offset slice), and fresh ones are zeroed on every
// task only to be overwritten.
//
// A recycler serves one task at a time. Its free lists are stacks that
// Release refills in reverse lending order, so a task running the same
// plan as the last draws each slab in the order, and at the size, the
// last one drew it.
type recycler struct {
	free     [KindAny + 1][]*Vector
	freeSels [][]int32
	lent     []*Vector
	lentSels [][]int32
}

// recyclers holds recyclers between map tasks.
var recyclers sync.Pool

// vector lends an n-slot vector of kind with no nulls. A recycled one's
// value slots hold whatever its last user left; a nil recycler allocates a
// zeroed one and keeps no record of it.
func (r *recycler) vector(kind Kind, n int) *Vector {
	if r == nil {
		return NewVector(kind, n)
	}
	var v *Vector
	if free := r.free[kind]; len(free) > 0 {
		last := len(free) - 1
		v, free[last], r.free[kind] = free[last], nil, free[:last]
		if !v.reuse(n) {
			v = NewVector(kind, n) // too small: let it go
		}
	} else {
		v = NewVector(kind, n)
	}
	r.lent = append(r.lent, v)
	return v
}

// sel lends an n-lane selection slab, garbage-filled when recycled.
func (r *recycler) sel(n int) []int32 {
	if r == nil {
		return make([]int32, n)
	}
	var s []int32
	if free := r.freeSels; len(free) > 0 {
		last := len(free) - 1
		s, free[last], r.freeSels = free[last], nil, free[:last]
		if cap(s) < n {
			s = make([]int32, n)
		}
	} else {
		s = make([]int32, n)
	}
	s = s[:n]
	r.lentSels = append(r.lentSels, s)
	return s
}

// GetBatch returns an n-slot batch for schema whose column vectors, and
// every vector and selection kernels later derive from it, come from one
// recycler. keep[c] == false leaves Cols[c] nil — a column the reader will
// not decode; a nil keep keeps every column. Every kept column starts with
// no nulls, but its value slots hold whatever the previous user left: as
// with slots at NULL positions, the caller must write each slot it later
// exposes through Len.
func GetBatch(schema sql.Schema, keep []bool, n int) *Batch {
	r, _ := recyclers.Get().(*recycler)
	if r == nil {
		r = &recycler{}
	}
	cols := make([]*Vector, schema.Len())
	for c := range cols {
		if keep == nil || keep[c] {
			cols[c] = r.vector(KindOf(schema.Field(c).Type), n)
		}
	}
	return &Batch{Schema: schema, Cols: cols, Len: n, rec: r}
}

// Release hands back every vector and selection drawn from the batch's
// recycler: its own columns and everything derived from it by kernels,
// filters, projections, windows and joins. Only the holder of the last
// reference to any of them may call it, once per GetBatch, so a batch
// that reached a consumer still columnar (a ColumnSink) must never be
// released. Rendered rows are safe — boxing copies each cell, and string
// cells point at the bytes they were decoded or built from, never at the
// vector. Release does nothing to a batch without a recycler.
func (b *Batch) Release() {
	r := b.rec
	if r == nil {
		return
	}
	for i := len(r.lent) - 1; i >= 0; i-- {
		v := r.lent[i]
		r.free[v.Kind] = append(r.free[v.Kind], v)
		r.lent[i] = nil
	}
	for i := len(r.lentSels) - 1; i >= 0; i-- {
		r.freeSels = append(r.freeSels, r.lentSels[i])
		r.lentSels[i] = nil
	}
	r.lent, r.lentSels = r.lent[:0], r.lentSels[:0]
	recyclers.Put(r)
}

// Detach cuts the batch off from its recycler before its vectors leave the
// task (delivered still columnar to a sink): kernels run over it afterwards
// allocate fresh vectors, and nothing links what the consumer keeps to the
// slabs it does not. A detached batch is never released.
func (b *Batch) Detach() { b.rec = nil }

// NewVector returns an n-slot vector of kind, with no nulls, for a kernel
// or stage writing into b's task: drawn from b's recycler when it has one,
// so its value slots hold garbage and the caller writes every slot it
// exposes; allocated zeroed otherwise.
func (b *Batch) NewVector(kind Kind, n int) *Vector { return b.rec.vector(kind, n) }

// NewSel returns an n-lane int32 slab for a selection or a position list,
// drawn like NewVector: garbage-filled when recycled.
func (b *Batch) NewSel(n int) []int32 { return b.rec.sel(n) }

// Derive returns a batch over cols that draws from b's recycler, as every
// stage's output batch must, so that releasing the task's batch hands back
// what the stage allocated too.
func (b *Batch) Derive(schema sql.Schema, cols []*Vector, n int, sel []int32) *Batch {
	return &Batch{Schema: schema, Cols: cols, Len: n, Sel: sel, rec: b.rec}
}

// Recycled calls vector for every vector and sel for every selection slab
// (at its full capacity) that b's recycler holds for reuse. It is a test
// seam: called after Release, while no task draws from the recycler, it
// lets a test scribble over what the next task will be handed.
func (b *Batch) Recycled(vector func(*Vector), sel func([]int32)) {
	if b.rec == nil {
		return
	}
	for _, free := range b.rec.free {
		for _, v := range free {
			vector(v)
		}
	}
	for _, s := range b.rec.freeSels {
		sel(s[:cap(s)])
	}
}

// reuse re-slices the vector to n slots for a new user, dropping its null
// bitmap; false when the slab is too small.
func (v *Vector) reuse(n int) bool {
	ok := true
	switch v.Kind {
	case KindInt64:
		v.Int64s, ok = fit(v.Int64s, n)
	case KindFloat64:
		v.Float64s, ok = fit(v.Float64s, n)
	case KindBool:
		v.Bools, ok = fit(v.Bools, n)
	case KindString:
		v.Strings, ok = fit(v.Strings, n)
	case KindWindow:
		var okEnds bool
		v.WStarts, ok = fit(v.WStarts, n)
		v.WEnds, okEnds = fit(v.WEnds, n)
		ok = ok && okEnds
	case KindAny:
		v.Anys, ok = fit(v.Anys, n)
	}
	v.Nulls = nil
	return ok
}

func fit[T any](slab []T, n int) ([]T, bool) {
	if cap(slab) < n {
		return slab, false
	}
	return slab[:n], true
}
