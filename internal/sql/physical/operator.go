// Package physical implements batch physical execution: compiling an
// optimized logical plan into a tree of pull-based operators that process
// row batches. Chains of filters, projections and window assignment fuse
// into single per-batch closures — the engine's stand-in for Spark's
// whole-stage code generation — so the hot path touches each row once with
// no per-operator interpretation.
package physical

import (
	"structream/internal/sql"
)

// Operator is a pull-based physical operator producing row batches.
type Operator interface {
	// Schema is the operator's output schema.
	Schema() sql.Schema
	// Open prepares the operator (and its children) for iteration.
	Open() error
	// Next returns the next batch of rows; (nil, nil) signals exhaustion.
	Next() ([]sql.Row, error)
	// Close releases resources. Close is idempotent.
	Close() error
}

// RowSource supplies input rows to a Scan leaf: a static table, one
// microbatch epoch of a stream, or a file segment.
type RowSource interface {
	Schema() sql.Schema
	// Next returns the next batch; (nil, nil) at the end.
	Next() ([]sql.Row, error)
	Close() error
}

// SliceSource is a RowSource over an in-memory row slice, batching output.
type SliceSource struct {
	Sch   sql.Schema
	Rows  []sql.Row
	Batch int
	pos   int
}

// NewSliceSource builds a RowSource over rows with a default batch size.
func NewSliceSource(schema sql.Schema, rows []sql.Row) *SliceSource {
	return &SliceSource{Sch: schema, Rows: rows, Batch: 1024}
}

// Schema returns the source schema.
func (s *SliceSource) Schema() sql.Schema { return s.Sch }

// Next returns the next batch of rows.
func (s *SliceSource) Next() ([]sql.Row, error) {
	if s.pos >= len(s.Rows) {
		return nil, nil
	}
	end := s.pos + s.Batch
	if s.Batch <= 0 || end > len(s.Rows) {
		end = len(s.Rows)
	}
	out := s.Rows[s.pos:end]
	s.pos = end
	return out, nil
}

// Close resets the source position.
func (s *SliceSource) Close() error {
	s.pos = len(s.Rows)
	return nil
}

// Drain pulls every batch from an operator, returning all rows. It opens
// and closes the operator.
func Drain(op Operator) ([]sql.Row, error) {
	if err := op.Open(); err != nil {
		return nil, err
	}
	defer op.Close()
	var out []sql.Row
	for {
		batch, err := op.Next()
		if err != nil {
			return nil, err
		}
		if batch == nil {
			return out, nil
		}
		out = append(out, batch...)
	}
}

// ---------------------------------------------------------------- scan

type scanOp struct {
	src    RowSource
	schema sql.Schema
}

// NewScan wraps a RowSource as an operator.
func NewScan(src RowSource) Operator {
	return &scanOp{src: src, schema: src.Schema()}
}

func (s *scanOp) Schema() sql.Schema { return s.schema }
func (s *scanOp) Open() error        { return nil }
func (s *scanOp) Next() ([]sql.Row, error) {
	return s.src.Next()
}
func (s *scanOp) Close() error { return s.src.Close() }

// ---------------------------------------------------------------- fused

// BatchFunc transforms one row batch into another; fused pipelines compose
// these into a single function per chain.
type BatchFunc func(rows []sql.Row) []sql.Row

// fusedOp applies a composed batch function to every child batch. Empty
// result batches are skipped rather than returned (a nil batch means EOF).
type fusedOp struct {
	child  Operator
	fn     BatchFunc
	schema sql.Schema
}

// NewFused builds a fused pipeline stage over child. When child is itself a
// fused operator the two compose into one node, keeping the chain flat.
// Alias (schema-renaming) operators are transparent: rows are identical, so
// fusion sees through them.
func NewFused(child Operator, schema sql.Schema, fn BatchFunc) Operator {
	for {
		a, ok := child.(*aliasOp)
		if !ok {
			break
		}
		child = a.child
	}
	if f, ok := child.(*fusedOp); ok {
		inner := f.fn
		outer := fn
		return &fusedOp{
			child:  f.child,
			schema: schema,
			fn: func(rows []sql.Row) []sql.Row {
				return outer(inner(rows))
			},
		}
	}
	return &fusedOp{child: child, fn: fn, schema: schema}
}

func (f *fusedOp) Schema() sql.Schema { return f.schema }
func (f *fusedOp) Open() error        { return f.child.Open() }
func (f *fusedOp) Next() ([]sql.Row, error) {
	for {
		batch, err := f.child.Next()
		if err != nil || batch == nil {
			return nil, err
		}
		out := f.fn(batch)
		if len(out) > 0 {
			return out, nil
		}
	}
}
func (f *fusedOp) Close() error { return f.child.Close() }

// FilterFunc builds a BatchFunc retaining rows where pred is true.
func FilterFunc(pred func(sql.Row) sql.Value) BatchFunc {
	return func(rows []sql.Row) []sql.Row {
		out := rows[:0:0]
		for _, r := range rows {
			if b, ok := pred(r).(bool); ok && b {
				out = append(out, r)
			}
		}
		return out
	}
}

// RowArena carves fixed-width rows out of slab allocations, turning
// per-row mallocs into one allocation per slab. This is the engine's
// batch-granularity analogue of Tungsten's row buffers: the dominant cost
// the paper attributes to record-at-a-time engines is exactly this per-row
// overhead. Slabs double from 256 rows to 4096, so an arena that hands out
// a few hundred rows does not allocate and zero room for four thousand.
type RowArena struct {
	width int
	slab  []sql.Value
	rows  int // the last slab's size in rows
}

// NewRowArena creates an arena producing rows of the given width.
func NewRowArena(width int) *RowArena { return &RowArena{width: width} }

// Next returns a fresh zeroed row from the arena.
func (a *RowArena) Next() sql.Row {
	if len(a.slab) < a.width {
		a.rows = min(max(256, 2*a.rows), 4096)
		a.slab = make([]sql.Value, a.rows*a.width)
	}
	row := a.slab[:a.width:a.width]
	a.slab = a.slab[a.width:]
	return row
}

// ProjectFunc builds a BatchFunc computing the given expressions per row.
func ProjectFunc(evals []func(sql.Row) sql.Value) BatchFunc {
	arena := NewRowArena(len(evals))
	return func(rows []sql.Row) []sql.Row {
		out := make([]sql.Row, len(rows))
		for i, r := range rows {
			nr := arena.Next()
			for j, e := range evals {
				nr[j] = e(r)
			}
			out[i] = nr
		}
		return out
	}
}

// WindowAssignFunc builds a BatchFunc appending a window column, exploding
// rows into one output per containing window for sliding specs. The boxed
// window value is cached across consecutive rows: event times usually
// arrive roughly ordered, so most rows share the previous row's window and
// skip the interface allocation.
func WindowAssignFunc(timeEval func(sql.Row) sql.Value, w *sql.WindowExpr) BatchFunc {
	tumbling := w.Size == w.Slide
	size, slide := w.Size, w.Slide
	var cachedStart int64 = -1 << 62
	var cached sql.Value
	var arena *RowArena
	return func(rows []sql.Row) []sql.Row {
		out := make([]sql.Row, 0, len(rows))
		for _, r := range rows {
			ts, ok := timeEval(r).(int64)
			if !ok {
				continue // NULL event times drop, as in Spark
			}
			if arena == nil {
				arena = NewRowArena(len(r) + 1)
			}
			if tumbling {
				start := ts - ((ts%slide)+slide)%slide
				if start != cachedStart {
					cachedStart = start
					cached = sql.Window{Start: start, End: start + size}
				}
				nr := arena.Next()
				copy(nr, r)
				nr[len(r)] = cached
				out = append(out, nr)
				continue
			}
			for _, win := range w.Windows(ts) {
				nr := arena.Next()
				copy(nr, r)
				nr[len(r)] = win
				out = append(out, nr)
			}
		}
		return out
	}
}

// ---------------------------------------------------------------- union

type unionOp struct {
	children []Operator
	idx      int
	schema   sql.Schema
}

// NewUnion concatenates the outputs of several children (UNION ALL).
func NewUnion(schema sql.Schema, children ...Operator) Operator {
	return &unionOp{children: children, schema: schema}
}

func (u *unionOp) Schema() sql.Schema { return u.schema }
func (u *unionOp) Open() error {
	for _, c := range u.children {
		if err := c.Open(); err != nil {
			return err
		}
	}
	return nil
}
func (u *unionOp) Next() ([]sql.Row, error) {
	for u.idx < len(u.children) {
		batch, err := u.children[u.idx].Next()
		if err != nil {
			return nil, err
		}
		if batch != nil {
			return batch, nil
		}
		u.idx++
	}
	return nil, nil
}
func (u *unionOp) Close() error {
	var first error
	for _, c := range u.children {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ---------------------------------------------------------------- alias

// aliasOp renames the schema (SubqueryAlias); rows pass through untouched.
type aliasOp struct {
	child  Operator
	schema sql.Schema
}

// NewAlias wraps child with a different (qualified) schema.
func NewAlias(child Operator, schema sql.Schema) Operator {
	return &aliasOp{child: child, schema: schema}
}

func (a *aliasOp) Schema() sql.Schema       { return a.schema }
func (a *aliasOp) Open() error              { return a.child.Open() }
func (a *aliasOp) Next() ([]sql.Row, error) { return a.child.Next() }
func (a *aliasOp) Close() error             { return a.child.Close() }
