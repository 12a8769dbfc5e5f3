// Package incremental implements the heart of the paper's contribution
// (§5.2): turning an analyzed, optimized *static* relational plan into an
// incrementally executable streaming plan. The compiled form splits the
// query at its stateful boundary: stateless map pipelines run over each
// source partition (filters, projections, window assignment, stream-static
// joins, fused exactly as in batch mode), rows shuffle by key to a stateful
// operator backed by the versioned state store, and a small driver-side
// post stage computes the final result shape. Each stateful operator
// carries its own intra-DAG output behaviour, so users never specify
// per-operator modes by hand — the engine derives everything from the
// query and the sink's output mode, which is the design §4.2 argues for.
package incremental

import (
	"sync"

	"structream/internal/sql"
	"structream/internal/sql/codec"
	"structream/internal/sql/logical"
	"structream/internal/sql/physical"
	"structream/internal/sql/vec"
	"structream/internal/state"
)

// EpochContext carries the per-epoch execution parameters into stateful
// operators.
type EpochContext struct {
	// Epoch is the epoch id; committed state uses it as the store version.
	Epoch int64
	// Watermark is the event-time watermark in µs computed at the end of
	// the previous epoch (0 = no watermark yet). Gating on the previous
	// epoch's value matches Spark and keeps results deterministic per
	// epoch.
	Watermark int64
	// ProcTime is the processing time in µs for this epoch, used by
	// processing-time timeouts.
	ProcTime int64
	// Mode is the sink output mode of the query.
	Mode logical.OutputMode
	// Vectorize is ignored; it stays because benchmark/isolated.go sets it.
	Vectorize bool
}

// StatefulOp is a reduce-side streaming operator processing one state
// partition per epoch. inputs is indexed by side (joins have two sides;
// everything else uses inputs[0]).
type StatefulOp interface {
	// Name identifies the operator's state in the store ("agg-0", ...).
	Name() string
	// OutputSchema is the schema of rows Process emits.
	OutputSchema() sql.Schema
	// Process folds this epoch's shuffled input into state and returns
	// the rows to emit for this partition under ctx.Mode.
	Process(ctx *EpochContext, store *state.Store, inputs [][]sql.Row) ([]sql.Row, error)
}

// RowEmit pushes one row to the next pipeline stage.
type RowEmit func(sql.Row)

// StageFactory instantiates one pipeline stage: given the downstream emit
// function it returns this stage's emit plus an optional flush invoked
// after the task's last row (used by blocking stages like map-side partial
// aggregation). The factory is called once per task, so all mutable stage
// state (arenas, scratch encoders, hash tables being filled) is private to
// that task — which is what makes concurrent map tasks safe.
type StageFactory func(next RowEmit) (RowEmit, func())

// Pipeline is the stateless map-side program for one streaming source
// leaf. Stages compose push-style into a single per-row path with no
// intermediate batch materialization — the engine's equivalent of
// whole-stage code generation, and the mechanism behind the paper's
// throughput claims (§5.3, §9.1).
type Pipeline struct {
	// SourceName matches the Scan leaf (and WAL source entry).
	SourceName string
	// Side is the stateful stage input this pipeline feeds (0, or 1 for
	// the right side of a stream-stream join).
	Side int
	// Stages are the fused row transformations, leaf first.
	Stages []StageFactory
	// KeyEvals route stage output rows to state partitions; nil for
	// map-only queries. PartitionOf is how the engine applies them.
	KeyEvals []func(sql.Row) sql.Value
	// KeyIdxs, when non-nil, are the stage-output column indexes behind
	// KeyEvals (every current routing key is a plain column). A fully
	// vectorized pipeline uses them to hash keys straight from the column
	// vectors at the shuffle boundary instead of boxing each row first;
	// KeyEvals remain the semantic source of truth.
	KeyIdxs []int
	// WatermarkEval extracts the event-time value from a *raw source row*
	// for watermark tracking; nil when the source has no watermark.
	WatermarkEval func(sql.Row) sql.Value
	// WatermarkIdx is the raw-source column index behind WatermarkEval, so
	// the columnar path can scan the vector directly; -1 when unset.
	WatermarkIdx int
	// WatermarkDelay is the declared lateness bound in µs.
	WatermarkDelay int64
	// Vec is the vectorized variant of a leading prefix of Stages (plus,
	// optionally, the terminal partial aggregation); nil when nothing in
	// the pipeline vectorizes. Stages remains the source of truth for
	// semantics — Vec must produce byte-identical output.
	Vec *VecPlan
	// SourceCols lists, ascending, the source-schema columns the vector plan
	// reads: the inputs of its ops up to the first stage that narrows the row
	// (a projection or the terminal aggregate), plus the watermark column.
	// nil means every column. The engine hands it to sources that can skip
	// decoding the rest; columns outside it are absent (nil) from the batches
	// the vector plan then runs over, and nothing in the plan touches them.
	SourceCols []int
	reads      *sourceReads // compile-time accumulator behind SourceCols
	// cells marks a pipeline whose stage output rows are cells — an
	// aggregate's partial cells, a join's cells — each carrying its own
	// routing hash.
	cells bool
	// aggPool recycles columnar partial-aggregation hash tables across
	// map tasks. Safe because shuffle rows alias nothing inside the
	// table: scatter copies every group's key and state bytes into slabs
	// it allocates per call, and the cells point only there.
	aggPool sync.Pool
}

// PartitionOf returns the shuffle partition, of nPart, of one stage-output
// row. A cell carries the hash of its encoded key; any other row is hashed
// through KeyEvals, with key (len(KeyEvals) long) as scratch. Both are
// codec.HashKey of the routing key, so a key's partition does not depend on
// which form its row took.
func (p *Pipeline) PartitionOf(row sql.Row, key []sql.Value, nPart int) int {
	if p.cells {
		if h, _, ok := cellOf(row); ok {
			return int(h % uint64(nPart))
		}
	}
	for k, ev := range p.KeyEvals {
		key[k] = ev(row)
	}
	return int(codec.HashKey(key) % uint64(nPart))
}

// getPartialAgg takes a reset partial-aggregation table from the pool (or
// builds one) for the pipeline's columnar agg plan.
func (p *Pipeline) getPartialAgg() *partialAgg {
	if h, ok := p.aggPool.Get().(*partialAgg); ok {
		return h
	}
	return newPartialAgg(nil, p.Vec.Agg.Aggs)
}

func (p *Pipeline) putPartialAgg(h *partialAgg) {
	h.reset()
	p.aggPool.Put(h)
}

// VecPlan mirrors a pipeline prefix as columnar kernels. Ops[i] computes
// the same transformation as Stages[i]; rows materialize after the last
// op and flow through the remaining row stages (none, for fully covered
// pipelines). When Agg or Join is set, Ops covers every stage but the
// terminal one — the partial aggregation, a join's cell rendering — which
// runs columnar too.
type VecPlan struct {
	Ops  []physical.VecOp
	Agg  *VecAggPlan
	Join *joinShuffle
	// sealed stops the compiler extending Ops once a non-vectorizable
	// stage appears (later stages would run out of order otherwise).
	sealed bool
}

// VecAggPlan is the columnar map-side partial aggregation: grouping keys
// and aggregate inputs evaluate as kernels, and key encoding reads the
// vectors directly instead of boxing every cell.
type VecAggPlan struct {
	// KeyProgs compute the grouping-key columns.
	KeyProgs []*vec.Program
	// InputProgs compute each aggregate's input column; a nil entry is an
	// input-less aggregate (count(*)).
	InputProgs []*vec.Program
	// Aggs are the bound aggregates (buffer factories), as in the row path.
	Aggs []sql.BoundAgg
}

// ProcessBatchTo is the columnar counterpart of ProcessTo: it runs one
// task's column batch through the vectorized ops and pushes the resulting
// rows (or the terminal stage's cells, in one bucket) to sink. The caller must
// only invoke it when p.Vec != nil. Stages not covered by the vector plan
// still run, row-at-a-time, after materialization, so output is identical
// to ProcessTo over the same logical rows.
func (p *Pipeline) ProcessBatchTo(b *vec.Batch, sink RowEmit) {
	if p.Scatters() {
		for _, row := range p.ProcessBatchScatter(b, 1)[0] {
			sink(row)
		}
		return
	}
	for _, op := range p.Vec.Ops {
		b = op.Apply(b)
	}
	emit, flushes := p.instantiateFrom(len(p.Vec.Ops), sink)
	physical.EmitBatchRows(b, emit)
	for _, f := range flushes {
		f()
	}
}

// Scatters reports whether ProcessBatchScatter serves the pipeline: its
// vector plan ends in a columnar terminal stage that renders cells.
func (p *Pipeline) Scatters() bool {
	return p.Vec != nil && (p.Vec.Agg != nil || p.Vec.Join != nil)
}

// ProcessBatchScatter runs one task's column batch through the vectorized
// ops and the columnar terminal stage, rendering its output straight into
// nPart shuffle buckets of cells routed by the hash each carries: with a
// partial aggregation, one row of one partial cell per group, by the FNV
// hash of the group's encoded key; with a join, one row per input row, by
// its key hash. Valid only when Scatters reports true. The compiler
// guarantees the shuffle key is the cell's key, so hashing its encoding
// routes identically to boxing the key and calling codec.HashKey. This is
// what keeps aggregate and join pipelines columnar across the exchange: an
// aggregate pays a typed hash per input lane and an encode and FNV hash per
// group, a join an encode and FNV hash per input lane; one render per cell
// into per-bucket slabs, zero boxing.
func (p *Pipeline) ProcessBatchScatter(b *vec.Batch, nPart int) [][]sql.Row {
	for _, op := range p.Vec.Ops {
		b = op.Apply(b)
	}
	if sh := p.Vec.Join; sh != nil {
		c := sh.cells()
		c.addBatch(sh, b)
		buckets := c.scatter(nPart)
		sh.release(c)
		return buckets
	}
	h := p.getPartialAgg()
	h.updateBatch(b, p.Vec.Agg)
	buckets := h.scatter(nPart)
	p.putPartialAgg(h)
	return buckets
}

// FullyVectorized reports whether the vector plan covers every stage with
// no terminal stage of its own: ApplyVec alone reproduces the
// pipeline's output, so a column batch can stay columnar past the map
// boundary (e.g. straight into a ColumnSink).
func (p *Pipeline) FullyVectorized() bool {
	return p.Vec != nil && !p.Scatters() && len(p.Vec.Ops) == len(p.Stages)
}

// ApplyVec runs the vector plan's ops over b and returns the transformed
// batch, still columnar. Only valid when FullyVectorized reports true.
func (p *Pipeline) ApplyVec(b *vec.Batch) *vec.Batch {
	for _, op := range p.Vec.Ops {
		b = op.Apply(b)
	}
	return b
}

// Process is ProcessTo collecting the stage-output rows. The engine calls
// ProcessTo; Process stays because the frozen benchmark/isolated.go calls it.
func (p *Pipeline) Process(rows []sql.Row) []sql.Row {
	var out []sql.Row
	p.ProcessTo(rows, func(r sql.Row) { out = append(out, r) })
	return out
}

// ProcessTo runs one task's rows through a freshly instantiated fused
// pipeline, pushing outputs to sink directly (the engine routes them into
// shuffle buckets or its output without materializing a copy).
func (p *Pipeline) ProcessTo(rows []sql.Row, sink RowEmit) {
	emit, flushes := p.instantiate(sink)
	for _, r := range rows {
		emit(r)
	}
	for _, f := range flushes {
		f()
	}
}

// instantiate composes the stages around sink. Flushes are returned in
// leaf-to-boundary order so a flushed stage's output still flows through
// later stages' already-live emits.
func (p *Pipeline) instantiate(sink RowEmit) (RowEmit, []func()) {
	return p.instantiateFrom(0, sink)
}

// instantiateFrom composes the stages starting at index first, skipping
// the prefix already executed columnar.
func (p *Pipeline) instantiateFrom(first int, sink RowEmit) (RowEmit, []func()) {
	emit := sink
	var flushes []func()
	for i := len(p.Stages) - 1; i >= first; i-- {
		var flush func()
		emit, flush = p.Stages[i](emit)
		if flush != nil {
			flushes = append([]func(){flush}, flushes...)
		}
	}
	return emit, flushes
}

// Query is a fully compiled incremental query.
type Query struct {
	// Pipelines lists the per-source map programs.
	Pipelines []*Pipeline
	// Stateful is the single stateful stage, nil for map-only queries.
	Stateful StatefulOp
	// Post computes the final driver-side shape (HAVING, projection, sort,
	// limit) over the stateful stage's emitted rows. For map-only queries
	// it is the identity.
	Post func(rows []sql.Row) ([]sql.Row, error)
	// OutSchema is the sink-facing schema.
	OutSchema sql.Schema
	// KeyArity is the number of leading key columns in the output (for
	// update-mode sinks); 0 when the whole row is the key.
	KeyArity int
	// Mode is the validated output mode.
	Mode logical.OutputMode
	// HasWatermark reports whether any pipeline tracks a watermark.
	HasWatermark bool
}
