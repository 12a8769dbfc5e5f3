// Package incremental implements the heart of the paper's contribution
// (§5.2): turning an analyzed, optimized *static* relational plan into an
// incrementally executable streaming plan. The compiled form splits the
// query at its stateful boundary: stateless map pipelines run over each
// source partition (filters, projections, window assignment, stream-static
// joins: the batch executor's own row stages, or their columnar twins),
// rows shuffle by key to a stateful operator backed by the versioned state
// store, and a small driver-side post stage computes the final result
// shape. Each stateful operator carries its own intra-DAG output
// behaviour, so users never specify per-operator modes by hand — the
// engine derives everything from the query and the sink's output mode,
// which is the design §4.2 argues for.
package incremental

import (
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

// Pipeline is the stateless map-side program for one streaming source
// leaf: the batch executor's row stages (filter, projection, window
// assignment, a stream-static join), their columnar twins, and the terminal
// that renders what leaves them for the shuffle. A map task runs its input
// through it once, as a batch of rows or a column batch — the engine's
// equivalent of whole-stage code generation (§5.3, §9.1).
type Pipeline struct {
	// SourceName matches the Scan leaf (and WAL source entry).
	SourceName string
	// Side is the stateful stage input this pipeline feeds (0, or 1 for
	// the right side of a stream-stream join).
	Side int
	// Stages are the row stages, leaf first. Each is a factory of the
	// batch executor's functions, called once per task, so whatever a
	// stage keeps across rows (arenas, a window cache, probe scratch) is
	// private to that task.
	Stages []func() physical.BatchFunc
	// term is the blocking end after the stages: the map-side partial
	// aggregate or a stream-stream join side's cell rendering; nil when the
	// stages' rows leave as they are.
	term terminal
	// KeyEvals route the rows of a pipeline without a terminal (dedup,
	// flatMapGroupsWithState) to state partitions by codec.HashKey; nil
	// otherwise.
	KeyEvals []func(sql.Row) sql.Value
	// KeyIdxs are an aggregate pipeline's grouping-key positions in its
	// output, 0..n-1. The frozen benchmark/isolated.go reads them; the
	// terminal routes by the key itself.
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
	// optionally, the terminal); nil when nothing in the pipeline
	// vectorizes. Stages remain the source of truth for semantics — Vec
	// must produce byte-identical output.
	Vec *VecPlan
	// SourceCols lists, ascending, the source-schema columns the vector plan
	// reads: the inputs of its ops up to the first stage that narrows the row
	// (a projection or the terminal aggregate), plus the watermark column.
	// nil means every column. The engine hands it to sources that can skip
	// decoding the rest; columns outside it are absent (nil) from the batches
	// the vector plan then runs over, and nothing in the plan touches them.
	SourceCols []int
	reads      *sourceReads // compile-time accumulator behind SourceCols
}

// terminal is a pipeline's blocking map-side end. scatter folds one task's
// output into cells — an aggregate's partial groups, a join side's rows —
// and cuts them into nPart shuffle buckets, each cell routed by the hash of
// the key it carries: through the row entry for rows, through the column
// entry for a batch (b non-nil, and only when the vector plan covers the
// terminal). Both give the same cells in the same buckets.
type terminal interface {
	scatter(rows []sql.Row, b *vec.Batch, nPart int) [][]sql.Row
}

// VecPlan mirrors a pipeline prefix as columnar kernels. Ops[i] computes
// the same transformation as Stages[i]; rows materialize after the last
// op and flow through the remaining row stages (none, for fully covered
// pipelines). Agg or Join is set when the terminal's column entry serves
// too, which needs Ops to cover every stage.
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

// Scatter runs one task's input through the pipeline and returns what
// leaves it in nPart shuffle buckets. A column batch b (nil for rows; the
// caller must only pass one when Vec is set) runs through the vector plan's
// ops and, when the plan covers the terminal, into its column entry, and
// otherwise materializes into rows for the remaining stages; raw rows run
// through every stage. The terminal scatters its own cells; a pipeline
// without one routes its rows by KeyEvals. Buckets keep arrival order.
func (p *Pipeline) Scatter(raw []sql.Row, b *vec.Batch, nPart int) [][]sql.Row {
	first := 0
	if b != nil {
		b = p.ApplyVec(b)
		if p.Scatters() {
			return p.term.scatter(nil, b, nPart)
		}
		raw, first = b.AppendRows(make([]sql.Row, 0, b.NumLive())), len(p.Vec.Ops)
	}
	for _, stage := range p.Stages[first:] {
		raw = stage()(raw)
	}
	if p.term != nil {
		return p.term.scatter(raw, nil, nPart)
	}
	buckets := make([][]sql.Row, nPart)
	if nPart == 1 {
		buckets[0] = raw
		return buckets
	}
	key := make([]sql.Value, len(p.KeyEvals))
	for _, row := range raw {
		for k, ev := range p.KeyEvals {
			key[k] = ev(row)
		}
		part := codec.HashKey(key) % uint64(nPart)
		buckets[part] = append(buckets[part], row)
	}
	return buckets
}

// Process is Scatter over rows into one bucket: the rows, or the terminal's
// cells, that leave the pipeline.
func (p *Pipeline) Process(rows []sql.Row) []sql.Row {
	return p.Scatter(rows, nil, 1)[0]
}

// ProcessBatchTo is Process over a column batch, pushing each row that
// leaves the pipeline to sink. The frozen benchmark/isolated.go calls it.
func (p *Pipeline) ProcessBatchTo(b *vec.Batch, sink func(sql.Row)) {
	for _, row := range p.Scatter(nil, b, 1)[0] {
		sink(row)
	}
}

// ProcessBatchScatter is Scatter over a column batch. The frozen
// benchmark/isolated.go calls it.
func (p *Pipeline) ProcessBatchScatter(b *vec.Batch, nPart int) [][]sql.Row {
	return p.Scatter(nil, b, nPart)
}

// Scatters reports whether the terminal's column entry serves the
// pipeline's batches: the vector plan covers every stage and the terminal.
func (p *Pipeline) Scatters() bool {
	return p.Vec != nil && (p.Vec.Agg != nil || p.Vec.Join != nil)
}

// FullyVectorized reports whether the vector plan covers every stage of a
// pipeline without a columnar terminal: ApplyVec alone reproduces the
// stages' output, so a column batch can stay columnar past the map
// boundary (e.g. straight into a ColumnSink).
func (p *Pipeline) FullyVectorized() bool {
	return p.Vec != nil && !p.Scatters() && len(p.Vec.Ops) == len(p.Stages)
}

// ApplyVec runs the vector plan's ops over b and returns the transformed
// batch, still columnar.
func (p *Pipeline) ApplyVec(b *vec.Batch) *vec.Batch {
	for _, op := range p.Vec.Ops {
		b = op.Apply(b)
	}
	return b
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
