// Package incremental implements the heart of the paper's contribution
// (§5.2): turning an analyzed, optimized *static* relational plan into an
// incrementally executable streaming plan. The compiled form splits the
// query at its stateful boundary: stateless map pipelines run over each
// source partition (filters, projections, window assignment, stream-static
// joins, as column-batch ops), rows shuffle by key to a stateful operator backed by the versioned state
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
// leaf: its vector plan (filter, projection, window assignment, a
// stream-static join, as column-batch ops) and the terminal that renders
// what leaves them for the shuffle. A map task runs its input through it
// once, as a column batch — the engine's equivalent of whole-stage code
// generation (§5.3, §9.1).
type Pipeline struct {
	// SourceName matches the Scan leaf (and WAL source entry).
	SourceName string
	// Side is the stateful stage input this pipeline feeds (0, or 1 for
	// the right side of a stream-stream join).
	Side int
	// schema is the source's row schema, which Process boxes rows against.
	schema sql.Schema
	// term is the blocking end after the ops: the map-side partial aggregate
	// or a stream-stream join side's cell rendering; nil when the ops' rows
	// leave as they are.
	term terminal
	// KeyEvals route the rows of a pipeline without a terminal (dedup,
	// flatMapGroupsWithState) to state partitions by codec.HashKey; nil
	// otherwise.
	KeyEvals []func(sql.Row) sql.Value
	// KeyIdxs are an aggregate pipeline's grouping-key positions in its
	// output, 0..n-1. The frozen benchmark/isolated.go reads them; the
	// terminal routes by the key itself.
	KeyIdxs []int
	// WatermarkIdx is the raw-source column the watermark tracks; -1 when
	// the source has no watermark.
	WatermarkIdx int
	// WatermarkDelay is the declared lateness bound in µs.
	WatermarkDelay int64
	// Vec is the pipeline's vector plan, from the scan to the terminal.
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
// output batch into cells — an aggregate's partial groups, a join side's
// rows — and cuts them into nPart shuffle buckets, each cell routed by the
// hash of the key it carries.
type terminal interface {
	scatter(b *vec.Batch, nPart int) [][]sql.Row
}

// VecPlan is a pipeline as column-batch ops, one per stage below the
// terminal. Agg or Join is set when the terminal is a partial aggregate or a
// join side.
type VecPlan struct {
	Ops  []physical.VecOp
	Agg  *VecAggPlan
	Join *joinShuffle
}

// Programs lists every expression the plan evaluates: its ops', then the
// terminal's keys and inputs.
func (v *VecPlan) Programs() []*vec.Program {
	var progs []*vec.Program
	for _, op := range v.Ops {
		progs = append(progs, op.Programs()...)
	}
	if v.Agg != nil {
		progs = append(progs, v.Agg.KeyProgs...)
		for _, p := range v.Agg.InputProgs {
			if p != nil {
				progs = append(progs, p)
			}
		}
	}
	if v.Join != nil {
		progs = append(progs, v.Join.keyProgs...)
	}
	return progs
}

// VecAggPlan is the columnar map-side partial aggregation: grouping keys
// and aggregate inputs evaluate as programs, and key encoding reads the
// vectors directly instead of boxing every cell.
type VecAggPlan struct {
	// KeyProgs compute the grouping-key columns.
	KeyProgs []*vec.Program
	// InputProgs compute each aggregate's input column; a nil entry is an
	// input-less aggregate (count(*)).
	InputProgs []*vec.Program
	// Aggs are the bound aggregates (buffer factories).
	Aggs []sql.BoundAgg
}

// Scatter runs one task's column batch through the pipeline and returns
// what leaves it in nPart shuffle buckets. The terminal scatters its own
// cells; a pipeline without one routes its rows by KeyEvals. Buckets keep
// arrival order.
func (p *Pipeline) Scatter(b *vec.Batch, nPart int) [][]sql.Row {
	b = p.ApplyVec(b)
	if p.term != nil {
		return p.term.scatter(b, nPart)
	}
	rows := b.AppendRows(make([]sql.Row, 0, b.NumLive()))
	buckets := make([][]sql.Row, nPart)
	if nPart == 1 {
		buckets[0] = rows
		return buckets
	}
	key := make([]sql.Value, len(p.KeyEvals))
	for _, row := range rows {
		for k, ev := range p.KeyEvals {
			key[k] = ev(row)
		}
		part := codec.HashKey(key) % uint64(nPart)
		buckets[part] = append(buckets[part], row)
	}
	return buckets
}

// Process is Scatter over rows of the source schema into one bucket: the
// rows, or the terminal's cells, that leave the pipeline. Only the columns
// the vector plan reads (SourceCols) are built from the rows.
func (p *Pipeline) Process(rows []sql.Row) []sql.Row {
	return p.Scatter(vec.FromRowsCols(p.schema, rows, p.SourceCols), 1)[0]
}

// ProcessBatchTo is Scatter over a column batch into one bucket, pushing
// each row that leaves the pipeline to sink. The frozen
// benchmark/isolated.go calls it.
func (p *Pipeline) ProcessBatchTo(b *vec.Batch, sink func(sql.Row)) {
	for _, row := range p.Scatter(b, 1)[0] {
		sink(row)
	}
}

// ProcessBatchScatter is Scatter. The frozen benchmark/isolated.go calls
// it.
func (p *Pipeline) ProcessBatchScatter(b *vec.Batch, nPart int) [][]sql.Row {
	return p.Scatter(b, nPart)
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
