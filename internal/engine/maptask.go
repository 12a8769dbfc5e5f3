package engine

import (
	"time"

	"structream/internal/incremental"
	"structream/internal/sinks"
	"structream/internal/sources"
	"structream/internal/sql"
	"structream/internal/sql/vec"
)

// boundPipeline is a pipeline and its bound source: what a map task runs.
// The map task is the same in both execution modes: a microbatch epoch runs
// it over each of its task slices, a continuous worker over each range it
// polls (§6.3 changes how epochs are cut, not how records are processed).
type boundPipeline struct {
	pipe *incremental.Pipeline
	src  *sources.Instrumented
}

// mapResult is one map task's output.
type mapResult struct {
	side    int
	buckets [][]sql.Row // by reduce partition; nil for map-only queries
	direct  []sql.Row   // map-only output
	vecOut  *vec.Batch  // map-only output kept columnar for a ColumnSink
	evt     evtStats    // over the raw input rows
	rows    int64
	// The task's source-read time and whole wall time: their sums split the
	// fused map stage, and the wall feeds per-partition accounting.
	readNanos, taskNanos int64
}

// readInput is the map task's read, under the retry policy: a codec-framed
// source decodes the range straight into typed columns; when ReadVec
// declines (a record's types drift from the schema, or the source has no
// columnar decode) the boxed rows become the batch, a drifted column held
// boxed. Either way only the columns cols lists (nil: every column) are
// built, the ones the pipeline's vector plan reads.
func (c *core) readInput(src *sources.Instrumented, cols []int, part int, from, to int64) (batch *vec.Batch, err error) {
	err = c.withRetry(func() error {
		b, ok, rerr := src.ReadVec(part, from, to)
		if rerr != nil || ok {
			batch = b
			return rerr
		}
		rows, rerr := src.Read(part, from, to)
		if rerr != nil {
			return rerr
		}
		batch = vec.FromRowsCols(src.Schema(), rows, cols)
		return nil
	})
	return batch, err
}

// eventTimeStats computes a task's event-time stats over its raw batch's
// watermark column.
func eventTimeStats(pipe *incremental.Pipeline, b *vec.Batch) (st evtStats) {
	if pipe.WatermarkIdx >= 0 {
		st.min, st.max, st.sum, st.cnt = vec.Int64Stats(b.Cols[pipe.WatermarkIdx], b.Len)
	}
	return st
}

// runMapTask reads records [from, to) of one source partition and runs its
// pipeline's vector plan over them up to the shuffle (or direct-output)
// boundary.
func (c *core) runMapTask(bp boundPipeline, part int, from, to int64) (*mapResult, error) {
	taskStart := time.Now()
	pipe := bp.pipe
	batch, err := c.readInput(bp.src, pipe.SourceCols, part, from, to)
	if err != nil {
		return nil, err
	}
	res := &mapResult{side: pipe.Side, readNanos: time.Since(taskStart).Nanoseconds(), rows: int64(batch.Len)}
	res.evt = eventTimeStats(pipe, batch)
	switch {
	case c.colSink != nil:
		// A map-only append whose sink takes column batches: skip row
		// materialization entirely. The sink keeps the vectors, so none of
		// them may come from, or go back to, the pool.
		batch.Detach()
		res.vecOut = pipe.ApplyVec(batch)
	case c.q.Stateful == nil:
		// Map-only: the pipeline's rows are the query's output.
		res.direct = pipe.Scatter(batch, 1)[0]
	default:
		// The pipeline routes its own output into the shuffle buckets: the
		// terminal's cells, or its rows by their key.
		res.buckets = pipe.Scatter(batch, c.opts.NumPartitions)
	}
	if res.vecOut == nil {
		// Nothing left the task columnar: rendered rows and cells copy
		// every cell out of the vectors, so the batch's slabs go back to
		// the pool for the next task.
		batch.Release()
	}
	res.taskNanos = time.Since(taskStart).Nanoseconds()
	return res, nil
}

// write hands output to the sink under the retry policy: column batches
// (vecs non-nil) through the column sink, rows through AddBatch. A
// microbatch epoch writes once, as sub 0; a continuous worker writes each
// sub-batch under its own sub.
func (c *core) write(epoch, sub int64, rows []sql.Row, vecs []*vec.Batch) error {
	b := sinks.Batch{Epoch: epoch, Sub: sub, Mode: c.q.Mode, Schema: c.q.OutSchema, KeyArity: c.q.KeyArity, Rows: rows, Vecs: vecs}
	return c.withRetry(func() error {
		if vecs != nil {
			return c.colSink.AddColumnBatch(b)
		}
		return c.sink.AddBatch(b)
	})
}
