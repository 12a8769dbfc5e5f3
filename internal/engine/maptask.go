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
	vecRows int64 // rows that ran the columnar path (≤ rows)
	// The task's source-read time and whole wall time: their sums split the
	// fused map stage, and the wall feeds per-partition accounting.
	readNanos, taskNanos int64
}

// readInput is the map task's read ladder, under the retry policy. When
// the pipeline wants vectors, a codec-framed source decodes the range
// straight into typed columns; ok=false from ReadVec (type drift, or no
// columnar decode) and every other source fall through to boxed rows.
func (c *core) readInput(src sources.Source, part int, from, to int64, wantVec bool) (raw []sql.Row, batch *vec.Batch, err error) {
	err = c.withRetry(func() error {
		raw, batch = nil, nil
		if vr, isVec := src.(sources.VectorReader); isVec && wantVec {
			b, ok, rerr := vr.ReadVec(part, from, to)
			if rerr != nil {
				return rerr
			}
			if ok {
				batch = b
				return nil
			}
		}
		var rerr error
		raw, rerr = src.Read(part, from, to)
		return rerr
	})
	return raw, batch, err
}

// scanEventTime computes a task's event-time stats over its raw input:
// kernels over the batch's typed watermark column, else the boxed
// evaluator row by row.
func scanEventTime(pipe *incremental.Pipeline, raw []sql.Row, batch *vec.Batch) evtStats {
	var st evtStats
	if pipe.WatermarkEval == nil {
		return st
	}
	if batch != nil {
		st.min, st.max, st.sum, st.cnt = vec.Int64Stats(batch.Cols[pipe.WatermarkIdx], batch.Len)
		return st
	}
	for _, row := range raw {
		ts, ok := pipe.WatermarkEval(row).(int64)
		if !ok {
			continue
		}
		if st.cnt == 0 || ts > st.max {
			st.max = ts
		}
		if st.cnt == 0 || ts < st.min {
			st.min = ts
		}
		st.sum += float64(ts)
		st.cnt++
	}
	return st
}

// runMapTask reads records [from, to) of one source partition and runs its
// pipeline up to the shuffle (or direct-output) boundary: with a batch in
// hand, as kernels until rows must materialize; without one, as row stages.
func (c *core) runMapTask(bp boundPipeline, part int, from, to int64) (*mapResult, error) {
	taskStart := time.Now()
	pipe, schema := bp.pipe, bp.src.Schema()
	// The columnar event-time scan needs the watermark column as a typed
	// int64 vector. A batch's column kinds are its source schema's, so a
	// pipeline whose watermark column is anything else reads rows in every
	// task, and is known to before the read.
	wantVec := pipe.Vec != nil && (pipe.WatermarkEval == nil ||
		pipe.WatermarkIdx >= 0 && vec.KindOf(schema.Field(pipe.WatermarkIdx).Type) == vec.KindInt64)
	raw, batch, err := c.readInput(bp.src, part, from, to, wantVec)
	if err != nil {
		return nil, err
	}
	res := &mapResult{side: pipe.Side, readNanos: time.Since(taskStart).Nanoseconds()}
	if batch == nil && wantVec {
		// The source served rows; vectorize them here unless their
		// dynamic types drifted from the schema.
		if b, ok := vec.FromRows(schema, raw); ok {
			batch = b
		}
	}
	res.rows = int64(len(raw))
	if batch != nil {
		res.rows, res.vecRows = int64(batch.Len), int64(batch.Len)
	}
	res.evt = scanEventTime(pipe, raw, batch)
	switch {
	case batch != nil && c.colSink != nil && pipe.FullyVectorized():
		// The whole pipeline ran as kernels and the sink takes column
		// batches: skip row materialization entirely. The sink keeps the
		// vectors, so none of them may come from, or go back to, the pool.
		batch.Detach()
		res.vecOut = pipe.ApplyVec(batch)
	case c.q.Stateful == nil:
		// Map-only: the stages' rows are the query's output.
		res.direct = pipe.Scatter(raw, batch, 1)[0]
	default:
		// The pipeline routes its own output into the shuffle buckets: the
		// terminal's cells, or the stages' rows by their key.
		res.buckets = pipe.Scatter(raw, batch, c.opts.NumPartitions)
	}
	if batch != nil && res.vecOut == nil {
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
