package structream

import (
	"fmt"
	"io"
	"os"
	"strconv"

	"structream/internal/colfmt"
	"structream/internal/engine"
	"structream/internal/incremental"
	"structream/internal/serve"
	"structream/internal/sinks"
	"structream/internal/sources"
	"structream/internal/sql/analysis"
	"structream/internal/sql/logical"
	"structream/internal/sql/optimizer"
)

// DataStreamWriter starts streaming queries, mirroring df.writeStream.
type DataStreamWriter struct {
	df         *DataFrame
	format     string
	mode       OutputMode
	trigger    Trigger
	name       string
	checkpoint string
	opts       map[string]string
	sink       sinks.Sink
	eventLogW  io.Writer
	partitions int
	maxPerTrig int64
}

// WriteStream begins building a streaming write for the DataFrame.
func (df *DataFrame) WriteStream() *DataStreamWriter {
	return &DataStreamWriter{df: df, opts: map[string]string{}, mode: Append}
}

// Format selects the sink: "memory" (in-session result table), "columnar"
// (Parquet-like table directory), "json" (JSON-lines files), "console",
// or "bus" (message-bus topic).
func (w *DataStreamWriter) Format(format string) *DataStreamWriter {
	w.format = format
	return w
}

// OutputMode sets how the result table is written (§4.2); the analyzer
// rejects invalid mode/query combinations (§5.1).
func (w *DataStreamWriter) OutputMode(mode OutputMode) *DataStreamWriter {
	w.mode = mode
	return w
}

// OutputModeName sets the output mode by name ("append", "update",
// "complete"), as in the paper's examples.
func (w *DataStreamWriter) OutputModeName(name string) *DataStreamWriter {
	if m, err := logical.ParseOutputMode(name); err == nil {
		w.mode = m
	} else {
		w.opts["__badmode"] = name // surfaced at Start
	}
	return w
}

// Trigger sets the execution trigger (default ProcessingTime(0)).
func (w *DataStreamWriter) Trigger(t Trigger) *DataStreamWriter {
	w.trigger = t
	return w
}

// QueryName names the query; the memory sink registers its result table
// under this name for interactive queries.
func (w *DataStreamWriter) QueryName(name string) *DataStreamWriter {
	w.name = name
	return w
}

// Checkpoint sets the checkpoint directory (WAL + state store). A query
// without one gets a temporary directory and loses restartability.
func (w *DataStreamWriter) Checkpoint(dir string) *DataStreamWriter {
	w.checkpoint = dir
	return w
}

// Option sets a sink/engine option ("partitions", "maxRecordsPerTrigger",
// "workers" — N > 1 sizes the task pool to N and cuts each source
// partition's range into up to N map tasks; unset or 1 runs one task per
// source partition on a pool of two; nothing else depends on it (see
// engine.Options.Workers),
// "stateBackend" — optional: "memory" and "lsm" both name the one state
// store, "stateMemtableBytes", "stateBlockCacheBytes",
// "stateSyncMaintenance" — "true" pins LSM flush/compaction inline on the
// commit path instead of the background goroutine,
// "publish" — "true" attaches a live serving hub to the query (requires a
// sink that supports replay, i.e. the memory sink; see Session.Publish),
// "retainEpochs" — N bounds the memory sink to the last N committed
// epochs; subscribers resuming below the floor restart from a snapshot,
// "transactional" — "true" makes the bus sink commit each epoch through a
// control topic). Numeric options take an integer and the others named
// "true"/"false"; Start refuses a value that is not one, naming the key.
// The columnar execution path is always on, with the row path as its
// per-stage fallback, so the former "vectorize" option is refused too.
func (w *DataStreamWriter) Option(key, value string) *DataStreamWriter {
	w.opts[key] = value
	return w
}

// Sink installs a custom sink implementation (escape hatch).
func (w *DataStreamWriter) Sink(s sinks.Sink) *DataStreamWriter {
	w.sink = s
	return w
}

// Foreach delivers each epoch's output rows to fn — the foreachBatch-style
// integration point for custom systems. fn must be idempotent in epoch for
// exactly-once semantics; the engine may re-deliver the last epoch after a
// crash.
func (w *DataStreamWriter) Foreach(fn func(epoch int64, rows []Row) error) *DataStreamWriter {
	w.sink = &sinks.ForeachSink{Fn: func(b sinks.Batch) error {
		return fn(b.Epoch, b.Rows)
	}}
	return w
}

// EventLogWriter streams JSON progress events to w (§7.4).
func (w *DataStreamWriter) EventLogWriter(out io.Writer) *DataStreamWriter {
	w.eventLogW = out
	return w
}

// Partitions sets the shuffle/state partition count.
func (w *DataStreamWriter) Partitions(n int) *DataStreamWriter {
	w.partitions = n
	return w
}

// MaxRecordsPerTrigger caps each epoch's input size.
func (w *DataStreamWriter) MaxRecordsPerTrigger(n int64) *DataStreamWriter {
	w.maxPerTrig = n
	return w
}

// Start plans the query (analysis → §5.1 checks → optimization →
// incrementalization), binds sources and the sink, and launches execution.
// path is the sink destination (directory for file sinks, topic for bus,
// ignored for memory/console).
func (w *DataStreamWriter) Start(path string) (*StreamingQuery, error) {
	if bad, ok := w.opts["__badmode"]; ok {
		return nil, fmt.Errorf("structream: unknown output mode %q", bad)
	}
	if err := w.checkOptions(); err != nil {
		return nil, err
	}
	df := w.df
	if !df.IsStreaming() {
		return nil, fmt.Errorf("structream: WriteStream requires a streaming DataFrame; use Write for batch output")
	}

	analyzed, err := analysis.Analyze(df.plan)
	if err != nil {
		return nil, err
	}
	if err := analysis.CheckStreaming(analyzed, w.mode); err != nil {
		return nil, err
	}
	optimized := optimizer.Optimize(analyzed)
	q, err := incremental.Compile(optimized, w.mode, df.s.staticResolver)
	if err != nil {
		return nil, err
	}

	sink, err := w.buildSink(path, q)
	if err != nil {
		return nil, err
	}

	// Bind the sources referenced by the compiled pipelines.
	srcs := map[string]sources.Source{}
	for _, p := range q.Pipelines {
		src, ok := df.s.source(p.SourceName)
		if !ok {
			return nil, fmt.Errorf("structream: stream %q is not bound to a source", p.SourceName)
		}
		srcs[p.SourceName] = src
	}

	checkpoint := w.checkpoint
	if checkpoint == "" {
		dir, err := os.MkdirTemp("", "structream-ckpt-*")
		if err != nil {
			return nil, err
		}
		checkpoint = dir
	}
	opts := engine.Options{
		Name:                 w.queryName(),
		Checkpoint:           checkpoint,
		Trigger:              w.trigger,
		NumPartitions:        w.partitions,
		MaxRecordsPerTrigger: w.maxPerTrig,
		EventLogWriter:       w.eventLogW,
	}
	if n, err := strconv.Atoi(w.opts["partitions"]); err == nil && n > 0 {
		opts.NumPartitions = n
	}
	if n, err := strconv.ParseInt(w.opts["maxRecordsPerTrigger"], 10, 64); err == nil && n > 0 {
		opts.MaxRecordsPerTrigger = n
	}
	if n, err := strconv.Atoi(w.opts["workers"]); err == nil && n > 1 {
		opts.Workers = n
	}
	if b := w.opts["stateBackend"]; b != "" {
		opts.StateBackend = b
	}
	if n, err := strconv.ParseInt(w.opts["stateMemtableBytes"], 10, 64); err == nil && n > 0 {
		opts.StateMemtableBytes = n
	}
	if n, err := strconv.ParseInt(w.opts["stateBlockCacheBytes"], 10, 64); err == nil && n > 0 {
		opts.StateBlockCacheBytes = n
	}
	if w.opts["stateSyncMaintenance"] == "true" {
		opts.StateSyncMaintenance = true
	}
	sq, err := engine.Start(q, srcs, sink, opts)
	if err != nil {
		return nil, err
	}
	df.s.trackQuery(sq)
	if w.opts["publish"] == "true" {
		rep, ok := replayTarget(sink)
		if !ok {
			sq.Stop() //nolint:errcheck // surfacing the config error
			return nil, fmt.Errorf("structream: publish requires a replayable sink (memory, or a tee including one), got %s", sinks.Describe(sink))
		}
		df.s.Publish(sq, rep, serve.HubOptions{})
	}
	return sq, nil
}

// The option keys whose values Start parses, by type.
var (
	intOptions  = []string{"partitions", "maxRecordsPerTrigger", "workers", "stateMemtableBytes", "stateBlockCacheBytes", "retainEpochs"}
	boolOptions = []string{"stateSyncMaintenance", "publish", "transactional"}
)

// checkOptions refuses an option value that does not parse as its key's
// type, so a typo is an error rather than the default run in its place.
func (w *DataStreamWriter) checkOptions() error {
	if _, ok := w.opts["vectorize"]; ok {
		return fmt.Errorf(`structream: option "vectorize" was removed: the columnar path is always on, with the row path as its per-stage fallback`)
	}
	for _, key := range intOptions {
		if v, ok := w.opts[key]; ok {
			if _, err := strconv.ParseInt(v, 10, 64); err != nil {
				return fmt.Errorf("structream: option %q wants an integer, got %q", key, v)
			}
		}
	}
	for _, key := range boolOptions {
		if v, ok := w.opts[key]; ok && v != "true" && v != "false" {
			return fmt.Errorf(`structream: option %q wants "true" or "false", got %q`, key, v)
		}
	}
	return nil
}

// replayTarget finds the serving layer's replay source inside a sink:
// the memory sink itself, or the first replayable target of a tee.
func replayTarget(s sinks.Sink) (serve.Replayer, bool) {
	if rep, ok := s.(serve.Replayer); ok {
		return rep, true
	}
	if tee, ok := s.(*sinks.TeeSink); ok {
		for _, t := range tee.Targets {
			if rep, ok := replayTarget(t); ok {
				return rep, true
			}
		}
	}
	return nil, false
}

func (w *DataStreamWriter) queryName() string {
	if w.name != "" {
		return w.name
	}
	return "query"
}

func (w *DataStreamWriter) buildSink(path string, q *incremental.Query) (sinks.Sink, error) {
	if w.sink != nil {
		return w.sink, nil
	}
	switch w.format {
	case "memory", "":
		ms := sinks.NewMemorySink()
		if n := atoiDefault(w.opts["retainEpochs"], 0); n > 0 {
			ms.SetRetention(n)
		}
		if w.name != "" {
			// Interactive queries over consistent snapshots of the result
			// table (§3: "output to an in-memory table users can query").
			w.df.s.registerLiveTable(w.name, q.OutSchema, ms.Rows)
		}
		return ms, nil
	case "console":
		return sinks.NewConsoleSink(os.Stdout), nil
	case "columnar":
		if path == "" {
			return nil, fmt.Errorf("structream: the columnar sink requires a directory path")
		}
		return sinks.NewFileSink(path), nil
	case "json":
		if path == "" {
			return nil, fmt.Errorf("structream: the json sink requires a directory path")
		}
		return sinks.NewJSONFileSink(path), nil
	case "bus":
		topic, err := w.df.s.Broker().CreateTopic(path, maxInt(1, atoiDefault(w.opts["partitions"], 1)))
		if err != nil {
			return nil, err
		}
		bs := sinks.NewBusSink(topic)
		if w.opts["transactional"] == "true" {
			control, err := w.df.s.Broker().CreateTopic(path+"-commits", 1)
			if err != nil {
				return nil, err
			}
			return sinks.NewTransactionalBusSink(bs, control)
		}
		return bs, nil
	default:
		return nil, fmt.Errorf("structream: unknown sink format %q", w.format)
	}
}

func atoiDefault(s string, def int) int {
	if n, err := strconv.Atoi(s); err == nil {
		return n
	}
	return def
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// ---------------------------------------------------------------- batch

// DataFrameWriter writes batch results, mirroring df.write.
type DataFrameWriter struct {
	df     *DataFrame
	format string
}

// Write begins building a batch write.
func (df *DataFrame) Write() *DataFrameWriter { return &DataFrameWriter{df: df} }

// Format selects "columnar" or "json".
func (w *DataFrameWriter) Format(format string) *DataFrameWriter {
	w.format = format
	return w
}

// Save executes the DataFrame and writes the result to path atomically.
func (w *DataFrameWriter) Save(path string) error {
	rows, err := w.df.Collect()
	if err != nil {
		return err
	}
	schema, err := w.df.Schema()
	if err != nil {
		return err
	}
	switch w.format {
	case "columnar", "":
		seg, err := colfmt.WriteSegment(path, "batch-000000000000.seg", schema, rows, 0)
		if err != nil {
			return err
		}
		return colfmt.CommitManifest(path, schema, []colfmt.SegmentInfo{seg})
	case "json":
		sink := sinks.NewJSONFileSink(path)
		return sink.AddBatch(sinks.Batch{Epoch: 0, Mode: Complete, Schema: schema, Rows: rows})
	default:
		return fmt.Errorf("structream: unknown batch sink format %q", w.format)
	}
}
