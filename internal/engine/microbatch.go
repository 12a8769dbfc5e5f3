package engine

import (
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"structream/internal/cluster"
	"structream/internal/fsx"
	"structream/internal/health"
	"structream/internal/incremental"
	"structream/internal/lsm"
	"structream/internal/metrics"
	"structream/internal/shard"
	"structream/internal/sinks"
	"structream/internal/sources"
	"structream/internal/sql"
	"structream/internal/sql/codec"
	"structream/internal/sql/logical"
	"structream/internal/sql/vec"
	"structream/internal/state"
	"structream/internal/trace"
	"structream/internal/wal"
)

// Options configures a streaming query execution.
type Options struct {
	// Name labels the query in progress events.
	Name string
	// Checkpoint is the directory holding the write-ahead log and state
	// store. Required.
	Checkpoint string
	// Trigger selects the execution cadence (default: ProcessingTime(0),
	// i.e. run epochs back to back as data arrives).
	Trigger Trigger
	// NumPartitions is the shuffle/state partition count (default 4).
	NumPartitions int
	// Workers selects the partitioned parallel execution runtime: when
	// > 1, epochs run on a pool of that many real worker goroutines —
	// each source partition shard-splits into contiguous offset slices so
	// several workers feed from it concurrently, fully vectorized
	// pipelines route to state partitions through the columnar exchange,
	// each state partition commits under its own store and seals its own
	// WAL segment, and the epoch commits through a sharded barrier that
	// verifies every seal before writing the single commit manifest.
	// 0 or 1 keeps the classic path: one task per source partition on
	// Options.Cluster, which by default is an in-process cluster of two
	// slots — so two tasks of a stage do run at once, not one after the
	// other. Output is byte-identical either way:
	// shards are contiguous and concatenate in task order, and the
	// exchange hashes exactly as the row path does.
	Workers int
	// MaxRecordsPerTrigger caps records per epoch per source (0 =
	// unlimited). With the default unlimited setting the engine exhibits
	// the paper's adaptive batching: a backlog produces proportionally
	// larger epochs until the query catches up (§7.3).
	MaxRecordsPerTrigger int64
	// Cluster executes map and reduce stages when Workers <= 1; nil uses a
	// single-node, two-slot in-process cluster.
	Cluster *cluster.Cluster
	// EventLogWriter receives JSON progress lines (§7.4); may be nil.
	EventLogWriter io.Writer
	// StateSnapshotInterval overrides the state store's full-snapshot
	// cadence (default 10 epochs).
	StateSnapshotInterval int64
	// StateBackend selects the state storage engine: "memory" (default)
	// keeps live state in RAM with delta + snapshot files; "lsm" stores it
	// in a log-structured merge tree (memtable, bloom-filtered SSTables,
	// shared block cache, size-tiered compaction) so stateful queries can
	// hold state well beyond RAM.
	StateBackend string
	// StateMemtableBytes is the lsm backend's per-store flush threshold
	// (0 = 4 MiB). State beyond it spills to SSTables.
	StateMemtableBytes int64
	// StateBlockCacheBytes bounds the lsm backend's block cache, shared
	// across all of the query's state partitions (0 = 32 MiB).
	StateBlockCacheBytes int64
	// StateSyncMaintenance forces the lsm backend's flush and compaction to
	// run synchronously inside each state commit. By default maintenance
	// runs on a supervised background goroutine per store and commits wait
	// only on their own delta's durability; crash recovery is identical
	// either way (the delta log is the durability point).
	StateSyncMaintenance bool
	// StateMaintenanceScheduler overrides the lsm backend's maintenance
	// scheduling. The crash-sweep torture harness injects a seeded
	// deterministic scheduler so the background-maintenance code path keeps
	// a reproducible mutating-op schedule.
	StateMaintenanceScheduler lsm.MaintenanceScheduler
	// RetainEpochs bounds checkpoint growth: every RetainEpochs epochs the
	// engine purges WAL entries and state files older than the retention
	// horizon (keeping everything needed to recover, plus that many epochs
	// of manual-rollback headroom). 0 disables garbage collection.
	RetainEpochs int64
	// FS is the filesystem for the checkpoint (WAL + state store). Nil uses
	// the hardened real filesystem (fsync of files and parent directories);
	// tests inject fsx.FaultFS, benchmarks may pass fsx.NoSync().
	FS fsx.FS
	// MaxIORetries bounds how many times a transient I/O error (EIO,
	// ENOSPC, ...) on a source read or sink write is retried before the
	// epoch fails (default 3; negative disables retry).
	MaxIORetries int
	// RetryBackoff is the base delay of the exponential backoff between
	// retries; each attempt doubles it and adds jitter (default 2ms).
	RetryBackoff time.Duration
	// EpochTimeout fails an epoch (with ErrEpochTimeout) that has not
	// completed within this duration — the watchdog for hung sources,
	// tasks, or sinks. 0 disables. A supervised query classifies the
	// timeout as transient and restarts from the checkpoint.
	EpochTimeout time.Duration
	// AdaptiveBackpressure enables the AIMD admission controller: the
	// per-epoch record cap shrinks multiplicatively when epoch latency
	// exceeds BackpressureTarget and regrows additively while the query
	// keeps up. Composes with MaxRecordsPerTrigger, which stays a hard
	// ceiling.
	AdaptiveBackpressure bool
	// BackpressureTarget is the per-epoch latency budget the adaptive
	// limiter steers toward. 0 derives it from the trigger: the
	// ProcessingTime interval when one is set, else 100ms.
	BackpressureTarget time.Duration
	// Vectorize enables the columnar execution path for the microbatch hot
	// loop (default on): map tasks decode source batches into typed column
	// vectors and run filters, projections, tumbling-window assignment and
	// map-side partial aggregation as kernels, falling back per stage to
	// the row path when an expression or input does not vectorize. Results
	// are identical either way. Pass engine.Bool(false) to force the row
	// path (useful for benchmarking and differential testing).
	Vectorize *bool
	// HealthDir overrides where flight-recorder bundles are written
	// (default <Checkpoint>/_health). Bundles deliberately bypass
	// Options.FS and use the real filesystem: a FaultFS counts mutating
	// ops to schedule deterministic crashes, and a background diagnostic
	// capture must not perturb that schedule.
	HealthDir string
}

// Bool returns a pointer to v, for the Options.Vectorize field.
func Bool(v bool) *bool { return &v }

func (o Options) withDefaults() Options {
	if o.Trigger == nil {
		o.Trigger = ProcessingTimeTrigger{}
	}
	if o.NumPartitions <= 0 {
		o.NumPartitions = 4
	}
	if o.Name == "" {
		o.Name = "query"
	}
	if o.FS == nil {
		o.FS = fsx.Real()
	}
	if o.MaxIORetries == 0 {
		o.MaxIORetries = 3
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 2 * time.Millisecond
	}
	if o.AdaptiveBackpressure && o.BackpressureTarget <= 0 {
		if pt, ok := o.Trigger.(ProcessingTimeTrigger); ok && pt.Interval > 0 {
			o.BackpressureTarget = pt.Interval
		} else {
			o.BackpressureTarget = 100 * time.Millisecond
		}
	}
	return o
}

// telemetry is the observability every query carries, in both execution
// modes (§7.4): the progress event log feeding the metric registry, the
// epoch tracer, and the health tracker whose bundles capture all three.
// A handle that never started a query (NewFailedQuery) has none of it,
// which is why trace.Tracer and health.Tracker stay nil-safe.
type telemetry struct {
	log    *metrics.EventLog
	reg    *metrics.Registry
	tracer *trace.Tracer
	health *health.Tracker
}

// newTelemetry wires a query's telemetry. Flight-recorder bundles go under
// the checkpoint unless Options.HealthDir redirects them, and always to
// the real filesystem (health.New's default), never Options.FS:
// fault-injecting filesystems schedule crashes by counting mutating ops,
// and diagnostics must not perturb that.
func newTelemetry(opts Options) telemetry {
	t := telemetry{
		log:    metrics.NewEventLog(opts.EventLogWriter),
		reg:    metrics.NewRegistry(),
		tracer: trace.NewTracer(opts.Name, 0),
	}
	t.log.SetRegistry(t.reg)
	dir := opts.HealthDir
	if dir == "" {
		dir = filepath.Join(opts.Checkpoint, "_health")
	}
	t.health = health.New(health.Config{
		Query: opts.Name, Dir: dir,
		Registry: t.reg, Tracer: t.tracer, Events: t.log,
	})
	return t
}

// exec is the microbatch execution of one query.
type exec struct {
	q    *incremental.Query
	sink sinks.Sink
	opts Options

	pipes []boundPipeline
	wal   *wal.Log
	prov  *state.Provider
	clus  *cluster.Cluster
	pool  *shard.Pool // non-nil when Options.Workers > 1
	telemetry
	isrcs map[string]*sources.Instrumented // instrumented sources by name

	limiter   *aimdLimiter // nil unless AdaptiveBackpressure
	abandoned atomic.Bool  // set by the epoch watchdog; poisons late writes
	// hook fans epoch-commit notifications to the serving layer;
	// committedState is the newest state version covered by a WAL commit
	// (readable without e.mu, which is held for whole epochs).
	hook           *epochHook
	committedState atomic.Int64
	vectorize      bool // Options.Vectorize resolved (default true)
	// colSink is non-nil when epochs may deliver columnar: the sink
	// accepts column batches and the query is a map-only append (no
	// stateful stage, so Post is the identity). Individual epochs still
	// fall back to AddBatch when any task left the columnar path.
	colSink sinks.ColumnSink

	mu               sync.Mutex // serializes epoch execution
	nextEpoch        int64
	lastStateVersion int64 // last committed state version, -1 before any
	watermark        int64
	perPipeMax       []int64 // max event time seen per pipeline
	committed        map[string]sources.Offsets
	lastLatest       map[string]sources.Offsets // sources' heads at last planning
	lastBacklog      int64                      // records behind the sources' heads after planning
	needFlush        bool                       // run one empty epoch to apply a watermark advance
	alwaysRun        bool                       // processing-time timeouts need epochs regardless
}

type boundPipeline struct {
	pipe *incremental.Pipeline
	src  sources.Source
}

// newExec wires a compiled query to its sources and recovers WAL state.
func newExec(q *incremental.Query, srcs map[string]sources.Source, sink sinks.Sink, opts Options) (*exec, error) {
	opts = opts.withDefaults()
	if opts.Checkpoint == "" {
		return nil, fmt.Errorf("engine: a checkpoint directory is required")
	}
	w, err := wal.OpenFS(opts.FS, opts.Checkpoint)
	if err != nil {
		return nil, err
	}
	prov := state.NewProviderFS(opts.FS, opts.Checkpoint)
	if opts.StateSnapshotInterval > 0 {
		prov.SnapshotInterval = opts.StateSnapshotInterval
	}
	switch opts.StateBackend {
	case "", string(state.BackendMemory):
	case string(state.BackendLSM):
		prov.Backend = state.BackendLSM
		prov.MemtableBytes = opts.StateMemtableBytes
		prov.BlockCacheBytes = opts.StateBlockCacheBytes
		prov.BackgroundMaintenance = !opts.StateSyncMaintenance
		prov.Scheduler = opts.StateMaintenanceScheduler
	default:
		return nil, fmt.Errorf("engine: unknown state backend %q", opts.StateBackend)
	}
	clus := opts.Cluster
	if clus == nil {
		clus = cluster.New(cluster.Config{Nodes: 1, SlotsPerNode: 2})
	}
	e := &exec{
		q: q, sink: sink, opts: opts,
		wal: w, prov: prov, clus: clus,
		telemetry:        newTelemetry(opts),
		lastStateVersion: -1,
		committed:        map[string]sources.Offsets{},
		lastLatest:       map[string]sources.Offsets{},
		isrcs:            map[string]*sources.Instrumented{},
		perPipeMax:       make([]int64, len(q.Pipelines)),
		vectorize:        opts.Vectorize == nil || *opts.Vectorize,
		hook:             newEpochHook(),
	}
	e.committedState.Store(-1)
	for i := range e.perPipeMax {
		e.perPipeMax[i] = -1
	}
	for _, p := range q.Pipelines {
		src, ok := srcs[p.SourceName]
		if !ok {
			return nil, fmt.Errorf("engine: no source bound for stream %q", p.SourceName)
		}
		// A source that can step over columns is bound, once, to the ones
		// the pipeline's vector plan reads; its Read stays full width, so
		// every fallback to rows sees whole records.
		if cp, ok := src.(sources.ColumnPruner); ok && e.vectorize && p.SourceCols != nil {
			src = cp.PruneColumns(p.SourceCols)
		}
		// Every bound source is wrapped so the per-source progress section
		// and getBatch spans can attribute fetch cost.
		isrc := sources.Instrument(src)
		e.isrcs[isrc.Name()] = isrc
		e.pipes = append(e.pipes, boundPipeline{pipe: p, src: isrc})
	}
	if mg, ok := q.Stateful.(*incremental.FlatMapGroupsWithState); ok {
		e.alwaysRun = mg.Timeout == logical.ProcessingTimeTimeout
	}
	if cs, ok := sink.(sinks.ColumnSink); ok && e.vectorize && q.Stateful == nil && q.Mode == logical.Append {
		e.colSink = cs
	}
	if opts.AdaptiveBackpressure {
		e.limiter = newAIMDLimiter(opts.BackpressureTarget, opts.MaxRecordsPerTrigger, e.reg)
	}
	if opts.Workers > 1 {
		// The pool must exist before recovery: a replayed epoch runs the
		// same sharded path (and re-seals the same segments) as the run
		// that crashed.
		e.pool = shard.NewPool(opts.Workers)
	}
	if err := e.recover(); err != nil {
		e.closePool()
		return nil, err
	}
	return e, nil
}

// closePool stops the sharded runtime's workers, if any.
func (e *exec) closePool() {
	if e.pool != nil {
		e.pool.Close()
	}
}

// runStage dispatches one stage of tasks: to the shard pool's real worker
// goroutines when Options.Workers > 1, else to the in-process simulated
// cluster. Both return results ordered by Task.Index and settle every
// task before reporting the lowest-indexed failure.
func (e *exec) runStage(tasks []cluster.Task) ([]any, error) {
	if e.pool == nil {
		return e.clus.RunStage(tasks)
	}
	st := make([]shard.Task, len(tasks))
	for i, t := range tasks {
		st[i] = shard.Task{Index: t.Index, Fn: t.Fn}
	}
	return e.pool.Run(st)
}

// recover implements the §6.1 restart protocol.
func (e *exec) recover() error {
	rp, err := e.wal.Recover()
	if err != nil {
		return err
	}
	// Corrupt uncommitted tail entries (torn by a crash) were dropped and
	// will be re-planned; surface that the durability layer caught them.
	e.reg.Counter("corruptionsDetected").Add(int64(len(rp.DroppedCorrupt)))
	e.nextEpoch = rp.NextEpoch
	e.watermark = rp.Watermark
	// Seed the commit hook with the recovered prefix so LastCommittedEpoch
	// is meaningful before this instance commits anything new.
	e.hook.last.Store(rp.NextEpoch - 1)

	// Determine committed start offsets.
	if latest, ok, err := e.wal.LatestOffsets(); err != nil {
		return err
	} else if ok {
		for _, s := range latest.Sources {
			e.committed[s.Source] = append(sources.Offsets(nil), s.End...)
		}
	}
	// Last durable state version at or below the epoch before the next.
	v, err := e.stateVersionAtOrBelow(rp.NextEpoch - 1)
	if err != nil {
		return err
	}
	e.lastStateVersion = v
	e.committedState.Store(v)
	if rp.Replay != nil {
		// Re-run the possibly-partial epoch with identical offsets; the
		// sink's idempotence absorbs the duplicate delivery.
		prevVersion, err := e.stateVersionAtOrBelow(rp.Replay.Epoch - 1)
		if err != nil {
			return err
		}
		e.lastStateVersion = prevVersion
		ranges := map[string][2]sources.Offsets{}
		for _, s := range rp.Replay.Sources {
			ranges[s.Source] = [2]sources.Offsets{s.Start, s.End}
		}
		// Replay reads the WAL's offset ranges before any planning pass has
		// run, but pull-based sources (FileSource in particular) only
		// discover their backing data during Latest(). Without this initial
		// scan a replayed range like [2,3) fails with "out of bounds (have 0
		// files)" even though the files are all still there.
		seen := map[string]bool{}
		for _, bp := range e.pipes {
			if name := bp.src.Name(); !seen[name] {
				seen[name] = true
				if _, err := bp.src.Latest(); err != nil {
					return fmt.Errorf("engine: recovery scan of source %q: %w", name, err)
				}
			}
		}
		e.watermark = rp.Replay.Watermark
		if err := e.runEpochGuarded(rp.Replay.Epoch, ranges, true, time.Now(), 0); err != nil {
			return fmt.Errorf("engine: recovery replay of epoch %d: %w", rp.Replay.Epoch, err)
		}
	}
	return nil
}

// stateVersionAtOrBelow finds the newest committed state version ≤ v for
// the query's stateful operator, or -1.
func (e *exec) stateVersionAtOrBelow(v int64) (int64, error) {
	if e.q.Stateful == nil {
		return v, nil
	}
	best := int64(-1)
	for p := 0; p < e.opts.NumPartitions; p++ {
		vs, err := e.prov.Versions(state.ID{Operator: e.q.Stateful.Name(), Partition: p})
		if err != nil {
			return -1, err
		}
		for _, x := range vs {
			if x <= v && x > best {
				best = x
			}
		}
	}
	return best, nil
}

// admissionCap returns the per-epoch record cap currently in force: the
// static MaxRecordsPerTrigger, tightened by the adaptive limiter when it
// has engaged. 0 means unlimited.
func (e *exec) admissionCap() int64 {
	cap := e.opts.MaxRecordsPerTrigger
	if e.limiter != nil {
		if a := e.limiter.Cap(); a > 0 && (cap == 0 || a < cap) {
			cap = a
		}
	}
	return cap
}

// planEpoch decides the next epoch's offset ranges; ok is false when no
// epoch should run. It also records how many records the sources hold
// beyond the planned intake (the backlog admission control deferred).
func (e *exec) planEpoch() (map[string][2]sources.Offsets, bool, error) {
	ranges := map[string][2]sources.Offsets{}
	hasData := false
	seen := map[string]bool{}
	var backlog int64
	for _, bp := range e.pipes {
		name := bp.src.Name()
		if seen[name] {
			continue
		}
		seen[name] = true
		latest, err := bp.src.Latest()
		if err != nil {
			return nil, false, err
		}
		start, ok := e.committed[name]
		if !ok {
			start, err = bp.src.Earliest()
			if err != nil {
				return nil, false, err
			}
			e.committed[name] = start
		}
		e.lastLatest[name] = latest.Clone()
		end := latest.Clone()
		if cap := e.admissionCap(); cap > 0 {
			perPart := cap / int64(len(end))
			if perPart == 0 {
				perPart = 1
			}
			for i := range end {
				if end[i]-start[i] > perPart {
					end[i] = start[i] + perPart
				}
			}
		}
		for i := range end {
			if end[i] > start[i] {
				hasData = true
			}
			if end[i] < start[i] {
				end[i] = start[i] // source truncation should not regress
			}
			if i < len(latest) && latest[i] > end[i] {
				backlog += latest[i] - end[i]
			}
		}
		ranges[name] = [2]sources.Offsets{start.Clone(), end}
	}
	e.lastBacklog = backlog
	if !hasData && !e.needFlush && !e.alwaysRun {
		return nil, false, nil
	}
	return ranges, true, nil
}

// RunAvailable executes epochs until no more data is available; it returns
// the number of epochs run. This is both the test helper and the body of
// the Once/AvailableNow triggers.
func (e *exec) RunAvailable() (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for {
		planStart := time.Now()
		ranges, ok, err := e.planEpoch()
		if err != nil {
			return n, err
		}
		if !ok {
			return n, nil
		}
		if err := e.runEpochGuarded(e.nextEpoch, ranges, false, planStart, time.Since(planStart)); err != nil {
			return n, err
		}
		n++
		if e.alwaysRun {
			// Processing-time-timeout queries would loop forever here; one
			// pass per call.
			ranges, more, err := e.planEpoch()
			_ = ranges
			if err != nil || !more {
				return n, err
			}
		}
	}
}

// runOnce executes at most one epoch (Trigger.Once).
func (e *exec) runOnce() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	planStart := time.Now()
	ranges, ok, err := e.planEpoch()
	if err != nil || !ok {
		return err
	}
	return e.runEpochGuarded(e.nextEpoch, ranges, false, planStart, time.Since(planStart))
}

// runEpochGuarded runs one epoch under the epoch watchdog: if the epoch
// does not finish within Options.EpochTimeout the query fails with
// ErrEpochTimeout and the exec is poisoned so the hung goroutine — which
// cannot be forcibly killed — aborts at its next stage boundary instead of
// committing after a replacement query has taken over. Caller holds e.mu.
func (e *exec) runEpochGuarded(epoch int64, ranges map[string][2]sources.Offsets, replay bool, planStart time.Time, planDur time.Duration) error {
	if e.opts.EpochTimeout <= 0 {
		return e.runEpoch(epoch, ranges, replay, planStart, planDur)
	}
	done := make(chan error, 1)
	go func() { done <- e.runEpoch(epoch, ranges, replay, planStart, planDur) }()
	timer := time.NewTimer(e.opts.EpochTimeout)
	defer timer.Stop()
	select {
	case err := <-done:
		return err
	case <-timer.C:
		e.abandoned.Store(true)
		// The in-flight trace names the stage the epoch is stuck in — the
		// watchdog's verdict is explainable instead of a bare timeout. The
		// partial trace is sealed and retained for post-mortems.
		stage := ""
		if et := e.tracer.InFlight(); et != nil {
			stage = et.OpenStage()
			et.SetAttr("abandonedByWatchdog", 1)
			et.Finish()
		}
		if stage != "" {
			return fmt.Errorf("engine: epoch %d hung for %v in stage %q: %w", epoch, e.opts.EpochTimeout, stage, ErrEpochTimeout)
		}
		return fmt.Errorf("engine: epoch %d hung for %v: %w", epoch, e.opts.EpochTimeout, ErrEpochTimeout)
	}
}

// checkAbandoned aborts a watchdog-abandoned epoch before it can commit
// anything a replacement query might be re-running.
func (e *exec) checkAbandoned(epoch int64, stage string) error {
	if e.abandoned.Load() {
		return fmt.Errorf("engine: epoch %d abandoned by watchdog before %s: %w", epoch, stage, ErrEpochTimeout)
	}
	return nil
}

// withRetry runs fn, retrying transient I/O errors (EIO, ENOSPC, injected
// fsx.ErrTransient) up to MaxIORetries times with exponential backoff plus
// jitter. Non-transient errors — crashes, corruption, logic errors — fail
// immediately: retrying those would mask real damage.
func (e *exec) withRetry(fn func() error) error {
	var err error
	for attempt := 0; ; attempt++ {
		err = fn()
		if err == nil || !fsx.IsTransient(err) || attempt >= e.opts.MaxIORetries {
			return err
		}
		e.reg.Counter("ioRetries").Add(1)
		backoff := e.opts.RetryBackoff << attempt
		backoff += time.Duration(rand.Int63n(int64(backoff)/2 + 1))
		time.Sleep(backoff)
	}
}

// minRecordsPerShard floors the sharded runtime's map-slice size: a tiny
// epoch is not worth fanning across workers — per-task overhead would
// dominate — so small ranges produce fewer shards than workers.
const minRecordsPerShard = 256

// mapResult is one map task's output.
type mapResult struct {
	side    int
	buckets [][]sql.Row // by reduce partition; nil for map-only queries
	direct  []sql.Row   // map-only output
	vecOut  *vec.Batch  // map-only output kept columnar for a ColumnSink
	maxTs   int64
	// Event-time telemetry over the raw input rows (−1 / 0 when the
	// pipeline has no watermark column): minTs pairs with maxTs, and
	// sumTs/cntTs feed the epoch's event-time average. The sum is float64
	// because µs timestamps summed over millions of rows overflow int64.
	minTs     int64
	sumTs     float64
	cntTs     int64
	rows      int64
	vecRows   int64 // rows that ran the columnar path (≤ rows)
	taskNanos int64 // the task's wall time, for per-partition accounting
}

// runVecMapTask is the columnar twin of the map-task body: watermark
// tracking scans the raw batch's event-time vector, and the pipeline's
// vector plan runs kernels until rows materialize at the shuffle (or
// direct-output) boundary.
func (e *exec) runVecMapTask(bp boundPipeline, batch *vec.Batch, nPart int) *mapResult {
	res := &mapResult{side: bp.pipe.Side, maxTs: -1, minTs: -1, rows: int64(batch.Len), vecRows: int64(batch.Len)}
	if bp.pipe.WatermarkEval != nil {
		col := batch.Cols[bp.pipe.WatermarkIdx]
		res.maxTs = vec.MaxInt64(col, batch.Len, -1)
		if res.maxTs >= 0 {
			res.minTs = vec.MinInt64(col, batch.Len, res.maxTs)
			res.sumTs, res.cntTs = vec.SumInt64(col, batch.Len)
		}
	}
	if bp.pipe.KeyEvals == nil {
		if e.colSink != nil && bp.pipe.FullyVectorized() {
			// The whole pipeline ran as kernels and the sink takes column
			// batches: skip row materialization entirely.
			res.vecOut = bp.pipe.ApplyVec(batch)
			return res
		}
		bp.pipe.ProcessBatchTo(batch, func(row sql.Row) { res.direct = append(res.direct, row) })
		return res
	}
	if bp.pipe.KeyIdxs != nil && bp.pipe.FullyVectorized() {
		// Columnar exchange: the batch stays columnar through the whole
		// pipeline, so route it by hashing the key column vectors lane by
		// lane — same hash, same materialization order as the per-row
		// path below, without boxing a key per row first.
		res.buckets = shard.Scatter(bp.pipe.ApplyVec(batch), bp.pipe.KeyIdxs, nPart)
		return res
	}
	if bp.pipe.Vec.Agg != nil && bp.pipe.KeyIdxs != nil {
		// Columnar partial aggregation: the whole map side — kernels,
		// grouping, aggregate folding, shuffle routing — runs without boxing
		// a row. Groups render straight into buckets, routed by hashing
		// each group's cached key encoding (identical buckets to the boxed
		// KeyEvals + HashKey path below).
		res.buckets = bp.pipe.ProcessBatchScatter(batch, nPart)
		// The buckets hold rendered rows, which point at record bytes and
		// never into the batch: this is the one branch that may recycle it.
		batch.Release()
		return res
	}
	res.buckets = make([][]sql.Row, nPart)
	key := make([]sql.Value, len(bp.pipe.KeyEvals))
	bp.pipe.ProcessBatchTo(batch, func(row sql.Row) {
		for k, ev := range bp.pipe.KeyEvals {
			key[k] = ev(row)
		}
		b := int(codec.HashKey(key) % uint64(nPart))
		res.buckets[b] = append(res.buckets[b], row)
	})
	return res
}

// runEpoch executes one epoch end to end. Caller holds e.mu.
//
// Every wall-clock section of the epoch is measured into both the span
// tree (for /queries/{name}/trace) and the DurationBreakdown map (for
// QueryProgress). The sections are contiguous, so the six breakdown
// segments — planning, getBatch, execution, stateCommit, walCommit,
// sinkCommit — sum to ≈ ProcessingMicros. Fused stages are split
// proportionally: the map stage's wall time divides into getBatch vs
// execution by the ratio of summed source-read time to summed pipeline
// time across its tasks, and the reduce stage's wall time divides into
// stateCommit vs execution by state-store time vs operator time.
func (e *exec) runEpoch(epoch int64, ranges map[string][2]sources.Offsets, replay bool, planStart time.Time, planDur time.Duration) error {
	start := time.Now()
	nPart := e.opts.NumPartitions

	// The trace's root span is backdated to planning so it covers the
	// epoch's whole extent; a partial tree from a failed or abandoned epoch
	// is still retained for post-mortems (Finish is idempotent — the
	// watchdog may have sealed it already).
	et := e.tracer.StartEpochAt(epoch, "microbatch", planStart)
	defer et.Finish()
	if replay {
		et.SetAttr("replay", 1)
	}
	et.AddStage("planning", planStart, planDur)
	e.health.StampAdmit(epoch, planStart)
	bd := map[string]int64{
		"planning": planDur.Microseconds(), "getBatch": 0, "execution": 0,
		"stateCommit": 0, "walCommit": 0, "sinkCommit": 0,
	}
	srcStatsBefore := map[string]sources.SourceStats{}
	for name, is := range e.isrcs {
		srcStatsBefore[name] = is.Stats()
	}

	// Log the epoch definition before any work (§6.1 step 1).
	if err := e.checkAbandoned(epoch, "offsets write"); err != nil {
		return err
	}
	spWAL := et.StartSpan("walCommit")
	walStart := time.Now()
	entry := wal.Entry{Epoch: epoch, Watermark: e.watermark}
	for name, r := range ranges {
		entry.Sources = append(entry.Sources, wal.SourceOffsets{Source: name, Start: r[0], End: r[1]})
	}
	if err := e.wal.WriteOffsets(entry); err != nil {
		return err
	}
	et.EndSpan(spWAL)
	bd["walCommit"] += time.Since(walStart).Microseconds()

	// ---- map stage: one task per (pipeline, source partition). Each task
	// records its source-read and pipeline time so the fused stage's wall
	// time can be attributed to getBatch vs execution.
	mapStart := time.Now()
	e.health.StampIngest(epoch, mapStart)
	spFetch := et.StartSpan("getBatch")
	var readNanos, pipeNanos atomic.Int64
	type taskSpec struct {
		pipeIdx  int
		part     int
		from, to int64 // this task's offset slice of the source partition
	}
	var specs []taskSpec
	for i, bp := range e.pipes {
		r := ranges[bp.src.Name()]
		for p := 0; p < bp.src.Partitions(); p++ {
			if p >= len(r[0]) || r[1][p] <= r[0][p] {
				continue
			}
			if e.pool == nil {
				specs = append(specs, taskSpec{pipeIdx: i, part: p, from: r[0][p], to: r[1][p]})
				continue
			}
			// Sharded runtime: split the partition's offset range into
			// contiguous near-equal slices, one task each, so every worker
			// gets map work even from a single hot partition. The split is
			// a pure function of (range, workers), so a replayed epoch
			// re-plans the identical shards, and concatenating shard
			// outputs in task order reproduces the single-task row order.
			for _, sr := range shard.Split(r[0][p], r[1][p], e.pool.Workers(), minRecordsPerShard) {
				specs = append(specs, taskSpec{pipeIdx: i, part: p, from: sr[0], to: sr[1]})
			}
		}
	}
	tasks := make([]cluster.Task, len(specs))
	for ti, spec := range specs {
		spec := spec
		bp := e.pipes[spec.pipeIdx]
		wantVec := e.vectorize && bp.pipe.Vec != nil
		tasks[ti] = cluster.Task{Index: ti, Fn: func() (any, error) {
			taskStart := time.Now()
			finish := func(res *mapResult) (any, error) {
				res.taskNanos = time.Since(taskStart).Nanoseconds()
				return res, nil
			}
			var raw []sql.Row
			var batch *vec.Batch
			readStart := time.Now()
			if err := e.withRetry(func() error {
				raw, batch = nil, nil
				if wantVec {
					// Columnar fast path: codec-framed sources decode the
					// range straight into typed vectors; ok=false (type
					// drift, or no columnar decode) re-reads boxed below.
					if vr, isVec := bp.src.(sources.VectorReader); isVec {
						b, ok, rerr := vr.ReadVec(spec.part, spec.from, spec.to)
						if rerr != nil {
							return rerr
						}
						if ok {
							batch = b
							return nil
						}
					}
				}
				var rerr error
				raw, rerr = bp.src.Read(spec.part, spec.from, spec.to)
				return rerr
			}); err != nil {
				return nil, err
			}
			readNanos.Add(time.Since(readStart).Nanoseconds())
			pipeStart := time.Now()
			defer func() { pipeNanos.Add(time.Since(pipeStart).Nanoseconds()) }()
			if batch == nil && wantVec {
				// The source served rows; vectorize them here unless their
				// dynamic types drifted from the schema.
				if b, ok := vec.FromRows(bp.src.Schema(), raw); ok {
					batch = b
				}
			}
			if batch != nil {
				// The watermark column must be a typed int64 vector for the
				// columnar max scan; anything else takes the row path.
				if bp.pipe.WatermarkEval == nil ||
					(bp.pipe.WatermarkIdx >= 0 && batch.Cols[bp.pipe.WatermarkIdx].Kind == vec.KindInt64) {
					return finish(e.runVecMapTask(bp, batch, nPart))
				}
				if raw == nil {
					var err error
					if err = e.withRetry(func() error {
						var rerr error
						raw, rerr = bp.src.Read(spec.part, spec.from, spec.to)
						return rerr
					}); err != nil {
						return nil, err
					}
				}
			}
			res := &mapResult{side: bp.pipe.Side, maxTs: -1, minTs: -1, rows: int64(len(raw))}
			if bp.pipe.WatermarkEval != nil {
				for _, row := range raw {
					ts, ok := bp.pipe.WatermarkEval(row).(int64)
					if !ok {
						continue
					}
					if ts > res.maxTs {
						res.maxTs = ts
					}
					if res.minTs < 0 || ts < res.minTs {
						res.minTs = ts
					}
					res.sumTs += float64(ts)
					res.cntTs++
				}
			}
			if bp.pipe.KeyEvals == nil {
				res.direct = bp.pipe.Process(raw)
				return finish(res)
			}
			// Push rows straight into shuffle buckets: no intermediate
			// materialization between the fused pipeline and the shuffle.
			res.buckets = make([][]sql.Row, nPart)
			key := make([]sql.Value, len(bp.pipe.KeyEvals))
			bp.pipe.ProcessTo(raw, func(row sql.Row) {
				for k, ev := range bp.pipe.KeyEvals {
					key[k] = ev(row)
				}
				b := int(codec.HashKey(key) % uint64(nPart))
				res.buckets[b] = append(res.buckets[b], row)
			})
			return finish(res)
		}}
	}
	results, err := e.runStage(tasks)
	if err != nil {
		return err
	}
	if err := e.checkAbandoned(epoch, "reduce stage"); err != nil {
		return err
	}

	var inputRows, vecRows int64
	var stageRows []sql.Row
	var vecOuts []*vec.Batch
	// colOut: every task's map-only output stayed columnar, so the epoch
	// delivers column batches to the sink. One task falling back to the
	// row path (type drift, non-int64 watermark column) demotes the whole
	// epoch — outputs materialize in task order so row ordering matches
	// the pure row path exactly.
	colOut := e.colSink != nil
	for _, r := range results {
		if res := r.(*mapResult); res.vecOut == nil && len(res.direct) > 0 {
			colOut = false
		}
	}
	perSrcRows := map[string]int64{}
	// inputsByPart[p][side] collects shuffle rows.
	inputsByPart := make([][][]sql.Row, nPart)
	for p := range inputsByPart {
		inputsByPart[p] = make([][]sql.Row, 2)
	}
	pipeMaxSeen := make([]int64, len(e.pipes))
	for i := range pipeMaxSeen {
		pipeMaxSeen[i] = -1
	}
	// Event-time extremes/average over the epoch's raw input, plus each
	// source's newest event time, for the eventTime progress section.
	evtMin, evtMax := int64(-1), int64(-1)
	var evtSum float64
	var evtCnt int64
	perSrcMaxTs := map[string]int64{}
	for ti, r := range results {
		res := r.(*mapResult)
		inputRows += res.rows
		vecRows += res.vecRows
		srcName := e.pipes[specs[ti].pipeIdx].src.Name()
		perSrcRows[srcName] += res.rows
		if res.maxTs > pipeMaxSeen[specs[ti].pipeIdx] {
			pipeMaxSeen[specs[ti].pipeIdx] = res.maxTs
		}
		if res.maxTs >= 0 {
			if res.maxTs > evtMax {
				evtMax = res.maxTs
			}
			if m, ok := perSrcMaxTs[srcName]; !ok || res.maxTs > m {
				perSrcMaxTs[srcName] = res.maxTs
			}
		}
		if res.minTs >= 0 && (evtMin < 0 || res.minTs < evtMin) {
			evtMin = res.minTs
		}
		evtSum += res.sumTs
		evtCnt += res.cntTs
		e.health.ObservePartition("map", specs[ti].part, res.rows, time.Duration(res.taskNanos))
		if res.vecOut != nil {
			if colOut {
				if res.vecOut.NumLive() > 0 {
					vecOuts = append(vecOuts, res.vecOut)
				}
			} else {
				stageRows = res.vecOut.AppendRows(stageRows)
			}
			continue
		}
		if res.buckets == nil {
			stageRows = append(stageRows, res.direct...)
			continue
		}
		for p, b := range res.buckets {
			if len(b) > 0 {
				inputsByPart[p][res.side] = append(inputsByPart[p][res.side], b...)
			}
		}
	}
	for i, m := range pipeMaxSeen {
		if m > e.perPipeMax[i] {
			e.perPipeMax[i] = m
		}
	}
	mapWall := time.Since(mapStart)
	fetchDur := mapWall
	if rn, pn := readNanos.Load(), pipeNanos.Load(); rn+pn > 0 {
		fetchDur = time.Duration(float64(mapWall) * float64(rn) / float64(rn+pn))
	}
	et.EndSpanWith(spFetch, fetchDur)
	spFetch.SetAttr("rows", inputRows)
	spFetch.SetAttr("tasks", int64(len(tasks)))
	if vecRows > 0 {
		spFetch.SetAttr("vectorizedRows", vecRows)
	}
	et.AddStage("execution", mapStart.Add(fetchDur), mapWall-fetchDur)
	bd["getBatch"] += fetchDur.Microseconds()
	bd["execution"] += (mapWall - fetchDur).Microseconds()
	e.health.StampExecute(epoch, mapStart.Add(fetchDur))

	// ---- reduce stage: stateful operator per partition. Wall time splits
	// into stateCommit (store open + commit) vs execution (op.Process).
	redStart := time.Now()
	spState := et.StartSpan("stateCommit")
	var stateRows, stateBytes int64
	if op := e.q.Stateful; op != nil {
		var stateNanos, procNanos atomic.Int64
		ctx := &incremental.EpochContext{
			Epoch:     epoch,
			Watermark: e.watermark,
			ProcTime:  time.Now().UnixMicro(),
			Mode:      e.q.Mode,
			Vectorize: e.vectorize,
		}
		prevVersion := e.lastStateVersion
		reduceTasks := make([]cluster.Task, nPart)
		type reduceResult struct {
			rows  []sql.Row
			keys  int64
			nanos int64
		}
		for p := 0; p < nPart; p++ {
			p := p
			// NoSpeculate: attempts of the same partition share one *Store
			// via the provider cache, and a speculative duplicate's Open
			// would reset the winning attempt's staged state mid-Process.
			reduceTasks[p] = cluster.Task{Index: p, NoSpeculate: true, Fn: func() (any, error) {
				openStart := time.Now()
				store, err := e.prov.Open(state.ID{Operator: op.Name(), Partition: p}, prevVersion)
				stateNanos.Add(time.Since(openStart).Nanoseconds())
				if err != nil {
					return nil, err
				}
				procStart := time.Now()
				out, err := op.Process(ctx, store, inputsByPart[p])
				procNanos.Add(time.Since(procStart).Nanoseconds())
				if err != nil {
					store.Abort()
					return nil, err
				}
				commitStart := time.Now()
				err = store.Commit(epoch)
				stateNanos.Add(time.Since(commitStart).Nanoseconds())
				if err != nil {
					return nil, err
				}
				if e.pool != nil {
					// Sharded barrier, phase one: seal this partition's WAL
					// segment now that its state is durable. The seal is a
					// promise, not a commit — the epoch commits only when
					// the barrier below verifies all seals and writes the
					// single manifest. Segments carry no timestamp, so a
					// replayed epoch re-seals byte-identical files.
					sealStart := time.Now()
					err = e.withRetry(func() error {
						return e.wal.WriteSegment(wal.Segment{
							Epoch:        epoch,
							Partition:    p,
							StateVersion: epoch,
							RowsIn:       int64(len(inputsByPart[p][0]) + len(inputsByPart[p][1])),
							RowsOut:      int64(len(out)),
							StateKeys:    int64(store.NumKeys()),
						})
					})
					stateNanos.Add(time.Since(sealStart).Nanoseconds())
					if err != nil {
						return nil, err
					}
				}
				return &reduceResult{rows: out, keys: int64(store.NumKeys()), nanos: time.Since(openStart).Nanoseconds()}, nil
			}}
		}
		reduceResults, err := e.runStage(reduceTasks)
		if err != nil {
			return err
		}
		for p, r := range reduceResults {
			rr := r.(*reduceResult)
			stageRows = append(stageRows, rr.rows...)
			stateRows += rr.keys
			e.health.ObservePartition("reduce", p, rr.keys, time.Duration(rr.nanos))
		}
		e.lastStateVersion = epoch
		if du, err := e.prov.DiskUsage(); err == nil {
			stateBytes = du
		}
		redWall := time.Since(redStart)
		stateDur := redWall
		if sn, pn := stateNanos.Load(), procNanos.Load(); sn+pn > 0 {
			stateDur = time.Duration(float64(redWall) * float64(sn) / float64(sn+pn))
		}
		et.EndSpanWith(spState, stateDur)
		spState.SetAttr("stateRows", stateRows)
		if ps := e.prov.Stats(); ps.Backend == state.BackendLSM {
			spState.SetAttr("ssTables", ps.SSTables)
			spState.SetAttr("compactionBytes", ps.CompactionBytes)
			spState.SetAttr("flushBacklog", ps.FlushBacklog)
			spState.SetAttr("maintenanceStallUs", ps.MaintenanceStallUs)
		}
		et.AddStage("execution", redStart.Add(stateDur), redWall-stateDur)
		bd["stateCommit"] += stateDur.Microseconds()
		bd["execution"] += (redWall - stateDur).Microseconds()
	} else {
		// Stateless epochs still carry the span so every committed epoch
		// has the complete six-stage tree.
		et.EndSpanWith(spState, 0)
	}

	// ---- post stage + sink commit. Columnar epochs skip Post: colOut
	// requires a map-only query, whose compiled Post is the identity.
	spPost := et.StartSpan("execution")
	postStart := time.Now()
	var outRows []sql.Row
	var outCount int64
	if colOut {
		for _, vb := range vecOuts {
			outCount += int64(vb.NumLive())
		}
	} else {
		outRows, err = e.q.Post(stageRows)
		if err != nil {
			return err
		}
		outCount = int64(len(outRows))
	}
	et.EndSpan(spPost)
	bd["execution"] += time.Since(postStart).Microseconds()
	if err := e.checkAbandoned(epoch, "sink write"); err != nil {
		return err
	}
	spSink := et.StartSpan("sinkCommit")
	sinkStart := time.Now()
	if err := e.withRetry(func() error {
		b := sinks.Batch{
			Epoch:    epoch,
			Mode:     e.q.Mode,
			Schema:   e.q.OutSchema,
			KeyArity: e.q.KeyArity,
		}
		if colOut {
			b.Vecs = vecOuts
			return e.colSink.AddColumnBatch(b)
		}
		b.Rows = outRows
		return e.sink.AddBatch(b)
	}); err != nil {
		return err
	}
	sinkWall := time.Since(sinkStart)
	et.EndSpan(spSink)
	spSink.SetAttr("rows", outCount)
	bd["sinkCommit"] += sinkWall.Microseconds()
	if err := e.checkAbandoned(epoch, "commit"); err != nil {
		return err
	}
	spCommit := et.StartSpan("walCommit")
	commitStart := time.Now()
	if e.pool != nil && e.q.Stateful != nil {
		// Sharded barrier, phase two: verify every partition's seal, then
		// write the one commit manifest referencing their digests. Crash
		// anywhere before this write and recovery replays the epoch,
		// discarding the orphaned seals.
		if err := e.wal.CommitBarrier(epoch, nPart); err != nil {
			return err
		}
	} else if err := e.wal.WriteCommit(epoch); err != nil {
		return err
	}
	et.EndSpan(spCommit)
	bd["walCommit"] += time.Since(commitStart).Microseconds()
	et.SetAttr("committed", 1)
	e.health.StampCommit(epoch, time.Now())
	e.committedState.Store(e.lastStateVersion)
	e.hook.notify(epoch)

	// Advance bookkeeping for the next epoch.
	for name, r := range ranges {
		e.committed[name] = r[1].Clone()
	}
	if epoch >= e.nextEpoch {
		e.nextEpoch = epoch + 1
	}
	oldWM := e.watermark
	e.advanceWatermark()
	e.needFlush = e.q.Stateful != nil && (e.watermark > oldWM)

	// Periodic checkpoint garbage collection: retain the last RetainEpochs
	// epochs for manual rollback, purge everything older. Purge time is
	// checkpoint-file management, so it lands in the walCommit segment.
	if keep := e.opts.RetainEpochs; keep > 0 && epoch > keep && epoch%keep == 0 {
		gcStart := time.Now()
		horizon := epoch - keep
		if err := e.wal.Purge(horizon); err != nil {
			return err
		}
		if e.q.Stateful != nil {
			if err := e.prov.Maintenance(horizon); err != nil {
				return err
			}
		}
		gcDur := time.Since(gcStart)
		et.AddStage("walCommit", gcStart, gcDur).SetAttr("gc", 1)
		bd["walCommit"] += gcDur.Microseconds()
	}

	total := planDur + time.Since(start)
	et.SetAttr("inputRows", inputRows)
	et.SetAttr("outputRows", outCount)
	if vecRows > 0 {
		et.SetAttr("vectorizedRows", vecRows)
	}

	// Watermark-lag telemetry: how far the event-time frontier trails
	// processing time. −1 (and an absent eventTime section) means the query
	// has no watermarked pipeline or the watermark has not advanced yet.
	procUs := time.Now().UnixMicro()
	hasWM := false
	for _, bp := range e.pipes {
		if bp.pipe.WatermarkEval != nil {
			hasWM = true
			break
		}
	}
	wmLag := int64(-1)
	if hasWM && e.watermark > 0 {
		wmLag = procUs - e.watermark
	}
	if wmLag >= 0 {
		e.reg.Histogram("watermarkLag.us").Observe(wmLag)
		et.SetAttr("watermarkLagUs", wmLag)
	}
	if evtMin >= 0 {
		et.SetAttr("eventTimeMinUs", evtMin)
	}
	if evtMax >= 0 {
		et.SetAttr("eventTimeMaxUs", evtMax)
	}
	var evtProgress *metrics.EventTimeProgress
	if hasWM {
		evtProgress = &metrics.EventTimeProgress{WatermarkMicros: e.watermark}
		if wmLag >= 0 {
			evtProgress.WatermarkLagUs = wmLag
		}
		if evtMax >= 0 {
			evtProgress.MinMicros = evtMin
			evtProgress.MaxMicros = evtMax
			if evtCnt > 0 {
				evtProgress.AvgMicros = int64(evtSum / float64(evtCnt))
			}
		}
	}
	// Each source's own watermark candidate (max event time − delay, min
	// across its watermarked pipelines) yields a per-source lag, so a
	// single slow source is attributable in the progress event.
	srcWM := map[string]int64{}
	for i, bp := range e.pipes {
		if bp.pipe.WatermarkEval == nil || e.perPipeMax[i] < 0 {
			continue
		}
		wm := e.perPipeMax[i] - bp.pipe.WatermarkDelay
		if cur, ok := srcWM[bp.src.Name()]; !ok || wm < cur {
			srcWM[bp.src.Name()] = wm
		}
	}

	// Per-stage latency histograms: the source of p50/p95/p99 in /metrics
	// and the evidence backing AIMD backpressure decisions.
	e.reg.Histogram("epoch.us").Observe(total.Microseconds())
	for k, v := range bd {
		e.reg.Histogram("stage." + k + ".us").Observe(v)
	}

	backpressureDecision := ""
	if e.limiter != nil {
		e.limiter.Observe(total, inputRows, bd)
		if e.q.Stateful != nil {
			// A growing flush backlog is latency debt the epoch timer has
			// not seen yet: shed intake before the hard synchronous
			// fallback (or the watchdog) is reached.
			if ps := e.prov.Stats(); ps.Backend == state.BackendLSM {
				e.limiter.ObserveBacklog(ps.FlushBacklog, int64(e.opts.NumPartitions), inputRows)
			}
		}
		backpressureDecision = e.limiter.Decision()
		e.reg.Gauge("admissionCapRecords").Set(e.admissionCap())
	}
	e.reg.Counter("inputRows").Add(inputRows)
	e.reg.Counter("vectorizedRows").Add(vecRows)
	e.reg.Counter("outputRows").Add(outCount)
	e.reg.Counter("epochs").Add(1)
	e.reg.Gauge("watermarkMicros").Set(e.watermark)
	e.reg.Gauge("stateRows").Set(stateRows)
	e.reg.Gauge("backlogRecords").Set(e.lastBacklog)
	ws := e.wal.Stats()
	e.reg.Gauge("walOffsetsWritten").Set(ws.OffsetsWritten)
	e.reg.Gauge("walCommitsWritten").Set(ws.CommitsWritten)
	e.reg.Gauge("walBytesWritten").Set(ws.BytesWritten)
	e.reg.Gauge("walWriteMicros").Set(ws.WriteNanos / 1e3)
	cs := e.clus.DetailedStats()
	e.reg.Gauge("clusterTasksRun").Set(cs.TasksRun)
	e.reg.Gauge("clusterStagesRun").Set(cs.StagesRun)
	e.reg.Gauge("clusterTaskMicros").Set(cs.TaskTime.Microseconds())
	if e.pool != nil {
		ss := e.pool.Stats()
		e.reg.Gauge("workers").Set(int64(ss.Workers))
		e.reg.Gauge("shardTasksRun").Set(ss.TasksRun)
		e.reg.Gauge("shardStagesRun").Set(ss.StagesRun)
		e.reg.Gauge("shardBusyMicros").Set(ss.BusyNanos / 1e3)
		e.reg.Gauge("walSegmentsWritten").Set(ws.SegmentsWritten)
		et.SetAttr("workers", int64(ss.Workers))
	}

	// Per-source, per-sink, and per-state-operator progress sections.
	endTotals := map[string]int64{}
	srcNames := make([]string, 0, len(ranges))
	for name, r := range ranges {
		endTotals[name] = r[1].Total()
		srcNames = append(srcNames, name)
	}
	sort.Strings(srcNames)
	var srcProgress []metrics.SourceProgress
	for _, name := range srcNames {
		r := ranges[name]
		sp := metrics.SourceProgress{
			Name:            name,
			StartOffsets:    append([]int64(nil), r[0]...),
			EndOffsets:      append([]int64(nil), r[1]...),
			NumInputRows:    perSrcRows[name],
			InputRowsPerSec: metrics.RatePerSec(perSrcRows[name], total),
		}
		if latest, ok := e.lastLatest[name]; ok {
			sp.LatestOffsets = append([]int64(nil), latest...)
		}
		if is, ok := e.isrcs[name]; ok {
			st := is.Stats()
			sp.ReadMicros = (st.ReadNanos - srcStatsBefore[name].ReadNanos) / 1e3
			sp.ReadErrors = st.Errors
			sp.LastErrorAtMicros = st.LastErrorAtMicros
			sp.LastError = st.LastError
		}
		if m, ok := perSrcMaxTs[name]; ok {
			sp.EventTimeMaxMicros = m
		}
		if wm, ok := srcWM[name]; ok {
			sp.WatermarkLagUs = procUs - wm
		}
		srcProgress = append(srcProgress, sp)
	}
	sinkProgress := &metrics.SinkProgress{
		Description:      sinks.Describe(e.sink),
		NumOutputRows:    outCount,
		OutputRowsPerSec: metrics.RatePerSec(outCount, total),
		WriteMicros:      sinkWall.Microseconds(),
	}
	var stateOps []metrics.StateOperatorProgress
	if op := e.q.Stateful; op != nil {
		ps := e.prov.Stats()
		sop := metrics.StateOperatorProgress{
			Operator:         op.Name(),
			NumRowsTotal:     stateRows,
			StateBytes:       stateBytes,
			CacheHits:        ps.CacheHits,
			CacheMisses:      ps.CacheMisses,
			SnapshotsWritten: ps.SnapshotsWritten,
			DeltasWritten:    ps.DeltasWritten,
		}
		if wmLag >= 0 {
			sop.WatermarkLagUs = wmLag
		}
		if ps.Backend == state.BackendLSM {
			sop.Backend = string(ps.Backend)
			sop.MemtableBytes = ps.MemtableBytes
			sop.SSTables = ps.SSTables
			sop.SSTableBytes = ps.SSTableBytes
			sop.Flushes = ps.Flushes
			sop.Compactions = ps.Compactions
			sop.CompactionBytes = ps.CompactionBytes
			sop.BlockCacheHits = ps.BlockCacheHits
			sop.BlockCacheMisses = ps.BlockCacheMisses
			if lookups := ps.BlockCacheHits + ps.BlockCacheMisses; lookups > 0 {
				sop.BlockCacheHitRate = float64(ps.BlockCacheHits) / float64(lookups)
			}
			sop.FlushBacklog = ps.FlushBacklog
			sop.MaintenanceStallUs = ps.MaintenanceStallUs
			e.reg.Gauge("stateFlushBacklog").Set(ps.FlushBacklog)
			e.reg.Gauge("stateMaintenanceStallUs").Set(ps.MaintenanceStallUs)
			e.reg.Gauge("stateMemtableBytes").Set(ps.MemtableBytes)
			e.reg.Gauge("stateSSTables").Set(ps.SSTables)
			e.reg.Gauge("stateSSTableBytes").Set(ps.SSTableBytes)
			e.reg.Gauge("stateFlushes").Set(ps.Flushes)
			e.reg.Gauge("stateCompactions").Set(ps.Compactions)
			e.reg.Gauge("stateCompactionBytes").Set(ps.CompactionBytes)
			e.reg.Gauge("stateBlockCacheHits").Set(ps.BlockCacheHits)
			e.reg.Gauge("stateBlockCacheMisses").Set(ps.BlockCacheMisses)
			e.reg.Gauge("stateBlockCacheBytes").Set(ps.BlockCacheBytes)
		}
		stateOps = append(stateOps, sop)
	}

	e.log.Emit(metrics.QueryProgress{
		QueryName:            e.opts.Name,
		Epoch:                epoch,
		NumInputRows:         inputRows,
		NumOutputRows:        outCount,
		Vectorized:           e.vectorize,
		VectorizedRows:       vecRows,
		Workers:              e.opts.Workers,
		ProcessingMillis:     total.Milliseconds(),
		ProcessingMicros:     total.Microseconds(),
		WatermarkMicros:      e.watermark,
		StateRows:            stateRows,
		StateBytes:           stateBytes,
		InputRowsPerSec:      metrics.RatePerSec(inputRows, total),
		OutputRowsPerSec:     metrics.RatePerSec(outCount, total),
		DurationBreakdown:    bd,
		BottleneckStage:      metrics.BottleneckStage(bd),
		BackpressureDecision: backpressureDecision,
		Sources:              srcProgress,
		Sink:                 sinkProgress,
		EventTime:            evtProgress,
		StateOperators:       stateOps,
		SourceOffsets:        endTotals,
		IORetries:            e.reg.Counter("ioRetries").Value(),
		CorruptionsDetected:  e.reg.Counter("corruptionsDetected").Value(),
		AdmissionCapRecords:  e.admissionCap(),
		BacklogRecords:       e.lastBacklog,
		Restarts:             e.reg.Counter("restarts").Value(),
		RestartBackoffMillis: e.reg.Gauge("restartBackoffMillis").Value(),
	})
	e.health.ObserveEpoch(health.Sample{
		Epoch:           epoch,
		LatencyUs:       total.Microseconds(),
		InputRowsPerSec: metrics.RatePerSec(inputRows, total),
		BacklogRecords:  e.lastBacklog,
		WatermarkLagUs:  wmLag,
		Restarts:        e.reg.Counter("restarts").Value(),
	})
	return nil
}

// advanceWatermark recomputes the global watermark: the minimum over
// watermarked pipelines of (max event time − delay), never regressing
// (§4.3.1). It takes effect for the NEXT epoch.
func (e *exec) advanceWatermark() {
	candidate := int64(-1)
	for i, bp := range e.pipes {
		if bp.pipe.WatermarkEval == nil {
			continue
		}
		if e.perPipeMax[i] < 0 {
			return // a watermarked source with no data yet holds the line
		}
		wm := e.perPipeMax[i] - bp.pipe.WatermarkDelay
		if candidate < 0 || wm < candidate {
			candidate = wm
		}
	}
	if candidate > e.watermark {
		e.watermark = candidate
	}
}
