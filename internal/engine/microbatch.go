package engine

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
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
	// Workers sizes the microbatch task pool and the map split, and decides
	// nothing else: each source partition's range is cut into at most
	// max(Workers, 1) contiguous offset slices (none under
	// minRecordsPerShard records), one map task each, so several workers
	// feed from one hot partition. Everything after the map stage — the hash
	// exchange, one reduce task and one store commit per state partition,
	// the single commit record — is the same at every value. 0 or 1 runs one
	// task per source partition on a pool of two (defaultPoolSize), so two
	// tasks of a stage do run at once, not one after the other. Output and
	// checkpoint files are byte-identical either way: slices are contiguous
	// and concatenate in task order, and the exchange hashes exactly as the
	// row path does. The failure model is the same at every count: a task
	// runs once, transient I/O is retried inside it (maxIORetries), and any
	// other error fails the epoch for WAL replay. Continuous mode ignores
	// Workers: it always runs one long-lived worker per (pipeline, source
	// partition).
	Workers int
	// MaxRecordsPerTrigger caps records per epoch per source (0 =
	// unlimited). With the default unlimited setting the engine exhibits
	// the paper's adaptive batching: a backlog produces proportionally
	// larger epochs until the query catches up (§7.3).
	MaxRecordsPerTrigger int64
	// Cluster has one meaning: its slot count is the task pool's size when
	// Workers <= 1 (nil: defaultPoolSize). The field is declared only
	// because benchmark/wl_mapbulk.go (frozen) sets it to pin its
	// single-threaded baseline to one task at a time.
	Cluster *cluster.Cluster
	// EventLogWriter receives JSON progress lines (§7.4); may be nil.
	EventLogWriter io.Writer
	// StateBackend is optional and names the one state storage engine, a
	// log-structured merge tree per state partition (memtable,
	// bloom-filtered SSTables, shared block cache, size-tiered compaction):
	// "", "memory" and "lsm" all mean it, and any other name is refused.
	// How much state stays in memory is StateMemtableBytes. The field stays
	// because the frozen benchmark/ workloads set it.
	StateBackend string
	// StateMemtableBytes is each state partition's memtable budget
	// (0 = 4 MiB). State beyond it spills to SSTables.
	StateMemtableBytes int64
	// StateBlockCacheBytes bounds the state store's block cache, shared
	// across all of the query's state partitions (0 = 32 MiB).
	StateBlockCacheBytes int64
	// StateMaintenanceScheduler decides where the state store's flush and
	// compaction run. Nil runs them on a supervised background goroutine per
	// store, and commits wait only on their own delta's durability;
	// lsm.SyncScheduler() runs them inside each state commit. Crash recovery
	// is identical either way (the delta log is the durability point). The
	// crash-sweep torture harness injects a seeded deterministic scheduler
	// so the background-maintenance code path keeps a reproducible
	// mutating-op schedule.
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
	// EpochTimeout fails an epoch (with ErrEpochTimeout) that has not
	// completed within this duration — the watchdog for hung sources,
	// tasks, or sinks. 0 disables. The timeout is worth a restart: the
	// caller starts the query again over its checkpoint.
	EpochTimeout time.Duration
	// HealthDir is ignored; it stays because benchmark/harness.go and
	// benchmark/wl_liveserve.go set it.
	HealthDir string
}

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
	return o
}

// telemetry is the observability every query carries, in both execution
// modes (§7.4): one ring of epoch records — span tree, progress event and
// lineage of each of the newest epochs — and two things that write to it
// or read views off it: the progress event log, which feeds the metric
// registry too, and the health tracker, the ring's lineage view.
type telemetry struct {
	ring   *metrics.EpochRing
	log    *metrics.EventLog
	reg    *metrics.Registry
	health *health.Tracker
}

// startTelemetry wires a started query's telemetry. None of it writes
// under the checkpoint: a checkpoint's bytes must not depend on how fast
// an epoch ran.
func startTelemetry(opts Options) telemetry {
	t := telemetry{ring: metrics.NewEpochRing(), reg: metrics.NewRegistry()}
	t.log = metrics.NewEventLog(opts.EventLogWriter, t.ring, t.reg)
	t.health = health.New(health.Config{Query: opts.Name, Registry: t.reg, Ring: t.ring})
	return t
}

// exec is the microbatch execution of one query.
type exec struct {
	*core

	pipes []boundPipeline
	prov  *state.Provider
	pool  *shard.Pool // runs every stage's tasks

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
	needFlush        bool    // run one empty epoch to apply a watermark advance
	alwaysRun        bool    // processing-time timeouts need epochs regardless
}

type boundPipeline struct {
	pipe *incremental.Pipeline
	src  sources.Source
}

// newExec wires a compiled query to its sources and recovers WAL state.
func newExec(q *incremental.Query, srcs map[string]sources.Source, sink sinks.Sink, opts Options) (*exec, error) {
	c, rp, err := openCore(q, sink, opts)
	if err != nil {
		return nil, err
	}
	switch opts.StateBackend {
	case "", "memory", string(state.BackendLSM):
	default:
		return nil, fmt.Errorf("engine: unknown state backend %q", opts.StateBackend)
	}
	prov := state.NewProviderFS(opts.FS, opts.Checkpoint)
	prov.MemtableBytes = opts.StateMemtableBytes
	prov.BlockCacheBytes = opts.StateBlockCacheBytes
	prov.BackgroundMaintenance = true
	prov.Scheduler = opts.StateMaintenanceScheduler
	e := &exec{
		core: c, prov: prov,
		perPipeMax: make([]int64, len(q.Pipelines)),
	}
	for i := range e.perPipeMax {
		e.perPipeMax[i] = -1
	}
	for _, p := range q.Pipelines {
		src, err := c.bind(p, srcs, true)
		if err != nil {
			return nil, err
		}
		e.pipes = append(e.pipes, boundPipeline{pipe: p, src: src})
	}
	if mg, ok := q.Stateful.(*incremental.FlatMapGroupsWithState); ok {
		e.alwaysRun = mg.Timeout == logical.ProcessingTimeTimeout
	}
	if cs, ok := sink.(sinks.ColumnSink); ok && q.Stateful == nil && q.Mode == logical.Append {
		e.colSink = cs
	}
	// Started last, so no earlier return leaks its workers, and before
	// recovery: a replayed epoch runs the same tasks as the run that crashed.
	e.pool = shard.NewPool(poolSize(opts))
	if err := e.recover(rp); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// defaultPoolSize is the task pool's size when nothing sets one. Two, not
// one: a pool of one loses the overlap of two reduce tasks' state commits
// (measured on agg-spill: p95 120 → 146 ms).
const defaultPoolSize = 2

// poolSize is the one place the task pool is sized.
func poolSize(opts Options) int {
	switch {
	case opts.Workers > 1:
		return opts.Workers
	case opts.Cluster != nil:
		return opts.Cluster.Slots()
	}
	return defaultPoolSize
}

// close releases the state provider's live stores (and, for the lsm
// backend, their block-cache residency) and stops the task pool. Without
// it every restart would leak the previous run's stores and stack idle
// worker goroutines.
func (e *exec) close() {
	e.prov.Close()
	if !e.abandoned.Load() {
		e.pool.Close()
		return
	}
	// The watchdog gave up on a task that cannot be cancelled, and Close
	// waits for busy workers: waiting here would keep the query from ever
	// terminating, and its caller from restarting it from the checkpoint.
	// The idle workers exit now; the wedged one when its task lets go, its
	// epoch poisoned.
	go e.pool.Close()
}

// ErrPartitionCount refuses to resume a stateful checkpoint under a
// NumPartitions other than the one that wrote it. The exchange routes a key
// by hash mod NumPartitions, so under another count most keys would land on
// a store that never held them and their groups would restart from zero.
// The checkpoint records the count as its store directories,
// state/<operator>/0..N-1 — every committed epoch opens all N — and nowhere
// else; a restart is refused unless they are exactly those. The way out is
// the original count, or a fresh checkpoint.
var ErrPartitionCount = errors.New("engine: checkpoint was written under another NumPartitions")

// recover is the second half of the §6.1 restart protocol: restore the
// state version and re-run the logged-but-uncommitted epoch, if any.
func (e *exec) recover(rp wal.RecoveryPoint) error {
	e.nextEpoch = rp.NextEpoch
	e.watermark = rp.Watermark
	committed := rp.NextEpoch - 1 // the last committed epoch, or -1
	if rp.Replay != nil {
		committed = rp.Replay.Epoch - 1
	}
	if committed >= 0 && e.q.Stateful != nil {
		if err := e.checkPartitionCount(); err != nil {
			return err
		}
	}
	// Last durable state version at or below the epoch before the next.
	v, err := e.stateVersionAtOrBelow(rp.NextEpoch - 1)
	if err != nil {
		return err
	}
	e.lastStateVersion = v
	e.committedState.Store(v)
	if rp.Replay == nil {
		return nil
	}
	// Re-run the possibly-partial epoch with identical offsets; the
	// sink's idempotence absorbs the duplicate delivery.
	if e.lastStateVersion, err = e.stateVersionAtOrBelow(rp.Replay.Epoch - 1); err != nil {
		return err
	}
	plan := make([]metrics.SourceProgress, len(rp.Replay.Sources))
	for i, s := range rp.Replay.Sources {
		plan[i] = metrics.SourceProgress{Name: s.Source, StartOffsets: s.Start, EndOffsets: s.End}
	}
	// Replay reads the WAL's offset ranges before any planning pass has
	// run, but pull-based sources (FileSource in particular) only
	// discover their backing data during Latest(). Without this initial
	// scan a replayed range like [2,3) fails with "out of bounds (have 0
	// files)" even though the files are all still there.
	for name, src := range e.srcs {
		if _, err := src.Latest(); err != nil {
			return fmt.Errorf("engine: recovery scan of source %q: %w", name, err)
		}
	}
	e.watermark = rp.Replay.Watermark
	if err := e.runEpochGuarded(rp.Replay.Epoch, plan, true, time.Now()); err != nil {
		return fmt.Errorf("engine: recovery replay of epoch %d: %w", rp.Replay.Epoch, err)
	}
	return nil
}

// checkPartitionCount holds a checkpoint with a committed epoch to
// ErrPartitionCount's rule. Directory names are distinct, so N numeric ones,
// all below N, are exactly 0..N-1.
func (e *exec) checkPartitionCount() error {
	dir := filepath.Join(e.opts.Checkpoint, "state", e.q.Stateful.Name())
	entries, err := e.opts.FS.ReadDir(dir)
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("engine: %w", err)
	}
	n, found, below := e.opts.NumPartitions, 0, 0
	for _, de := range entries {
		if p, err := strconv.ParseUint(de.Name(), 10, 31); err == nil && de.IsDir() {
			found++
			if int(p) < n {
				below++
			}
		}
	}
	if found != n || below != n {
		return fmt.Errorf("%w: %s holds %d partition directories (%d of them below %d), NumPartitions is %d",
			ErrPartitionCount, dir, found, below, n, n)
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

// planEpoch decides the next epoch's offset ranges, one record per source
// in pipeline order; ok is false when no epoch should run. Each record
// keeps the source's head, so publish can report how many records
// admission control deferred.
func (e *exec) planEpoch() ([]metrics.SourceProgress, bool, error) {
	var plan []metrics.SourceProgress
	hasData := false
	seen := map[string]bool{}
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
		start, end := e.committed[name], latest.Clone()
		var perPart int64 // 0 = unlimited
		if cap := e.opts.MaxRecordsPerTrigger; cap > 0 {
			perPart = max(cap/int64(len(end)), 1)
		}
		for i := range end {
			if perPart > 0 && end[i]-start[i] > perPart {
				end[i] = start[i] + perPart
			}
			if end[i] > start[i] {
				hasData = true
			}
			if end[i] < start[i] {
				end[i] = start[i] // source truncation should not regress
			}
		}
		plan = append(plan, metrics.SourceProgress{Name: name, StartOffsets: start.Clone(), EndOffsets: end, LatestOffsets: latest.Clone()})
	}
	if !hasData && !e.needFlush && !e.alwaysRun {
		return nil, false, nil
	}
	return plan, true, nil
}

// RunAvailable executes epochs until no more data is available; it returns
// the number of epochs run. This is both the test helper and the body of
// the Once/AvailableNow triggers.
func (e *exec) RunAvailable() (int, error) {
	for n := 0; ; n++ {
		// A processing-time-timeout query always has an epoch to run and
		// would loop forever here: one pass per call.
		if n > 0 && e.alwaysRun {
			return n, nil
		}
		if ran, err := e.runOnce(); err != nil || !ran {
			return n, err
		}
	}
}

// runTriggered is the ProcessingTimeTrigger loop: run what is available,
// wait for a reason to look again, until stop closes or an epoch fails. A
// zero interval runs its first epochs at once and then waits for the
// sources' arrival signal and nothing else: no timer sits between an append
// and its epoch. A timer remains where one is needed: a positive interval
// (first epoch one interval after Start), a query whose processing-time
// timeouts must fire with no data arriving, a source that cannot signal
// (those two look once a millisecond).
//
// The signal is registered before the first planning pass, and every later
// pass follows the receive that let it run, so an append either is visible
// to the pass's Latest or fires after the channel was last drained — no
// wake-up is lost between planning and the wait (msgbus.Arrival has the
// ordering argument).
func (e *exec) runTriggered(interval time.Duration, stop <-chan struct{}) error {
	var arrival chan struct{}
	var tick <-chan time.Time
	if interval <= 0 {
		if !e.alwaysRun {
			var unregister func()
			arrival, unregister = e.notifyArrival()
			defer unregister()
		}
		if _, err := e.RunAvailable(); err != nil {
			return err
		}
		interval = time.Millisecond // should a timer be needed
	}
	if arrival == nil {
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		tick = ticker.C
	}
	arrivals, ticks := e.reg.Counter("triggerArrivalWakeups"), e.reg.Counter("triggerTimerWakeups")
	for {
		select {
		case <-stop:
			return nil
		case <-arrival:
			arrivals.Add(1)
		case <-tick:
			ticks.Add(1)
		}
		if _, err := e.RunAvailable(); err != nil {
			return err
		}
	}
}

// notifyArrival registers one wake channel with every bound source and
// returns it with the function that unregisters it; the channel is nil, and
// nothing stays registered, when some source cannot signal.
func (e *exec) notifyArrival() (arrival chan struct{}, unregister func()) {
	arrival = make(chan struct{}, 1)
	var stops []func()
	unregister = func() {
		for _, stop := range stops {
			stop()
		}
	}
	for _, src := range e.srcs {
		stop, ok := src.NotifyArrival(arrival)
		if !ok {
			unregister()
			return nil, func() {}
		}
		stops = append(stops, stop)
	}
	return arrival, unregister
}

// runOnce plans and executes at most one epoch (Trigger.Once); ran is
// false when there was nothing to do.
func (e *exec) runOnce() (ran bool, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	planStart := time.Now()
	plan, ok, err := e.planEpoch()
	if err != nil || !ok {
		return false, err
	}
	err = e.runEpochGuarded(e.nextEpoch, plan, false, planStart)
	return err == nil, err
}

// ErrEpochTimeout marks an epoch that exceeded Options.EpochTimeout: a
// source, task, or sink hung rather than failed. The epoch watchdog fails
// the query with this error, and the caller restarts it from the
// checkpoint — a hung epoch is indistinguishable from a dead executor, and
// the remedy is the same (§6.2).
var ErrEpochTimeout = errors.New("engine: epoch exceeded EpochTimeout")

// runEpochGuarded runs one epoch under the epoch watchdog: if the epoch
// does not finish within Options.EpochTimeout the query fails with
// ErrEpochTimeout and the exec is poisoned so the hung goroutine — which
// cannot be forcibly killed — aborts at its next stage boundary instead of
// committing after a replacement query has taken over. Caller holds e.mu.
func (e *exec) runEpochGuarded(epoch int64, plan []metrics.SourceProgress, replay bool, planStart time.Time) error {
	if e.opts.EpochTimeout <= 0 {
		return e.runEpoch(epoch, plan, replay, planStart)
	}
	done := make(chan error, 1)
	go func() { done <- e.runEpoch(epoch, plan, replay, planStart) }()
	timer := time.NewTimer(e.opts.EpochTimeout)
	defer timer.Stop()
	select {
	case err := <-done:
		return err
	case <-timer.C:
		e.abandoned.Store(true)
		// The epoch's record in the ring names the stage it is stuck in — the
		// watchdog's verdict is explainable instead of a bare timeout. The
		// partial trace is sealed; the ring keeps it for post-mortems.
		stage := ""
		if rec, ok := e.ring.Record(epoch); ok && rec.Trace != nil {
			stage = rec.Trace.OpenStage()
			rec.Trace.SetAttr("abandonedByWatchdog", 1)
			rec.Trace.Finish()
		}
		if stage != "" {
			return fmt.Errorf("engine: epoch %d hung for %v in stage %q: %w", epoch, e.opts.EpochTimeout, stage, ErrEpochTimeout)
		}
		return fmt.Errorf("engine: epoch %d hung for %v: %w", epoch, e.opts.EpochTimeout, ErrEpochTimeout)
	}
}

// runEpoch executes one planned epoch end to end: the §6.1 protocol as a
// sequence of stages over one record. Planning began at planStart and ends
// where runEpoch starts. Caller holds e.mu.
func (e *exec) runEpoch(epoch int64, plan []metrics.SourceProgress, replay bool, planStart time.Time) error {
	r := e.beginEpoch(epoch, modeMicrobatch, replay, planStart, plan)
	// The ring keeps a failed or abandoned epoch's partial tree for
	// post-mortems (Finish is idempotent — the watchdog may have sealed it
	// already).
	defer r.et.Finish()
	r.workers = e.opts.Workers
	r.charge("planning", planStart, time.Since(planStart))
	if err := e.logOffsets(r, e.watermark); err != nil {
		return err
	}
	ex, err := e.mapStage(r)
	if err != nil {
		return err
	}
	if err := e.reduceStage(r, ex); err != nil {
		return err
	}
	if err := e.deliver(r, ex); err != nil {
		return err
	}
	if err := e.commitEpoch(r); err != nil {
		return err
	}
	if err := e.advance(r); err != nil {
		return err
	}
	e.publish(r)
	return nil
}

// minRecordsPerShard floors the map-slice size: a tiny epoch is not worth
// fanning across workers — per-task overhead would dominate — so small
// ranges produce fewer shards than workers.
const minRecordsPerShard = 256

// taskSpec is one map task: a pipeline over an offset slice of a partition.
type taskSpec struct {
	pipeIdx  int
	part     int
	from, to int64
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

// exchange is what the map stage hands on: shuffle rows by reduce
// partition for a stateful query, or the map-only output in task order.
type exchange struct {
	byPart [][2][]sql.Row // [partition][side]
	rows   []sql.Row      // stage output; the reduce stage appends its own
	vecs   []*vec.Batch
	// colOut: every task's map-only output stayed columnar, so the epoch
	// delivers column batches to the sink. One task falling back to the
	// row path (type drift, non-int64 watermark column) demotes the whole
	// epoch — outputs materialize in task order so row ordering matches
	// the pure row path exactly.
	colOut bool
}

// mapStage cuts the epoch's ranges into map tasks, runs them and gathers
// their output: one task per contiguous near-equal slice of a (pipeline,
// source partition) range — max(Workers, 1) slices, not the pool's size, so
// the default pool of two still runs one task per partition, and Workers > 1
// gets map work for every worker even from a single hot partition. The
// split is a pure function of (range, Workers), so a replayed epoch re-plans
// the identical shards, and concatenating shard outputs in task order
// reproduces the single-task row order. The stage is fused: its wall time
// is split between getBatch and execution by the tasks' summed read time
// against their summed pipeline time.
func (e *exec) mapStage(r *epochRecord) (*exchange, error) {
	var ex *exchange
	r.ingest = time.Now()
	fetch, err := r.fusedStage("getBatch", func(sp *trace.Span) (readNanos, pipeNanos int64, err error) {
		var specs []taskSpec
		for i, bp := range e.pipes {
			s := r.source(bp.src.Name())
			for p := 0; s != nil && p < bp.src.Partitions(); p++ {
				if p >= len(s.StartOffsets) || s.EndOffsets[p] <= s.StartOffsets[p] {
					continue
				}
				for _, sr := range shard.Split(s.StartOffsets[p], s.EndOffsets[p], max(e.opts.Workers, 1), minRecordsPerShard) {
					specs = append(specs, taskSpec{pipeIdx: i, part: p, from: sr[0], to: sr[1]})
				}
			}
		}
		partOf := func(ti int) int { return specs[ti].part }
		results, err := e.pool.Run(len(specs), e.labelled("map", partOf, func(ti int) (any, error) { return e.runMapTask(specs[ti]) }))
		if err != nil {
			return 0, 0, err
		}
		ex, readNanos, pipeNanos = e.gather(r, specs, results)
		sp.SetAttr("rows", r.inputRows)
		sp.SetAttr("tasks", int64(len(specs)))
		if r.vecRows > 0 {
			sp.SetAttr("vectorizedRows", r.vecRows)
		}
		return readNanos, pipeNanos, nil
	})
	if err != nil {
		return nil, err
	}
	r.execute = r.ingest.Add(fetch)
	return ex, nil
}

// readInput is the map task's read ladder, under the retry policy. When
// the pipeline wants vectors, a codec-framed source decodes the range
// straight into typed columns; ok=false from ReadVec (type drift, or no
// columnar decode) and every other source fall through to boxed rows.
func (e *exec) readInput(bp boundPipeline, spec taskSpec, wantVec bool) (raw []sql.Row, batch *vec.Batch, err error) {
	err = e.withRetry(func() error {
		raw, batch = nil, nil
		if vr, isVec := bp.src.(sources.VectorReader); isVec && wantVec {
			b, ok, rerr := vr.ReadVec(spec.part, spec.from, spec.to)
			if rerr != nil {
				return rerr
			}
			if ok {
				batch = b
				return nil
			}
		}
		var rerr error
		raw, rerr = bp.src.Read(spec.part, spec.from, spec.to)
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

// runMapTask reads one task's slice and runs its pipeline up to the
// shuffle (or direct-output) boundary: with a batch in hand, as kernels
// until rows must materialize; without one, as row stages.
func (e *exec) runMapTask(spec taskSpec) (*mapResult, error) {
	taskStart := time.Now()
	bp := e.pipes[spec.pipeIdx]
	pipe, nPart, schema := bp.pipe, e.opts.NumPartitions, bp.src.Schema()
	// The columnar event-time scan needs the watermark column as a typed
	// int64 vector. A batch's column kinds are its source schema's, so a
	// pipeline whose watermark column is anything else reads rows in every
	// task, and is known to before the read.
	wantVec := pipe.Vec != nil && (pipe.WatermarkEval == nil ||
		pipe.WatermarkIdx >= 0 && vec.KindOf(schema.Field(pipe.WatermarkIdx).Type) == vec.KindInt64)
	raw, batch, err := e.readInput(bp, spec, wantVec)
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
	case e.q.Stateful == nil && batch != nil && e.colSink != nil && pipe.FullyVectorized():
		// The whole pipeline ran as kernels and the sink takes column
		// batches: skip row materialization entirely. The sink keeps the
		// vectors, so none of them may come from, or go back to, the pool.
		batch.Detach()
		res.vecOut = pipe.ApplyVec(batch)
	case e.q.Stateful == nil:
		// Map-only: the stages' rows are the query's output.
		res.direct = pipe.Scatter(raw, batch, 1)[0]
	default:
		// The pipeline routes its own output into the shuffle buckets: the
		// terminal's cells, or the stages' rows by their key.
		res.buckets = pipe.Scatter(raw, batch, nPart)
		if batch != nil && pipe.Scatters() {
			// Cells point into their own slabs and never into the batch:
			// this is the one branch that may recycle it.
			batch.Release()
		}
	}
	res.taskNanos = time.Since(taskStart).Nanoseconds()
	return res, nil
}

// gather folds the map tasks' results, in task order, into the record and
// the exchange, and returns the tasks' summed read and pipeline time. A
// reduce input fed by one task's bucket is that bucket, handed over as it
// is; one fed by several is sized once and filled in task order.
func (e *exec) gather(r *epochRecord, specs []taskSpec, results []any) (ex *exchange, readNanos, pipeNanos int64) {
	ex = &exchange{
		byPart: make([][2][]sql.Row, e.opts.NumPartitions),
		colOut: e.colSink != nil,
	}
	shuffled := make([][2]int, e.opts.NumPartitions) // rows bound for [partition][side]
	for _, res := range results {
		res := res.(*mapResult)
		if res.vecOut == nil && len(res.direct) > 0 {
			ex.colOut = false
		}
		for p, b := range res.buckets {
			shuffled[p][res.side] += len(b)
		}
	}
	for ti, res := range results {
		res, spec := res.(*mapResult), specs[ti]
		src := r.source(e.pipes[spec.pipeIdx].src.Name())
		r.inputRows += res.rows
		r.vecRows += res.vecRows
		src.NumInputRows += res.rows
		readNanos += res.readNanos
		pipeNanos += res.taskNanos - res.readNanos
		if res.evt.cnt > 0 && res.evt.max > e.perPipeMax[spec.pipeIdx] {
			e.perPipeMax[spec.pipeIdx] = res.evt.max
		}
		if res.evt.cnt > 0 && res.evt.max > src.EventTimeMaxMicros {
			src.EventTimeMaxMicros = res.evt.max
		}
		r.evt.merge(res.evt)
		e.health.ObservePartition("map", spec.part, res.rows, time.Duration(res.taskNanos))
		switch {
		case res.vecOut != nil && ex.colOut:
			if res.vecOut.NumLive() > 0 {
				ex.vecs = append(ex.vecs, res.vecOut)
			}
		case res.vecOut != nil:
			ex.rows = res.vecOut.AppendRows(ex.rows)
		case res.buckets == nil:
			ex.rows = append(ex.rows, res.direct...)
		default:
			for p, b := range res.buckets {
				if len(b) == 0 {
					continue
				}
				in, total := &ex.byPart[p][res.side], shuffled[p][res.side]
				switch {
				case len(b) == total:
					*in = b
				case *in == nil:
					*in = append(make([]sql.Row, 0, total), b...)
				default:
					*in = append(*in, b...)
				}
			}
		}
	}
	return ex, readNanos, pipeNanos
}

// reduceResult is one reduce task's output.
type reduceResult struct {
	rows []sql.Row
	keys int64
	// Time in the state store (open, commit) and in op.Process — their
	// sums split the fused reduce stage — and the task's whole wall time.
	stateNanos, procNanos, taskNanos int64
}

// reduceStage runs the stateful operator, one task per state partition,
// and appends its output to the stage rows. The stage is fused: its wall
// time is split between stateCommit (store open, commit) and
// execution (op.Process). A stateless epoch still opens the span, so every
// committed epoch has the complete six-stage tree.
func (e *exec) reduceStage(r *epochRecord, ex *exchange) error {
	op := e.q.Stateful
	_, err := r.fusedStage("stateCommit", func(sp *trace.Span) (stateNanos, procNanos int64, err error) {
		if op == nil {
			return 0, 0, nil
		}
		ctx := &incremental.EpochContext{
			Epoch:     r.epoch,
			Watermark: e.watermark,
			ProcTime:  time.Now().UnixMicro(),
			Mode:      e.q.Mode,
		}
		prevVersion := e.lastStateVersion
		results, err := e.pool.Run(e.opts.NumPartitions, e.labelled("reduce", func(p int) int { return p }, func(p int) (any, error) {
			res, inputs := &reduceResult{}, ex.byPart[p][:]
			openStart := time.Now()
			store, err := e.prov.Open(state.ID{Operator: op.Name(), Partition: p}, prevVersion)
			res.stateNanos = time.Since(openStart).Nanoseconds()
			if err != nil {
				return nil, err
			}
			procStart := time.Now()
			res.rows, err = op.Process(ctx, store, inputs)
			res.procNanos = time.Since(procStart).Nanoseconds()
			if err != nil {
				store.Abort()
				return nil, err
			}
			commitStart := time.Now()
			err = store.Commit(r.epoch)
			res.stateNanos += time.Since(commitStart).Nanoseconds()
			if err != nil {
				return nil, err
			}
			res.keys = int64(store.NumKeys())
			res.taskNanos = time.Since(openStart).Nanoseconds()
			return res, nil
		}))
		if err != nil {
			return 0, 0, err
		}
		var keys int64
		emitted := 0
		for _, res := range results {
			emitted += len(res.(*reduceResult).rows)
		}
		ex.rows = slices.Grow(ex.rows, emitted)
		for p, res := range results {
			res := res.(*reduceResult)
			ex.rows = append(ex.rows, res.rows...)
			keys += res.keys
			stateNanos += res.stateNanos
			procNanos += res.procNanos
			e.health.ObservePartition("reduce", p, res.keys, time.Duration(res.taskNanos))
		}
		e.lastStateVersion = r.epoch
		r.state = e.stateProgress(keys)
		sp.SetAttr("stateRows", keys)
		sp.SetAttr("ssTables", r.state.SSTables)
		sp.SetAttr("compactionBytes", r.state.CompactionBytes)
		sp.SetAttr("flushBacklog", r.state.FlushBacklog)
		sp.SetAttr("maintenanceStallUs", r.state.MaintenanceStallUs)
		return stateNanos, procNanos, nil
	})
	r.stateVersion = e.lastStateVersion
	return err
}

// stateProgress renders the stateful operator's progress section and sets
// the state store's registry gauges.
func (e *exec) stateProgress(keys int64) *metrics.StateOperatorProgress {
	ps := e.prov.Stats()
	sop := &metrics.StateOperatorProgress{
		Operator:           e.q.Stateful.Name(),
		NumRowsTotal:       keys,
		CacheHits:          ps.CacheHits,
		CacheMisses:        ps.CacheMisses,
		DeltasWritten:      ps.DeltasWritten,
		MemtableBytes:      ps.MemtableBytes,
		SSTables:           ps.SSTables,
		SSTableBytes:       ps.SSTableBytes,
		Flushes:            ps.Flushes,
		Compactions:        ps.Compactions,
		CompactionBytes:    ps.CompactionBytes,
		BlockCacheHits:     ps.BlockCacheHits,
		BlockCacheMisses:   ps.BlockCacheMisses,
		FlushBacklog:       ps.FlushBacklog,
		MaintenanceStallUs: ps.MaintenanceStallUs,
	}
	if du, err := e.prov.DiskUsage(); err == nil {
		sop.StateBytes = du
	}
	if lookups := ps.BlockCacheHits + ps.BlockCacheMisses; lookups > 0 {
		sop.BlockCacheHitRate = float64(ps.BlockCacheHits) / float64(lookups)
	}
	for name, v := range map[string]int64{
		"stateFlushBacklog": ps.FlushBacklog, "stateMaintenanceStallUs": ps.MaintenanceStallUs,
		"stateMemtableBytes": ps.MemtableBytes, "stateSSTables": ps.SSTables, "stateSSTableBytes": ps.SSTableBytes,
		"stateFlushes": ps.Flushes, "stateCompactions": ps.Compactions, "stateCompactionBytes": ps.CompactionBytes,
		"stateBlockCacheHits": ps.BlockCacheHits, "stateBlockCacheMisses": ps.BlockCacheMisses,
		"stateBlockCacheBytes": ps.BlockCacheBytes,
	} {
		e.reg.Gauge(name).Set(v)
	}
	return sop
}

// deliver runs the post stage and hands the epoch's output to the sink.
// Columnar epochs skip Post: colOut requires a map-only query, whose
// compiled Post is the identity.
func (e *exec) deliver(r *epochRecord, ex *exchange) error {
	var outRows []sql.Row
	if err := r.stage("execution", func(*trace.Span) (err error) {
		if ex.colOut {
			for _, vb := range ex.vecs {
				r.outputRows += int64(vb.NumLive())
			}
			return nil
		}
		outRows, err = e.q.Post(ex.rows)
		r.outputRows = int64(len(outRows))
		return err
	}); err != nil {
		return err
	}
	return r.stage("sinkCommit", func(sp *trace.Span) error {
		sp.SetAttr("rows", r.outputRows)
		return e.withRetry(func() error {
			b := sinks.Batch{
				Epoch:    r.epoch,
				Mode:     e.q.Mode,
				Schema:   e.q.OutSchema,
				KeyArity: e.q.KeyArity,
			}
			if ex.colOut {
				b.Vecs = ex.vecs
				return e.colSink.AddColumnBatch(b)
			}
			b.Rows = outRows
			return e.sink.AddBatch(b)
		})
	})
}

// advance is the bookkeeping after a commit: move on to the next epoch,
// collect checkpoint garbage, complete the record.
func (e *exec) advance(r *epochRecord) error {
	if r.epoch >= e.nextEpoch {
		e.nextEpoch = r.epoch + 1
	}
	oldWM := e.watermark
	e.advanceWatermark(r)
	r.watermark = e.watermark
	e.needFlush = e.q.Stateful != nil && e.watermark > oldWM

	// Periodic checkpoint garbage collection: retain the last RetainEpochs
	// epochs for manual rollback, purge everything older. Purge time is
	// checkpoint-file management, so it lands in the walCommit segment.
	if keep := e.opts.RetainEpochs; keep > 0 && r.epoch > keep && r.epoch%keep == 0 {
		gcStart := time.Now()
		horizon := r.epoch - keep
		if err := e.wal.Purge(horizon); err != nil {
			return err
		}
		if e.q.Stateful != nil {
			if err := e.prov.Maintenance(horizon); err != nil {
				return err
			}
		}
		r.charge("walCommit", gcStart, time.Since(gcStart)).SetAttr("gc", 1)
	}

	r.end = time.Now()
	for i := range r.sources {
		e.observeSource(&r.sources[i])
	}
	// The pool's cumulative counters are no fact of this epoch.
	ss := e.pool.Stats()
	e.reg.Gauge("workers").Set(int64(ss.Workers))
	e.reg.Gauge("shardTasksRun").Set(ss.TasksRun)
	e.reg.Gauge("shardStagesRun").Set(ss.StagesRun)
	e.reg.Gauge("shardBusyMicros").Set(ss.BusyNanos / 1e3)
	return nil
}

// advanceWatermark recomputes the global watermark: the minimum over
// watermarked pipelines of (max event time − delay), never regressing
// (§4.3.1). It takes effect for the NEXT epoch. Each source's lag by its
// own candidate (minimum over its pipelines, hence the largest lag) goes
// into the record, so a single slow source is attributable.
func (e *exec) advanceWatermark(r *epochRecord) {
	candidate, held := int64(-1), false
	procUs := time.Now().UnixMicro()
	for i, bp := range e.pipes {
		if bp.pipe.WatermarkEval == nil {
			continue
		}
		r.watermarked = true
		if e.perPipeMax[i] < 0 {
			held = true // a watermarked source with no data yet holds the line
			continue
		}
		wm := e.perPipeMax[i] - bp.pipe.WatermarkDelay
		if candidate < 0 || wm < candidate {
			candidate = wm
		}
		if s := r.source(bp.src.Name()); s != nil && (s.WatermarkLagUs == 0 || procUs-wm > s.WatermarkLagUs) {
			s.WatermarkLagUs = procUs - wm
		}
	}
	if !held && candidate > e.watermark {
		e.watermark = candidate
	}
}
