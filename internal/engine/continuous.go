package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sort"

	"structream/internal/health"
	"structream/internal/incremental"
	"structream/internal/metrics"
	"structream/internal/sinks"
	"structream/internal/sources"
	"structream/internal/wal"
)

// continuousExec implements continuous processing mode (§6.3): long-lived
// per-partition workers process records as soon as they arrive instead of
// waiting for a trigger, while the master coordinates epoch markers off
// the critical path — it periodically snapshots every partition's offset
// and logs the epoch, so commits never block record processing. Only
// map-like queries (no shuffle) are supported, as in Spark 2.3, and
// delivery between epoch markers is at-least-once on replay.
type continuousExec struct {
	q    *incremental.Query
	sink sinks.Sink
	opts Options

	wal  *wal.Log
	hook *epochHook
	telemetry

	stopCh chan struct{}
	failCh chan struct{} // closed on the first error; may precede worker exit
	wg     sync.WaitGroup

	// budget is the remaining record intake this epoch when
	// MaxRecordsPerTrigger > 0; workers reserve from it before reading and
	// idle once it is exhausted, until the next epoch mark refills it.
	budget atomic.Int64

	// Workers accumulate their per-stage time here; the coordinator turns
	// the deltas between epoch marks into the epoch's span tree. In
	// continuous mode these are summed task times across parallel workers,
	// not disjoint wall-clock segments, so they can exceed the epoch
	// interval.
	procNanos atomic.Int64 // time inside pipeline Process
	sinkNanos atomic.Int64 // time inside sink AddBatch

	mu          sync.Mutex
	srcs        map[string]*sources.Instrumented // by source name
	current     map[string]sources.Offsets       // live read positions
	lastEnd     map[string]sources.Offsets       // offsets at the last epoch mark
	lastAdvance time.Time                        // when any worker last made progress
	epoch       int64
	workerSeq   int64
	err         error

	// Coordinator-only epoch-delta bookkeeping (markEpoch runs in one
	// goroutine, so plain fields suffice).
	lastMark     time.Time
	prevOut      int64
	prevProc     int64
	prevSink     int64
	prevSrcStats map[string]sources.SourceStats
}

// waitable lets a source block efficiently for new data; sources without
// it are polled.
type waitable interface {
	WaitForData(partition int, offset int64, timeout time.Duration) bool
}

// startContinuous validates and launches the continuous engine.
func startContinuous(q *incremental.Query, srcs map[string]sources.Source, sink sinks.Sink, opts Options, trig ContinuousTrigger) (*StreamingQuery, error) {
	if q.Stateful != nil {
		return nil, fmt.Errorf("engine: continuous processing supports only map-like queries (no aggregation, join between streams, or stateful operators); use the microbatch trigger")
	}
	if opts.Checkpoint == "" {
		return nil, fmt.Errorf("engine: a checkpoint directory is required")
	}
	w, err := wal.OpenFS(opts.FS, opts.Checkpoint)
	if err != nil {
		return nil, err
	}
	ce := &continuousExec{
		q: q, sink: sink, opts: opts,
		wal:          w,
		hook:         newEpochHook(),
		telemetry:    newTelemetry(opts),
		stopCh:       make(chan struct{}),
		failCh:       make(chan struct{}),
		srcs:         map[string]*sources.Instrumented{},
		current:      map[string]sources.Offsets{},
		lastEnd:      map[string]sources.Offsets{},
		lastAdvance:  time.Now(),
		lastMark:     time.Now(),
		prevSrcStats: map[string]sources.SourceStats{},
	}
	ce.budget.Store(opts.MaxRecordsPerTrigger)

	// Recover: resume from the latest logged epoch's end offsets.
	rp, err := w.Recover()
	if err != nil {
		return nil, err
	}
	ce.epoch = rp.NextEpoch
	if latest, ok, err := w.LatestOffsets(); err != nil {
		return nil, err
	} else if ok {
		for _, s := range latest.Sources {
			ce.current[s.Source] = append(sources.Offsets(nil), s.End...)
			ce.lastEnd[s.Source] = append(sources.Offsets(nil), s.End...)
		}
	}

	sq := &StreamingQuery{
		name:   opts.Name,
		cont:   ce,
		stopCh: make(chan struct{}),
		doneCh: make(chan struct{}),
	}

	// Resolve every pipeline's source and start offsets before any worker
	// exists: a failure on a later pipeline must not leave an earlier
	// one's workers polling and writing to the sink behind the error.
	bound := make([]*sources.Instrumented, len(q.Pipelines))
	for i, p := range q.Pipelines {
		raw, ok := srcs[p.SourceName]
		if !ok {
			return nil, fmt.Errorf("engine: no source bound for stream %q", p.SourceName)
		}
		src := sources.Instrument(raw)
		name := src.Name()
		bound[i] = src
		ce.srcs[name] = src
		if _, ok := ce.current[name]; !ok {
			start, err := src.Earliest()
			if err != nil {
				return nil, err
			}
			ce.current[name] = start
			ce.lastEnd[name] = start.Clone()
		}
	}
	// Launch one long-lived worker per (pipeline, partition) — §6.3: "the
	// master launches long-running tasks on each partition"; a failed
	// worker would simply be relaunched.
	for i, p := range q.Pipelines {
		for part := 0; part < bound[i].Partitions(); part++ {
			ce.wg.Add(1)
			ce.workerSeq++
			go ce.worker(p, bound[i], part, ce.workerSeq)
		}
	}

	// Epoch coordinator.
	interval := trig.EpochInterval
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	ce.wg.Add(1)
	go ce.coordinator(interval)

	go func() {
		// Clean shutdown waits for every worker; on failure the query must
		// terminate even if a worker is wedged inside a hung source read or
		// sink write — that hang is exactly what the watchdog reported.
		wgDone := make(chan struct{})
		go func() {
			ce.wg.Wait()
			close(wgDone)
		}()
		select {
		case <-wgDone:
		case <-ce.failCh:
		}
		if err := ce.getErr(); err != nil {
			sq.setErr(err)
		}
		sq.finish()
	}()
	return sq, nil
}

func (ce *continuousExec) stop() {
	select {
	case <-ce.stopCh:
	default:
		close(ce.stopCh)
	}
}

func (ce *continuousExec) getErr() error {
	ce.mu.Lock()
	defer ce.mu.Unlock()
	return ce.err
}

func (ce *continuousExec) setErr(err error) {
	ce.mu.Lock()
	first := ce.err == nil
	if first {
		ce.err = err
	}
	ce.mu.Unlock()
	if first {
		close(ce.failCh)
	}
	ce.stop()
}

// worker continuously drains one partition of one source. Each delivery
// carries a worker-unique Sub id so sinks keep all sub-batches of an epoch.
func (ce *continuousExec) worker(pipe *incremental.Pipeline, src sources.Source, part int, workerID int64) {
	defer ce.wg.Done()
	const maxPoll = 4096
	var seq int64
	for {
		select {
		case <-ce.stopCh:
			return
		default:
		}
		ce.mu.Lock()
		off := ce.current[src.Name()][part]
		epoch := ce.epoch
		ce.mu.Unlock()

		latest, err := src.Latest()
		if err != nil {
			ce.setErr(err)
			return
		}
		if latest[part] <= off {
			// Idle: block on the source if it supports waiting, else poll.
			if w, ok := src.(waitable); ok {
				w.WaitForData(part, off, 5*time.Millisecond)
			} else {
				time.Sleep(200 * time.Microsecond)
			}
			continue
		}
		to := latest[part]
		if to > off+maxPoll {
			to = off + maxPoll
		}
		// Admission control: reserve intake from the epoch budget; an
		// exhausted budget idles the worker until the next epoch mark
		// refills it, so a restarted query is not drowned by its backlog.
		if ce.opts.MaxRecordsPerTrigger > 0 {
			rem := ce.budget.Load()
			if rem <= 0 {
				time.Sleep(200 * time.Microsecond)
				continue
			}
			if to > off+rem {
				to = off + rem
			}
			ce.budget.Add(off - to) // reserve (to-off) records
		}
		raw, err := src.Read(part, off, to)
		if err != nil {
			ce.setErr(err)
			return
		}
		procStart := time.Now()
		rows := pipe.Process(raw)
		ce.procNanos.Add(time.Since(procStart).Nanoseconds())
		if len(rows) > 0 {
			seq++
			sinkStart := time.Now()
			err := ce.sink.AddBatch(sinks.Batch{
				Epoch:  epoch,
				Sub:    workerID<<32 | seq,
				Mode:   ce.q.Mode,
				Schema: ce.q.OutSchema,
				Rows:   rows,
			})
			ce.sinkNanos.Add(time.Since(sinkStart).Nanoseconds())
			if err != nil {
				ce.setErr(err)
				return
			}
		}
		ce.mu.Lock()
		ce.current[src.Name()][part] = to
		ce.lastAdvance = time.Now()
		ce.mu.Unlock()
		ce.reg.Counter("inputRows").Add(int64(len(raw)))
		ce.reg.Counter("outputRows").Add(int64(len(rows)))
	}
}

// coordinator periodically snapshots offsets and commits epochs — the
// master "is not on the critical path" (§6.3).
func (ce *continuousExec) coordinator(interval time.Duration) {
	defer ce.wg.Done()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ce.stopCh:
			ce.markEpoch() // final epoch on shutdown
			return
		case <-ticker.C:
			if err := ce.checkStalled(); err != nil {
				ce.setErr(err)
				return
			}
			ce.markEpoch()
		}
	}
}

// checkStalled is the continuous-mode epoch watchdog: data is pending but
// no worker has advanced any partition for EpochTimeout — a hung source
// read or sink write. The query fails with ErrEpochTimeout so a
// supervisor can restart it from the last epoch mark.
func (ce *continuousExec) checkStalled() error {
	if ce.opts.EpochTimeout <= 0 {
		return nil
	}
	ce.mu.Lock()
	idle := time.Since(ce.lastAdvance)
	ce.mu.Unlock()
	if idle <= ce.opts.EpochTimeout {
		return nil
	}
	if ce.opts.MaxRecordsPerTrigger > 0 && ce.budget.Load() <= 0 {
		return nil // idled by admission control, not hung
	}
	var lagging []string
	for name, src := range ce.srcs {
		latest, err := src.Latest()
		if err != nil {
			continue // the read path will surface this error itself
		}
		ce.mu.Lock()
		cur := ce.current[name]
		var lag int64
		for i := range latest {
			if i < len(cur) && latest[i] > cur[i] {
				lag += latest[i] - cur[i]
			}
		}
		ce.mu.Unlock()
		if lag > 0 {
			lagging = append(lagging, fmt.Sprintf("%s(+%d records)", name, lag))
		}
	}
	if len(lagging) == 0 {
		return nil
	}
	sort.Strings(lagging)
	return fmt.Errorf("engine: continuous workers made no progress for %v with data pending on %v: %w", idle, lagging, ErrEpochTimeout)
}

// markEpoch snapshots every partition's offset, logs and commits the
// epoch, and emits the epoch's trace and progress. The epoch's root span
// covers the whole interval since the previous mark; the getBatch /
// execution / sinkCommit children carry summed worker task time over that
// interval (continuous workers run in parallel, so unlike microbatch mode
// these aggregates are not disjoint wall segments and may exceed the
// interval).
func (ce *continuousExec) markEpoch() {
	planStart := time.Now()
	type srcRange struct {
		name       string
		start, end sources.Offsets
	}
	ce.mu.Lock()
	epoch := ce.epoch
	entry := wal.Entry{Epoch: epoch}
	var progressed bool
	var totalIn int64
	var ranges []srcRange
	for name, cur := range ce.current {
		start := ce.lastEnd[name]
		end := cur.Clone()
		entry.Sources = append(entry.Sources, wal.SourceOffsets{Source: name, Start: start.Clone(), End: end})
		ranges = append(ranges, srcRange{name: name, start: start.Clone(), end: end})
		for i := range end {
			if end[i] > start[i] {
				progressed = true
				totalIn += end[i] - start[i]
			}
		}
	}
	if !progressed {
		ce.mu.Unlock()
		return
	}
	for name := range ce.current {
		ce.lastEnd[name] = ce.current[name].Clone()
	}
	ce.epoch++
	ce.mu.Unlock()
	planDur := time.Since(planStart)

	intervalStart := ce.lastMark
	et := ce.tracer.StartEpochAt(epoch, "continuous", intervalStart)
	et.AddStage("planning", planStart, planDur)
	// Lineage: in continuous mode records flow through workers as they
	// arrive, so the epoch's ingest is the start of its interval and its
	// execution is continuous across it; admission is the mark itself.
	ce.health.StampIngest(epoch, intervalStart)
	ce.health.StampExecute(epoch, intervalStart)
	ce.health.StampAdmit(epoch, planStart)

	spWAL := et.StartSpan("walCommit")
	walStart := time.Now()
	if err := ce.wal.WriteOffsets(entry); err != nil {
		et.Finish()
		ce.setErr(err)
		return
	}
	if err := ce.wal.WriteCommit(epoch); err != nil {
		et.Finish()
		ce.setErr(err)
		return
	}
	ce.hook.notify(epoch)
	ce.health.StampCommit(epoch, time.Now())
	et.EndSpan(spWAL)
	walDur := time.Since(walStart)
	// Refill the admission budget for the next epoch.
	if cap := ce.opts.MaxRecordsPerTrigger; cap > 0 {
		ce.budget.Store(cap)
	}

	// Worker-stage deltas since the previous mark.
	now := time.Now()
	interval := now.Sub(intervalStart)
	ce.lastMark = now
	out := ce.reg.Counter("outputRows").Value()
	proc, sinkN := ce.procNanos.Load(), ce.sinkNanos.Load()
	outDelta := out - ce.prevOut
	procDelta := proc - ce.prevProc
	sinkDelta := sinkN - ce.prevSink
	ce.prevOut, ce.prevProc, ce.prevSink = out, proc, sinkN

	sort.Slice(ranges, func(i, j int) bool { return ranges[i].name < ranges[j].name })
	var readDelta int64
	var srcProgress []metrics.SourceProgress
	for _, r := range ranges {
		src := ce.srcs[r.name]
		st := src.Stats()
		rd := st.ReadNanos - ce.prevSrcStats[r.name].ReadNanos
		ce.prevSrcStats[r.name] = st
		readDelta += rd
		var n int64
		for i := range r.end {
			if i < len(r.start) && r.end[i] > r.start[i] {
				n += r.end[i] - r.start[i]
			}
		}
		sp := metrics.SourceProgress{
			Name:            r.name,
			StartOffsets:    append([]int64(nil), r.start...),
			EndOffsets:      append([]int64(nil), r.end...),
			NumInputRows:    n,
			InputRowsPerSec: metrics.RatePerSec(n, interval),
			ReadMicros:      rd / 1e3,
		}
		if latest, err := src.Latest(); err == nil {
			sp.LatestOffsets = append([]int64(nil), latest...)
		}
		srcProgress = append(srcProgress, sp)
	}

	et.AddStage("getBatch", intervalStart, time.Duration(readDelta))
	et.AddStage("execution", intervalStart, time.Duration(procDelta))
	et.AddStage("stateCommit", intervalStart, 0)
	et.AddStage("sinkCommit", intervalStart, time.Duration(sinkDelta))
	et.SetAttr("inputRows", totalIn)
	et.SetAttr("outputRows", outDelta)
	et.SetAttr("committed", 1)
	et.Finish()

	bd := map[string]int64{
		"planning":    planDur.Microseconds(),
		"getBatch":    readDelta / 1e3,
		"execution":   procDelta / 1e3,
		"stateCommit": 0,
		"walCommit":   walDur.Microseconds(),
		"sinkCommit":  sinkDelta / 1e3,
	}
	ce.reg.Histogram("epoch.us").Observe(interval.Microseconds())
	for k, v := range bd {
		ce.reg.Histogram("stage." + k + ".us").Observe(v)
	}
	ws := ce.wal.Stats()
	ce.reg.Gauge("walOffsetsWritten").Set(ws.OffsetsWritten)
	ce.reg.Gauge("walCommitsWritten").Set(ws.CommitsWritten)
	ce.reg.Gauge("walBytesWritten").Set(ws.BytesWritten)
	ce.reg.Gauge("walWriteMicros").Set(ws.WriteNanos / 1e3)
	ce.reg.Counter("epochs").Add(1)
	ce.log.Emit(metrics.QueryProgress{
		QueryName:         ce.opts.Name,
		Epoch:             epoch,
		NumInputRows:      totalIn,
		NumOutputRows:     outDelta,
		ProcessingMillis:  interval.Milliseconds(),
		ProcessingMicros:  interval.Microseconds(),
		InputRowsPerSec:   metrics.RatePerSec(totalIn, interval),
		OutputRowsPerSec:  metrics.RatePerSec(outDelta, interval),
		DurationBreakdown: bd,
		BottleneckStage:   metrics.BottleneckStage(bd),
		Sources:           srcProgress,
		Sink: &metrics.SinkProgress{
			Description:      sinks.Describe(ce.sink),
			NumOutputRows:    outDelta,
			OutputRowsPerSec: metrics.RatePerSec(outDelta, interval),
			WriteMicros:      sinkDelta / 1e3,
		},
		AdmissionCapRecords: ce.opts.MaxRecordsPerTrigger,
		Restarts:            ce.reg.Counter("restarts").Value(),
	})
	// Continuous pipelines are map-only and unwatermarked; −1 skips the
	// watermark-lag signal.
	ce.health.ObserveEpoch(health.Sample{
		Epoch:           epoch,
		LatencyUs:       interval.Microseconds(),
		InputRowsPerSec: metrics.RatePerSec(totalIn, interval),
		WatermarkLagUs:  -1,
		Restarts:        ce.reg.Counter("restarts").Value(),
	})
}
