package engine

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"structream/internal/incremental"
	"structream/internal/metrics"
	"structream/internal/sinks"
	"structream/internal/sources"
	"structream/internal/sql"
)

// continuousExec implements continuous processing mode (§6.3): long-lived
// per-partition workers process records as soon as they arrive instead of
// waiting for a trigger, while the master coordinates epoch markers off
// the critical path — it periodically snapshots every partition's offset
// and logs the epoch, so commits never block record processing. Only
// map-like queries (no shuffle) are supported, as in Spark 2.3, and
// delivery between epoch markers is at-least-once on replay.
type continuousExec struct {
	*core

	stopCh chan struct{}
	failCh chan struct{} // closed on the first error; may precede worker exit
	wg     sync.WaitGroup

	// budget is the remaining record intake this epoch when
	// MaxRecordsPerTrigger > 0; workers reserve from it before reading and
	// idle once it is exhausted, until the next epoch mark refills it.
	budget atomic.Int64

	// Workers accumulate their per-stage time here; the coordinator
	// charges the deltas between epoch marks to the epoch's record (see
	// epochRecord on why these can exceed the interval).
	procNanos atomic.Int64 // time inside pipeline Process
	sinkNanos atomic.Int64 // time inside sink AddBatch

	mu          sync.Mutex
	current     map[string]sources.Offsets // live read positions
	lastAdvance time.Time                  // when any worker last made progress
	epoch       int64
	err         error

	// Coordinator-only epoch-delta bookkeeping (markEpoch runs in one
	// goroutine, so plain fields suffice).
	lastMark                    time.Time
	prevOut, prevProc, prevSink int64
}

// startContinuous validates and launches the continuous engine.
func startContinuous(q *incremental.Query, srcs map[string]sources.Source, sink sinks.Sink, opts Options, trig ContinuousTrigger) (*StreamingQuery, error) {
	if q.Stateful != nil {
		return nil, fmt.Errorf("engine: continuous processing supports only map-like queries (no aggregation, join between streams, or stateful operators); use the microbatch trigger")
	}
	// Resume from the latest logged epoch's end offsets. Workers deliver
	// before the coordinator logs, so a logged-but-uncommitted epoch's rows
	// already reached the sink: there is nothing to replay.
	c, rp, err := openCore(q, sink, opts)
	if err != nil {
		return nil, err
	}
	ce := &continuousExec{
		core:        c,
		stopCh:      make(chan struct{}),
		failCh:      make(chan struct{}),
		current:     map[string]sources.Offsets{},
		lastAdvance: time.Now(),
		lastMark:    time.Now(),
		epoch:       rp.NextEpoch,
	}
	ce.budget.Store(opts.MaxRecordsPerTrigger)

	// Resolve every pipeline's source and start offsets before any worker
	// exists: a failure on a later pipeline must not leave an earlier
	// one's workers polling and writing to the sink behind the error.
	bound := make([]*sources.Instrumented, len(q.Pipelines))
	for i, p := range q.Pipelines {
		// Workers read boxed rows only, so nothing is pruned.
		if bound[i], err = c.bind(p, srcs, false); err != nil {
			return nil, err
		}
		ce.current[bound[i].Name()] = c.committed[bound[i].Name()].Clone()
	}
	// Launch one long-lived worker per (pipeline, partition) — §6.3: "the
	// master launches long-running tasks on each partition"; a failed
	// worker would simply be relaunched.
	var workerSeq int64
	for i, p := range q.Pipelines {
		for part := 0; part < bound[i].Partitions(); part++ {
			ce.wg.Add(1)
			workerSeq++
			go ce.worker(p, bound[i], part, workerSeq)
		}
	}

	// Epoch coordinator.
	interval := trig.EpochInterval
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	ce.wg.Add(1)
	go ce.coordinator(interval)

	sq := &StreamingQuery{
		name:   opts.Name,
		core:   c,
		cont:   ce,
		stopCh: make(chan struct{}),
		doneCh: make(chan struct{}),
	}
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
// Idle, it blocks on the source's arrival signal — the one microbatch mode
// waits on, registered before the first look for the same reason (see
// exec.runTriggered) — or polls a source that has none.
func (ce *continuousExec) worker(pipe *incremental.Pipeline, src *sources.Instrumented, part int, workerID int64) {
	defer ce.wg.Done()
	const maxPoll = 4096
	const pollEvery = 200 * time.Microsecond
	arrival := make(chan struct{}, 1)
	if unregister, ok := src.NotifyArrival(arrival); ok {
		defer unregister()
	} else {
		arrival = nil
	}
	arrivals, ticks := ce.reg.Counter("triggerArrivalWakeups"), ce.reg.Counter("triggerTimerWakeups")
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
			if arrival == nil {
				time.Sleep(pollEvery)
				ticks.Add(1)
				continue
			}
			select {
			case <-ce.stopCh:
				return
			case <-arrival: // any partition's: look again
				arrivals.Add(1)
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
				time.Sleep(pollEvery)
				continue
			}
			if to > off+rem {
				to = off + rem
			}
			ce.budget.Add(off - to) // reserve (to-off) records
		}
		var raw []sql.Row
		if err := ce.withRetry(func() (rerr error) {
			raw, rerr = src.Read(part, off, to)
			return rerr
		}); err != nil {
			ce.setErr(err)
			return
		}
		procStart := time.Now()
		rows := pipe.Process(raw)
		ce.procNanos.Add(time.Since(procStart).Nanoseconds())
		if len(rows) > 0 {
			seq++
			sinkStart := time.Now()
			err := ce.withRetry(func() error {
				return ce.sink.AddBatch(sinks.Batch{
					Epoch:  epoch,
					Sub:    workerID<<32 | seq,
					Mode:   ce.q.Mode,
					Schema: ce.q.OutSchema,
					Rows:   rows,
				})
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
		// Charged here, per delivered sub-batch, not at the epoch mark: the
		// monitor and fig7 read these between marks.
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
// read or sink write. The query fails with ErrEpochTimeout, and the
// caller restarts it from the checkpoint's last epoch mark.
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
		lag := behind(latest, ce.current[name])
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

// markEpoch cuts an epoch: snapshot every partition's offset, fill the
// epoch's record, log and commit it, publish. The record's root span
// covers the whole interval since the previous mark; getBatch, execution
// and sinkCommit are charged the workers' summed task time over it.
func (ce *continuousExec) markEpoch() {
	planStart := time.Now()
	ce.mu.Lock()
	epoch := ce.epoch
	var plan []metrics.SourceProgress
	var totalIn int64
	for name, cur := range ce.current {
		s := metrics.SourceProgress{Name: name, StartOffsets: ce.committed[name].Clone(), EndOffsets: cur.Clone()}
		s.NumInputRows = behind(s.EndOffsets, s.StartOffsets)
		totalIn += s.NumInputRows
		plan = append(plan, s)
	}
	if totalIn == 0 {
		ce.mu.Unlock()
		return
	}
	ce.epoch++
	ce.mu.Unlock()

	r := ce.beginEpoch(epoch, modeContinuous, false, ce.lastMark, plan)
	defer r.et.Finish()
	r.inputRows = totalIn
	r.charge("planning", planStart, time.Since(planStart))
	// Lineage: in continuous mode records flow through workers as they
	// arrive, so the epoch's ingest is the start of its interval and its
	// execution is continuous across it; admission is the mark itself.
	r.admit, r.ingest, r.execute = planStart, r.start, r.start
	err := ce.logOffsets(r, 0)
	if err == nil {
		err = ce.commitEpoch(r)
	}
	if err != nil {
		ce.setErr(err)
		return
	}
	ce.lastMark = r.end
	// Refill the admission budget for the next epoch.
	if cap := ce.opts.MaxRecordsPerTrigger; cap > 0 {
		ce.budget.Store(cap)
	}

	// Worker-stage deltas since the previous mark.
	var read int64
	for i := range r.sources {
		s := &r.sources[i]
		read += ce.observeSource(s)
		if latest, err := ce.srcs[s.Name].Latest(); err == nil {
			s.LatestOffsets = latest.Clone()
		}
	}
	out, proc, sink := ce.reg.Counter("outputRows").Value(), ce.procNanos.Load(), ce.sinkNanos.Load()
	r.outputRows = out - ce.prevOut
	r.charge("getBatch", r.start, time.Duration(read))
	r.charge("execution", r.start, time.Duration(proc-ce.prevProc))
	r.charge("stateCommit", r.start, 0)
	r.charge("sinkCommit", r.start, time.Duration(sink-ce.prevSink))
	ce.prevOut, ce.prevProc, ce.prevSink = out, proc, sink
	ce.publish(r)
}
