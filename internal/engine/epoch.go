package engine

import (
	"context"
	"fmt"
	"math/rand"
	"runtime/pprof"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"structream/internal/fsx"
	"structream/internal/incremental"
	"structream/internal/metrics"
	"structream/internal/sinks"
	"structream/internal/sources"
	"structream/internal/sql/logical"
	"structream/internal/trace"
	"structream/internal/wal"
)

const (
	modeMicrobatch = "microbatch"
	modeContinuous = "continuous"
)

// core is what the two execution modes share. The paper has one epoch
// protocol (§6.1) that continuous mode only re-times with epoch markers
// (§6.3) and one monitoring surface (§7.4), so the checkpoint prologue, the
// retry policy, the offsets-log and commit steps and the publication of an
// epoch's record exist once; the modes differ in how a record gets filled.
type core struct {
	q    *incremental.Query
	sink sinks.Sink
	opts Options
	wal  *wal.Log
	hook *epochHook // fans epoch commits out to the serving layer
	telemetry
	srcs map[string]*sources.Instrumented // bound sources by name
	// colSink is non-nil when output reaches the sink columnar: the sink
	// accepts column batches and the query is a map-only append (no
	// stateful stage, so Post is the identity).
	colSink sinks.ColumnSink

	// committed holds each source's end offsets in the newest logged epoch:
	// where the next epoch starts. Entries are replaced, never mutated.
	committed map[string]sources.Offsets
	prevRead  map[string]int64 // per source: cumulative read ns at its last record
	// abandoned is set by the microbatch epoch watchdog and poisons every
	// stage the hung epoch has not started yet.
	abandoned atomic.Bool
	// committedState is the newest state version covered by a WAL commit
	// (−1: none); atomic because the serving layer reads it while an epoch
	// holds the executor's lock.
	committedState atomic.Int64
}

// openCore is the one checkpoint prologue, the first half of the §6.1
// restart protocol: open the WAL, compute the recovery point, restore the
// committed offsets. A logged-but-uncommitted epoch (rp.Replay) is the
// mode's business.
func openCore(q *incremental.Query, sink sinks.Sink, opts Options) (*core, wal.RecoveryPoint, error) {
	if opts.Checkpoint == "" {
		return nil, wal.RecoveryPoint{}, fmt.Errorf("engine: a checkpoint directory is required")
	}
	w, err := wal.OpenFS(opts.FS, opts.Checkpoint)
	if err != nil {
		return nil, wal.RecoveryPoint{}, err
	}
	c := &core{
		q: q, sink: sink, opts: opts, wal: w,
		hook:      newEpochHook(),
		telemetry: startTelemetry(opts),
		srcs:      map[string]*sources.Instrumented{},
		committed: map[string]sources.Offsets{},
		prevRead:  map[string]int64{},
	}
	c.committedState.Store(-1)
	if cs, ok := sink.(sinks.ColumnSink); ok && q.Stateful == nil && q.Mode == logical.Append {
		c.colSink = cs
	}
	rp, err := w.Recover()
	if err != nil {
		return nil, rp, err
	}
	// Corrupt uncommitted tail entries (torn by a crash) were dropped and
	// will be re-planned; surface that the durability layer caught them.
	c.reg.Counter("corruptionsDetected").Add(int64(len(rp.DroppedCorrupt)))
	// Seed the commit hook with the recovered prefix so LastCommittedEpoch
	// is meaningful before this instance commits anything new.
	c.hook.last.Store(rp.NextEpoch - 1)
	latest, _, err := w.LatestOffsets()
	if err != nil {
		return nil, rp, err
	}
	for _, s := range latest.Sources {
		c.committed[s.Source] = sources.Offsets(s.End).Clone()
	}
	return c, rp, nil
}

// bind resolves a pipeline's source, instruments it so the progress event
// and the getBatch stage can attribute fetch cost, and starts it at its
// earliest offsets unless the checkpoint knows better. A source that can
// step over columns is bound, once, to the ones the pipeline's vector plan
// reads; its Read stays full width, so every fallback to rows sees whole
// records.
func (c *core) bind(p *incremental.Pipeline, srcs map[string]sources.Source) (*sources.Instrumented, error) {
	src, ok := srcs[p.SourceName]
	if !ok {
		return nil, fmt.Errorf("engine: no source bound for stream %q", p.SourceName)
	}
	if cp, ok := src.(sources.ColumnPruner); ok && p.SourceCols != nil {
		src = cp.PruneColumns(p.SourceCols)
	}
	is := sources.Instrument(src)
	c.srcs[is.Name()] = is
	if _, ok := c.committed[is.Name()]; !ok {
		start, err := is.Earliest()
		if err != nil {
			return nil, err
		}
		c.committed[is.Name()] = start
	}
	return is, nil
}

// The retry budget of a transient I/O error on a source read or sink write,
// in either execution mode: maxIORetries retries, the first after
// retryBackoff, each later one after twice the delay before it, plus jitter.
// A fault that outlasts them fails the epoch — in continuous mode, the query.
const (
	maxIORetries = 3
	retryBackoff = 2 * time.Millisecond
)

// withRetry runs fn, retrying transient I/O errors (EIO, ENOSPC, injected
// fsx.ErrTransient) up to maxIORetries times with exponential backoff plus
// jitter. Non-transient errors — crashes, corruption, logic errors — fail
// immediately: retrying those would mask real damage.
func (c *core) withRetry(fn func() error) error {
	var err error
	for attempt := 0; ; attempt++ {
		err = fn()
		if err == nil || !fsx.IsTransient(err) || attempt >= maxIORetries {
			return err
		}
		c.reg.Counter("ioRetries").Add(1)
		backoff := retryBackoff << attempt
		backoff += time.Duration(rand.Int63n(int64(backoff)/2 + 1))
		time.Sleep(backoff)
	}
}

// evtStats is event-time telemetry over raw input rows: the extremes, and
// sum/cnt for the average. cnt counts the rows that carried an event time;
// while it is 0, min and max mean nothing. Every int64 is an event time,
// negative ones too. The sum is float64 because µs timestamps summed over
// millions of rows overflow int64.
type evtStats struct {
	min, max int64
	sum      float64
	cnt      int64
}

func (s *evtStats) merge(o evtStats) {
	if o.cnt == 0 {
		return
	}
	if s.cnt == 0 {
		*s = o
		return
	}
	s.min, s.max = min(s.min, o.min), max(s.max, o.max)
	s.sum += o.sum
	s.cnt += o.cnt
}

// epochRecord is the one thing an epoch fills, in either mode; publish
// derives every monitoring view from it. A stage's timing is written once,
// as a child span of the tree's root (stage, fusedStage, charge); the
// progress event's breakdown is the per-name sum of those children. In
// microbatch mode the sections are contiguous, so the six segments —
// planning, getBatch, execution, stateCommit, walCommit, sinkCommit — sum to
// ≈ the epoch's wall time; in continuous mode getBatch, execution and
// sinkCommit are task time summed over parallel workers since the previous
// mark, not disjoint wall segments, and may exceed it.
type epochRecord struct {
	c     *core
	epoch int64
	mode  string
	start time.Time // root span start: planning, or the previous epoch mark
	// The lineage instants the mode knows and the commit writes onto the
	// ring's record: when the epoch was admitted for planning, when its data
	// was read from the source, when execution began.
	admit, ingest, execute time.Time
	// end closes the epoch's latency: the commit, which a microbatch epoch
	// extends over its post-commit bookkeeping.
	end time.Time
	et  *trace.EpochTrace // the span tree; the ring's record of the epoch holds it too

	// sources are the progress sections themselves, filled as the epoch
	// learns them; LatestOffsets is the source's head when the epoch was
	// cut (nil on replay).
	sources               []metrics.SourceProgress
	inputRows, outputRows int64
	evt                   evtStats
	watermarked           bool  // some pipeline declares a watermark
	watermark             int64 // after this epoch
	state                 *metrics.StateOperatorProgress
	stateVersion          int64 // state version this epoch's commit covers
	workers               int
}

// beginEpoch opens an epoch's record and its trace, and with it the epoch's
// record in the ring: the epoch is retained from here on, whatever becomes
// of it. The root span starts at start, before any stage, so it covers the
// epoch's whole extent.
func (c *core) beginEpoch(epoch int64, mode string, replay bool, start time.Time, plan []metrics.SourceProgress) *epochRecord {
	r := &epochRecord{
		c: c, epoch: epoch, mode: mode, start: start, admit: start, sources: plan,
		et:           trace.StartEpoch(c.opts.Name, epoch, mode, start),
		stateVersion: -1,
	}
	c.ring.Begin(r.et)
	if replay {
		r.et.SetAttr("replay", 1)
	}
	return r
}

// source returns the record of the named source, or nil.
func (r *epochRecord) source(name string) *metrics.SourceProgress {
	for i := range r.sources {
		if r.sources[i].Name == name {
			return &r.sources[i]
		}
	}
	return nil
}

// stage runs one wall-clock section of the epoch and charges it to name.
func (r *epochRecord) stage(name string, fn func(sp *trace.Span) error) error {
	_, err := r.fusedStage(name, func(sp *trace.Span) (int64, int64, error) { return 0, 0, fn(sp) })
	return err
}

// fusedStage runs a section whose parallel tasks interleave this stage's
// work with operator execution. fn reports the two task-time sums; the
// section's wall time is split in their ratio (all of it to name when
// there is nothing to split) between name — its share is returned, to
// place what follows on the timeline — and "execution".
//
// The section runs under the profiler labels query and stage, so a profile
// taken from the monitor's /debug/pprof can be cut by them.
//
// An epoch the watchdog has abandoned starts no stage: it must not commit
// what a replacement query may be re-running. The span stays open while fn
// runs, and after it fails, so the watchdog's verdict and a retained
// partial trace name where the epoch hung or died.
func (r *epochRecord) fusedStage(name string, fn func(sp *trace.Span) (own, exec int64, err error)) (time.Duration, error) {
	if r.c.abandoned.Load() {
		return 0, fmt.Errorf("engine: epoch %d abandoned by watchdog before %s: %w", r.epoch, name, ErrEpochTimeout)
	}
	sp := r.et.StartSpan(name)
	var t0 time.Time
	var wall time.Duration
	var own, exec int64
	var err error
	pprof.Do(context.Background(), pprof.Labels("query", r.c.opts.Name, "stage", name), func(context.Context) {
		// Only fn is timed: setting the labels is no stage's work, and a
		// stage with nothing to do (a stateless epoch's stateCommit) must
		// still read 0.
		t0 = time.Now()
		own, exec, err = fn(sp)
		wall = time.Since(t0)
	})
	if err != nil {
		return 0, err
	}
	share := wall
	if own+exec > 0 {
		share = time.Duration(float64(wall) * float64(own) / float64(own+exec))
	}
	r.et.EndSpanWith(sp, share)
	if rest := wall - share; rest > 0 {
		r.charge("execution", t0.Add(share), rest)
	}
	return share, nil
}

// labelled wraps a stage's task function so that each task runs under the
// profiler labels query, stage and partition (go tool pprof -tagfocus
// stage=map). Pool workers are long-lived goroutines that inherit no
// labels, so each task sets its own: once per task, never per row.
func (c *core) labelled(stage string, partition func(i int) int, fn func(i int) (any, error)) func(i int) (any, error) {
	return func(i int) (res any, err error) {
		labels := pprof.Labels("query", c.opts.Name, "stage", stage, "partition", strconv.Itoa(partition(i)))
		pprof.Do(context.Background(), labels, func(context.Context) { res, err = fn(i) })
		return res, err
	}
}

// charge attributes an already-measured duration to a stage.
func (r *epochRecord) charge(name string, at time.Time, d time.Duration) *trace.Span {
	return r.et.AddStage(name, at, d)
}

// observeSource charges a source its read time since its previous record —
// epochs never overlap, so that is this epoch's — and returns it in ns.
func (c *core) observeSource(s *metrics.SourceProgress) int64 {
	is, ok := c.srcs[s.Name]
	if !ok {
		return 0 // a replayed entry may name a source this query no longer reads
	}
	st := is.Stats()
	read := st.ReadNanos - c.prevRead[s.Name]
	c.prevRead[s.Name] = st.ReadNanos
	s.ReadMicros = read / 1e3
	s.ReadErrors, s.LastErrorAtMicros, s.LastError = st.Errors, st.LastErrorAtMicros, st.LastError
	return read
}

// logOffsets is §6.1 step 1: the epoch's definition is durable before any
// of its effects, which is what makes replay deterministic.
func (c *core) logOffsets(r *epochRecord, watermark int64) error {
	return r.stage("walCommit", func(*trace.Span) error {
		entry := wal.Entry{Epoch: r.epoch, Watermark: watermark}
		for _, s := range r.sources {
			entry.Sources = append(entry.Sources, wal.SourceOffsets{Source: s.Name, Start: s.StartOffsets, End: s.EndOffsets})
		}
		return c.wal.WriteOffsets(entry)
	})
}

// commitEpoch is the protocol's last step: the commit record, then the
// news. A crash anywhere before that write and recovery replays the epoch.
// The epoch's lineage goes onto its ring record before anyone hears of the
// commit: the serving hub reads the ingest instant for the frame it builds.
func (c *core) commitEpoch(r *epochRecord) error {
	err := r.stage("walCommit", func(*trace.Span) error {
		return c.wal.WriteCommit(r.epoch)
	})
	if err != nil {
		return err
	}
	r.end = time.Now()
	r.et.SetAttr("committed", 1)
	for _, s := range r.sources {
		c.committed[s.Name] = sources.Offsets(s.EndOffsets).Clone()
	}
	c.committedState.Store(r.stateVersion)
	c.ring.Update(r.epoch, func(rec *metrics.EpochRecord) {
		rec.AdmitMicros, rec.IngestMicros = r.admit.UnixMicro(), r.ingest.UnixMicro()
		rec.ExecuteMicros, rec.CommitMicros = r.execute.UnixMicro(), r.end.UnixMicro()
	})
	c.hook.notify(r.epoch)
	return nil
}

// publish derives every monitoring view of a committed epoch from its
// record: root-span attributes, latency histograms (the p50/p95/p99 in
// /metrics), counters and gauges and the QueryProgress event.
func (c *core) publish(r *epochRecord) {
	wall := r.end.Sub(r.start)
	bd := make(map[string]int64, 6) // stage → µs
	for _, sp := range r.et.Root.Children {
		bd[sp.Name] += sp.DurationMicros
	}
	r.et.SetAttr("inputRows", r.inputRows)
	r.et.SetAttr("outputRows", r.outputRows)
	if r.workers > 1 {
		r.et.SetAttr("workers", int64(r.workers))
	}
	// Watermark lag: how far the event-time frontier trails processing
	// time. −1 (and an absent eventTime section) means the query has no
	// watermarked pipeline or the watermark has not advanced yet.
	wmLag := int64(-1)
	if r.watermarked && r.watermark > 0 {
		wmLag = time.Now().UnixMicro() - r.watermark
	}
	if wmLag >= 0 {
		c.reg.Histogram("watermarkLag.us").Observe(wmLag)
		r.et.SetAttr("watermarkLagUs", wmLag)
	}
	var evtProgress *metrics.EventTimeProgress
	if r.watermarked {
		evtProgress = &metrics.EventTimeProgress{WatermarkMicros: r.watermark, WatermarkLagUs: max(wmLag, 0)}
		if r.evt.cnt > 0 {
			evtProgress.MinMicros, evtProgress.MaxMicros = r.evt.min, r.evt.max
			evtProgress.AvgMicros = int64(r.evt.sum / float64(r.evt.cnt))
		}
	}
	if r.evt.cnt > 0 {
		r.et.SetAttr("eventTimeMinUs", r.evt.min)
		r.et.SetAttr("eventTimeMaxUs", r.evt.max)
	}

	c.reg.Histogram("epoch.us").Observe(wall.Microseconds())
	for k, v := range bd {
		c.reg.Histogram("stage." + k + ".us").Observe(v)
	}
	// Replay takes the WAL's source order, continuous mode a map's.
	if len(r.sources) > 1 {
		sort.Slice(r.sources, func(i, j int) bool { return r.sources[i].Name < r.sources[j].Name })
	}
	endTotals := map[string]int64{}
	var backlog int64 // records admission control left behind the sources' heads
	for i := range r.sources {
		s := &r.sources[i]
		s.InputRowsPerSec = metrics.RatePerSec(s.NumInputRows, wall)
		endTotals[s.Name] = sources.Offsets(s.EndOffsets).Total()
		backlog += behind(s.LatestOffsets, s.EndOffsets)
	}

	if r.mode == modeMicrobatch {
		// A microbatch epoch's rows count once it has committed; continuous
		// workers charge theirs per delivered sub-batch, because the
		// monitor and fig7 read the counters between marks.
		c.reg.Counter("inputRows").Add(r.inputRows)
		c.reg.Counter("outputRows").Add(r.outputRows)
	}
	c.reg.Counter("epochs").Add(1)
	c.reg.Gauge("watermarkMicros").Set(r.watermark)
	c.reg.Gauge("backlogRecords").Set(backlog)
	ws := c.wal.Stats()
	c.reg.Gauge("walOffsetsWritten").Set(ws.OffsetsWritten)
	c.reg.Gauge("walCommitsWritten").Set(ws.CommitsWritten)
	c.reg.Gauge("walBytesWritten").Set(ws.BytesWritten)
	c.reg.Gauge("walWriteMicros").Set(ws.WriteNanos / 1e3)

	p := metrics.QueryProgress{
		QueryName:         c.opts.Name,
		Epoch:             r.epoch,
		NumInputRows:      r.inputRows,
		NumOutputRows:     r.outputRows,
		Workers:           r.workers,
		ProcessingMillis:  wall.Milliseconds(),
		ProcessingMicros:  wall.Microseconds(),
		WatermarkMicros:   r.watermark,
		InputRowsPerSec:   metrics.RatePerSec(r.inputRows, wall),
		OutputRowsPerSec:  metrics.RatePerSec(r.outputRows, wall),
		DurationBreakdown: bd,
		BottleneckStage:   metrics.BottleneckStage(bd),
		Sources:           r.sources,
		Sink: &metrics.SinkProgress{
			Description:      sinks.Describe(c.sink),
			NumOutputRows:    r.outputRows,
			OutputRowsPerSec: metrics.RatePerSec(r.outputRows, wall),
			WriteMicros:      bd["sinkCommit"],
		},
		EventTime:           evtProgress,
		SourceOffsets:       endTotals,
		IORetries:           c.reg.Counter("ioRetries").Value(),
		CorruptionsDetected: c.reg.Counter("corruptionsDetected").Value(),
		AdmissionCapRecords: c.opts.MaxRecordsPerTrigger,
		BacklogRecords:      backlog,
	}
	if st := r.state; st != nil {
		st.WatermarkLagUs = max(wmLag, 0)
		p.StateRows, p.StateBytes = st.NumRowsTotal, st.StateBytes
		p.StateOperators = []metrics.StateOperatorProgress{*st}
	}
	c.reg.Gauge("stateRows").Set(p.StateRows)
	c.log.Emit(p)
}

// behind counts the records between a read position and the source's head.
func behind(head, pos []int64) int64 {
	var n int64
	for i := range head {
		if i < len(pos) && head[i] > pos[i] {
			n += head[i] - pos[i]
		}
	}
	return n
}
