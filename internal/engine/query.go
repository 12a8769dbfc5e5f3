package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"structream/internal/fsx"
	"structream/internal/health"
	"structream/internal/incremental"
	"structream/internal/metrics"
	"structream/internal/sinks"
	"structream/internal/sources"
	"structream/internal/sql"
	"structream/internal/sql/logical"
	"structream/internal/wal"
)

// QueryStatus is the lifecycle state of a streaming query. It is updated
// atomically with the terminal error, so callers never observe a query
// that is done but has neither a status nor an error — the race that
// polling Err against AwaitTermination used to allow.
type QueryStatus int32

const (
	// StatusRunning: the driver loop is live and processing epochs.
	StatusRunning QueryStatus = iota
	// StatusStopped: the query terminated without error (Stop, or a
	// Once/AvailableNow trigger that finished its work).
	StatusStopped
	// StatusFailed: the query terminated with an error; Err() is non-nil.
	StatusFailed
)

// String renders the status for logs and events.
func (s QueryStatus) String() string {
	switch s {
	case StatusRunning:
		return "Running"
	case StatusStopped:
		return "Stopped"
	case StatusFailed:
		return "Failed"
	default:
		return fmt.Sprintf("QueryStatus(%d)", int32(s))
	}
}

// epochHook fans epoch-commit notifications out to registered listeners.
// The engine calls notify directly on the commit path, so listeners must
// be cheap and non-blocking (the serving layer's listener is an atomic
// store plus a non-blocking channel send).
type epochHook struct {
	mu   sync.Mutex
	fns  map[int64]func(epoch int64)
	next int64
	last atomic.Int64 // last committed epoch, -1 before any
}

func newEpochHook() *epochHook {
	h := &epochHook{fns: map[int64]func(int64){}}
	h.last.Store(-1)
	return h
}

func (h *epochHook) add(fn func(int64)) (remove func()) {
	h.mu.Lock()
	id := h.next
	h.next++
	h.fns[id] = fn
	h.mu.Unlock()
	return func() {
		h.mu.Lock()
		delete(h.fns, id)
		h.mu.Unlock()
	}
}

func (h *epochHook) notify(epoch int64) {
	for {
		last := h.last.Load()
		if epoch <= last || h.last.CompareAndSwap(last, epoch) {
			break
		}
	}
	h.mu.Lock()
	fns := make([]func(int64), 0, len(h.fns))
	for _, fn := range h.fns {
		fns = append(fns, fn)
	}
	h.mu.Unlock()
	for _, fn := range fns {
		fn(epoch)
	}
}

// StreamingQuery is the handle to a running query, mirroring the paper's
// query management API: stop it, wait for it, inspect progress, or drive
// it synchronously in tests.
type StreamingQuery struct {
	name string
	core *core           // what both modes share
	exec *exec           // non-nil in microbatch mode
	cont *continuousExec // non-nil in continuous mode

	stopCh   chan struct{}
	doneCh   chan struct{}
	stopOnce sync.Once
	status   atomic.Int32

	mu  sync.Mutex
	err error
}

// Start begins executing a compiled incremental query against the given
// sources and sink. The trigger in opts selects microbatch (default) or
// continuous execution.
func Start(q *incremental.Query, srcs map[string]sources.Source, sink sinks.Sink, opts Options) (*StreamingQuery, error) {
	opts = opts.withDefaults()
	if ct, ok := opts.Trigger.(ContinuousTrigger); ok {
		return startContinuous(q, srcs, sink, opts, ct)
	}
	e, err := newExec(q, srcs, sink, opts)
	if err != nil {
		return nil, err
	}
	sq := &StreamingQuery{
		name:   opts.Name,
		core:   e.core,
		exec:   e,
		stopCh: make(chan struct{}),
		doneCh: make(chan struct{}),
	}
	go sq.loop()
	return sq, nil
}

// loop is the trigger-driven driver goroutine.
func (q *StreamingQuery) loop() {
	defer q.finish()
	switch trig := q.exec.opts.Trigger.(type) {
	case OnceTrigger:
		_, err := q.exec.runOnce()
		q.setErr(err)
	case AvailableNowTrigger:
		_, err := q.exec.RunAvailable()
		q.setErr(err)
	case ProcessingTimeTrigger:
		q.setErr(q.exec.runTriggered(trig.Interval, q.stopCh))
	default:
		q.setErr(fmt.Errorf("engine: unknown trigger %T", q.exec.opts.Trigger))
	}
}

// finish settles the terminal status *before* doneCh closes, so a caller
// woken by AwaitTermination/Done observes status and error atomically.
func (q *StreamingQuery) finish() {
	if q.Err() != nil {
		q.status.Store(int32(StatusFailed))
	} else {
		q.status.Store(int32(StatusStopped))
	}
	if q.exec != nil {
		q.exec.close()
	}
	close(q.doneCh)
}

func (q *StreamingQuery) setErr(err error) {
	if err == nil {
		return
	}
	q.mu.Lock()
	if q.err == nil {
		q.err = err
	}
	q.mu.Unlock()
}

// Err returns the query's terminal error, if any.
func (q *StreamingQuery) Err() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.err
}

// Status returns the query's lifecycle state. Unlike racing Err against
// AwaitTermination, a terminal status (Stopped/Failed) is only ever
// observed after the matching error is in place.
func (q *StreamingQuery) Status() QueryStatus {
	return QueryStatus(q.status.Load())
}

// Done returns a channel closed when the query terminates. By then Status
// and Err are settled.
func (q *StreamingQuery) Done() <-chan struct{} { return q.doneCh }

// Name returns the query name.
func (q *StreamingQuery) Name() string { return q.name }

// Stop terminates the query gracefully and waits for the driver loop to
// exit. The WAL and state store retain everything needed to restart from
// where it left off (§7.1: code updates are "stop, update, restart").
func (q *StreamingQuery) Stop() error {
	q.stopOnce.Do(func() { close(q.stopCh) })
	if q.cont != nil {
		q.cont.stop()
	}
	<-q.doneCh
	return q.Err()
}

// AwaitTermination blocks until the query stops on its own (Once /
// AvailableNow triggers, or a failure).
func (q *StreamingQuery) AwaitTermination() error {
	<-q.doneCh
	return q.Err()
}

// ProcessAllAvailable synchronously runs epochs until every source is
// drained — the deterministic test and example driver (microbatch only).
func (q *StreamingQuery) ProcessAllAvailable() error {
	if q.exec == nil {
		return fmt.Errorf("engine: ProcessAllAvailable is not available in continuous mode")
	}
	if err := q.Err(); err != nil {
		return err
	}
	_, err := q.exec.RunAvailable()
	q.setErr(err)
	return err
}

// EventLog exposes the query's progress events (§7.4).
func (q *StreamingQuery) EventLog() *metrics.EventLog { return q.core.log }

// Epochs exposes the query's ring of epoch records: the span tree, progress
// event and latency lineage of each of the newest epochs, in flight
// included.
func (q *StreamingQuery) Epochs() *metrics.EpochRing { return q.core.ring }

// Health exposes the query's health tracker: the lineage view of the epoch
// ring and the per-partition rows and task time.
func (q *StreamingQuery) Health() *health.Tracker { return q.core.health }

// Metrics exposes the query's metric registry.
func (q *StreamingQuery) Metrics() *metrics.Registry { return q.core.reg }

// LastProgress returns the most recent progress event, if any.
func (q *StreamingQuery) LastProgress() (metrics.QueryProgress, bool) {
	recent := q.EventLog().Recent(1)
	if len(recent) == 0 {
		return metrics.QueryProgress{}, false
	}
	return recent[0], true
}

// OutputMode returns the query's validated output mode.
func (q *StreamingQuery) OutputMode() logical.OutputMode { return q.core.q.Mode }

// OutputSchema returns the schema of the query's result rows.
func (q *StreamingQuery) OutputSchema() sql.Schema { return q.core.q.OutSchema }

// AddEpochListener registers fn to be called after every epoch commit
// (the WAL commit record is durable and the sink holds the epoch's rows).
// fn runs on the engine's commit path and must not block; offload real
// work to another goroutine. The returned function removes the listener.
// Recovery replay of a previously committed epoch notifies again with the
// same epoch number — listeners needing exactly-once should dedupe on it.
func (q *StreamingQuery) AddEpochListener(fn func(epoch int64)) (remove func()) {
	return q.core.hook.add(fn)
}

// LastCommittedEpoch returns the newest committed epoch, or -1 before any
// epoch has committed in this instance's lifetime.
func (q *StreamingQuery) LastCommittedEpoch() int64 {
	return q.core.hook.last.Load()
}

// StateAccess describes where a query's committed state lives, for
// point-in-time readers (the serving layer's queryable-state API). Version
// is the newest state version covered by a WAL commit — opening every
// partition at exactly that version yields a prefix-consistent snapshot.
type StateAccess struct {
	Checkpoint      string
	FS              fsx.FS
	Operator        string
	Partitions      int
	Version         int64
	MemtableBytes   int64
	BlockCacheBytes int64
}

// StateAccess reports how to open read-only snapshots of the query's
// state store. ok is false when the query has no stateful operator (or is
// running in continuous mode, which supports map-only pipelines).
func (q *StreamingQuery) StateAccess() (StateAccess, bool) {
	e := q.exec
	if e == nil || e.q.Stateful == nil {
		return StateAccess{}, false
	}
	return StateAccess{
		Checkpoint:      e.opts.Checkpoint,
		FS:              e.opts.FS,
		Operator:        e.q.Stateful.Name(),
		Partitions:      e.opts.NumPartitions,
		Version:         e.committedState.Load(),
		MemtableBytes:   e.opts.StateMemtableBytes,
		BlockCacheBytes: e.opts.StateBlockCacheBytes,
	}, true
}

// Rollback rewinds a STOPPED query's checkpoint so that epochs after keep
// are forgotten (§7.2 manual rollback). The caller should also roll back
// the sink (file sinks expose Rollback; memory sinks Truncate) and then
// restart the query, which will recompute from the retained prefix.
func Rollback(checkpoint string, keep int64) error {
	w, err := wal.Open(checkpoint)
	if err != nil {
		return err
	}
	return w.RollbackTo(keep)
}
