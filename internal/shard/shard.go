// Package shard implements the partitioned parallel execution runtime
// behind engine.Options.Workers: a fixed pool of real worker goroutines
// that runs an epoch's map shards and reduce partitions concurrently, a
// deterministic contiguous offset-range splitter so each source partition
// can feed several workers, and a columnar exchange that routes fully
// vectorized batches to state partitions by hashing key vectors instead
// of boxing every row.
//
// The pool is the engine's only task runner, and deliberately no
// scheduler: tasks run exactly once, results return in task order, and
// the first failure (by task index) is reported after every task has
// settled — an epoch never abandons a task mid-commit. Nothing is retried
// or duplicated here; the paper's exactly-once argument (§6.2) needs only
// that a failed epoch is re-run from its logged definition.
package shard

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Stats is a point-in-time snapshot of a pool's cumulative activity.
type Stats struct {
	// Workers is the fixed pool size.
	Workers int
	// TasksRun counts completed tasks (failed ones included).
	TasksRun int64
	// StagesRun counts Run calls.
	StagesRun int64
	// BusyNanos is the summed wall time workers spent inside task
	// functions; BusyNanos / (Workers × stage wall time) is pool
	// utilization.
	BusyNanos int64
}

// Pool runs tasks on a fixed set of worker goroutines. It is safe for
// concurrent use; tasks submitted by concurrent Run calls interleave over
// the same workers.
type Pool struct {
	workers int
	queue   chan job
	wg      sync.WaitGroup

	// quit is closed by Close. The queue itself never closes: a Run may
	// still be handing tasks out when its owner gives up on it.
	quit      chan struct{}
	closeOnce sync.Once

	tasksRun  atomic.Int64
	stagesRun atomic.Int64
	busyNanos atomic.Int64
}

// job is task i of a stage.
type job struct {
	st *stage
	i  int
}

// stage is one Run call: the task function and its results by task index.
type stage struct {
	fn      func(i int) (any, error)
	results []any
	errs    []error
	wg      sync.WaitGroup
}

// NewPool starts workers goroutines (minimum 1).
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{workers: workers, queue: make(chan job), quit: make(chan struct{})}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		select {
		case j := <-p.queue:
			j.st.results[j.i], j.st.errs[j.i] = p.runOne(j.st.fn, j.i)
			p.tasksRun.Add(1)
			j.st.wg.Done()
		case <-p.quit:
			return
		}
	}
}

// runOne executes one task, converting a panic into an error so a bad
// task cannot take a pool worker down with it.
func (p *Pool) runOne(fn func(i int) (any, error), i int) (res any, err error) {
	start := time.Now()
	defer func() {
		p.busyNanos.Add(time.Since(start).Nanoseconds())
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("shard: task panicked: %v", r)
		}
	}()
	return fn(i)
}

// Run executes one stage — fn(0) … fn(n-1), a map shard or a reduce
// partition each — on the pool and returns the results ordered by task
// index. Every task runs to completion even when another fails — partial
// epochs must settle, not race a replacement — and the error returned is
// the failed task with the lowest index, so a multi-failure stage reports
// deterministically. A pool closed under a running stage starts none of
// the tasks still waiting for a worker: they fail with errClosed, and Run
// still waits for the ones already handed out.
func (p *Pool) Run(n int, fn func(i int) (any, error)) ([]any, error) {
	st := &stage{fn: fn, results: make([]any, n), errs: make([]error, n)}
	st.wg.Add(n)
	p.stagesRun.Add(1)
	for i := 0; i < n; i++ {
		select {
		case p.queue <- job{st, i}:
		case <-p.quit:
			st.errs[i] = errClosed
			st.wg.Done()
		}
	}
	st.wg.Wait()
	for i, err := range st.errs {
		if err != nil {
			return nil, fmt.Errorf("shard: task %d: %w", i, err)
		}
	}
	return st.results, nil
}

var errClosed = errors.New("pool is closed")

// Close stops the workers — an idle one at once, a busy one after the task
// it is in — and waits for them to exit. Further Run calls fail; Close is
// idempotent.
func (p *Pool) Close() {
	p.closeOnce.Do(func() { close(p.quit) })
	p.wg.Wait()
}

// Stats reports the pool's cumulative counters.
func (p *Pool) Stats() Stats {
	return Stats{
		Workers:   p.workers,
		TasksRun:  p.tasksRun.Load(),
		StagesRun: p.stagesRun.Load(),
		BusyNanos: p.busyNanos.Load(),
	}
}
