package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"structream/internal/engine"
	"structream/internal/fsx"
	"structream/internal/incremental"
	"structream/internal/metrics"
	"structream/internal/sinks"
	"structream/internal/sources"
	"structream/internal/sql/analysis"
	"structream/internal/sql/logical"
	"structream/internal/sql/optimizer"
	"structream/internal/sql/physical"
)

// job is what a workload hands the harness for one engine run: a compiled
// query, its bound sources, a fresh memory sink and the engine options that
// define the workload (the harness fills Checkpoint and FS).
type job struct {
	query *incremental.Query
	srcs  map[string]sources.Source
	sink  *sinks.MemorySink
	opts  engine.Options
}

// compilePlan runs the planner the way the public writer does: analyze,
// check the plan is legal for the output mode, optimize, incrementalize.
func compilePlan(plan logical.Plan, mode logical.OutputMode, static physical.ScanResolver) (*incremental.Query, error) {
	analyzed, err := analysis.Analyze(plan)
	if err != nil {
		return nil, err
	}
	if err := analysis.CheckStreaming(analyzed, mode); err != nil {
		return nil, err
	}
	return incremental.Compile(optimizer.Optimize(analyzed), mode, static)
}

// instance is one generated workload: inputs preloaded, reference computed.
type instance struct {
	// rowsMain is the input-row count of one main run (all sources).
	rowsMain int64
	// newJob builds a fresh query, sources and sink over the topics as they
	// currently stand. compileUs receives planner time.
	newJob func() (*job, error)
	// reset clears the output accumulator; absorb folds a finished run's
	// sink into it. verifyMain compares the accumulator with the reference
	// over the main input; verifyAll with the reference over main plus all
	// recovery chunks. Both return (attempted, failed) operations.
	reset      func()
	absorb     func(s *sinks.MemorySink)
	verifyMain func() (int64, int64)
	verifyAll  func() (int64, int64)
	// appendChunk appends recovery chunk i (of restarts) to the topics and
	// returns how many records it added.
	restarts    int
	appendChunk func(i int) (int64, error)
	// isolated replays a sample of the input through single layers.
	isolated func(env *env, lastCkpt string) (map[string]float64, error)
}

// env is one benchmark process's shared state.
type env struct {
	cfg config
	fs  *memFS // holds every checkpoint and scratch directory of the run
	// healthDir receives the flight recorder's bundles (real filesystem).
	healthDir string
	rec       *recorder
	mainCut   int64 // spans with a smaller id belong to the main runs, not the restarts
	ckptSeq   int

	compileUs []float64
	startMs   []float64

	// ballast is the size of the ballast held at the moment (see
	// holdBallast), which the heap sampler leaves out of the peak.
	ballast atomic.Int64
}

func (e *env) newCheckpoint() (string, error) { return e.newDir("ckpt") }

// newDir creates a fresh directory in the run's filesystem.
func (e *env) newDir(kind string) (string, error) {
	e.ckptSeq++
	dir := fmt.Sprintf("%s-%03d", kind, e.ckptSeq)
	return dir, e.fs.MkdirAll(dir, 0o755)
}

// runStats is what one engine run yields.
type runStats struct {
	rows     int64         // input rows the engine consumed
	outRows  int64         // rows it delivered to the sink
	wall     time.Duration // engine.Start call → last commit
	first    time.Duration // engine.Start call → first commit
	epochMs  []float64     // per epoch: previous commit (or start) → commit
	snap     map[string]int64
	hists    map[string]metrics.HistogramSnapshot
	mem      memDelta
	src      []*tracedSource
	heapPeak float64
}

type memDelta struct {
	allocBytes, mallocs, pauseNs uint64
}

// runMode selects how long an engine run lasts.
type runMode int

const (
	untilDrained   runMode = iota // AvailableNow: run until the sources are drained
	untilNewCommit                // restart: stop after the first newly committed epoch
)

// runEngine starts the job on ckpt and waits per mode. Traced runs wrap the
// source, sink and filesystem in interposers; untraced runs pass them raw
// and only register an epoch listener for the commit timestamps.
func (e *env) runEngine(j *job, ckpt string, mode runMode, traced bool, label string) (*runStats, error) {
	st := &runStats{}
	opts := j.opts
	opts.Checkpoint = ckpt
	opts.HealthDir = e.healthDir
	srcs, sink, fsys, probe := e.plumb(j.srcs, j.sink, traced, label, st)
	defer probe.stop(st)
	opts.FS = fsys

	var mu sync.Mutex
	var commits []time.Time
	newCommit := make(chan struct{}, 1)

	t0 := time.Now()
	sq, err := engine.Start(j.query, srcs, sink, opts)
	if err != nil {
		return nil, fmt.Errorf("engine.Start: %w", err)
	}
	e.startMs = append(e.startMs, float64(time.Since(t0))/1e6)
	remove := sq.AddEpochListener(func(epoch int64) {
		now := time.Now()
		probe.commit(epoch)
		mu.Lock()
		commits = append(commits, now)
		mu.Unlock()
		select {
		case newCommit <- struct{}{}:
		default:
		}
	})
	registered := time.Now()
	epochsRun := sq.Metrics().Counter("epochs")
	switch mode {
	case untilDrained:
		err = sq.AwaitTermination()
	case untilNewCommit:
		// The listener misses an epoch that commits before it is
		// registered (see below), so the engine's own epoch counter is
		// polled as well.
		poll := time.NewTicker(time.Millisecond)
		deadline := time.After(60 * time.Second)
	wait:
		for epochsRun.Value() == 0 {
			select {
			case <-newCommit:
				break wait
			case <-sq.Done():
				break wait
			case <-deadline:
				err = fmt.Errorf("no epoch committed within 60s of restart")
				break wait
			case <-poll.C:
			}
		}
		poll.Stop()
		if stopErr := sq.Stop(); err == nil {
			err = stopErr
		}
	}
	remove()
	probe.stop(st)
	if err != nil {
		return nil, err
	}
	mu.Lock()
	defer mu.Unlock()
	// The engine's loop starts inside engine.Start, so a very short first
	// epoch can commit before the listener is registered. Such an epoch is
	// counted as committed at registration, late by the few microseconds
	// since Start returned.
	if epochsRun.Value() > int64(len(commits)) {
		commits = append([]time.Time{registered}, commits...)
	}
	if len(commits) == 0 {
		return nil, fmt.Errorf("%s: the query committed no epoch", label)
	}
	prev := t0
	for _, c := range commits {
		st.epochMs = append(st.epochMs, float64(c.Sub(prev))/1e6)
		prev = c
	}
	st.wall = commits[len(commits)-1].Sub(t0)
	st.first = commits[0].Sub(t0)
	st.snap = sq.Metrics().Snapshot()
	st.hists = sq.Metrics().Histograms()
	st.rows = st.snap["inputRows"]
	st.outRows = st.snap["outputRows"]
	return st, nil
}

// plumb returns what a run hands engine.Start. Untraced: the sources and
// sink as they are and the run's filesystem. Traced: each wrapped in its
// interposer, a run span opened, and allocation and heap sampling started.
// The probe's stop (idempotent, nil-safe like its commit) closes all that
// and fills st's memory figures.
func (e *env) plumb(srcs map[string]sources.Source, ms *sinks.MemorySink, traced bool, label string, st *runStats) (map[string]sources.Source, sinks.Sink, fsx.FS, *probe) {
	if !traced {
		return srcs, ms, e.fs, nil
	}
	p := &probe{rec: e.rec, fs: &tracedFS{inner: e.fs, rec: e.rec}}
	wrapped := map[string]sources.Source{}
	for name, s := range srcs {
		ts := &tracedSource{inner: s, rec: e.rec}
		st.src = append(st.src, ts)
		wrapped[name] = ts
	}
	e.rec.beginRun(label)
	runtime.ReadMemStats(&p.before)
	p.sampler = startHeapSampler(&e.ballast)
	return wrapped, &tracedSink{inner: ms, rec: e.rec}, p.fs, p
}

// probe is a traced run's measuring apparatus; a nil probe (untraced run)
// does nothing.
type probe struct {
	rec     *recorder
	fs      *tracedFS
	before  runtime.MemStats
	sampler *heapSampler
	stopped bool
}

// commit closes the epoch span for epoch.
func (p *probe) commit(epoch int64) {
	if p == nil {
		return
	}
	p.fs.flush()
	p.rec.commit(epoch)
}

func (p *probe) stop(st *runStats) {
	if p == nil || p.stopped {
		return
	}
	p.stopped = true
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	st.heapPeak = p.sampler.stop()
	st.mem = memDelta{after.TotalAlloc - p.before.TotalAlloc, after.Mallocs - p.before.Mallocs, after.PauseTotalNs - p.before.PauseTotalNs}
	p.fs.flush()
	p.rec.endRun()
}

// heapSampler tracks peak heap-in-use on traced runs (ReadMemStats stops the
// world, so the untraced run never samples), less the harness's ballast.
type heapSampler struct {
	done chan struct{}
	wg   sync.WaitGroup
	peak int64
}

func startHeapSampler(ballast *atomic.Int64) *heapSampler {
	h := &heapSampler{done: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			if inuse := int64(ms.HeapInuse) - ballast.Load(); inuse > h.peak {
				h.peak = inuse
			}
			select {
			case <-h.done:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in MiB.
func (h *heapSampler) stop() float64 {
	close(h.done)
	h.wg.Wait()
	return float64(h.peak) / (1 << 20)
}

// holdBallast allocates a gigabyte that is never touched (so never resident)
// and holds no pointers (so is never scanned), and returns the function that
// lets go of it. While it is held the collector's trigger is out of reach of
// one repetition or one restart, each of which starts from a forced
// collection.
//
// Without it a repetition allocates about as much as the preloaded topic
// keeps alive (0.94 of it on map-bulk, 0.92 on ysb-bulk), which is exactly
// where the trigger sits after a forced collection: some processes then
// collected once inside every repetition, tripling four of its epochs, and
// others never, and map-bulk read 13 M rows/s or 19.5 M accordingly;
// live-serve's restarts took 6 ms or 10 ms the same way. A single-run
// workload's main run has no ballast: collections are part of it. What the
// engine allocates is reported by the traced run (engine.alloc_bytes_row,
// engine.allocs_row, engine.gc_pause_ms).
func (e *env) holdBallast() (release func()) {
	b := make([]byte, 1<<30)
	e.ballast.Store(int64(len(b)))
	return func() {
		runtime.KeepAlive(b)
		e.ballast.Store(0)
	}
}
