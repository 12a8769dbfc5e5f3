package main

import (
	"fmt"
	"runtime"
	"time"
)

// bulkSpec describes a bulk (closed, drain-the-backlog) workload.
type bulkSpec struct {
	// setup generates inputs from the seed, preloads the topics and
	// computes the reference.
	setup func(cfg config) (*instance, error)
	// reps is the frozen number of back-to-back runs over the same
	// preloaded input, the first of which is discarded. 1 is a single run
	// whose state grows along it: repeating a shorter one would never reach
	// the regime such a workload exists for. It is run singleRunReps times
	// at full size and none is discarded.
	reps int
}

// singleRunReps is how often a single-run workload is run at full size: the
// second run is there so that a burst of interference during one of them does
// not set the figure (see quiet).
const singleRunReps = 2

// outcome is what every workload returns to main.
type outcome struct {
	attempted, failed int64
	endToEnd          map[string]float64
	perLayer          map[string]float64
	notes             map[string]any
}

// setupRounds is how many times a run sets up (the median is reported).
const setupRounds = 3

func runBulk(e *env, spec bulkSpec) (*outcome, error) {
	cfg := e.cfg
	out := &outcome{endToEnd: map[string]float64{}, perLayer: map[string]float64{}, notes: map[string]any{}}
	single := spec.reps == 1
	reps := singleRunReps
	if !single {
		reps = cfg.reps(spec.reps)
		defer e.holdBallast()()
	}

	// Set-up, several times: the median is the reported set-up time.
	var inst *instance
	var setupS []float64
	rounds := setupRounds
	if cfg.trace {
		rounds = 1
	}
	for i := 0; i < rounds; i++ {
		inst = nil
		if err := cfg.cpus.choose(); err != nil {
			return nil, err
		}
		runtime.GC()
		t0 := time.Now()
		in, err := spec.setup(cfg)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		inst = in
	}
	out.endToEnd["setup_s"] = median(setupS)
	out.notes["setup_s.rounds"] = setupS

	// Main runs: a fixed number of repetitions per phase. A traced
	// invocation runs an untraced phase first (for the tracing overhead) and
	// shortens both when the workload repeats; a single run keeps its size,
	// which sets its state regime.
	type phase struct {
		traced bool
		reps   int
	}
	phases := []phase{{false, reps}}
	if cfg.trace && single {
		phases = []phase{{false, 1}, {true, 1}}
	} else if cfg.trace {
		phases = []phase{{false, max(reps/4, 2)}, {true, max(reps/2, 2)}}
	}
	var lastCkpt string
	var lastTraced []*runStats
	thr := map[bool]float64{}
	var p50s, p95s []float64 // per kept untraced repetition: quantiles of its epoch durations
	var epochs int
	for _, ph := range phases {
		var runs []*runStats
		var lastJob *job
		for i := 0; i < ph.reps; i++ {
			if lastCkpt != "" {
				e.fs.removeAll(lastCkpt)
			}
			ckpt, err := e.newCheckpoint()
			if err != nil {
				return nil, err
			}
			lastCkpt = ckpt
			j, err := e.compile(inst)
			if err != nil {
				return nil, err
			}
			if err := cfg.cpus.choose(); err != nil {
				return nil, err
			}
			runtime.GC()
			st, err := e.runEngine(j, ckpt, untilDrained, ph.traced, "run")
			if err != nil {
				return nil, err
			}
			// Every repetition is checked by row counts; the last one of a
			// phase is checked in full below.
			out.attempted++
			if st.rows != inst.rowsMain {
				out.failed++
				out.notes[fmt.Sprintf("rep%d.rows", i)] = fmt.Sprintf("consumed %d of %d input rows", st.rows, inst.rowsMain)
			}
			runs = append(runs, st)
			lastJob = j
		}
		inst.reset()
		inst.absorb(lastJob.sink)
		a, f := inst.verifyMain()
		out.attempted += a
		out.failed += f
		kept := runs
		if !single {
			kept = runs[1:]
		}
		var tp []float64
		for _, st := range kept {
			tp = append(tp, float64(st.rows)/st.wall.Seconds())
			if !ph.traced {
				p50s = append(p50s, percentile(st.epochMs, 0.50))
				p95s = append(p95s, percentile(st.epochMs, 0.95))
				epochs += len(st.epochMs)
			}
		}
		thr[ph.traced] = quiet(tp, "higher")
		out.notes[fmt.Sprintf("throughput_rows_s.reps.traced=%v", ph.traced)] = tp
		if ph.traced {
			lastTraced = kept
		}
		out.notes[fmt.Sprintf("reps.traced=%v", ph.traced)] = len(runs)
		last := runs[len(runs)-1].snap
		for _, k := range []string{"epochs", "stateRows", "stateSSTables", "stateSSTableBytes", "stateFlushes", "stateCompactions",
			"stateBlockCacheHits", "stateBlockCacheMisses", "stateMaintenanceStallUs", "outputRows"} {
			if v := last[k]; v != 0 {
				out.notes["engine."+k] = v
			}
		}
	}
	out.endToEnd["throughput_rows_s"] = thr[false]
	out.endToEnd["latency_ms_p50"] = quiet(p50s, "lower")
	out.endToEnd["latency_ms_p95"] = quiet(p95s, "lower")
	out.notes["latency.samples"] = epochs
	out.notes["latency_ms_p50.reps"] = p50s
	out.notes["latency_ms_p95.reps"] = p95s

	// Recovery: restart on the finished run's checkpoint after appending
	// fresh records; time engine.Start → first newly committed epoch.
	var recS []float64
	if cfg.trace {
		e.mainCut = e.rec.mark()
	}
	if single {
		defer e.holdBallast()()
	}
	for i := 0; i < inst.restarts; i++ {
		n, err := inst.appendChunk(i)
		if err != nil {
			return nil, err
		}
		j, err := e.compile(inst)
		if err != nil {
			return nil, err
		}
		if err := cfg.cpus.choose(); err != nil {
			return nil, err
		}
		runtime.GC()
		st, err := e.runEngine(j, lastCkpt, untilDrained, cfg.trace, "restart")
		if err != nil {
			return nil, fmt.Errorf("restart %d: %w", i, err)
		}
		out.attempted++
		if st.rows != n {
			out.failed++
			out.notes[fmt.Sprintf("restart%d.rows", i)] = fmt.Sprintf("consumed %d of %d appended rows", st.rows, n)
		}
		inst.absorb(j.sink)
		recS = append(recS, st.first.Seconds())
	}
	// Every restart of a single-run workload finds another state (how full the
	// memtables are, which compaction is due), and that sets its time more
	// than the machine does: the median is the steadier figure there.
	if single {
		out.endToEnd["recovery_s"] = median(recS)
	} else {
		out.endToEnd["recovery_s"] = quiet(recS, "lower")
	}
	out.notes["recovery_s.restarts"] = recS
	a, f := inst.verifyAll()
	out.attempted += a
	out.failed += f

	if cfg.trace {
		e.bulkPerLayer(out, inst, lastTraced, thr, lastCkpt)
	}
	return out, nil
}

// compile builds a fresh job, timing the planner.
func (e *env) compile(inst *instance) (*job, error) {
	t0 := time.Now()
	j, err := inst.newJob()
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	e.compileUs = append(e.compileUs, float64(time.Since(t0))/1e3)
	return j, nil
}
