package main

import (
	"path/filepath"
	"strings"
)

// spanStats folds the traced main runs' spans into per-layer numbers. Counts
// are per run (repetition), times per epoch or per row, so a longer budget
// does not change them.
type spanStats struct {
	runs, epochs, rows float64
	by                 map[string]*spanAgg
	selfMsEpoch        float64
}

func foldSpans(spans []span, lo, hi int64) spanStats {
	var main []span
	st := spanStats{}
	var selfNs float64
	for _, s := range spans {
		if s.ID < lo || s.ID >= hi {
			continue
		}
		main = append(main, s)
		switch s.Name {
		case "run":
			st.runs++
		case "engine.epoch":
			st.epochs++
			selfNs += float64(s.SelfNs)
		}
	}
	st.by = aggregate(main)
	if a := st.by["sources.read"]; a != nil {
		st.rows = float64(a.rows)
	}
	st.selfMsEpoch = ratio(selfNs/1e6, st.epochs)
	return st
}

// sum adds up every aggregate whose name has one of the prefixes and, when
// op is not empty, ends in that operation.
func (st spanStats) sum(op string, prefixes ...string) (a spanAgg) {
	for name, g := range st.by {
		if op != "" && !strings.HasSuffix(name, "."+op) {
			continue
		}
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) {
				a.calls += g.calls
				a.rows += g.rows
				a.bytes += g.bytes
				a.busyNs += g.busyNs
				break
			}
		}
	}
	return a
}

// spanMetrics fills the interposer-derived metrics.
func spanMetrics(st spanStats, out map[string]float64) {
	read := st.sum("", "sources.read")
	out["sources.read_calls"] = ratio(float64(read.calls), st.runs)
	out["sources.read_rows"] = ratio(float64(read.rows), st.runs)
	out["sources.read_busy_ms"] = ratio(float64(read.busyNs)/1e6, st.runs)
	out["sources.read_ns_row"] = ratio(float64(read.busyNs), float64(read.rows))

	add := st.sum("", "sinks.add")
	col := st.sum("", "sinks.add_column")
	out["sinks.add_calls"] = ratio(float64(add.calls), st.runs)
	out["sinks.add_rows"] = ratio(float64(add.rows), st.runs)
	out["sinks.add_busy_ms"] = ratio(float64(add.busyNs)/1e6, st.runs)
	out["sinks.add_ns_row"] = ratio(float64(add.busyNs), float64(add.rows))
	out["sinks.column_add_ns_row"] = ratio(float64(col.busyNs), float64(col.rows))

	walAll := st.sum("", "wal.")
	walWrites := st.sum("write", "wal.")
	out["wal.files_epoch"] = ratio(float64(walWrites.calls), st.epochs)
	out["wal.bytes_epoch"] = ratio(float64(walWrites.bytes), st.epochs)
	out["wal.busy_ms_epoch"] = ratio(float64(walAll.busyNs)/1e6, st.epochs)
	perWrite := func(class string) float64 {
		w, r := st.sum("write", class), st.sum("rename", class)
		return ratio(float64(w.busyNs+r.busyNs)/1e3, float64(w.calls))
	}
	out["wal.offsets_write_us"] = perWrite("wal.offsets")
	out["wal.segment_write_us"] = perWrite("wal.segments")
	// The commit barrier reads every sealed segment back, then writes the
	// commit marker.
	barrier := st.sum("", "wal.commits").busyNs + st.sum("read", "wal.segments").busyNs + st.sum("readdir", "wal.segments").busyNs
	out["wal.barrier_us"] = ratio(float64(barrier)/1e3, st.epochs)

	delta := st.sum("write", "state.delta")
	stateWrites := st.sum("write", "state.", "lsm.")
	stateAll := st.sum("", "state.", "lsm.")
	sst := st.sum("write", "lsm.sst")
	out["state.delta_bytes_epoch"] = ratio(float64(delta.bytes), st.epochs)
	out["state.fs_busy_ms_epoch"] = ratio(float64(stateAll.busyNs)/1e6, st.epochs)
	out["state.put_bytes_row"] = ratio(float64(delta.bytes), st.rows)
	out["lsm.sst_mb_written"] = ratio(float64(sst.bytes)/(1<<20), st.runs)
	// The delta log is the logical record of what was put; everything the
	// state directory receives on top of it is amplification.
	out["lsm.write_amp"] = ratio(float64(stateWrites.bytes), float64(delta.bytes))

	out["engine.self_ms_epoch"] = st.selfMsEpoch
	out["engine.epochs"] = ratio(st.epochs, st.runs)
}

// runtimeMetrics fills the numbers read from the engine's public metrics
// registry and the Go runtime around the traced runs.
func runtimeMetrics(traced []*runStats, out map[string]float64) {
	if len(traced) == 0 {
		return
	}
	var epochMs []float64
	var rows, alloc, mallocs, pause float64
	var commitUs, commitN float64
	for _, st := range traced {
		epochMs = append(epochMs, st.epochMs...)
		rows += float64(st.rows)
		alloc += float64(st.mem.allocBytes)
		mallocs += float64(st.mem.mallocs)
		pause += float64(st.mem.pauseNs)
		if st.heapPeak > out["engine.heap_peak_mb"] {
			out["engine.heap_peak_mb"] = st.heapPeak
		}
		h := st.hists["stage.stateCommit.us"]
		commitUs += float64(h.Sum)
		commitN += float64(h.Count)
		for _, s := range st.src {
			if b := s.backlogP95(); b > out["sources.backlog_rows_p95"] {
				out["sources.backlog_rows_p95"] = b
			}
		}
	}
	out["engine.epoch_ms_p50"] = percentile(epochMs, 0.50)
	out["engine.epoch_ms_p95"] = percentile(epochMs, 0.95)
	out["engine.alloc_bytes_row"] = ratio(alloc, rows)
	out["engine.allocs_row"] = ratio(mallocs, rows)
	out["engine.gc_pause_ms"] = ratio(pause/1e6, float64(len(traced)))
	out["state.commit_ms"] = ratio(commitUs/1e3, commitN)

	last := traced[len(traced)-1].snap
	out["state.keys_end"] = float64(last["stateRows"])
	out["lsm.flushes"] = float64(last["stateFlushes"])
	out["lsm.compactions"] = float64(last["stateCompactions"])
	out["lsm.compaction_mb"] = float64(last["stateCompactionBytes"]) / (1 << 20)
	out["lsm.sstables_end"] = float64(last["stateSSTables"])
	out["lsm.maintenance_stall_ms"] = float64(last["stateMaintenanceStallUs"]) / 1e3
	hits, misses := float64(last["stateBlockCacheHits"]), float64(last["stateBlockCacheMisses"])
	out["lsm.block_cache_hit_ratio"] = ratio(hits, hits+misses)
}

func (e *env) commonPerLayer(out *outcome, lo, hi int64, traced []*runStats, thrUntraced, thrTraced float64) {
	pl := out.perLayer
	spans := e.rec.finish()
	spanMetrics(foldSpans(spans, lo, hi), pl)
	runtimeMetrics(traced, pl)
	pl["engine.start_ms"] = median(e.startMs)
	pl["planner.compile_us"] = median(e.compileUs)
	pl["engine.trace_overhead_pct"] = 100 * ratio(thrUntraced-thrTraced, thrUntraced)
}

// bulkPerLayer assembles a bulk workload's traced-run metrics.
func (e *env) bulkPerLayer(out *outcome, inst *instance, traced []*runStats, thr map[bool]float64, lastCkpt string) {
	e.commonPerLayer(out, 0, e.mainCut, traced, thr[false], thr[true])
	pl := out.perLayer
	if pl["state.keys_end"] > 0 {
		pl["state.disk_mb_end"] = float64(e.fs.treeBytes(filepath.Join(lastCkpt, "state"))) / (1 << 20)
	}
	if err := isolatedWALRecover(e.fs, lastCkpt, pl); err != nil {
		out.failed++
		out.notes["isolated.wal"] = err.Error()
	}
	iso, err := inst.isolated(e, lastCkpt)
	if err != nil {
		out.failed++
		out.notes["isolated"] = err.Error()
	}
	for k, v := range iso {
		pl[k] = v
	}
}

// livePerLayer assembles live-serve's traced-run metrics.
func (e *env) livePerLayer(out *outcome, untraced, traced *liveRun) {
	e.commonPerLayer(out, 0, e.mainCut, []*runStats{traced.st}, untraced.throughput(), traced.throughput())
	pl := out.perLayer
	var lat []float64
	for i := range traced.latencyMs {
		lat = append(lat, traced.latencyMs[i]...)
	}
	pl["serve.frames"] = float64(traced.frames)
	pl["serve.deliver_ms_p50"] = percentile(traced.deliverMs, 0.50)
	pl["serve.deliver_ms_p99"] = percentile(traced.deliverMs, 0.99)
	pl["serve.latency_ms_p99"] = percentile(lat, 0.99)
	pl["serve.notify_to_next_us"] = median(traced.notifyUs)
	sse, err := isolatedSSE(traced.in.sink, e.cfg.shrink(isolatedMin))
	if err != nil {
		out.failed++
		out.notes["isolated.sse"] = err.Error()
	}
	pl["serve.sse_encode_ns_row"] = sse
	pl["gen.late_ms_p99"] = percentile(traced.lateMs, 0.99)
	if err := isolatedWALRecover(e.fs, traced.ckpt, pl); err != nil {
		out.failed++
		out.notes["isolated.wal"] = err.Error()
	}
	iso, err := isolatedMap(e, traced.in.topic, mapSchema)
	if err != nil {
		out.failed++
		out.notes["isolated"] = err.Error()
	}
	for k, v := range iso {
		pl[k] = v
	}
}
