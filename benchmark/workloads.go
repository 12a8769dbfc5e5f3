package main

import "sort"

// defaultSeconds is BENCHMARK.json's run_seconds: every workload's frozen
// sizes are calibrated so that its timed section takes about this long on
// the seed commit at nproc = 2.
const defaultSeconds = 12

type metricDecl struct {
	name, unit string
	// better and bound apply to end-to-end metrics only: the direction, and
	// the share of the median by which the metric may worsen before it
	// counts as a regression. BENCHMARK.json repeats them; the contract test
	// holds the two together. One bound serves all five workloads, so it is
	// set by the workload that repeats worst (the LSM ones; see "Bounds" in
	// README.md).
	better string
	bound  float64
}

// endToEndMetrics are printed by the untraced run, on every workload.
var endToEndMetrics = []metricDecl{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "throughput_rows_s", unit: "rows/s", better: "higher", bound: 0.25},
	{name: "latency_ms_p50", unit: "ms", better: "lower", bound: 0.25},
	{name: "latency_ms_p95", unit: "ms", better: "lower", bound: 0.25},
	{name: "recovery_s", unit: "s", better: "lower", bound: 0.25},
}

// perLayerMetrics are printed by the traced run, on every workload; a
// layer the workload never touches reads 0.
var perLayerMetrics = []metricDecl{
	{name: "sources.read_calls", unit: "count"},
	{name: "sources.read_rows", unit: "count"},
	{name: "sources.read_busy_ms", unit: "ms"},
	{name: "sources.read_ns_row", unit: "ns"},
	{name: "sources.backlog_rows_p95", unit: "count"},
	{name: "msgbus.fetch_ns_row", unit: "ns"},
	{name: "codec.decode_ns_row", unit: "ns"},
	{name: "codec.decode_bytes_row", unit: "bytes"},
	{name: "vec.kernel_ns_row", unit: "ns"},

	{name: "incremental.map_ns_row", unit: "ns"},
	{name: "incremental.groups_per_row", unit: "ratio"},
	{name: "incremental.reduce_ns_row", unit: "ns"},
	{name: "shard.hash_ns_row", unit: "ns"},
	{name: "shard.scatter_ns_row", unit: "ns"},
	{name: "shard.skew_max_over_median", unit: "ratio"},

	{name: "state.getbatch_ns_key", unit: "ns"},
	{name: "state.applybatch_ns_key", unit: "ns"},
	{name: "state.commit_ms", unit: "ms"},
	{name: "state.delta_bytes_epoch", unit: "bytes"},
	{name: "state.fs_busy_ms_epoch", unit: "ms"},
	{name: "state.keys_end", unit: "count"},
	{name: "state.disk_mb_end", unit: "MiB"},
	{name: "lsm.get_ns_key_hit", unit: "ns"},
	{name: "lsm.get_ns_key_miss", unit: "ns"},
	{name: "lsm.commit_ms", unit: "ms"},
	{name: "lsm.block_cache_hit_ratio", unit: "ratio"},
	{name: "lsm.sst_mb_written", unit: "MiB"},
	{name: "lsm.write_amp", unit: "ratio"},
	{name: "lsm.flushes", unit: "count"},
	{name: "lsm.compactions", unit: "count"},
	{name: "lsm.compaction_mb", unit: "MiB"},
	{name: "lsm.sstables_end", unit: "count"},
	{name: "lsm.maintenance_stall_ms", unit: "ms"},

	{name: "state.open_ms", unit: "ms"},
	{name: "lsm.load_ms", unit: "ms"},
	{name: "wal.recover_ms", unit: "ms"},

	{name: "incremental.join_ns_row", unit: "ns"},
	{name: "state.iterate_ms_epoch", unit: "ms"},
	{name: "state.put_bytes_row", unit: "bytes"},

	{name: "wal.files_epoch", unit: "count"},
	{name: "wal.bytes_epoch", unit: "bytes"},
	{name: "wal.busy_ms_epoch", unit: "ms"},
	{name: "wal.offsets_write_us", unit: "us"},
	{name: "wal.segment_write_us", unit: "us"},
	{name: "wal.barrier_us", unit: "us"},
	{name: "sinks.add_calls", unit: "count"},
	{name: "sinks.add_rows", unit: "count"},
	{name: "sinks.add_busy_ms", unit: "ms"},
	{name: "sinks.add_ns_row", unit: "ns"},
	{name: "sinks.column_add_ns_row", unit: "ns"},
	{name: "serve.frames", unit: "count"},
	{name: "serve.deliver_ms_p50", unit: "ms"},
	{name: "serve.deliver_ms_p99", unit: "ms"},
	{name: "serve.latency_ms_p99", unit: "ms"},
	{name: "serve.notify_to_next_us", unit: "us"},
	{name: "serve.sse_encode_ns_row", unit: "ns"},
	{name: "engine.self_ms_epoch", unit: "ms"},
	{name: "engine.start_ms", unit: "ms"},
	{name: "planner.compile_us", unit: "us"},

	{name: "engine.epochs", unit: "count"},
	{name: "engine.epoch_ms_p50", unit: "ms"},
	{name: "engine.epoch_ms_p95", unit: "ms"},
	{name: "engine.alloc_bytes_row", unit: "bytes"},
	{name: "engine.allocs_row", unit: "count"},
	{name: "engine.gc_pause_ms", unit: "ms"},
	{name: "engine.heap_peak_mb", unit: "MiB"},

	{name: "engine.trace_overhead_pct", unit: "%"},
	{name: "gen.late_ms_p99", unit: "ms"},
}

// workloadDef registers one workload.
type workloadDef struct {
	name    string
	workers int
	// frozen names the counts that size the workload's timed section.
	// BENCHMARK.json has no field for sizes, so the workload's `why` line
	// there ends with this text and the contract test holds the two together.
	frozen string
	// sizes reports the frozen sizes in force for cfg (recorded with every
	// result).
	sizes func(cfg config) map[string]any
	run   func(e *env) (*outcome, error)
}

var workloads = map[string]workloadDef{}

func register(d workloadDef) { workloads[d.name] = d }

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Sizes shared by every workload.
const (
	topicPartitions = 4
	// recoveryChunk is how many fresh records each restart finds.
	recoveryChunk = 50_000
)
