#!/bin/sh
# Verification in two tiers. Default: gofmt, vet, race-enabled tests (torture
# sweep included), the benchmark module, the dead-path baseline's reasons,
# the stale-name guard, the varint reader guard and the vectorized/row
# differential smoke. VERIFY_FULL=1 adds
# thirteen fuzz smokes, nine micro-benchmark steps, the x20 arrival wake-up
# run and the dead-path audit. The last line says which tier ran. Use `go test -short ./...` for the
# quick tier that skips the crash sweep.
set -eu
cd "$(dirname "$0")/.."
# step announces a step and prints the wall time of the one before it, so a
# run shows where its minutes went; the last line before "verify: OK" is the
# total.
step_name=""
step_start=$(date +%s)
verify_start=$step_start
step() {
	now=$(date +%s)
	if [ -n "$step_name" ]; then
		echo "   ($((now - step_start)) s: $step_name)"
	fi
	step_name=$1
	step_start=$now
	[ -z "$1" ] || echo ">> $1"
}
# gofmt walks directories, not modules, so one pass from the root covers the
# main module and benchmark/ alike; any name it prints is a failure.
step "gofmt -l . (main module and benchmark/)"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "$unformatted"
	echo "verify: the files above are not gofmt-clean (run gofmt -w on them)"
	exit 1
fi
step "go vet ./..."
go vet ./...
step "go test -race ./..."
go test -race ./...
# Everything from here to the benchmark module runs under VERIFY_FULL=1 only:
# none of it needs to run per change, and together it was most of the script's
# minutes. Run the full tier after touching a decoder, a state or sink layout,
# msgbus.Arrival, the trigger loop or a source's NotifyArrival — and before a
# PR lands.
tier=default
if [ "${VERIFY_FULL:-}" = "1" ]; then
	tier=full
	# The arrival-signal tests hang (and fail on their own deadline) when a
	# wake-up between an append and the trigger's wait is lost, and a race
	# like that needs repetition to show: PR 16's Subscription.Next lost
	# wake-up passed a single -race run. The default tier keeps the one -race
	# pass `go test -race ./...` above gave them. The bus log's view test
	# rides along: a writer touching bytes a held view can see is a race
	# that shows only now and then.
	step "arrival wake-up, leak and bus view tests, -race -count=20"
	go test -race -count=20 -run 'TestArrival|TestIdleQueryDoesNotPoll|TestContinuousWorkersWaitForArrival|TestFetchViewStableAcrossAppendAndTrim' \
		./internal/msgbus/ ./internal/sources/ ./internal/engine/
	# Fuzz smokes: five seconds of coverage-guided input on every decoder
	# that reads bytes off disk or the wire. Round-trips must hold, corrupt
	# input must never panic, and nothing but fsx.ErrCorrupt may come back.
	# fuzz <what> <target> <package> [go test flag]
	fuzz() {
		step "$1 fuzz smoke"
		go test -run '^$' -fuzz "$2" -fuzztime 5s ${4:-} "$3"
	}
	# The state record framing of the delta log (and of the snapshots in
	# checkpoints the retired map store wrote): records out of order or
	# repeating a key must replay as the log they are.
	fuzz "lsm record-framing" FuzzRecordBatch ./internal/lsm/
	# The tree's one comparison rule (eight key bytes first, the rest on a
	# tie) against bytes.Compare: the merge over memtable runs and table
	# iterators, and the point lookup's two searches against a scan.
	fuzz "lsm merge iterator" FuzzMergeIter ./internal/lsm/
	fuzz "lsm table lookup" FuzzTableGet ./internal/lsm/
	# The SSTable reader — footer, filter header, block index and block
	# entries, each behind a valid checksum — and the manifest reader, raw and
	# behind a valid frame: what it accepts is a manifest Load can act on.
	fuzz "lsm sstable reader" FuzzOpenTable ./internal/lsm/
	fuzz "lsm manifest reader" FuzzManifest ./internal/lsm/
	# The decoders that read stream-stream join state back (header, entry and
	# meta values, time-index keys), and the time band the planner derives
	# from a join condition: a pair the band excludes is one the residual
	# rejects.
	fuzz "join state" FuzzJoinState ./internal/incremental/
	fuzz "join band" FuzzJoinBand ./internal/incremental/
	# The aggregate's state values: the typed loader of each of the nine
	# buffers against the Serialize/Deserialize oracle. Minimizing a new 1 KiB
	# input (an HLL state) would eat the whole smoke, so minimization is off.
	fuzz "aggregate state" FuzzAggState ./internal/incremental/ "-fuzzminimizetime=0"
	# The bus-record decoders: the pruned, the full typed and the boxed one
	# must keep and drop the same records and agree on every kept cell, and
	# the decode program must give the per-record decoder's answers with any
	# number of run bytes after the record.
	fuzz "pruned row decode" FuzzDecodeRowPruned ./internal/sql/codec/
	# The row codec's varint reader against encoding/binary, which shares no
	# code with its word path: same value, same width, for any bytes.
	fuzz "varint reader" FuzzVarint ./internal/sql/
	# What the write-ahead log reads back — offsets entry and commit record —
	# raw and behind a valid frame.
	fuzz "wal decode" FuzzWALDecode ./internal/wal/
	# The columnar table's segment reader (ReadSegment) over lengths and
	# counts read off disk.
	fuzz "colfmt segment" FuzzColfmtSegment ./internal/colfmt/
	# The memory sink's result table: whatever batches the fuzzer draws,
	# every reader returns what a map of boxed rows would, before and after a
	# rewrite of the slabs.
	fuzz "memory sink table" FuzzMemorySinkTable ./internal/sinks/ "-fuzzminimizetime=0"
	# Micro-benchmarks, one iteration each: they assert their own set-up (a
	# full memtable, a window's key count, every partial group that crossed
	# the exchange coming back as an updated row, the sink's row count
	# against its distinct keys), so they must keep running, not only
	# compiling.
	step "state and lsm micro-benchmarks, -benchtime 1x"
	go test -run '^$' -bench 'BenchmarkStoreStageCommit|BenchmarkStoreRangeNarrow|BenchmarkMergeIter|BenchmarkFlush|BenchmarkCompact4|BenchmarkTableGet' -benchtime 1x \
		./internal/state/ ./internal/lsm/ >/dev/null
	step "aggregate exchange micro-benchmark, -benchtime 1x"
	go test -run '^$' -bench 'BenchmarkAggExchange' -benchtime 1x ./internal/incremental/ >/dev/null
	# The map-side grouping pass alone, on string keys and on ysb-bulk's
	# window-plus-campaign key: it fails on a batch that does not resolve to
	# its number of distinct keys.
	step "partial aggregate micro-benchmark, -benchtime 1x"
	go test -run '^$' -bench 'BenchmarkPartialAggUpdateBatch' -benchtime 1x ./internal/incremental/ >/dev/null
	# One ysb-bulk map task from a pooled decode batch to the shuffle
	# buckets, released after: it fails unless the buckets hold one cell
	# per (window, campaign) group.
	step "map task micro-benchmark, -benchtime 1x"
	go test -run '^$' -bench 'BenchmarkMapTaskScatter' -benchtime 1x ./internal/incremental/ >/dev/null
	# The broadcast join's probe on int64, string and two-column keys, and
	# string = against a literal on its word-load path and its == fallback:
	# they fail on a joined row count the row stage does not give and on a
	# wrong count of true verdicts.
	step "broadcast join and string equality micro-benchmarks, -benchtime 1x"
	go test -run '^$' -bench 'BenchmarkStreamStaticJoin' -benchtime 1x ./internal/incremental/ >/dev/null
	go test -run '^$' -bench 'BenchmarkEqStrConst' -benchtime 1x ./internal/sql/vec/ >/dev/null
	# The join's exchange, bus records to committed deltas: it checks that
	# every input row reached a partition and that pairs came out.
	step "join exchange micro-benchmark, -benchtime 1x"
	go test -run '^$' -bench 'BenchmarkJoinExchange' -benchtime 1x ./internal/incremental/ >/dev/null
	step "memory sink micro-benchmarks, -benchtime 1x"
	go test -run '^$' -bench 'BenchmarkMemorySink' -benchtime 1x ./internal/sinks/ >/dev/null
	# The bus-record decode, Yahoo! event and map-bulk record, a record per
	# call and a 64 Ki-record epoch read off a topic through the bus source's
	# ReadVec (run/map-bulk, run/ysb-pruned, run/nulls: a NULL value in every
	# 64th record, run/join: join-skew's three int64 columns): it fails on a
	# record the typed decoder does not land and on an epoch whose batch is
	# not one row per record.
	step "codec decode micro-benchmark, -benchtime 1x"
	go test -run '^$' -bench 'BenchmarkDecodeVec' -benchtime 1x ./internal/sql/codec/ >/dev/null
	# The bus log: map-bulk's preload shape and an epoch-sized read; they
	# fail on a topic that loses a record.
	step "message bus micro-benchmarks, -benchtime 1x"
	go test -run '^$' -bench 'BenchmarkTopic' -benchtime 1x ./internal/msgbus/ >/dev/null
	# The dead-path audit: a function under internal/ that only its own
	# package's tests reach must be in the baseline with a reason, so a dead
	# path is a decision and not an accident. A baseline entry reached now is
	# only reported: delete the line.
	step "dead-path audit against scripts/deadpaths.baseline"
	dead=$(scripts/deadpaths.sh)
	known=$(sed -e 's/#.*//' -e 's/[[:space:]]*$//' -e '/^$/d' scripts/deadpaths.baseline | sort -u)
	unlisted=$(printf '%s\n' "$dead" | grep -vxF "$known" || true)
	reached=$(printf '%s\n' "$known" | grep -vxF "$dead" || true)
	if [ -n "$reached" ]; then
		echo "deadpaths: reached now, prune from the baseline:"
		echo "$reached" | sed 's/^/  /'
	fi
	if [ -n "$unlisted" ]; then
		echo "$unlisted" | sed 's/^/  /'
		echo "verify: the functions above are reached by nothing but their own package's tests and are not in scripts/deadpaths.baseline (call, delete, or list them with a reason)"
		exit 1
	fi
fi
# The repository benchmark is its own module, so `go test ./...` above never
# compiles it: run its contract, compare and 1/100-size smoke tests here, so
# a break in the APIs it drives (StatefulOp.Process, Store.Iterate/Commit,
# Provider fields, ...) is caught by verify and not by the next measurement.
step "benchmark module vet + tests"
(cd benchmark && go vet . && go test .)
# Names whose producer is gone (the legacy bench harness and the options
# only it selected; the simulated cluster scheduler, its injection hooks,
# its gauges and the writer method that selected it; the bus's timed
# per-partition wait, replaced by the arrival signal; the state store's
# three staging maps, their filter-and-sort helper and the tree's second
# commit entry point; the boxed partial-row renderer and the decoders of what
# it rendered; the memory sink's boxed-row copier and its key-order list; calls
# of the state store's hint method, folded into PutNew and RemoveLive; the
# per-partition WAL seal, its commit barrier and the engine predicate that
# selected them — not the seal's write and read methods, whose names colfmt
# owns; the lineage-stamp ring's size, the event log's settable history
# limit and the four engine-side stamp methods, all gone into the one epoch
# ring — not the deliver stamp, which the hub still calls; the join's boxed
# shuffle-row constructor, replaced by join cells; the engine's vectorize
# option, its pointer helper and the reduce-side merge only it selected; the
# Fig 6b cost model, its calibration and the run-once cost model, and the
# dataflow baseline's parallel runner and flat-map operator; the hub's hook
# into the restart supervisor, the query status, constructor and progress
# key only the supervisor fed and its health signal (the supervisor's own
# package is gone, and its names with it); the map
# state store, its backend name, the interface it shared with the tree, its
# snapshot cadence option and counter and its snapshot finder; the adaptive
# admission limiter, its two options, its progress key and the cap accessor
# it tightened — not the cap's progress key, which keeps its name; the rate
# source's constructor and schema; the engine's sync-maintenance bool — not
# the writer option of that name, which starts lower-case; the map
# pipelines' push-style stage form — its stage factory and row emit types,
# its run-rows-into-a-callback entry point and its stage instantiation
# helper — and the per-row partition router, replaced by the batch
# executor's row stages and Pipeline.Scatter) must not survive
# in code, scripts or docs. The pattern is assembled from halves so this
# script does not match itself.
# Every dead-path baseline entry names one of the four reasons in the
# baseline's legend. An entry with any other reason, or none, would park a
# name without a decision.
step "dead-path baseline reasons"
reasons='interface method|fault or test seam|frozen-benchmark hostage \(item 4\)|error path only its own tests reach'
unreasoned=$(grep -v -e '^#' -e '^$' scripts/deadpaths.baseline | grep -vE "^[^[:space:]#]+[[:space:]]+# ($reasons)\$" || true)
if [ -n "$unreasoned" ]; then
	echo "$unreasoned" | sed 's/^/  /'
	echo "verify: the scripts/deadpaths.baseline entries above give none of the four reasons in its legend"
	exit 1
fi
step "stale-reference guard"
stale='bench''-json|bench''-compare|BENCH''_20|RunBench''Suite|Disable''Tracing|Disable''Health|Health''Config'
stale="$stale"'|Run''Stage|No''Speculate|Inject''TaskFailure|Inject''Slowdown|Speculation''M'
stale="$stale"'|cluster''TasksRun|cluster''StagesRun|cluster''TaskMicros|DataStreamWriter\.''Cluster'
stale="$stale"'|Wait''ForData|Commit''WithHints|sorted''KeysIn|pending''Put|pending''Del'
stale="$stale"'|render''Row|shuffle''Rows|decode''Shuffle|decode''AggState'
stale="$stale"'|clone''Rows|key''Order|\.Hi''nt\('
stale="$stale"'|Commit''Barrier|Segment''Ref|Segment''Partitions|Segments''Written|drop''UncommittedSegments|e\.sh''arded'
stale="$stale"'|stamp''Slots|History''Limit|Stamp''Ingest|Stamp''Admit|Stamp''Execute|Stamp''Commit'
stale="$stale"'|JoinShuffle''Row'
stale="$stale"'|mergeRows''Baseline|engine\.''Bool\(|Vectorize: ''Bool|opts\.''Vectorize'
stale="$stale"'|Virtual''Cluster|Calibrate''Yahoo|RunFig''6b|RunRun''Once|RunPart''itioned|FlatMap''Operator'
stale="$stale"'|Attach''Super''vised|Mark''Restarting|Status''Restarting|NewFailed''Query'
stale="$stale"'|restarts''PerEpoch|RestartBackoff''Millis'
stale="$stale"'|mem''Backend|Backend''Memory|store''Backend|StateSnapshot''Interval|Snapshots''Written|latestSnapshot''AtOrBelow'
stale="$stale"'|Observe''Epoch|Sync''Capture|Disable''Profiles|CPUProfile''Duration|Cooldown''Epochs|List''Bundles|Verify''Bundle'
stale="$stale"'|Read''BundleFile|Last''Anomaly|Signal''Status|debug/''bundles|\.Write''Failures\('
stale="$stale"'|aimd''Limiter|Adaptive''Backpressure|Backpressure''Target|Backpressure''Decision|admission''Cap\('
stale="$stale"'|NewRate''Source|Rate''Schema|StateSync''Maintenance'
stale="$stale"'|TryCompile''Vec|vecFused''Op|Vec''Source|Next''Vec|ReadSegment''Vec|DecodeColumnTo''Vector|MaxIO''Retries|Retry''Backoff'
stale="$stale"'|Stage''Factory|Row''Emit|Process''To|instantiate''From|Partition''Of'
stale="$stale"'|vec\.Sum''Int64|vec\.Max''Int64|vec\.Min''Int64'
if git grep -nE "$stale" -- ':!CHANGES.md' ':!ROADMAP.md' ':!ISSUE.md' ':!benchmark/'; then
	echo "verify: stale reference to a retired harness, scheduler, option or diagnostic"
	exit 1
fi
# The row codec reads every varint through one reader (internal/sql/varint.go)
# whose fallback is encoding/binary's byte loop. That fallback must be the
# only call of the loop in internal/sql: any other is a decode path that
# skipped the reader.
step "varint reader guard"
loops=$(git grep -nE 'binary\.(Uvarint|Varint)\(' -- internal/sql ':!*_test.go' || true)
if [ "$(echo "$loops" | grep -c .)" != 1 ] || ! echo "$loops" | grep -q '^internal/sql/varint\.go:[0-9]*:.*return binary\.Uvarint(buf)$'; then
	echo "$loops"
	echo "verify: internal/sql decodes a varint outside the reader's fallback (use sql.Uvarint / sql.Varint)"
	exit 1
fi
# Vectorization differential smoke: the columnar path must be
# byte-identical to the row path on randomized queries and data, the
# engine's columnar and row-stage compiles must agree, and both must equal
# the batch query over the consumed prefix after every epoch. (The full suite
# also runs under `go test -race ./...` above; this step keeps the contract
# visible.) A -run pattern that matches nothing in a package passes, so each
# package must report at least one test passed.
step "vectorized/row differential smoke"
for pkg in ./internal/sql/vec/ ./internal/incremental/ ./internal/engine/; do
	out=$(go test -v -run 'TestDifferential|TestProgramMatchesRowEval|TestVectorize|TestStatefulVectorize' "$pkg") || {
		echo "$out"
		exit 1
	}
	if ! echo "$out" | grep -q '^--- PASS'; then
		echo "verify: the differential smoke ran no test in $pkg"
		exit 1
	fi
done
step ""
echo "   ($(($(date +%s) - verify_start)) s in all)"
if [ "$tier" = full ]; then
	echo "verify: OK (full tier)"
else
	echo "verify: OK (default tier; VERIFY_FULL=1 adds the fuzz smokes, the micro-benchmarks and the x20 arrival run)"
fi
