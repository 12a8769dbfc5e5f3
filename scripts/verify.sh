#!/bin/sh
# Verification in two tiers. Default: gofmt, vet, race-enabled tests (torture
# sweep included), the benchmark module, the stale-name guard, the varint
# reader guard and the vectorized/row differential smoke. VERIFY_FULL=1 adds
# thirteen fuzz smokes, five micro-benchmark steps and the x20 arrival wake-up
# run. The last line says which tier ran. Use `go test -short ./...` for the
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
	# pass `go test -race ./...` above gave them.
	step "arrival wake-up and leak tests, -race -count=20"
	go test -race -count=20 -run 'TestArrival|TestIdleQueryDoesNotPoll|TestContinuousWorkersWaitForArrival' \
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
	# must keep and drop the same records and agree on every kept cell.
	fuzz "pruned row decode" FuzzDecodeRowPruned ./internal/sql/codec/
	# The row codec's varint reader against encoding/binary, which shares no
	# code with its word path: same value, same width, for any bytes.
	fuzz "varint reader" FuzzVarint ./internal/sql/
	# What the write-ahead log reads back — offsets entry and commit record —
	# raw and behind a valid frame.
	fuzz "wal decode" FuzzWALDecode ./internal/wal/
	# The columnar table's segment readers — boxed, projected and typed —
	# over lengths and counts read off disk.
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
	# The join's exchange, bus records to committed deltas: it checks that
	# every input row reached a partition and that pairs came out.
	step "join exchange micro-benchmark, -benchtime 1x"
	go test -run '^$' -bench 'BenchmarkJoinExchange' -benchtime 1x ./internal/incremental/ >/dev/null
	step "memory sink micro-benchmarks, -benchtime 1x"
	go test -run '^$' -bench 'BenchmarkMemorySink' -benchtime 1x ./internal/sinks/ >/dev/null
	# The bus-record decode, Yahoo! event and map-bulk record: it fails on a
	# record the typed decoder does not land.
	step "codec decode micro-benchmark, -benchtime 1x"
	go test -run '^$' -bench 'BenchmarkDecodeVec' -benchtime 1x ./internal/sql/codec/ >/dev/null
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
# dataflow baseline's parallel runner and flat-map operator; the restart
# supervisor, the hub's hook into it, the query status, constructor and
# progress key only it fed, its health signal and its chaos knob; the map
# state store, its backend name, the interface it shared with the tree, its
# snapshot cadence option and counter and its snapshot finder) must not
# survive in code, scripts or docs. The pattern is assembled from halves
# so this script does not match itself.
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
stale="$stale"'|Super''vise|Attach''Super''vised|Mark''Restarting|Status''Restarting|NewFailed''Query'
stale="$stale"'|restarts''PerEpoch|RestartBackoff''Millis|STRUCTREAM''_CHAOS'
stale="$stale"'|mem''Backend|Backend''Memory|store''Backend|StateSnapshot''Interval|Snapshots''Written|latestSnapshot''AtOrBelow'
if git grep -nE "$stale" -- ':!CHANGES.md' ':!ROADMAP.md' ':!ISSUE.md' ':!benchmark/'; then
	echo "verify: stale reference to a retired harness, scheduler or option"
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
