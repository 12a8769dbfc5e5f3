#!/bin/sh
# Full verification: vet + race-enabled tests (torture sweep included).
# Use `go test -short ./...` for the quick tier that skips the crash sweep.
set -eu
cd "$(dirname "$0")/.."
echo ">> go vet ./..."
go vet ./...
echo ">> go test -race ./..."
go test -race ./...
# Fuzz smoke: a few seconds of coverage-guided input on the state record
# framing shared by deltas, snapshots, and LSM batches — round-trips must
# hold and corrupt input must never panic the decoder.
echo ">> lsm record-framing fuzz smoke"
go test -run '^$' -fuzz 'FuzzRecordBatch' -fuzztime 5s ./internal/lsm/
# And on the SSTable reader — footer, filter header, block index and block
# entries, each fuzzed behind a valid checksum: no panic, and nothing but
# fsx.ErrCorrupt comes back.
echo ">> lsm sstable reader fuzz smoke"
go test -run '^$' -fuzz 'FuzzOpenTable' -fuzztime 5s ./internal/lsm/
# The same for the three decoders that read stream-stream join state back
# (header values, entry values, time-index keys).
echo ">> join state fuzz smoke"
go test -run '^$' -fuzz 'FuzzJoinState' -fuzztime 5s ./internal/incremental/
# And for the bus-record decoders: the pruned, the full typed and the boxed
# one must keep and drop the same records and agree on every kept cell.
echo ">> pruned row decode fuzz smoke"
go test -run '^$' -fuzz 'FuzzDecodeRowPruned' -fuzztime 5s ./internal/sql/codec/
# The repository benchmark is its own module, so `go test ./...` above never
# compiles it: run its contract, compare and 1/100-size smoke tests here, so
# a break in the APIs it drives (StatefulOp.Process, Store.Iterate/Commit,
# Provider fields, ...) is caught by verify and not by the next measurement.
echo ">> benchmark module tests"
(cd benchmark && go test .)
# Bench-suite smoke: a tiny workload through the JSON benchmark path, so
# `make bench-json` breakage is caught here rather than at report time.
echo ">> ssbench bench smoke"
smoke_json="$(mktemp /tmp/structream-bench-XXXXXX.json)"
go run ./cmd/ssbench -experiment bench -events 100000 -rounds 1 -json "$smoke_json" >/dev/null
grep -q '"tracingOverheadPct"' "$smoke_json" || { echo "bench smoke: bad report"; exit 1; }
grep -q '"stateful-count-lsm-spill-vec"' "$smoke_json" || { echo "bench smoke: missing state-backend scenarios"; exit 1; }
grep -q '"stateful-count-memory-small-vec"' "$smoke_json" || { echo "bench smoke: missing vectorized stateful scenarios"; exit 1; }
grep -q '"stateful-count-memory-small-rowpath"' "$smoke_json" || { echo "bench smoke: missing stateful row-path scenarios"; exit 1; }
grep -q '"vsRowPathSpeedup"' "$smoke_json" || { echo "bench smoke: missing stateful vec-vs-rowpath speedup"; exit 1; }
grep -q '"microbatch-throughput-rowpath"' "$smoke_json" || { echo "bench smoke: missing row-path scenario"; exit 1; }
grep -q '"serve-fanout"' "$smoke_json" || { echo "bench smoke: missing serve-fanout scenario"; exit 1; }
grep -q '"endToEndLatencyP50Us"' "$smoke_json" || { echo "bench smoke: missing end-to-end freshness percentiles"; exit 1; }
grep -q '"watermarkLagP99Us"' "$smoke_json" || { echo "bench smoke: missing watermark-lag percentiles"; exit 1; }
grep -q '"healthOverheadPct"' "$smoke_json" || { echo "bench smoke: missing health-overhead comparison"; exit 1; }
grep -q '"scaling-microbatch-w4"' "$smoke_json" || { echo "bench smoke: missing scaling scenarios"; exit 1; }
grep -q '"scalingEfficiencyPct"' "$smoke_json" || { echo "bench smoke: missing scaling efficiency"; exit 1; }
rm -f "$smoke_json"
# Vectorization differential smoke: the columnar path must be
# byte-identical to the row path on randomized queries and data, and the
# engine-level on/off runs must agree. (The full suite also runs under
# `go test -race ./...` above; this line keeps the contract visible.)
echo ">> vectorized/row differential smoke"
go test -run 'TestDifferential|TestProgramMatchesRowEval|TestVectorizeOnOff' \
	./internal/sql/vec/ ./internal/incremental/ ./internal/engine/ >/dev/null
# Opt-in throughput regression gate against the committed BENCH baseline
# (slow: reruns the 2M-event bench suite).
if [ "${STRUCTREAM_BENCH_COMPARE:-}" = "1" ]; then
	echo ">> make bench-compare (throughput regression gate)"
	make bench-compare
fi
# Opt-in chaos tier: randomized fault schedule against the supervised
# runtime (bounded by STRUCTREAM_CHAOS_SECONDS, default 20).
if [ "${STRUCTREAM_CHAOS:-}" = "1" ]; then
	echo ">> make chaos (randomized fault schedule)"
	make chaos
fi
echo "verify: OK"
