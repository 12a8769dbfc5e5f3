GO ?= go

.PHONY: build test test-short verify bench

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Quick tier: skips the crash-recovery torture sweep.
test-short:
	$(GO) test -short ./...

# Verification: gofmt, vet, the race detector across everything, the
# benchmark module and the stale-name guard. VERIFY_FULL=1 adds the fuzz
# smokes, the micro-benchmarks and the x20 arrival run.
verify:
	./scripts/verify.sh

# The repository benchmark (BENCHMARK.json, benchmark/README.md): the five
# fixed-work workloads, one untraced run each; results under benchmark/out/.
bench:
	for w in map-bulk ysb-bulk agg-spill join-skew live-serve; do \
		bash benchmark/run.sh --workload $$w || exit 1; \
	done
