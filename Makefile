GO ?= go

.PHONY: build test test-short verify bench chaos

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Quick tier: skips the crash-recovery torture sweep.
test-short:
	$(GO) test -short ./...

# Verification: gofmt, vet, the race detector across everything, the
# benchmark module and the stale-name guard. VERIFY_FULL=1 adds the fuzz
# smokes, the micro-benchmarks and the x20 arrival run; STRUCTREAM_CHAOS=1
# the randomized chaos schedule.
verify:
	./scripts/verify.sh

# Randomized fault-injection sweep over the supervised query runtime:
# crashes, transient fault bursts, and epoch stalls on a random schedule,
# each round verified to converge to exact output. Bounded wall clock via
# STRUCTREAM_CHAOS_SECONDS (default 20); STRUCTREAM_CHAOS_SEED reproduces
# a failing schedule.
chaos:
	STRUCTREAM_CHAOS=1 $(GO) test -race -run 'TestChaos' -v -timeout 10m ./internal/supervisor/

# The repository benchmark (BENCHMARK.json, benchmark/README.md): the five
# fixed-work workloads, one untraced run each; results under benchmark/out/.
bench:
	for w in map-bulk ysb-bulk agg-spill join-skew live-serve; do \
		bash benchmark/run.sh --workload $$w || exit 1; \
	done
