package main

import (
	"fmt"
	"math/rand"
	"strconv"

	"structream/internal/engine"
	"structream/internal/incremental"
	"structream/internal/msgbus"
	"structream/internal/sinks"
	"structream/internal/sources"
	"structream/internal/sql"
	"structream/internal/sql/logical"
)

// agg-spill: GROUP BY k COUNT(*), SUM(v) over string keys drawn Zipf(0.9)
// from a universe far larger than the LSM's memtable and block cache, Update
// mode, one worker, lsm state backend. A single-run workload (state grows
// along the run, so repeating a short one would never reach the regime this
// workload exists for): the full run is made singleRunReps times. Frozen
// sizes:
const (
	aggRecords         = 2_000_000 // one run; two of them take about run_seconds on the seed commit
	aggKeyUniverse     = 1_500_000 // distinct keys that can be drawn
	aggZipfS           = 0.9
	aggPerEpoch        = 16_384    // MaxRecordsPerTrigger; see README for why not 250 000
	aggMemtableBytes   = 256 << 10 // per state partition
	aggBlockCacheBytes = 4 << 20   // shared; far below the live SSTable bytes at the end of the run
	aggValueRange      = 1000      // v is uniform in [0, aggValueRange)
	aggKeyWidth        = 8         // "k" + 7 digits
	aggRestarts        = 13
)

var aggSchema = sql.NewSchema(
	sql.Field{Name: "k", Type: sql.TypeString},
	sql.Field{Name: "v", Type: sql.TypeInt64},
)

func aggQuery() (*incremental.Query, error) {
	plan := logical.Plan(&logical.Aggregate{
		Child: &logical.Scan{Name: "in", Streaming: true, Out: aggSchema},
		Keys:  []sql.Expr{sql.Col("k")},
		Aggs: []logical.NamedAgg{
			{Agg: sql.CountAll(), Name: "cnt"},
			{Agg: sql.SumOf(sql.Col("v")), Name: "total"},
		},
	})
	return compilePlan(plan, logical.Update, nil)
}

// aggKeyNames is every key of the universe back to back in one string, so a
// key is a substring and costs no allocation.
func aggKeyNames(universe int) string {
	buf := make([]byte, 0, universe*aggKeyWidth)
	for i := 0; i < universe; i++ {
		buf = append(buf, 'k')
		s := strconv.Itoa(i)
		for p := len(s); p < aggKeyWidth-1; p++ {
			buf = append(buf, '0')
		}
		buf = append(buf, s...)
	}
	return string(buf)
}

type aggCell struct{ cnt, sum int64 }

func setupAggSpill(cfg config) (*instance, error) {
	n := cfg.scaled(aggRecords, 4096)
	universe := int(cfg.scaled(aggKeyUniverse, 1024))
	chunk := cfg.scaled(recoveryChunk, 512)
	rng := rand.New(rand.NewSource(cfg.seed))
	topic, err := newTopic("in", topicPartitions)
	if err != nil {
		return nil, err
	}
	names := aggKeyNames(universe)
	zipf := newAlias(zipfWeights(universe, aggZipfS, 1))
	arena := newRecordArena()
	wantAll := make([]aggCell, universe)
	next := func() msgbus.Record {
		k := zipf.sample(rng)
		v := rng.Int63n(aggValueRange)
		arena.enc.Reset()
		arena.enc.PutString(names[k*aggKeyWidth : (k+1)*aggKeyWidth])
		arena.enc.PutInt64(v)
		wantAll[k].cnt++
		wantAll[k].sum += v
		return arena.seal(2)
	}
	if err := preload(topic, n, next); err != nil {
		return nil, err
	}
	wantMain := append([]aggCell(nil), wantAll...)
	chunks := make([][]msgbus.Record, aggRestarts)
	for i := range chunks {
		chunks[i] = generate(chunk, next)
	}

	got := make([]aggCell, universe)
	var malformed int64
	compare := func(want []aggCell) (attempted, failed int64) {
		failed = malformed
		for k, w := range want {
			if w.cnt > 0 {
				attempted++
			}
			if got[k] != w {
				failed++
			}
		}
		return attempted, failed
	}
	inst := &instance{
		rowsMain: n,
		newJob: func() (*job, error) {
			q, err := aggQuery()
			if err != nil {
				return nil, err
			}
			return &job{
				query: q,
				srcs:  map[string]sources.Source{"in": sources.NewCodecBusSource("in", topic, aggSchema)},
				sink:  sinks.NewMemorySink(),
				opts: engine.Options{
					Trigger:              engine.AvailableNowTrigger{},
					Workers:              1,
					MaxRecordsPerTrigger: cfg.scaled(aggPerEpoch, 1024),
					StateBackend:         "lsm",
					StateMemtableBytes:   aggMemtableBytes,
					StateBlockCacheBytes: aggBlockCacheBytes,
				},
			}, nil
		},
		reset: func() { got, malformed = make([]aggCell, universe), 0 },
		absorb: func(s *sinks.MemorySink) {
			for _, r := range s.Rows() {
				if len(r) != 3 {
					malformed++
					continue
				}
				k, ok0 := r[0].(string)
				cnt, ok1 := r[1].(int64)
				sum, ok2 := r[2].(int64)
				if !ok0 || !ok1 || !ok2 || len(k) != aggKeyWidth {
					malformed++
					continue
				}
				idx, err := strconv.Atoi(k[1:])
				if err != nil || idx < 0 || idx >= universe {
					malformed++
					continue
				}
				got[idx] = aggCell{cnt, sum}
			}
		},
		verifyMain: func() (int64, int64) { return compare(wantMain) },
		verifyAll:  func() (int64, int64) { return compare(wantAll) },
		restarts:   aggRestarts,
		appendChunk: func(i int) (int64, error) {
			return int64(len(chunks[i])), appendRoundRobin(topic, chunks[i])
		},
	}
	inst.isolated = func(e *env, ckpt string) (map[string]float64, error) {
		return isolatedAgg(e, topic, ckpt)
	}
	return inst, nil
}

func aggSizes(cfg config) map[string]any {
	return map[string]any{
		"records":                 cfg.scaled(aggRecords, 4096),
		"key_universe":            cfg.scaled(aggKeyUniverse, 1024),
		"zipf_s":                  aggZipfS,
		"max_records_per_trigger": cfg.scaled(aggPerEpoch, 1024),
		"memtable_bytes":          aggMemtableBytes,
		"block_cache_bytes":       aggBlockCacheBytes,
		"repetitions":             singleRunReps,
		"recovery_chunk":          cfg.scaled(recoveryChunk, 512),
		"restarts":                aggRestarts,
	}
}

func init() {
	register(workloadDef{
		name:    "agg-spill",
		workers: 1,
		frozen:  fmt.Sprintf("%d records x %d runs, %d keys, %d per epoch", aggRecords, singleRunReps, aggKeyUniverse, aggPerEpoch),
		sizes:   aggSizes,
		run: func(e *env) (*outcome, error) {
			return runBulk(e, bulkSpec{setup: setupAggSpill, reps: 1})
		},
	})
}
