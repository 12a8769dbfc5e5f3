package main

import (
	"fmt"
	"math/rand"
	"time"

	"structream/internal/engine"
	"structream/internal/incremental"
	"structream/internal/msgbus"
	"structream/internal/sinks"
	"structream/internal/sources"
	"structream/internal/sql"
	"structream/internal/sql/logical"
)

// join-skew: stream-stream inner join impressions ⋈ clicks on ad_id with
// click_time BETWEEN imp_time AND imp_time + 10 s, watermarks on both sides,
// skewed ad ids, Append mode, two workers, lsm state. A single-run workload:
// the join buffers fill for one watermark delay of event time and then hold
// steady, and the full run is made singleRunReps times. Frozen sizes:
const (
	joinRecordsPerSide = 100_000 // one run; two of them take about run_seconds on the seed commit
	joinAds            = 50_000
	joinZipfS          = 1.05
	joinZipfV          = 20.0  // P(ad k) ∝ (v + k)^-s: the hottest ad draws ≈ 0.8 % of each side
	joinStepUs         = 2_000 // per side, event time advances 2 ms per record: 500 records per event-time second
	joinWindow         = 10 * time.Second
	// The delay is ≥ the window, so no match is evicted early; at 500 records
	// per event-time second it buffers ≈ 40 000 rows per side in steady
	// state, ≈ 320 per side on the hottest ad.
	joinWatermarkLag = 80 * time.Second
	joinPerEpoch     = 4_096 // MaxRecordsPerTrigger, per source
	// Eight stores (two sides × four partitions) share the buffered rows, so
	// the 4 MiB default memtable would never fill and the SSTable, tombstone
	// and compaction paths this workload exists for would read zero.
	joinMemtableBytes = 256 << 10
	joinOriginUs      = 1_600_000_000_000_000
	joinWorkers       = 2
	joinRestarts      = 7
	// A restart is followed to the end of its fresh records (their output is
	// checked), and at this workload's speed 50 000 of them would take two
	// seconds each: a restart here finds one epoch's worth.
	joinChunkPerSide = joinPerEpoch
)

var (
	impSchema = sql.NewSchema(
		sql.Field{Name: "ad_id", Type: sql.TypeInt64},
		sql.Field{Name: "imp_time", Type: sql.TypeTimestamp},
		sql.Field{Name: "imp_id", Type: sql.TypeInt64},
	)
	clickSchema = sql.NewSchema(
		sql.Field{Name: "c_ad_id", Type: sql.TypeInt64},
		sql.Field{Name: "click_time", Type: sql.TypeTimestamp},
		sql.Field{Name: "click_id", Type: sql.TypeInt64},
	)
)

func joinQuery() (*incremental.Query, error) {
	side := func(name string, schema sql.Schema, col string) logical.Plan {
		return &logical.WithWatermark{
			Child:  &logical.Scan{Name: name, Streaming: true, Out: schema},
			Column: col,
			Delay:  joinWatermarkLag.Microseconds(),
		}
	}
	cond := sql.And(
		sql.Eq(sql.Col("ad_id"), sql.Col("c_ad_id")),
		sql.And(
			sql.Ge(sql.Col("click_time"), sql.Col("imp_time")),
			sql.Le(sql.Col("click_time"), sql.Add(sql.Col("imp_time"), sql.IntervalLit(joinWindow.Microseconds()))),
		),
	)
	plan := logical.Plan(&logical.Join{
		Left:  side("impressions", impSchema, "imp_time"),
		Right: side("clicks", clickSchema, "click_time"),
		Type:  logical.InnerJoin,
		Cond:  cond,
	})
	return compilePlan(plan, logical.Append, nil)
}

func joinRowHash(ad, impTime, impID, clickTime, clickID int64) uint64 {
	h := mix64(uint64(ad))
	h = mix64(h ^ uint64(impTime))
	h = mix64(h ^ uint64(impID))
	h = mix64(h ^ uint64(clickTime))
	return mix64(h ^ uint64(clickID))
}

type impRef struct{ time, id int64 }

func setupJoinSkew(cfg config) (*instance, error) {
	perSide := cfg.scaled(joinRecordsPerSide, 2048)
	chunk := cfg.scaled(joinChunkPerSide, 256)
	rng := rand.New(rand.NewSource(cfg.seed))
	imps, err := newTopic("impressions", topicPartitions)
	if err != nil {
		return nil, err
	}
	clicks, err := newTopic("clicks", topicPartitions)
	if err != nil {
		return nil, err
	}
	ads := newAlias(zipfWeights(int(cfg.scaled(joinAds, 64)), joinZipfS, joinZipfV))
	arena := newRecordArena()
	window := joinWindow.Microseconds()

	// The reference is a naive hash join run alongside generation: records
	// are generated in event-time order, so each click looks back over its
	// ad's impressions no older than the window.
	byAd := map[int64][]impRef{}
	var wantMain, wantAll countSum
	var seq int64
	gen := func(count int64, main bool) (ir, cr []msgbus.Record) {
		ir = make([]msgbus.Record, count)
		cr = make([]msgbus.Record, count)
		for i := int64(0); i < count; i++ {
			impTime := joinOriginUs + seq*joinStepUs
			clickTime := impTime + joinStepUs/2
			impAd, clickAd := int64(ads.sample(rng)), int64(ads.sample(rng))
			e := arena.enc
			e.Reset()
			e.PutInt64(impAd)
			e.PutInt64(impTime)
			e.PutInt64(seq)
			ir[i] = arena.seal(3)
			e.Reset()
			e.PutInt64(clickAd)
			e.PutInt64(clickTime)
			e.PutInt64(seq)
			cr[i] = arena.seal(3)
			byAd[impAd] = append(byAd[impAd], impRef{impTime, seq})
			list := byAd[clickAd]
			for j := len(list) - 1; j >= 0 && list[j].time >= clickTime-window; j-- {
				h := joinRowHash(clickAd, list[j].time, list[j].id, clickTime, seq)
				wantAll.add(h)
				if main {
					wantMain.add(h)
				}
			}
			seq++
		}
		return ir, cr
	}
	ir, cr := gen(perSide, true)
	if err := appendRoundRobin(imps, ir); err != nil {
		return nil, err
	}
	if err := appendRoundRobin(clicks, cr); err != nil {
		return nil, err
	}
	type pair struct{ imps, clicks []msgbus.Record }
	chunks := make([]pair, joinRestarts)
	for i := range chunks {
		chunks[i].imps, chunks[i].clicks = gen(chunk, false)
	}

	var got countSum
	var malformed int64
	inst := &instance{
		rowsMain: 2 * perSide,
		newJob: func() (*job, error) {
			q, err := joinQuery()
			if err != nil {
				return nil, err
			}
			return &job{
				query: q,
				srcs: map[string]sources.Source{
					"impressions": sources.NewCodecBusSource("impressions", imps, impSchema),
					"clicks":      sources.NewCodecBusSource("clicks", clicks, clickSchema),
				},
				sink: sinks.NewMemorySink(),
				opts: engine.Options{
					Trigger:              engine.AvailableNowTrigger{},
					Workers:              joinWorkers,
					MaxRecordsPerTrigger: cfg.scaled(joinPerEpoch, 256),
					StateBackend:         "lsm",
					StateMemtableBytes:   joinMemtableBytes,
				},
			}, nil
		},
		reset: func() { got, malformed = countSum{}, 0 },
		absorb: func(s *sinks.MemorySink) {
			for _, r := range s.Rows() {
				if len(r) != 6 {
					malformed++
					continue
				}
				var v [6]int64
				ok := true
				for i := range v {
					v[i], ok = r[i].(int64)
					if !ok {
						break
					}
				}
				if !ok || v[0] != v[3] {
					malformed++
					continue
				}
				got.add(joinRowHash(v[0], v[1], v[2], v[4], v[5]))
			}
		},
		verifyMain: func() (int64, int64) { return wantMain.n, digestFailures(wantMain, got, malformed) },
		verifyAll: func() (int64, int64) {
			return wantAll.n - wantMain.n, digestFailures(wantAll, got, malformed)
		},
		restarts: joinRestarts,
		appendChunk: func(i int) (int64, error) {
			if err := appendRoundRobin(imps, chunks[i].imps); err != nil {
				return 0, err
			}
			return int64(2 * len(chunks[i].imps)), appendRoundRobin(clicks, chunks[i].clicks)
		},
	}
	inst.isolated = func(e *env, _ string) (map[string]float64, error) {
		return isolatedJoin(e, imps, clicks)
	}
	return inst, nil
}

func joinSizes(cfg config) map[string]any {
	return map[string]any{
		"records":                 2 * cfg.scaled(joinRecordsPerSide, 2048),
		"ads":                     cfg.scaled(joinAds, 64),
		"zipf_s":                  joinZipfS,
		"zipf_v":                  joinZipfV,
		"event_time_step_us":      joinStepUs,
		"window_s":                joinWindow.Seconds(),
		"watermark_delay_s":       joinWatermarkLag.Seconds(),
		"max_records_per_trigger": cfg.scaled(joinPerEpoch, 256),
		"memtable_bytes":          joinMemtableBytes,
		"block_cache_bytes":       "default (32 MiB)",
		"repetitions":             singleRunReps,
		"recovery_chunk":          2 * cfg.scaled(joinChunkPerSide, 256),
		"restarts":                joinRestarts,
	}
}

func init() {
	register(workloadDef{
		name:    "join-skew",
		workers: joinWorkers,
		frozen:  fmt.Sprintf("%d records per side x %d runs, %d ads, %.0f s delay", joinRecordsPerSide, singleRunReps, joinAds, joinWatermarkLag.Seconds()),
		sizes:   joinSizes,
		run: func(e *env) (*outcome, error) {
			return runBulk(e, bulkSpec{setup: setupJoinSkew, reps: 1})
		},
	})
}
