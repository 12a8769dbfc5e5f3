package main

import (
	"fmt"
	"math/rand"
	"time"

	"structream/internal/cluster"
	"structream/internal/engine"
	"structream/internal/incremental"
	"structream/internal/msgbus"
	"structream/internal/sinks"
	"structream/internal/sources"
	"structream/internal/sql"
	"structream/internal/sql/logical"
)

// map-bulk: filter + project over a 2-column codec-framed topic, Append
// mode, one worker, memory sink on its column path, no hub. Frozen sizes:
const (
	mapBulkRecords   = 4_000_000 // preloaded once, re-read by every repetition
	mapBulkReps      = 44        // back-to-back AvailableNow queries, the first discarded
	mapBulkPerEpoch  = 262_144   // MaxRecordsPerTrigger
	mapValueRange    = 1_000_000 // value is uniform in [0, mapValueRange)
	mapFilterAtLeast = 250_000   // WHERE value >= mapFilterAtLeast
	// A restart here takes milliseconds, so many are timed, each over a full
	// epoch of fresh records rather than the 50 000 the stateful workloads
	// use. The same generated chunk is appended before every restart (this
	// query keeps no state, so repeated records are as good as new ones).
	mapBulkRestarts = 15
	mapBulkChunk    = mapBulkPerEpoch
)

var mapSchema = sql.NewSchema(
	sql.Field{Name: "value", Type: sql.TypeInt64},
	sql.Field{Name: "produced", Type: sql.TypeTimestamp},
)

// mapQuery is SELECT value + 1 AS v1, produced FROM in WHERE value >= K,
// optionally under an event-time watermark on produced (live-serve).
func mapQuery(watermark bool) (*incremental.Query, error) {
	var child logical.Plan = &logical.Scan{Name: "in", Streaming: true, Out: mapSchema}
	if watermark {
		child = &logical.WithWatermark{Child: child, Column: "produced", Delay: time.Second.Microseconds()}
	}
	plan := logical.Plan(&logical.Project{
		Child: &logical.Filter{Child: child, Cond: sql.Ge(sql.Col("value"), sql.Lit(int64(mapFilterAtLeast)))},
		Exprs: []sql.Expr{sql.As(sql.Add(sql.Col("value"), sql.Lit(int64(1))), "v1"), sql.Col("produced")},
	})
	return compilePlan(plan, logical.Append, nil)
}

// mapRowHash is the reference's hash of one expected output row.
func mapRowHash(v1, produced int64) uint64 {
	return mix64(uint64(v1)*0x100000001b3 ^ mix64(uint64(produced)))
}

// countSum is an order-independent digest of a row multiset.
type countSum struct {
	n   int64
	sum uint64
}

func (c *countSum) add(h uint64) { c.n++; c.sum += h }
func (c *countSum) merge(o countSum) {
	c.n += o.n
	c.sum += o.sum
}

// mapRecord encodes one input record and, when it passes the filter, folds
// the row the query must produce for it into want.
func mapRecord(a *recordArena, value, produced int64, want *countSum) msgbus.Record {
	a.enc.Reset()
	a.enc.PutInt64(value)
	a.enc.PutInt64(produced)
	if value >= mapFilterAtLeast {
		want.add(mapRowHash(value+1, produced))
	}
	return a.seal(2)
}

// absorbMapRows digests the sink's rows the same way.
func absorbMapRows(got *countSum, s *sinks.MemorySink) (bad int64) {
	for _, r := range s.Rows() {
		if len(r) != 2 {
			bad++
			continue
		}
		v1, ok1 := r[0].(int64)
		pr, ok2 := r[1].(int64)
		if !ok1 || !ok2 {
			bad++
			continue
		}
		got.add(mapRowHash(v1, pr))
	}
	return bad
}

// digestFailures counts failed operations between an expected and a
// delivered digest: every missing or surplus row, or — equal counts but a
// different checksum — at least one wrong row.
func digestFailures(want, got countSum, malformed int64) int64 {
	f := malformed
	if d := want.n - got.n; d > 0 {
		f += d
	} else {
		f += -d
	}
	if f == 0 && want.sum != got.sum {
		f = 1
	}
	return f
}

func setupMapBulk(cfg config) (*instance, error) {
	n := cfg.scaled(mapBulkRecords, 4096)
	chunkSize := cfg.scaled(mapBulkChunk, 512)
	rng := rand.New(rand.NewSource(cfg.seed))
	topic, err := newTopic("in", topicPartitions)
	if err != nil {
		return nil, err
	}
	arena := newRecordArena()
	var wantMain, wantAll countSum
	// Event time advances 1 µs per record from a fixed origin.
	produced := int64(1_600_000_000_000_000)
	next := func(want *countSum) func() msgbus.Record {
		return func() msgbus.Record {
			produced++
			return mapRecord(arena, rng.Int63n(mapValueRange), produced, want)
		}
	}
	if err := preload(topic, n, next(&wantMain)); err != nil {
		return nil, err
	}
	var wantChunk countSum
	chunk := generate(chunkSize, next(&wantChunk))
	wantAll = wantMain
	for i := 0; i < mapBulkRestarts; i++ {
		wantAll.merge(wantChunk)
	}

	var got countSum
	var malformed int64
	inst := &instance{
		rowsMain: n,
		newJob: func() (*job, error) {
			q, err := mapQuery(false)
			if err != nil {
				return nil, err
			}
			return &job{
				query: q,
				srcs:  map[string]sources.Source{"in": sources.NewCodecBusSource("in", topic, mapSchema)},
				sink:  sinks.NewMemorySink(),
				opts: engine.Options{
					Trigger:              engine.AvailableNowTrigger{},
					Workers:              1,
					MaxRecordsPerTrigger: cfg.scaled(mapBulkPerEpoch, 1024),
					// One task slot: the classic path's default in-process
					// cluster has two, and this workload is the
					// single-threaded baseline.
					Cluster: cluster.New(cluster.Config{Nodes: 1, SlotsPerNode: 1}),
				},
			}, nil
		},
		reset:  func() { got, malformed = countSum{}, 0 },
		absorb: func(s *sinks.MemorySink) { malformed += absorbMapRows(&got, s) },
		verifyMain: func() (int64, int64) {
			return wantMain.n, digestFailures(wantMain, got, malformed)
		},
		verifyAll: func() (int64, int64) {
			return wantAll.n - wantMain.n, digestFailures(wantAll, got, malformed)
		},
		restarts: mapBulkRestarts,
		appendChunk: func(i int) (int64, error) {
			return int64(len(chunk)), appendRoundRobin(topic, chunk)
		},
	}
	inst.isolated = func(e *env, _ string) (map[string]float64, error) {
		return isolatedMap(e, topic, mapSchema)
	}
	return inst, nil
}

func init() {
	register(workloadDef{
		name:    "map-bulk",
		workers: 1,
		frozen:  fmt.Sprintf("%d records x %d runs, %d per epoch", mapBulkRecords, mapBulkReps, mapBulkPerEpoch),
		sizes: func(cfg config) map[string]any {
			return map[string]any{
				"records":                 cfg.scaled(mapBulkRecords, 4096),
				"max_records_per_trigger": cfg.scaled(mapBulkPerEpoch, 1024),
				"repetitions":             cfg.reps(mapBulkReps),
				"recovery_chunk":          cfg.scaled(mapBulkChunk, 512),
				"restarts":                mapBulkRestarts,
				"filter":                  "value >= 250000 of uniform [0, 1000000)",
			}
		},
		run: func(e *env) (*outcome, error) {
			return runBulk(e, bulkSpec{setup: setupMapBulk, reps: mapBulkReps})
		},
	})
}
