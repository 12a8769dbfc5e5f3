package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"structream/internal/engine"
	"structream/internal/incremental"
	"structream/internal/msgbus"
	"structream/internal/sinks"
	"structream/internal/sources"
	"structream/internal/sql"
	"structream/internal/sql/logical"
	"structream/internal/sql/physical"
)

// ysb-bulk: the paper's Yahoo! Streaming Benchmark query (§9.1, Fig 6a) on
// the sharded runtime: filter views → project → stream-static join to
// campaigns → 10 s tumbling event-time window count per campaign, Update
// mode, two workers, memory state. Frozen sizes:
const (
	ysbEvents       = 2_000_000 // preloaded once, re-read by every repetition
	ysbReps         = 30        // back-to-back AvailableNow queries, the first discarded
	ysbPerEpoch     = 131_072   // MaxRecordsPerTrigger
	ysbCampaigns    = 100
	ysbAdsPerCamp   = 10
	ysbEventStepUs  = 100                   // event time advances 100 µs per event: 10 000 events per event-time second
	ysbWindow       = 10 * time.Second      // tumbling window
	ysbWatermarkLag = 10 * time.Second      // watermark delay
	ysbOriginUs     = 1_600_000_000_000_000 // event time of the first event
	ysbWorkers      = 2
	// A restart here takes about ten milliseconds, so each is timed over a
	// full epoch of fresh events rather than the 50 000 the single-run
	// workloads use, and more of them are timed.
	ysbRestarts = 21
	ysbChunk    = ysbPerEpoch
)

var ysbEventSchema = sql.NewSchema(
	sql.Field{Name: "user_id", Type: sql.TypeInt64},
	sql.Field{Name: "page_id", Type: sql.TypeInt64},
	sql.Field{Name: "ad_id", Type: sql.TypeInt64},
	sql.Field{Name: "ad_type", Type: sql.TypeString},
	sql.Field{Name: "event_type", Type: sql.TypeString},
	sql.Field{Name: "event_time", Type: sql.TypeTimestamp},
	sql.Field{Name: "ip", Type: sql.TypeString},
)

var ysbCampaignSchema = sql.NewSchema(
	sql.Field{Name: "c_ad_id", Type: sql.TypeInt64},
	sql.Field{Name: "campaign_id", Type: sql.TypeInt64},
)

var (
	ysbAdTypes    = []string{"banner", "modal", "sponsored-search", "mail", "mobile"}
	ysbEventTypes = []string{"view", "click", "purchase"}
)

func ysbCampaignRows() []sql.Row {
	rows := make([]sql.Row, 0, ysbCampaigns*ysbAdsPerCamp)
	for c := 0; c < ysbCampaigns; c++ {
		for a := 0; a < ysbAdsPerCamp; a++ {
			rows = append(rows, sql.Row{int64(c*ysbAdsPerCamp + a), int64(c)})
		}
	}
	return rows
}

func ysbQuery() (*incremental.Query, error) {
	campaigns := ysbCampaignRows()
	events := &logical.WithWatermark{
		Child:  &logical.Scan{Name: "ad_events", Streaming: true, Out: ysbEventSchema},
		Column: "event_time",
		Delay:  ysbWatermarkLag.Microseconds(),
	}
	views := &logical.Project{
		Child: &logical.Filter{Child: events, Cond: sql.Eq(sql.Col("event_type"), sql.Lit("view"))},
		Exprs: []sql.Expr{sql.Col("ad_id"), sql.Col("event_time")},
	}
	joined := &logical.Join{
		Left:  views,
		Right: &logical.Scan{Name: "campaigns", Out: ysbCampaignSchema},
		Type:  logical.InnerJoin,
		Cond:  sql.Eq(sql.Col("ad_id"), sql.Col("c_ad_id")),
	}
	plan := logical.Plan(&logical.Aggregate{
		Child: joined,
		Keys:  []sql.Expr{sql.NewWindow(sql.Col("event_time"), ysbWindow, 0), sql.Col("campaign_id")},
		Aggs:  []logical.NamedAgg{{Agg: sql.CountAll(), Name: "count"}},
	})
	static := func(*logical.Scan) (physical.RowSource, error) {
		return physical.NewSliceSource(ysbCampaignSchema, campaigns), nil
	}
	return compilePlan(plan, logical.Update, static)
}

// ysbKey identifies one (campaign, window) group in the reference.
type ysbKey struct {
	campaign, windowStart int64
}

func setupYSB(cfg config) (*instance, error) {
	n := cfg.scaled(ysbEvents, 4096)
	chunk := cfg.scaled(ysbChunk, 512)
	rng := rand.New(rand.NewSource(cfg.seed))
	topic, err := newTopic("ad_events", topicPartitions)
	if err != nil {
		return nil, err
	}
	ips := make([]string, 255)
	for i := range ips {
		ips[i] = "10.140." + strconv.Itoa(i) + ".1"
	}
	arena := newRecordArena()
	win := ysbWindow.Microseconds()
	wantAll := map[ysbKey]int64{}
	var seq int64
	next := func() msgbus.Record {
		ad := int64(rng.Intn(ysbCampaigns * ysbAdsPerCamp))
		et := ysbEventTypes[rng.Intn(len(ysbEventTypes))]
		ts := ysbOriginUs + seq*ysbEventStepUs
		seq++
		e := arena.enc
		e.Reset()
		e.PutInt64(rng.Int63n(100_000))
		e.PutInt64(rng.Int63n(100_000))
		e.PutInt64(ad)
		e.PutString(ysbAdTypes[rng.Intn(len(ysbAdTypes))])
		e.PutString(et)
		e.PutInt64(ts)
		e.PutString(ips[rng.Intn(len(ips))])
		if et == "view" {
			wantAll[ysbKey{ad / ysbAdsPerCamp, ts - ts%win}]++
		}
		return arena.seal(7)
	}
	if err := preload(topic, n, next); err != nil {
		return nil, err
	}
	wantMain := make(map[ysbKey]int64, len(wantAll))
	for k, v := range wantAll {
		wantMain[k] = v
	}
	chunks := make([][]msgbus.Record, ysbRestarts)
	for i := range chunks {
		chunks[i] = generate(chunk, next)
	}

	got := map[ysbKey]int64{}
	var malformed int64
	compare := func(want map[ysbKey]int64) (int64, int64) {
		failed := malformed
		for k, w := range want {
			if got[k] != w {
				failed++
			}
		}
		for k := range got {
			if _, ok := want[k]; !ok {
				failed++
			}
		}
		return int64(len(want)), failed
	}
	inst := &instance{
		rowsMain: n,
		newJob: func() (*job, error) {
			q, err := ysbQuery()
			if err != nil {
				return nil, err
			}
			return &job{
				query: q,
				srcs:  map[string]sources.Source{"ad_events": sources.NewCodecBusSource("ad_events", topic, ysbEventSchema)},
				sink:  sinks.NewMemorySink(),
				opts: engine.Options{
					Trigger:              engine.AvailableNowTrigger{},
					Workers:              ysbWorkers,
					MaxRecordsPerTrigger: cfg.scaled(ysbPerEpoch, 1024),
					StateBackend:         "memory",
				},
			}, nil
		},
		reset: func() { got, malformed = map[ysbKey]int64{}, 0 },
		// Update mode: the sink holds the latest count per (window,
		// campaign); a later run's rows overwrite an earlier run's.
		absorb: func(s *sinks.MemorySink) {
			for _, r := range s.Rows() {
				if len(r) != 3 {
					malformed++
					continue
				}
				w, ok0 := r[0].(sql.Window)
				c, ok1 := r[1].(int64)
				cnt, ok2 := r[2].(int64)
				if !ok0 || !ok1 || !ok2 {
					malformed++
					continue
				}
				got[ysbKey{c, w.Start}] = cnt
			}
		},
		verifyMain: func() (int64, int64) { return compare(wantMain) },
		verifyAll:  func() (int64, int64) { return compare(wantAll) },
		restarts:   ysbRestarts,
		appendChunk: func(i int) (int64, error) {
			return int64(len(chunks[i])), appendRoundRobin(topic, chunks[i])
		},
	}
	inst.isolated = func(e *env, _ string) (map[string]float64, error) {
		return isolatedYSB(e, topic)
	}
	return inst, nil
}

func init() {
	register(workloadDef{
		name:    "ysb-bulk",
		workers: ysbWorkers,
		frozen:  fmt.Sprintf("%d events x %d runs, %d per epoch", ysbEvents, ysbReps, ysbPerEpoch),
		sizes: func(cfg config) map[string]any {
			return map[string]any{
				"events":                  cfg.scaled(ysbEvents, 4096),
				"max_records_per_trigger": cfg.scaled(ysbPerEpoch, 1024),
				"campaigns":               ysbCampaigns,
				"ads_per_campaign":        ysbAdsPerCamp,
				"event_time_step_us":      ysbEventStepUs,
				"window_s":                ysbWindow.Seconds(),
				"watermark_delay_s":       ysbWatermarkLag.Seconds(),
				"repetitions":             cfg.reps(ysbReps),
				"recovery_chunk":          cfg.scaled(ysbChunk, 512),
				"restarts":                ysbRestarts,
			}
		},
		run: func(e *env) (*outcome, error) {
			return runBulk(e, bulkSpec{setup: setupYSB, reps: ysbReps})
		},
	})
}
