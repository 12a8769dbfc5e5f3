// Package yahoo implements the Yahoo! Streaming Benchmark (Chintapalli et
// al.) used in the paper's evaluation (§9.1): ad click events are
// filtered to views, joined against a static table of ad campaigns, and
// counted per campaign on 10-second event-time windows. The same workload
// runs on three engines — Structured Streaming (this repo's engine), a
// Flink-like record-at-a-time dataflow, and a Kafka-Streams-like
// bus-per-record topology — to regenerate Fig 6a.
//
// Like the paper (and the dataArtisans variant it uses), the static
// campaign table lives in each engine rather than Redis.
package yahoo

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"structream/internal/sql"
)

// EventSchema is the ad-event schema from the benchmark.
var EventSchema = sql.NewSchema(
	sql.Field{Name: "user_id", Type: sql.TypeInt64},
	sql.Field{Name: "page_id", Type: sql.TypeInt64},
	sql.Field{Name: "ad_id", Type: sql.TypeInt64},
	sql.Field{Name: "ad_type", Type: sql.TypeString},
	sql.Field{Name: "event_type", Type: sql.TypeString},
	sql.Field{Name: "event_time", Type: sql.TypeTimestamp},
	sql.Field{Name: "ip", Type: sql.TypeString},
)

// CampaignSchema maps ads to campaigns.
var CampaignSchema = sql.NewSchema(
	sql.Field{Name: "c_ad_id", Type: sql.TypeInt64},
	sql.Field{Name: "campaign_id", Type: sql.TypeInt64},
)

// WindowSize is the benchmark's event-time window.
const WindowSize = 10 * time.Second

// Workload is a deterministic pre-generated benchmark input.
type Workload struct {
	Events    []sql.Row
	Campaigns []sql.Row
	// AdToCampaign indexes the static table for the hand-written engines.
	AdToCampaign map[int64]int64
	// Views counts events with event_type == "view".
	Views int64
	// SpanMicros is the covered event-time range.
	SpanMicros int64
}

// adTypes and eventTypes follow the original benchmark's value sets.
var adTypes = []string{"banner", "modal", "sponsored-search", "mail", "mobile"}
var eventTypes = []string{"view", "click", "purchase"}

// Generate builds n events over numCampaigns campaigns (10 ads each), with
// event times advancing at eventsPerSecond so the window count is
// realistic. The generator is deterministic in seed.
func Generate(n int, numCampaigns int, eventsPerSecond int64, seed int64) *Workload {
	if numCampaigns <= 0 {
		numCampaigns = 100
	}
	if eventsPerSecond <= 0 {
		eventsPerSecond = 100_000
	}
	rng := rand.New(rand.NewSource(seed))
	const adsPerCampaign = 10
	w := &Workload{AdToCampaign: map[int64]int64{}}
	for c := 0; c < numCampaigns; c++ {
		for a := 0; a < adsPerCampaign; a++ {
			adID := int64(c*adsPerCampaign + a)
			campaignID := int64(c)
			w.Campaigns = append(w.Campaigns, sql.Row{adID, campaignID})
			w.AdToCampaign[adID] = campaignID
		}
	}
	interval := int64(time.Second.Microseconds()) / eventsPerSecond
	if interval == 0 {
		interval = 1
	}
	w.Events = make([]sql.Row, n)
	for i := 0; i < n; i++ {
		eventType := eventTypes[rng.Intn(len(eventTypes))]
		if eventType == "view" {
			w.Views++
		}
		ts := int64(i) * interval
		w.Events[i] = sql.Row{
			rng.Int63n(100_000),                            // user_id
			rng.Int63n(100_000),                            // page_id
			int64(rng.Intn(numCampaigns * adsPerCampaign)), // ad_id
			adTypes[rng.Intn(len(adTypes))],                // ad_type
			eventType,                                      // event_type
			ts,                                             // event_time
			"10.140." + strconv.Itoa(rng.Intn(255)) + ".1", // ip
		}
		if ts > w.SpanMicros {
			w.SpanMicros = ts
		}
	}
	return w
}

// Partition splits the events into p contiguous-by-index round-robin
// partitions, the shape a Kafka topic would present.
func (w *Workload) Partition(p int) [][]sql.Row {
	parts := make([][]sql.Row, p)
	per := (len(w.Events) + p - 1) / p
	for i := range parts {
		parts[i] = make([]sql.Row, 0, per)
	}
	for i, e := range w.Events {
		parts[i%p] = append(parts[i%p], e)
	}
	return parts
}

// ExpectedWindows computes the reference result (campaign, window) →
// count, used to cross-check every engine's output.
func (w *Workload) ExpectedWindows() map[string]int64 {
	out := map[string]int64{}
	win := WindowSize.Microseconds()
	for _, e := range w.Events {
		if e[4] != "view" {
			continue
		}
		campaign := w.AdToCampaign[e[2].(int64)]
		ts := e[5].(int64)
		start := ts - ts%win
		out[fmt.Sprintf("%d/%d", campaign, start)]++
	}
	return out
}

// Result is one engine's measured benchmark run.
type Result struct {
	Engine        string
	Records       int64
	Elapsed       time.Duration
	RecordsPerSec float64
	Groups        int
}

// String renders the result as a benchmark table row.
func (r Result) String() string {
	return fmt.Sprintf("%-22s %12d records  %10.2fs  %14.0f records/s  (%d groups)",
		r.Engine, r.Records, r.Elapsed.Seconds(), r.RecordsPerSec, r.Groups)
}
