package incremental

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"structream/internal/sql"
	"structream/internal/sql/analysis"
	"structream/internal/sql/logical"
	"structream/internal/sql/optimizer"
	"structream/internal/sql/physical"
	"structream/internal/sql/vec"
)

// One map task of ysb-bulk, from the decode batch to the shuffle buckets:
// filter views, project, broadcast join to campaigns, 10 s tumbling window,
// columnar partial count, scattered into the engine's default four
// partitions. The event stream is the benchmark's: ad ids uniform over
// 1 000 ads in 100 campaigns, event types uniform over three, event time
// advancing 100 µs an event.
const (
	mapTaskLanes     = 65536
	mapTaskParts     = 4
	mapTaskCampaigns = 100
	mapTaskAds       = 1000
)

var (
	mapTaskSchema = sql.NewSchema(
		sql.Field{Name: "user_id", Type: sql.TypeInt64},
		sql.Field{Name: "page_id", Type: sql.TypeInt64},
		sql.Field{Name: "ad_id", Type: sql.TypeInt64},
		sql.Field{Name: "ad_type", Type: sql.TypeString},
		sql.Field{Name: "event_type", Type: sql.TypeString},
		sql.Field{Name: "event_time", Type: sql.TypeTimestamp},
		sql.Field{Name: "ip", Type: sql.TypeString},
	)
	mapTaskCampaignSchema = sql.NewSchema(
		sql.Field{Name: "c_ad_id", Type: sql.TypeInt64},
		sql.Field{Name: "campaign_id", Type: sql.TypeInt64},
	)
)

// mapTask is the compiled ysb pipeline and one task's worth of decoded
// columns, which run copies into a pooled batch the way the bus decoder
// fills one.
type mapTask struct {
	pipe   *Pipeline
	keep   []bool
	cols   []*vec.Vector // the decoded columns; nil where the plan reads none
	groups int           // distinct (window, campaign) pairs among the views
}

func newMapTask(tb testing.TB) *mapTask {
	tb.Helper()
	const origin, stepUs = int64(1_600_000_000_000_000), int64(100)
	win := 10 * time.Second
	campaigns := make([]sql.Row, 0, mapTaskAds)
	for ad := 0; ad < mapTaskAds; ad++ {
		campaigns = append(campaigns, sql.Row{int64(ad), int64(ad / (mapTaskAds / mapTaskCampaigns))})
	}
	views := &logical.Project{
		Child: &logical.Filter{
			Child: &logical.WithWatermark{
				Child:  &logical.Scan{Name: "ad_events", Streaming: true, Out: mapTaskSchema},
				Column: "event_time", Delay: win.Microseconds()},
			Cond: sql.Eq(sql.Col("event_type"), sql.Lit("view"))},
		Exprs: []sql.Expr{sql.Col("ad_id"), sql.Col("event_time")},
	}
	analyzed, err := analysis.Analyze(&logical.Aggregate{
		Child: &logical.Join{Left: views,
			Right: &logical.Scan{Name: "campaigns", Out: mapTaskCampaignSchema, Handle: campaigns},
			Type:  logical.InnerJoin, Cond: sql.Eq(sql.Col("ad_id"), sql.Col("c_ad_id"))},
		Keys: []sql.Expr{sql.NewWindow(sql.Col("event_time"), win, 0), sql.Col("campaign_id")},
		Aggs: []logical.NamedAgg{{Agg: sql.CountAll(), Name: "count"}},
	})
	if err != nil {
		tb.Fatal(err)
	}
	q, err := Compile(optimizer.Optimize(analyzed), logical.Update, func(s *logical.Scan) (physical.RowSource, error) {
		return physical.NewSliceSource(s.Out, s.Handle.([]sql.Row)), nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	pipe := q.Pipelines[0]
	if !pipe.Scatters() || pipe.Vec.Agg == nil || len(pipe.Vec.Ops) != len(pipe.Stages)-1 {
		tb.Fatal("the ysb pipeline does not run columnar up to its partial aggregate")
	}
	keep := make([]bool, mapTaskSchema.Len())
	for _, c := range pipe.SourceCols {
		keep[c] = true
	}
	if pipe.SourceCols == nil {
		for c := range keep {
			keep[c] = true
		}
	}

	rng := rand.New(rand.NewSource(1))
	eventTypes := []string{"view", "click", "purchase"}
	full := vec.NewBatch(mapTaskSchema, mapTaskLanes)
	type group struct{ window, campaign int64 }
	distinct := map[group]bool{}
	for i := 0; i < mapTaskLanes; i++ {
		ad, et, ts := int64(rng.Intn(mapTaskAds)), eventTypes[rng.Intn(len(eventTypes))], origin+int64(i)*stepUs
		full.Cols[2].Int64s[i], full.Cols[4].Strings[i], full.Cols[5].Int64s[i] = ad, et, ts
		full.Cols[0].Int64s[i], full.Cols[1].Int64s[i] = rng.Int63n(100_000), rng.Int63n(100_000)
		full.Cols[3].Strings[i], full.Cols[6].Strings[i] = "banner", "10.140.1.1"
		if et == "view" {
			distinct[group{ts - ts%win.Microseconds(), ad / (mapTaskAds / mapTaskCampaigns)}] = true
		}
	}
	cols := make([]*vec.Vector, len(full.Cols))
	for c, v := range full.Cols {
		if keep[c] {
			cols[c] = v
		}
	}
	return &mapTask{pipe: pipe, keep: keep, cols: cols, groups: len(distinct)}
}

// run is one map task as runMapTask's scatter branch runs it: a pooled
// batch, filled slot by slot, through ProcessBatchScatter, then released.
// It returns the number of cells the buckets hold, and the batch's first
// decode column, by which a caller tells whether the pool handed this task
// the last one's slabs.
func (m *mapTask) run() (cells int, first *vec.Vector) {
	b := vec.GetBatch(mapTaskSchema, m.keep, mapTaskLanes)
	for c, v := range m.cols {
		if v != nil {
			copy(b.Cols[c].Int64s, v.Int64s)
			copy(b.Cols[c].Strings, v.Strings)
			if first == nil {
				first = b.Cols[c]
			}
		}
	}
	for _, bucket := range m.pipe.ProcessBatchScatter(b, mapTaskParts) {
		cells += len(bucket)
	}
	b.Release()
	return cells, first
}

// BenchmarkMapTaskScatter/ysb: one op is one 64 Ki-lane ysb-bulk map task.
// It reports time and heap bytes per input lane, and fails unless the
// buckets hold one cell per (window, campaign) group of the batch's views.
func BenchmarkMapTaskScatter(b *testing.B) {
	b.Run("ysb", func(b *testing.B) {
		m := newMapTask(b)
		if cells, _ := m.run(); cells != m.groups { // warm the pools
			b.Fatalf("%d cells in the buckets, want %d groups", cells, m.groups)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if cells, _ := m.run(); cells != m.groups {
				b.Fatalf("%d cells in the buckets, want %d groups", cells, m.groups)
			}
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		rows := float64(b.N) * mapTaskLanes
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/rows, "ns/row")
		b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/rows, "B/row")
	})
}

// TestMapTaskAllocatesFromThePool is the map side's allocation gate: once a
// ysb-bulk map task has released its batch, the next task, handed the same
// slabs by the pool, allocates at most mapTaskBytesPerRow bytes per input
// lane — the cells it ships and a few headers; its decode columns, kernel
// outputs, selections, probe lanes, gathered columns and window bounds all
// come back from the last task. Every slab allocated fresh cost 40 B a lane.
func TestMapTaskAllocatesFromThePool(t *testing.T) {
	const mapTaskBytesPerRow = 1.0
	m := newMapTask(t)
	least := -1.0
	for attempt := 0; attempt < 10; attempt++ {
		_, warm := m.run()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cells, first := m.run()
		runtime.ReadMemStats(&after)
		if cells != m.groups {
			t.Fatalf("%d cells in the buckets, want %d groups", cells, m.groups)
		}
		// A sync.Pool may drop what it is handed (under the race detector a
		// quarter of it, on purpose) or keep it on another P — this batch's
		// or the partial aggregate's — so a task that found a pool empty
		// tries again.
		perRow := float64(after.TotalAlloc-before.TotalAlloc) / mapTaskLanes
		if first == warm && (least < 0 || perRow < least) {
			least = perRow
		}
		if least >= 0 && least <= mapTaskBytesPerRow {
			t.Logf("a pooled map task allocated %.3f B per lane", least)
			return
		}
	}
	if least < 0 {
		t.Fatal("the pool never handed a released batch's slabs to the next task")
	}
	t.Fatalf("a pooled map task allocated %.2f B per lane, want at most %.2f", least, mapTaskBytesPerRow)
}
