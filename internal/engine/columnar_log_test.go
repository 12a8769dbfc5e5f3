package engine

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"structream/internal/incremental"
	"structream/internal/msgbus"
	"structream/internal/sinks"
	"structream/internal/sources"
	"structream/internal/sql"
	"structream/internal/sql/codec"
	"structream/internal/sql/logical"
	"structream/internal/sql/physical"
	"structream/internal/sql/vec"
)

// Tests for the Yahoo! query's path from the log to the exchange: the plan
// stays columnar, the scan decodes only what the plan reads, decode batches
// are recycled, and none of it changes a byte of output.

var adSchema = sql.NewSchema(
	sql.Field{Name: "user_id", Type: sql.TypeInt64},
	sql.Field{Name: "page_id", Type: sql.TypeInt64},
	sql.Field{Name: "ad_id", Type: sql.TypeInt64},
	sql.Field{Name: "ad_type", Type: sql.TypeString},
	sql.Field{Name: "event_type", Type: sql.TypeString},
	sql.Field{Name: "event_time", Type: sql.TypeTimestamp},
	sql.Field{Name: "ip", Type: sql.TypeString},
)

var campaignSchema = sql.NewSchema(
	sql.Field{Name: "c_ad_id", Type: sql.TypeInt64},
	sql.Field{Name: "campaign_id", Type: sql.TypeInt64},
)

// adViews is the Yahoo! query's map side: the views' ad and event time,
// under a ten-second watermark.
func adViews() logical.Plan {
	return &logical.Project{
		Child: &logical.Filter{
			Child: &logical.WithWatermark{
				Child:  &logical.Scan{Name: "ad_events", Streaming: true, Out: adSchema},
				Column: "event_time", Delay: 10 * sec},
			Cond: sql.Eq(sql.Col("event_type"), sql.Lit("view"))},
		Exprs: []sql.Expr{sql.Col("ad_id"), sql.Col("event_time")},
	}
}

// yahooPlan is the benchmark's ysb-bulk plan: 40 ads in 8 campaigns, the
// campaign table a static scan resolver serves from its Handle.
func yahooPlan() (logical.Plan, physical.ScanResolver) {
	var campaigns []sql.Row
	for ad := 0; ad < 40; ad++ {
		campaigns = append(campaigns, sql.Row{int64(ad), int64(ad / 5)})
	}
	return &logical.Aggregate{
			Child: &logical.Join{Left: adViews(),
				Right: &logical.Scan{Name: "campaigns", Out: campaignSchema, Handle: campaigns},
				Type:  logical.InnerJoin, Cond: sql.Eq(sql.Col("ad_id"), sql.Col("c_ad_id"))},
			Keys: []sql.Expr{sql.NewWindow(sql.Col("event_time"), 10*time.Second, 0), sql.Col("campaign_id")},
			Aggs: []logical.NamedAgg{{Agg: sql.CountAll(), Name: "count"}},
		}, func(s *logical.Scan) (physical.RowSource, error) {
			return physical.NewSliceSource(s.Out, s.Handle.([]sql.Row)), nil
		}
}

// yahooQuery is yahooPlan compiled.
func yahooQuery(t *testing.T) *incremental.Query {
	t.Helper()
	plan, resolver := yahooPlan()
	return compile(t, plan, logical.Update, resolver)
}

// adEvent is event i of a deterministic stream: a third are views, event
// time advances a quarter second per event, one ad in eight is unknown to
// the campaign table.
func adEvent(i int) sql.Row {
	return sql.Row{int64(i * 7919 % 1000), int64(i * 104729 % 1000), int64(i * 31 % 46),
		[]string{"banner", "modal", "mail"}[i%3], []string{"view", "click", "purchase"}[i*7%3],
		int64(i) * sec / 4, fmt.Sprintf("10.0.%d.1", i%200)}
}

// adTopic loads records round-robin into a two-partition topic.
func adTopic(t *testing.T, recs [][]byte) *msgbus.Topic {
	t.Helper()
	topic, err := msgbus.NewBroker().CreateTopic("ad_events", 2)
	if err != nil {
		t.Fatal(err)
	}
	appendAds(t, topic, 0, recs)
	return topic
}

func appendAds(t *testing.T, topic *msgbus.Topic, first int, recs [][]byte) {
	t.Helper()
	for i, rec := range recs {
		if _, err := topic.Append((first+i)%2, msgbus.Record{Value: rec}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestYahooQueryRunsColumnarFromTheLog(t *testing.T) {
	q := yahooQuery(t)
	p := q.Pipelines[0]
	if len(p.Vec.Ops) != 4 || p.Vec.Agg == nil || lanewisePrograms(p) != 0 {
		t.Fatalf("the plan leaves kernels before the aggregate: %+v", p.Vec)
	}
	if want := []int{2, 4, 5}; !reflect.DeepEqual(p.SourceCols, want) { // ad_id, event_type, event_time
		t.Fatalf("SourceCols = %v, want %v", p.SourceCols, want)
	}
	recs := yahooLogRecords()
	golden := readRowPathFixture(t, "yahoo-log")
	for _, workers := range []int{1, 2} {
		sink := sinks.NewMemorySink()
		src := sources.NewCodecBusSource("ad_events", adTopic(t, recs), adSchema)
		sq := startQuery(t, yahooQuery(t), map[string]sources.Source{"ad_events": src}, sink, Options{
			Workers: workers, NumPartitions: 2, MaxRecordsPerTrigger: 1000})
		if err := sq.ProcessAllAvailable(); err != nil {
			t.Fatal(err)
		}
		if in := sq.Metrics().Counter("inputRows").Value(); in != int64(len(recs)) {
			t.Fatalf("workers=%d: read %d of %d records", workers, in, len(recs))
		}
		if err := sq.Stop(); err != nil {
			t.Fatal(err)
		}
		if got := fixtureLines(sink.Rows(), false); !reflect.DeepEqual(got, golden) {
			t.Fatalf("workers=%d: the sink holds other rows than the parent's:\n got  %v\n want %v", workers, got, golden)
		}
	}
}

// unprunedSource forwards a bus source's columnar reads but hides its
// ColumnPruner extension, so the engine decodes every column — the path a
// source without the extension (or the benchmark's tracing wrapper) takes.
type unprunedSource struct {
	sources.Source
}

func (s unprunedSource) ReadVec(p int, from, to int64) (*vec.Batch, bool, error) {
	return s.Source.(sources.VectorReader).ReadVec(p, from, to)
}

// driftingAdLog is 3000 ad events with records truncated inside a column
// a pruned plan skips and inside one before the kept columns (cut counts
// them: every decoder drops them), records whose type drifts inside a
// skipped column, and, mid-run, records whose type drifts inside a column
// the plan reads. The anomalous records are views, so a plan that keeps
// views meets every one of them.
func driftingAdLog() (recs [][]byte, cut int64) {
	view := func(i int) sql.Row { r := adEvent(i); r[4] = "view"; return r }
	for i := 0; i < 3000; i++ {
		switch {
		case i%97 == 13: // cut inside ip, the last column: nobody can decode it
			rec := codec.EncodeRow(view(i))
			recs = append(recs, rec[:len(rec)-4])
			cut++
		case i%89 == 17: // cut inside ad_type, before the kept columns
			row := view(i)
			at := len(codec.EncodeRow(row[:3])) + 3
			recs = append(recs, codec.EncodeRow(row)[:at])
			cut++
		case i%101 == 29: // user_id arrives as a string: skipped, so invisible
			row := view(i)
			row[0] = "user-7"
			recs = append(recs, codec.EncodeRow(row))
		case i >= 1200 && i < 1900 && i%53 == 5: // ad_id arrives as a float: kept
			row := view(i)
			row[2] = float64(row[2].(int64))
			recs = append(recs, codec.EncodeRow(row))
		default:
			recs = append(recs, codec.EncodeRow(adEvent(i)))
		}
	}
	return recs, cut
}

// TestPrunedScanKeepsTheRowPathsBytes: over a log that holds records
// truncated inside a column the plan skips, records whose type drifts
// inside a skipped column, and records whose type drifts inside a column
// the plan reads, the pruned scan and the full-width scan must write the
// sink files the parent's row stages wrote (testdata/parent-rowpath), byte
// for byte, at one and two workers.
func TestPrunedScanKeepsTheRowPathsBytes(t *testing.T) {
	recs, cut := driftingAdLog()
	golden := readRowPathFixture(t, "pruned-scan")
	for _, v := range []struct {
		name string
		wrap func(*sources.BusSource) sources.Source
	}{
		{"unpruned", func(s *sources.BusSource) sources.Source { return unprunedSource{s} }},
		{"pruned", func(s *sources.BusSource) sources.Source { return s }},
	} {
		for _, workers := range []int{1, 2} {
			dir := t.TempDir()
			src := v.wrap(sources.NewCodecBusSource("ad_events", adTopic(t, recs), adSchema))
			sq := startQuery(t, yahooQuery(t), map[string]sources.Source{"ad_events": src}, &sinks.JSONFileSink{Dir: dir}, Options{
				Workers: workers, NumPartitions: 2, MaxRecordsPerTrigger: 500})
			if err := sq.ProcessAllAvailable(); err != nil {
				t.Fatalf("%s workers=%d: %v", v.name, workers, err)
			}
			in := sq.Metrics().Counter("inputRows").Value()
			if err := sq.Stop(); err != nil {
				t.Fatal(err)
			}
			// Both cuts drop in every decoder; everything else is input.
			if want := int64(len(recs)) - cut; in != want {
				t.Fatalf("%s workers=%d: %d input rows, want %d", v.name, workers, in, want)
			}
			if got := renderFiles(dirContents(t, dir)); !reflect.DeepEqual(got, golden) {
				t.Fatalf("%s workers=%d diverged from the parent's row stages:\n got  %q\n want %q", v.name, workers, got, golden)
			}
		}
	}
}

// memoryContents renders a memory sink's append table epoch by epoch, as
// the files a sink of its own would hold.
func memoryContents(sink *sinks.MemorySink) map[string][]byte {
	out := map[string][]byte{}
	for e := int64(0); e <= sink.LastEpoch(); e++ {
		if rows := sink.RowsForEpoch(e); len(rows) > 0 {
			out[fmt.Sprint("epoch-", e)] = []byte(fmt.Sprintln(rows))
		}
	}
	return out
}

// TestPrunedMapOnlyScanKeepsTheRowPathsBytes is the map-only twin of
// TestPrunedScanKeepsTheRowPathsBytes: the Yahoo! query's map side, over the
// same drifting log, unpruned and pruned at one and two workers, into the
// JSON sink (rows) and the memory sink (columns). A slice whose kept column
// drifts reaches the sink as a batch with that column boxed, and its rows are
// delivered with their cells as they came (a float ad_id); every sink must
// hold what the parent's row stages left, byte for byte.
func TestPrunedMapOnlyScanKeepsTheRowPathsBytes(t *testing.T) {
	recs, cut := driftingAdLog()
	variants := []struct {
		name string
		wrap func(*sources.BusSource) sources.Source
	}{
		{"unpruned", func(s *sources.BusSource) sources.Source { return unprunedSource{s} }},
		{"pruned", func(s *sources.BusSource) sources.Source { return s }},
	}
	for _, sinkKind := range []string{"json", "memory"} {
		golden := readRowPathFixture(t, "pruned-map-only-"+sinkKind)
		if sinkKind == "memory" && !strings.Contains(strings.Join(golden, "\n"), ".0, ") {
			t.Fatal("the parent's memory sink holds no row with a float ad_id")
		}
		for _, v := range variants {
			for _, workers := range []int{1, 2} {
				name := fmt.Sprintf("%s %s workers=%d", sinkKind, v.name, workers)
				dir := t.TempDir()
				var sink sinks.Sink = &sinks.JSONFileSink{Dir: dir}
				mem := sinks.NewMemorySink()
				if sinkKind == "memory" {
					sink = mem
				}
				q := compile(t, adViews(), logical.Append, nil)
				if n := lanewisePrograms(q.Pipelines[0]); n > 0 {
					t.Fatalf("%d of the views plan's programs run lane by lane", n)
				}
				src := v.wrap(sources.NewCodecBusSource("ad_events", adTopic(t, recs), adSchema))
				sq := startQuery(t, q, map[string]sources.Source{"ad_events": src}, sink, Options{
					Workers: workers, NumPartitions: 2, MaxRecordsPerTrigger: 100})
				if err := sq.ProcessAllAvailable(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				in := sq.Metrics().Counter("inputRows").Value()
				if err := sq.Stop(); err != nil {
					t.Fatal(err)
				}
				if want := int64(len(recs)) - cut; in != want {
					t.Fatalf("%s: %d input rows, want %d", name, in, want)
				}
				got := renderFiles(dirContents(t, dir))
				if sinkKind == "memory" {
					got = renderFiles(memoryContents(mem))
				}
				if !reflect.DeepEqual(got, golden) {
					t.Fatalf("%s diverged from the parent's row stages:\n got  %q\n want %q", name, got, golden)
				}
			}
		}
	}
}

// recordingSource remembers every batch its columnar reads hand to the
// engine, and forwards the pruning extension so the engine's path is the
// production one.
type recordingSource struct {
	sources.Source
	log *batchLog
}

type batchLog struct {
	mu      sync.Mutex
	batches []*vec.Batch
	vectors map[*vec.Vector]int // how often each vector was handed out
}

func (l *batchLog) note(b *vec.Batch) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.batches = append(l.batches, b)
	for _, v := range b.Cols {
		if v != nil {
			l.vectors[v]++
		}
	}
}

func (s recordingSource) PruneColumns(cols []int) sources.Source {
	return recordingSource{s.Source.(sources.ColumnPruner).PruneColumns(cols), s.log}
}

func (s recordingSource) ReadVec(p int, from, to int64) (*vec.Batch, bool, error) {
	b, ok, err := s.Source.(sources.VectorReader).ReadVec(p, from, to)
	if ok && err == nil {
		s.log.note(b)
	}
	return b, ok, err
}

// rowSink hides a sink's ColumnSink extension, so the engine delivers it
// rows.
type rowSink struct{ sinks.Sink }

// TestRecycledBatchesSurvivePoison drives a query one epoch at a time and,
// between epochs, scribbles over every slab the engine has released — the
// decode columns' values, strings and null bits, and everything the tasks'
// kernels and stages drew from the same recyclers: filter verdicts,
// selections, the join's probe lanes and gathered static columns, window
// bounds. The next epoch decodes and computes into those very slabs; if a
// pooled vector kept a null bit, or a stage read a slot its own task did not
// write, the output would leave the golden. A task releases its batch
// whenever nothing leaves it columnar, so every branch that renders rows is
// held: the Yahoo! query's partial aggregate, its map side into a row sink,
// a LIKE projection, a function call run lane by lane, and dedup's routing
// by key. The golden
// is what the parent's sink held over the same records (testdata/
// parent-rowpath).
func TestRecycledBatchesSurvivePoison(t *testing.T) {
	scribble := func(v *vec.Vector) {
		ints, strs, bools := v.Int64s[:cap(v.Int64s)], v.Strings[:cap(v.Strings)], v.Bools[:cap(v.Bools)]
		starts, ends := v.WStarts[:cap(v.WStarts)], v.WEnds[:cap(v.WEnds)]
		for i := range ints {
			ints[i] = math.MinInt64 + 1
		}
		for i := range strs {
			strs[i] = "view" // the filter's own constant: a stale slot would pass it
		}
		for i := range bools {
			bools[i] = true // a stale verdict keeps its lane
		}
		for i := range starts {
			starts[i], ends[i] = 0, 10*sec // a window no event falls in
		}
		if n := len(ints) + len(strs) + len(bools) + len(starts); n > 0 {
			v.Nulls = vec.NewBitmap(n)
			v.Nulls.SetAll()
		}
	}
	// The recycled slab kinds that must have been poisoned, by case.
	derivedKinds := map[string][]string{
		"aggregate":     {"bool", "int64", "window", "selection"},
		"map-only rows": {"bool", "selection"},
		"sealed prefix": {"bool", "selection"},
		"lanewise":      {"bool", "string", "selection"},
		"dedup":         {"bool", "selection"},
	}
	for _, tc := range poisonCases() {
		t.Run(tc.name, func(t *testing.T) {
			run := func() ([]sql.Row, *batchLog, map[string]int) {
				log := &batchLog{vectors: map[*vec.Vector]int{}}
				topic := adTopic(t, nil)
				src := recordingSource{sources.NewCodecBusSource("ad_events", topic, adSchema), log}
				mem := sinks.NewMemorySink()
				var sink sinks.Sink = mem
				if tc.rows {
					sink = rowSink{mem}
				}
				plan, mode, resolver := tc.plan()
				q := compile(t, plan, mode, resolver)
				if n := lanewisePrograms(q.Pipelines[0]); n != map[bool]int{true: 1}[tc.name == "lanewise"] {
					t.Fatalf("%d programs run lane by lane", n)
				}
				sq := startQuery(t, q, map[string]sources.Source{"ad_events": src}, sink, Options{
					Workers: 2, NumPartitions: 2})
				derived := map[string]int{} // recycled slabs the decoder never handed out, by kind
				for e := 0; e < poisonEpochs; e++ {
					// A NULL ad_id every 11th record: the decoder must set, and
					// the pool clear, a null bit.
					appendAds(t, topic, e*poisonPerEpoch, poisonRecords(e))
					if err := sq.ProcessAllAvailable(); err != nil {
						t.Fatal(err)
					}
					// The epoch is over: every batch it read, and everything
					// derived from it, is back in the pool.
					log.mu.Lock()
					for _, b := range log.batches {
						for _, v := range b.Cols {
							if v != nil {
								scribble(v)
							}
						}
						b.Recycled(func(v *vec.Vector) {
							if log.vectors[v] == 0 {
								derived[[...]string{"int64", "float64", "bool", "string", "window", "any"}[v.Kind]]++
							}
							scribble(v)
						}, func(sel []int32) {
							derived["selection"]++
							for i := range sel {
								sel[i] = 0 // a valid lane: a stale one reads as a wrong row
							}
						})
					}
					log.batches = log.batches[:0]
					log.mu.Unlock()
				}
				if err := sq.Stop(); err != nil {
					t.Fatal(err)
				}
				return mem.Rows(), log, derived
			}
			golden := readRowPathFixture(t, "poison-"+strings.ReplaceAll(tc.name, " ", "-"))
			got, log, derived := run()
			if rendered := fixtureLines(got, false); !reflect.DeepEqual(rendered, golden) {
				t.Fatalf("poisoned pool: the sink holds other rows than the parent's:\n got  %v\n want %v", rendered, golden)
			}
			for _, kind := range derivedKinds[tc.name] {
				if derived[kind] == 0 {
					t.Errorf("no recycled %s slab was poisoned (%v): the kernels do not draw from the pool", kind, derived)
				}
			}
			reused := 0
			for _, n := range log.vectors {
				if n > 1 {
					reused++
				}
			}
			if len(log.vectors) == 0 || reused == 0 {
				t.Fatalf("no vector was handed out twice (%d seen): the pool is not recycling", len(log.vectors))
			}
		})
	}
}
