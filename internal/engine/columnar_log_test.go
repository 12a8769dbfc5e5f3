package engine

import (
	"fmt"
	"math"
	"reflect"
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

// yahooPlan is the benchmark's ysb-bulk plan: 40 ads in 8 campaigns, the
// campaign table a static scan resolver serves from its Handle.
func yahooPlan() (logical.Plan, physical.ScanResolver) {
	var campaigns []sql.Row
	for ad := 0; ad < 40; ad++ {
		campaigns = append(campaigns, sql.Row{int64(ad), int64(ad / 5)})
	}
	views := &logical.Project{
		Child: &logical.Filter{
			Child: &logical.WithWatermark{
				Child:  &logical.Scan{Name: "ad_events", Streaming: true, Out: adSchema},
				Column: "event_time", Delay: 10 * sec},
			Cond: sql.Eq(sql.Col("event_type"), sql.Lit("view"))},
		Exprs: []sql.Expr{sql.Col("ad_id"), sql.Col("event_time")},
	}
	return &logical.Aggregate{
			Child: &logical.Join{Left: views,
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
	if len(p.Stages) != 4 || p.Vec == nil || p.Vec.Agg == nil || len(p.Vec.Ops) != len(p.Stages) {
		t.Fatalf("the plan seals before the aggregate: %d stages, vector plan %+v", len(p.Stages), p.Vec)
	}
	if want := []int{2, 4, 5}; !reflect.DeepEqual(p.SourceCols, want) { // ad_id, event_type, event_time
		t.Fatalf("SourceCols = %v, want %v", p.SourceCols, want)
	}
	recs := make([][]byte, 4000)
	for i := range recs {
		recs[i] = codec.EncodeRow(adEvent(i))
	}
	run := func(vectorize bool, workers int) ([]sql.Row, int64) {
		sink := sinks.NewMemorySink()
		src := sources.NewCodecBusSource("ad_events", adTopic(t, recs), adSchema)
		q := yahooQuery(t)
		if !vectorize {
			q = rowPath(q)
		}
		sq := startQuery(t, q, map[string]sources.Source{"ad_events": src}, sink, Options{
			Workers: workers, NumPartitions: 2, MaxRecordsPerTrigger: 1000})
		if err := sq.ProcessAllAvailable(); err != nil {
			t.Fatal(err)
		}
		var in, vecd int64
		for _, prog := range sq.EventLog().Recent(100) {
			if vectorize && prog.VectorizedRows != prog.NumInputRows {
				t.Fatalf("workers=%d: epoch %d vectorized %d of %d input rows", workers, prog.Epoch, prog.VectorizedRows, prog.NumInputRows)
			}
			in, vecd = in+prog.NumInputRows, vecd+prog.VectorizedRows
		}
		if in != int64(len(recs)) {
			t.Fatalf("read %d of %d records", in, len(recs))
		}
		if err := sq.Stop(); err != nil {
			t.Fatal(err)
		}
		return sink.Rows(), vecd
	}
	golden, _ := run(false, 1)
	if len(golden) == 0 {
		t.Fatal("the row path emitted nothing")
	}
	for _, workers := range []int{1, 2} {
		got, vecd := run(true, workers)
		rowsExactlyEqual(t, got, golden, fmt.Sprintf("workers=%d", workers))
		if vecd != int64(len(recs)) {
			t.Fatalf("workers=%d: %d of %d rows ran columnar", workers, vecd, len(recs))
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

// TestPrunedScanKeepsTheRowPathsBytes: over a log that holds records
// truncated inside a column the plan skips, records whose type drifts
// inside a skipped column, and records whose type drifts inside a column
// the plan reads, the pruned scan, the full-width columnar scan and the row
// path must write byte-identical sink files.
func TestPrunedScanKeepsTheRowPathsBytes(t *testing.T) {
	var recs [][]byte
	var cut int64
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
	type variant struct {
		name      string
		vectorize bool
		wrap      func(*sources.BusSource) sources.Source
	}
	variants := []variant{
		{"row", false, func(s *sources.BusSource) sources.Source { return s }},
		{"unpruned", true, func(s *sources.BusSource) sources.Source { return unprunedSource{s} }},
		{"pruned", true, func(s *sources.BusSource) sources.Source { return s }},
	}
	var golden map[string][]byte
	for _, v := range variants {
		for _, workers := range []int{1, 2} {
			dir := t.TempDir()
			src := v.wrap(sources.NewCodecBusSource("ad_events", adTopic(t, recs), adSchema))
			q := yahooQuery(t)
			if !v.vectorize {
				q = rowPath(q)
			}
			sq := startQuery(t, q, map[string]sources.Source{"ad_events": src}, &sinks.JSONFileSink{Dir: dir}, Options{
				Workers: workers, NumPartitions: 2, MaxRecordsPerTrigger: 500})
			if err := sq.ProcessAllAvailable(); err != nil {
				t.Fatalf("%s workers=%d: %v", v.name, workers, err)
			}
			in, vecd := sq.Metrics().Counter("inputRows").Value(), sq.Metrics().Counter("vectorizedRows").Value()
			if err := sq.Stop(); err != nil {
				t.Fatal(err)
			}
			// Both cuts drop in every decoder; everything else is input.
			if want := int64(len(recs)) - cut; in != want {
				t.Fatalf("%s workers=%d: %d input rows, want %d", v.name, workers, in, want)
			}
			switch v.name {
			case "row":
				if vecd != 0 {
					t.Fatalf("row path vectorized %d rows", vecd)
				}
			case "unpruned":
				// The skipped-column drift is visible at full width: most
				// slices fall back.
				if vecd >= in/2 {
					t.Fatalf("unpruned workers=%d: %d of %d rows vectorized despite drift in every slice", workers, vecd, in)
				}
			case "pruned":
				// Only the slices holding a kept-column drift fall back, mid-run.
				if vecd == 0 || vecd == in || vecd < in/2 {
					t.Fatalf("pruned workers=%d: %d of %d rows vectorized, want most but not all", workers, vecd, in)
				}
			}
			got := dirContents(t, dir)
			if golden == nil {
				golden = got
				if len(golden) < 4 {
					t.Fatalf("row path wrote %d files", len(golden))
				}
				continue
			}
			if d := sinkDiff(golden, got); d != "" {
				t.Fatalf("%s workers=%d diverged from the row path:\n%s", v.name, workers, d)
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

// TestRecycledBatchesSurvivePoison drives the Yahoo! query one epoch at a
// time and, between epochs, scribbles over every slab the engine has
// released — the decode columns' values, strings and null bits, and
// everything the tasks' kernels and stages drew from the same recyclers:
// filter verdicts, selections, the join's probe lanes and gathered static
// columns, window bounds. The next epoch decodes and computes into those
// very slabs; if a pooled vector kept a null bit, or a stage read a slot
// its own task did not write, the output would leave the golden.
func TestRecycledBatchesSurvivePoison(t *testing.T) {
	const epochs, perEpoch = 12, 600
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
	run := func(vectorize bool) ([]sql.Row, *batchLog, map[string]int) {
		log := &batchLog{vectors: map[*vec.Vector]int{}}
		topic := adTopic(t, nil)
		src := recordingSource{sources.NewCodecBusSource("ad_events", topic, adSchema), log}
		sink := sinks.NewMemorySink()
		q := yahooQuery(t)
		if !vectorize {
			q = rowPath(q)
		}
		sq := startQuery(t, q, map[string]sources.Source{"ad_events": src}, sink, Options{
			Workers: 2, NumPartitions: 2})
		derived := map[string]int{} // recycled slabs the decoder never handed out, by kind
		for e := 0; e < epochs; e++ {
			recs := make([][]byte, perEpoch)
			for i := range recs {
				row := adEvent(e*perEpoch + i)
				if i%11 == 0 {
					row[2] = nil // NULL ad_id: the decoder must set, and the pool clear, a null bit
				}
				recs[i] = codec.EncodeRow(row)
			}
			appendAds(t, topic, e*perEpoch, recs)
			if err := sq.ProcessAllAvailable(); err != nil {
				t.Fatal(err)
			}
			// The epoch is over: every batch it read, and everything derived
			// from it, is back in the pool.
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
		return sink.Rows(), log, derived
	}
	golden, _, _ := run(false)
	got, log, derived := run(true)
	rowsExactlyEqual(t, got, golden, "poisoned pool")
	// The filter's verdicts, the gathered campaign columns, the window bounds
	// and the filter's and probe's selections must all have been poisoned.
	for _, kind := range []string{"bool", "int64", "window", "selection"} {
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
}
