package engine

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"structream/internal/incremental"
	"structream/internal/sinks"
	"structream/internal/sources"
	"structream/internal/sql"
	"structream/internal/sql/codec"
	"structream/internal/sql/logical"
	"structream/internal/sql/physical"
)

// The files under testdata/parent-rowpath were written by the last commit
// whose map tasks still ran row stages after a sealed vector plan, or for a
// whole drifted batch (bf8e4a4): what its sinks held after the runs below,
// the bytes its own tests had held equal to its row stages'. This file is
// their definition and compiles at that commit too, which is how they were
// produced:
//
//	cp rowpath_fixture_gen_test.go <checkout of bf8e4a4>/internal/engine/
//	ROWPATH_WRITE_FIXTURE=<dir> go test -run TestWriteRowPathFixture ./internal/engine
//
// The tests that once compared the current code against a row-stage run of
// their own now compare it against these files, byte for byte.

// rowPathFixture is one run whose sink the fixture holds: run renders what
// the sink holds after it, one line per file, row or epoch marker.
type rowPathFixture struct {
	name string
	run  func(t *testing.T) []string
}

// renderFiles renders a sink directory's files, in name order.
func renderFiles(files map[string][]byte) []string {
	var names []string
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []string
	for _, name := range names {
		out = append(out, "file "+name)
		out = append(out, strings.Split(strings.TrimSuffix(string(files[name]), "\n"), "\n")...)
	}
	return out
}

// fixtureLines renders rows, one line each; sorted renders them as a multiset.
func fixtureLines(rows []sql.Row, sorted bool) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	if sorted {
		sort.Strings(out)
	}
	return out
}

// renderEpochs renders a memory sink's rows, then its rows epoch by epoch.
func renderEpochs(sink *sinks.MemorySink, epochs int, sorted bool) []string {
	out := append([]string{"all"}, fixtureLines(sink.Rows(), sorted)...)
	for e := 0; e < epochs; e++ {
		out = append(out, fmt.Sprint("epoch ", e))
		out = append(out, fixtureLines(sink.RowsForEpoch(int64(e)), sorted)...)
	}
	return out
}

// prunedScanRun drives plan over driftingAdLog's records into a JSON sink,
// maxPerTrigger records an epoch, and returns the files it wrote.
func prunedScanRun(t *testing.T, q *incremental.Query, src sources.Source, sink sinks.Sink, workers int, maxPerTrigger int64) {
	t.Helper()
	sq := startQuery(t, q, map[string]sources.Source{"ad_events": src}, sink, Options{
		Workers: workers, NumPartitions: 2, MaxRecordsPerTrigger: maxPerTrigger})
	if err := sq.ProcessAllAvailable(); err != nil {
		t.Fatal(err)
	}
	if err := sq.Stop(); err != nil {
		t.Fatal(err)
	}
}

// poisonCase is one of TestRecycledBatchesSurvivePoison's queries; rows hides
// the memory sink's ColumnSink extension, so the map-only cases' tasks render
// rows and hand their batches back to the pool.
type poisonCase struct {
	name string
	plan func() (logical.Plan, logical.OutputMode, physical.ScanResolver)
	rows bool
}

func poisonCases() []poisonCase {
	views := &logical.Filter{Child: &logical.Scan{Name: "ad_events", Streaming: true, Out: adSchema},
		Cond: sql.Eq(sql.Col("event_type"), sql.Lit("view"))}
	return []poisonCase{
		{"aggregate", func() (logical.Plan, logical.OutputMode, physical.ScanResolver) {
			plan, resolver := yahooPlan()
			return plan, logical.Update, resolver
		}, false},
		{"map-only rows", func() (logical.Plan, logical.OutputMode, physical.ScanResolver) {
			return adViews(), logical.Append, nil
		}, true},
		{"sealed prefix", func() (logical.Plan, logical.OutputMode, physical.ScanResolver) {
			return &logical.Project{Child: views, Exprs: []sql.Expr{sql.Col("ad_id"), sql.Col("event_time"),
				sql.As(sql.NewBinary(sql.OpLike, sql.Col("ip"), sql.Lit("10.0.1%")), "m")}}, logical.Append, nil
		}, true},
		{"lanewise", func() (logical.Plan, logical.OutputMode, physical.ScanResolver) {
			return &logical.Project{Child: views, Exprs: []sql.Expr{sql.Col("ad_id"),
				sql.As(sql.NewFunc("upper", sql.Col("ad_type")), "t")}}, logical.Append, nil
		}, true},
		{"dedup", func() (logical.Plan, logical.OutputMode, physical.ScanResolver) {
			return &logical.Distinct{Child: &logical.Project{Child: views,
				Exprs: []sql.Expr{sql.Col("ad_id"), sql.Col("ad_type")}}}, logical.Append, nil
		}, false},
	}
}

const poisonEpochs, poisonPerEpoch = 12, 600

// poisonRecords are epoch e's records: ad events, a NULL ad_id every 11th.
func poisonRecords(e int) [][]byte {
	recs := make([][]byte, poisonPerEpoch)
	for i := range recs {
		row := adEvent(e*poisonPerEpoch + i)
		if i%11 == 0 {
			row[2] = nil
		}
		recs[i] = codec.EncodeRow(row)
	}
	return recs
}

// statefulShape is one of TestStatefulVectorizeDifferential's queries;
// unordered marks Complete mode, which emits in store iteration order.
type statefulShape struct {
	plan      logical.Plan
	mode      logical.OutputMode
	unordered bool
}

// statefulEpochs: NULL keys in 1/4 of rows, NaN/Inf values, both zeros, late
// arrivals, and one epoch whose v column carries int64s (type drift). (-0.0
// is positive zero in Go; negative zero needs math.Copysign.)
func statefulEpochs() [][]sql.Row {
	negZero := math.Copysign(0, -1)
	return [][]sql.Row{
		{{"a", 1.5, 1 * sec}, {nil, 2.0, 2 * sec}, {"b", math.NaN(), 3 * sec}, {"a", negZero, 4 * sec}},
		{{nil, math.Inf(1), 12 * sec}, {"c", math.Inf(-1), 13 * sec}, {nil, nil, 14 * sec},
			{"e", 0.0, 15 * sec}, {"e", negZero, 16 * sec}, {"f", math.NaN(), 17 * sec}},
		{}, // empty epoch
		{{"late", 4.0, 1 * sec}, {"b", 5.5, 30 * sec}, {"a", 6.0, 31 * sec}},
		{{"drift", int64(3), 32 * sec}, {"a", int64(-7), 33 * sec}}, // type drift
		{{"d", 8.25, 60 * sec}, {nil, 9.0, 61 * sec}, {"late2", 1.0, 5 * sec}},
	}
}

func statefulShapes() map[string]statefulShape {
	return map[string]statefulShape{
		"null-key-agg-update": {
			plan: &logical.Aggregate{
				Child: streamScan("events"),
				Keys:  []sql.Expr{sql.Col("k")},
				Aggs: []logical.NamedAgg{
					{Agg: sql.CountAll(), Name: "cnt"},
					{Agg: sql.Count(sql.Col("v")), Name: "cntv"},
					{Agg: sql.SumOf(sql.Col("v")), Name: "total"},
					{Agg: sql.AvgOf(sql.Col("v")), Name: "mean"},
					{Agg: sql.MinOf(sql.Col("v")), Name: "lo"}}},
			mode: logical.Update,
		},
		"null-key-agg-complete": {
			plan: &logical.Aggregate{
				Child: streamScan("events"),
				Keys:  []sql.Expr{sql.Col("k")},
				Aggs: []logical.NamedAgg{
					{Agg: sql.CountAll(), Name: "cnt"},
					{Agg: sql.SumOf(sql.Col("v")), Name: "total"}}},
			mode:      logical.Complete,
			unordered: true,
		},
		// Floats group by their bits: +0 and -0 are two groups, NaN is one,
		// NULL is one.
		"float-key-agg-update": {
			plan: &logical.Aggregate{
				Child: streamScan("events"),
				Keys:  []sql.Expr{sql.Col("v")},
				Aggs: []logical.NamedAgg{
					{Agg: sql.CountAll(), Name: "cnt"},
					{Agg: sql.Count(sql.Col("k")), Name: "cntk"}}},
			mode: logical.Update,
		},
		"watermark-window-append": {
			plan: &logical.Aggregate{
				Child: &logical.WithWatermark{Child: streamScan("events"), Column: "ts", Delay: 5 * sec},
				Keys:  []sql.Expr{sql.NewWindow(sql.Col("ts"), 10*time.Second, 0)},
				Aggs: []logical.NamedAgg{
					{Agg: sql.CountAll(), Name: "cnt"},
					{Agg: sql.SumOf(sql.Col("v")), Name: "total"}}},
			mode: logical.Append,
		},
		"watermark-window-update": {
			plan: &logical.Aggregate{
				Child: &logical.WithWatermark{Child: streamScan("events"), Column: "ts", Delay: 5 * sec},
				Keys:  []sql.Expr{sql.NewWindow(sql.Col("ts"), 10*time.Second, 0), sql.Col("k")},
				Aggs:  []logical.NamedAgg{{Agg: sql.CountAll(), Name: "cnt"}}},
			mode: logical.Update,
		},
		"dedup-watermark": {
			plan: &logical.Distinct{
				Child: &logical.WithWatermark{Child: streamScan("events"), Column: "ts", Delay: 5 * sec},
				Cols:  []string{"k", "ts"}},
			mode: logical.Append,
		},
	}
}

// statefulRun drives a compile of shape over statefulEpochs and returns its
// sink.
func statefulRun(t *testing.T, s statefulShape, opts Options) *sinks.MemorySink {
	t.Helper()
	src := sources.NewMemorySource("events", eventsSchema)
	sink := sinks.NewMemorySink()
	sq := startQuery(t, compile(t, s.plan, s.mode, nil), map[string]sources.Source{"events": src}, sink, opts)
	for _, rows := range statefulEpochs() {
		src.AddData(rows...)
		if err := sq.ProcessAllAvailable(); err != nil {
			t.Fatalf("opts=%+v: %v", opts, err)
		}
	}
	return sink
}

// smallTriggerPlan and smallTriggerRows are TestStatefulVectorizeSmallTriggers':
// a watermarked tumbling-window aggregate over 60 rows admitted 7 an epoch.
func smallTriggerPlan() logical.Plan {
	return &logical.Aggregate{
		Child: &logical.WithWatermark{Child: streamScan("events"), Column: "ts", Delay: 5 * sec},
		Keys:  []sql.Expr{sql.NewWindow(sql.Col("ts"), 10*time.Second, 0)},
		Aggs: []logical.NamedAgg{
			{Agg: sql.CountAll(), Name: "cnt"},
			{Agg: sql.SumOf(sql.Col("v")), Name: "total"}}}
}

const smallTriggerPerEpoch = 7

func smallTriggerRows() []sql.Row {
	var rows []sql.Row
	for i := 0; i < 60; i++ {
		var k sql.Value
		if i%4 != 0 {
			k = fmt.Sprintf("k%d", i%5)
		}
		rows = append(rows, sql.Row{k, float64(i) * 1.25, int64(i) * sec})
	}
	return rows
}

func smallTriggerRun(t *testing.T, budget int64) *sinks.MemorySink {
	t.Helper()
	src := sources.NewMemorySource("events", eventsSchema)
	sink := sinks.NewMemorySink()
	sq := startQuery(t, compile(t, smallTriggerPlan(), logical.Append, nil), map[string]sources.Source{"events": src}, sink,
		Options{StateMemtableBytes: budget, MaxRecordsPerTrigger: smallTriggerPerEpoch})
	src.AddData(smallTriggerRows()...)
	if err := sq.ProcessAllAvailable(); err != nil {
		t.Fatal(err)
	}
	return sink
}

// yahooLogRecords are TestYahooQueryRunsColumnarFromTheLog's 4000 records.
func yahooLogRecords() [][]byte {
	recs := make([][]byte, 4000)
	for i := range recs {
		recs[i] = codec.EncodeRow(adEvent(i))
	}
	return recs
}

// onOffEpochs and onOffShapes are TestVectorizeOnOffIdentical's: a map-only
// projection, a watermarked tumbling window and a keyed aggregate over epochs
// with a NULL key, NaN and Inf, an empty epoch and a late row.
func onOffEpochs() [][]sql.Row {
	return [][]sql.Row{
		{{"a", 5.0, 1 * sec}, {"b", -2.0, 2 * sec}, {nil, 7.5, 3 * sec}},
		{{"c", math.NaN(), 4 * sec}, {"d", math.Inf(1), 5 * sec}},
		{}, // empty epoch
		{{"e", 0.0, 16 * sec}, {"a", 9.0, 17 * sec}},
		{{"late", 1.0, 2 * sec}, {"f", 3.0, 30 * sec}},
	}
}

type onOffShape struct {
	plan logical.Plan
	mode logical.OutputMode
}

func onOffShapes() map[string]onOffShape {
	return map[string]onOffShape{
		"map-only-append": {
			plan: &logical.Project{
				Child: &logical.Filter{Child: streamScan("events"),
					Cond: sql.Ge(sql.Col("v"), sql.Lit(0.0))},
				Exprs: []sql.Expr{sql.Col("k"),
					sql.As(sql.Mul(sql.Col("v"), sql.Lit(2.0)), "v2"),
					sql.Col("ts")}},
			mode: logical.Append,
		},
		"windowed-agg-watermark": {
			plan: &logical.Aggregate{
				Child: &logical.WithWatermark{Child: streamScan("events"), Column: "ts", Delay: 5 * sec},
				Keys:  []sql.Expr{sql.NewWindow(sql.Col("ts"), 10*time.Second, 0)},
				Aggs:  []logical.NamedAgg{{Agg: sql.CountAll(), Name: "cnt"}}},
			mode: logical.Append,
		},
		"keyed-agg-update": {
			plan: &logical.Aggregate{
				Child: streamScan("events"),
				Keys:  []sql.Expr{sql.Col("k")},
				Aggs: []logical.NamedAgg{
					{Agg: sql.CountAll(), Name: "cnt"},
					{Agg: sql.SumOf(sql.Col("v")), Name: "total"}}},
			mode: logical.Update,
		},
	}
}

// fuzzPlans are TestPartitionDifferentialFuzz's shapes: partPlans and
// joinPlans, by name.
func fuzzPlans(t *testing.T) map[string]*incremental.Query {
	t.Helper()
	plans := partPlans(t)
	for name, q := range joinPlans(t) {
		plans[name] = q
	}
	return plans
}

// fuzzSeeds are the seeds every fuzzed shape runs at.
var fuzzSeeds = []int64{1, 99}

// fuzzSection heads one fuzzed run's rows in the partition-fuzz fixture.
func fuzzSection(name string, seed int64) string {
	return fmt.Sprintf("query %s seed %d", name, seed)
}

func rowPathFixtures() []rowPathFixture {
	fixtures := []rowPathFixture{
		{"partition-fuzz", func(t *testing.T) []string {
			plans := fuzzPlans(t)
			var names []string
			for name := range plans {
				names = append(names, name)
			}
			sort.Strings(names)
			var out []string
			for _, name := range names {
				for _, seed := range fuzzSeeds {
					out = append(out, fuzzSection(name, seed))
					out = append(out, fixtureLines(runPartitioned(t, plans[name], seed, 1, 0).Rows(), false)...)
				}
			}
			return out
		}},
		{"pruned-scan", func(t *testing.T) []string {
			recs, _ := driftingAdLog()
			dir := t.TempDir()
			prunedScanRun(t, yahooQuery(t), sources.NewCodecBusSource("ad_events", adTopic(t, recs), adSchema), &sinks.JSONFileSink{Dir: dir}, 1, 500)
			return renderFiles(dirContents(t, dir))
		}},
		{"pruned-map-only-json", func(t *testing.T) []string {
			recs, _ := driftingAdLog()
			dir := t.TempDir()
			prunedScanRun(t, compile(t, adViews(), logical.Append, nil), sources.NewCodecBusSource("ad_events", adTopic(t, recs), adSchema), &sinks.JSONFileSink{Dir: dir}, 1, 100)
			return renderFiles(dirContents(t, dir))
		}},
		{"pruned-map-only-memory", func(t *testing.T) []string {
			recs, _ := driftingAdLog()
			mem := sinks.NewMemorySink()
			prunedScanRun(t, compile(t, adViews(), logical.Append, nil), sources.NewCodecBusSource("ad_events", adTopic(t, recs), adSchema), mem, 1, 100)
			return renderFiles(memoryContents(mem))
		}},
		{"yahoo-log", func(t *testing.T) []string {
			sink := sinks.NewMemorySink()
			prunedScanRun(t, yahooQuery(t), sources.NewCodecBusSource("ad_events", adTopic(t, yahooLogRecords()), adSchema), sink, 1, 1000)
			return fixtureLines(sink.Rows(), false)
		}},
		{"small-triggers", func(t *testing.T) []string {
			return fixtureLines(smallTriggerRun(t, 0).Rows(), false)
		}},
	}
	for _, c := range poisonCases() {
		fixtures = append(fixtures, rowPathFixture{"poison-" + strings.ReplaceAll(c.name, " ", "-"), func(t *testing.T) []string {
			topic := adTopic(t, nil)
			mem := sinks.NewMemorySink()
			var sink sinks.Sink = mem
			if c.rows {
				sink = rowSink{mem}
			}
			plan, mode, resolver := c.plan()
			sq := startQuery(t, compile(t, plan, mode, resolver), map[string]sources.Source{
				"ad_events": sources.NewCodecBusSource("ad_events", topic, adSchema)}, sink, Options{Workers: 2, NumPartitions: 2})
			for e := 0; e < poisonEpochs; e++ {
				appendAds(t, topic, e*poisonPerEpoch, poisonRecords(e))
				if err := sq.ProcessAllAvailable(); err != nil {
					t.Fatal(err)
				}
			}
			if err := sq.Stop(); err != nil {
				t.Fatal(err)
			}
			return fixtureLines(mem.Rows(), false)
		}})
	}
	onOff := onOffShapes()
	for name, s := range onOff {
		fixtures = append(fixtures, rowPathFixture{"onoff-" + name, func(t *testing.T) []string {
			src := sources.NewMemorySource("events", eventsSchema)
			sink := sinks.NewMemorySink()
			sq := startQuery(t, compile(t, s.plan, s.mode, nil), map[string]sources.Source{"events": src}, sink, Options{})
			for _, rows := range onOffEpochs() {
				src.AddData(rows...)
				if err := sq.ProcessAllAvailable(); err != nil {
					t.Fatal(err)
				}
			}
			return renderEpochs(sink, len(onOffEpochs())+2, false)
		}})
	}
	shapes := statefulShapes()
	var names []string
	for name := range shapes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := shapes[name]
		fixtures = append(fixtures, rowPathFixture{"stateful-" + name, func(t *testing.T) []string {
			return renderEpochs(statefulRun(t, s, Options{}), len(statefulEpochs())+2, s.unordered)
		}})
	}
	return fixtures
}

// readRowPathFixture returns the lines the parent wrote for a fixture.
func readRowPathFixture(t *testing.T, name string) []string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "parent-rowpath", name+".txt"))
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
}

// readRowPathSections splits a fixture whose runs each open with a header
// line starting with prefix into their lines, by header.
func readRowPathSections(t *testing.T, name, prefix string) map[string][]string {
	t.Helper()
	sections := map[string][]string{}
	var head string
	for _, line := range readRowPathFixture(t, name) {
		if strings.HasPrefix(line, prefix) {
			head = line
			sections[head] = []string{}
			continue
		}
		sections[head] = append(sections[head], line)
	}
	return sections
}

func TestWriteRowPathFixture(t *testing.T) {
	dir := os.Getenv("ROWPATH_WRITE_FIXTURE")
	if dir == "" {
		t.Skip("set ROWPATH_WRITE_FIXTURE=<dir> to write the fixture with the code of this checkout")
	}
	for _, f := range rowPathFixtures() {
		lines := f.run(t)
		if len(lines) < 2 {
			t.Fatalf("%s: the sink holds nothing", f.name)
		}
		if err := os.WriteFile(filepath.Join(dir, f.name+".txt"), []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
