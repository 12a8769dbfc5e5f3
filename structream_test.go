package structream

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"structream/internal/colfmt"
)

var clickSchema = NewSchema(
	Field{Name: "country", Type: String},
	Field{Name: "user_id", Type: Int64},
	Field{Name: "latency", Type: Float64},
	Field{Name: "time", Type: Timestamp},
)

func sortedRowStrings(rows []Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

func expectRows(t *testing.T, rows []Row, want ...string) {
	t.Helper()
	got := sortedRowStrings(rows)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("got %d rows %v, want %d %v", len(got), got, len(want), want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("row %d: got %s, want %s", i, got[i], want[i])
		}
	}
}

const sec = int64(1_000_000)

// TestPaperSection41Example reproduces the paper's quickstart: JSON files
// in, counts by country out, first as a batch job, then as a stream with
// only the input/output lines changed.
func TestPaperSection41Example(t *testing.T) {
	in := t.TempDir()
	os.WriteFile(filepath.Join(in, "a.json"), []byte(
		`{"country":"CA","user_id":1,"latency":10,"time":"2018-06-10T00:00:01Z"}
{"country":"US","user_id":2,"latency":20,"time":"2018-06-10T00:00:02Z"}
{"country":"CA","user_id":3,"latency":30,"time":"2018-06-10T00:00:03Z"}
`), 0o644)

	// Batch version.
	s := NewSession()
	data, err := s.Read().Format("json").Schema(clickSchema).Load(in)
	if err != nil {
		t.Fatal(err)
	}
	counts := data.GroupBy(Col("country")).Count()
	rows, err := counts.Collect()
	if err != nil {
		t.Fatal(err)
	}
	expectRows(t, rows, "[CA, 2]", "[US, 1]")

	// Streaming version: change only the first and last lines (§4.1).
	s2 := NewSession()
	stream, err := s2.ReadStream().Format("json").Schema(clickSchema).Load(in)
	if err != nil {
		t.Fatal(err)
	}
	outDir := t.TempDir()
	q, err := stream.GroupBy(Col("country")).Count().
		WriteStream().Format("columnar").OutputModeName("complete").
		Trigger(Once()).Checkpoint(t.TempDir()).Start(outDir)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.AwaitTermination(); err != nil {
		t.Fatal(err)
	}
	tbl, err := colfmt.OpenTable(outDir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tbl.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	expectRows(t, got, "[CA, 2]", "[US, 1]")
}

func TestMemoryStreamWindowedCounts(t *testing.T) {
	s := NewSession()
	df, feed := s.MemoryStream("clicks", clickSchema)
	windowed := df.
		WithWatermark("time", 10*time.Second).
		GroupBy(WindowOf(Col("time"), 30*time.Second, 0), Col("country")).
		Agg(CountAll().As("clicks"), Avg(Col("latency")).As("avg_latency"))
	q, err := windowed.WriteStream().Format("memory").QueryName("win").
		OutputMode(Update).Checkpoint(t.TempDir()).
		Trigger(ProcessingTime(time.Hour)).Start("")
	if err != nil {
		t.Fatal(err)
	}
	defer q.Stop()
	feed.AddData(
		Row{"CA", 1, 10.0, 5 * sec},
		Row{"CA", 2, 30.0, 8 * sec},
		Row{"US", 3, 50.0, 40 * sec},
	)
	if err := q.ProcessAllAvailable(); err != nil {
		t.Fatal(err)
	}
	// Interactive query over the live result table.
	tbl, err := s.Table("win")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := tbl.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %v", sortedRowStrings(rows))
	}
	for _, r := range rows {
		if r[1] == "CA" && (r[2] != int64(2) || r[3] != 20.0) {
			t.Errorf("CA row = %v", r)
		}
	}
}

func TestSQLOverStreamAndStaticTable(t *testing.T) {
	s := NewSession()
	_, feed := s.MemoryStream("events", clickSchema)
	s.RegisterTable("regions", NewSchema(
		Field{Name: "code", Type: String},
		Field{Name: "region", Type: String},
	), []Row{{"CA", "NA"}, {"US", "NA"}, {"DE", "EU"}})

	df, err := s.SQL(`SELECT r.region, count(*) AS cnt
		FROM events e JOIN regions r ON e.country = r.code
		GROUP BY r.region`)
	if err != nil {
		t.Fatal(err)
	}
	if !df.IsStreaming() {
		t.Fatal("stream-static join should be streaming")
	}
	q, err := df.WriteStream().Format("memory").QueryName("by_region").
		OutputMode(Complete).Trigger(ProcessingTime(time.Hour)).
		Checkpoint(t.TempDir()).Start("")
	if err != nil {
		t.Fatal(err)
	}
	defer q.Stop()
	feed.AddData(Row{"CA", 1, 1.0, 0}, Row{"DE", 2, 1.0, 0}, Row{"US", 3, 1.0, 0})
	if err := q.ProcessAllAvailable(); err != nil {
		t.Fatal(err)
	}
	tbl, _ := s.Table("by_region")
	rows, err := tbl.Collect()
	if err != nil {
		t.Fatal(err)
	}
	expectRows(t, rows, "[NA, 2]", "[EU, 1]")
}

func TestSQLBatchQuery(t *testing.T) {
	s := NewSession()
	s.RegisterTable("t", NewSchema(
		Field{Name: "x", Type: Int64},
	), []Row{{1}, {2}, {3}, {4}})
	df, err := s.SQL("SELECT sum(x) AS total, count(*) AS n FROM t WHERE x > 1")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := df.Collect()
	if err != nil {
		t.Fatal(err)
	}
	expectRows(t, rows, "[9, 3]")

	// A global aggregate over no rows is one row, as in SQL: count(*) is 0
	// and sum is NULL.
	s.RegisterTable("empty", NewSchema(Field{Name: "x", Type: Int64}), nil)
	if df, err = s.SQL("SELECT sum(x) AS total, count(*) AS n FROM empty"); err != nil {
		t.Fatal(err)
	}
	if rows, err = df.Collect(); err != nil {
		t.Fatal(err)
	}
	expectRows(t, rows, "[NULL, 0]")
}

func TestDataFrameOperators(t *testing.T) {
	s := NewSession()
	s.RegisterTable("t", clickSchema, []Row{
		{"CA", 1, 10.0, 0}, {"US", 2, 20.0, 0}, {"CA", 1, 30.0, 0},
	})
	df, _ := s.Table("t")

	// Select + Where + WithColumn.
	out, err := df.Where(Gt(Col("latency"), Lit(15.0))).
		WithColumn("x2", Mul(Col("latency"), Lit(2.0))).
		SelectNames("country", "x2").Collect()
	if err != nil {
		t.Fatal(err)
	}
	expectRows(t, out, "[US, 40.0]", "[CA, 60.0]")

	// Distinct + OrderBy + Limit.
	top, err := df.SelectNames("country").Distinct().
		OrderBy(Desc(Col("country"))).Limit(1).Collect()
	if err != nil {
		t.Fatal(err)
	}
	expectRows(t, top, "[US]")

	// Union.
	both, err := df.SelectNames("user_id").Union(df.SelectNames("user_id")).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(both) != 6 {
		t.Errorf("union rows = %d", len(both))
	}

	// WhereSQL.
	filtered, err := df.WhereSQL("country = 'CA' AND latency >= 30")
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := filtered.Collect()
	if len(rows) != 1 {
		t.Errorf("WhereSQL rows = %v", sortedRowStrings(rows))
	}

	// CaseWhen.
	bands, err := df.Select(CaseWhen(
		Lt(Col("latency"), Lit(15.0)), Lit("low"),
		Lt(Col("latency"), Lit(25.0)), Lit("mid"),
		Lit("high"))).Distinct().Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(bands) != 3 {
		t.Errorf("bands = %v", sortedRowStrings(bands))
	}
}

func TestJoinTypesBatch(t *testing.T) {
	s := NewSession()
	s.RegisterTable("l", NewSchema(Field{Name: "id", Type: Int64}), []Row{{1}, {2}})
	s.RegisterTable("r", NewSchema(Field{Name: "rid", Type: Int64}), []Row{{2}, {3}})
	l, _ := s.Table("l")
	r, _ := s.Table("r")
	cond := Eq(Col("id"), Col("rid"))

	inner, _ := l.Join(r, cond, InnerJoin).Collect()
	if len(inner) != 1 {
		t.Errorf("inner = %v", sortedRowStrings(inner))
	}
	left, _ := l.Join(r, cond, LeftOuterJoin).Collect()
	if len(left) != 2 {
		t.Errorf("left = %v", sortedRowStrings(left))
	}
	full, _ := l.Join(r, cond, FullOuterJoin).Collect()
	if len(full) != 3 {
		t.Errorf("full = %v", sortedRowStrings(full))
	}
	anti, _ := l.Join(r, cond, LeftAntiJoin).Collect()
	expectRows(t, anti, "[1]")
}

func TestInvalidModeRejectedAtStart(t *testing.T) {
	s := NewSession()
	df, _ := s.MemoryStream("ev", clickSchema)
	// Aggregation without watermark in append mode: §5.1 violation.
	_, err := df.GroupBy(Col("country")).Count().
		WriteStream().OutputMode(Append).Checkpoint(t.TempDir()).Start("")
	if err == nil || !strings.Contains(err.Error(), "append") {
		t.Errorf("err = %v", err)
	}
	// Unknown mode name.
	_, err = df.Select(Col("country")).WriteStream().
		OutputModeName("bogus").Checkpoint(t.TempDir()).Start("")
	if err == nil {
		t.Error("bogus mode should fail at Start")
	}
}

func TestBatchWriteReadColumnar(t *testing.T) {
	schema := NewSchema(Field{Name: "k", Type: String}, Field{Name: "v", Type: Int64})
	s := NewSession()
	s.RegisterTable("t", schema, []Row{{"a", 1}, {"b", 2}})
	df, _ := s.Table("t")
	dir := t.TempDir()
	if err := df.Write().Format("columnar").Save(dir); err != nil {
		t.Fatal(err)
	}
	s2 := NewSession()
	back, err := s2.Read().Format("columnar").Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := back.Collect()
	if err != nil {
		t.Fatal(err)
	}
	expectRows(t, rows, "[a, 1]", "[b, 2]")

	// A table of several segments, one per epoch of a streaming query, read
	// through a filter: the scan takes each segment as a typed batch and
	// must return what the boxed rows hold.
	segDir := t.TempDir()
	in, feed := s.MemoryStream("segs", schema)
	q, err := in.WriteStream().Format("columnar").Trigger(ProcessingTime(time.Hour)).
		Checkpoint(t.TempDir()).Start(segDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range [][]Row{{{"a", 1}, {"b", 2}}, {{"c", 3}}, {{"d", 4}, {"e", 0}}} {
		feed.AddData(batch...)
		if err := q.ProcessAllAvailable(); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.Stop(); err != nil {
		t.Fatal(err)
	}
	if tbl, err := colfmt.OpenTable(segDir); err != nil || len(tbl.Segments) < 2 {
		t.Fatalf("the streaming query left %v segments (err %v), want several", tbl, err)
	}
	back, err = s2.Read().Format("columnar").Load(segDir)
	if err != nil {
		t.Fatal(err)
	}
	if rows, err = back.Where(Gt(Col("v"), Lit(1))).Collect(); err != nil {
		t.Fatal(err)
	}
	expectRows(t, rows, "[b, 2]", "[c, 3]", "[d, 4]")
}

func TestMapGroupsWithStatePublicAPI(t *testing.T) {
	s := NewSession()
	df, feed := s.MemoryStream("events", clickSchema)
	out := NewSchema(
		Field{Name: "user_id", Type: Int64},
		Field{Name: "events", Type: Int64},
	)
	stateSchema := NewSchema(Field{Name: "count", Type: Int64})
	// The paper's Figure 3 update function shape: track events per key.
	lens := df.GroupByKey(Col("user_id")).MapGroupsWithState(out, stateSchema, NoTimeout,
		func(key Row, values []Row, state GroupState) Row {
			var total int64
			if state.Exists() {
				total = state.Get()[0].(int64)
			}
			total += int64(len(values))
			state.Update(Row{total})
			return Row{key[0], total}
		})
	q, err := lens.WriteStream().Format("memory").QueryName("lens").
		OutputMode(Update).Trigger(ProcessingTime(time.Hour)).
		Checkpoint(t.TempDir()).Start("")
	if err != nil {
		t.Fatal(err)
	}
	defer q.Stop()
	feed.AddData(Row{"CA", 7, 1.0, 0}, Row{"CA", 7, 1.0, 0}, Row{"US", 8, 1.0, 0})
	q.ProcessAllAvailable()
	feed.AddData(Row{"CA", 7, 1.0, 0})
	q.ProcessAllAvailable()
	tbl, _ := s.Table("lens")
	rows, err := tbl.Collect()
	if err != nil {
		t.Fatal(err)
	}
	expectRows(t, rows, "[7, 3]", "[8, 1]")
	// The same operator runs in a batch job (§4.3.2): called once per key.
	batchRows, err := lens.Collect()
	if err != nil {
		t.Fatal(err)
	}
	expectRows(t, batchRows, "[7, 3]", "[8, 1]")
}

func TestShowAndExplain(t *testing.T) {
	s := NewSession()
	s.RegisterTable("t", NewSchema(Field{Name: "x", Type: Int64}), []Row{{1}, {2}})
	df, _ := s.Table("t")
	var buf bytes.Buffer
	if err := df.Show(&buf, 1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "[x]") || !strings.Contains(buf.String(), "more rows") {
		t.Errorf("show = %q", buf.String())
	}
	explained := df.Where(Gt(Col("x"), Lit(0))).Explain()
	if !strings.Contains(explained, "Filter") || !strings.Contains(explained, "Optimized") {
		t.Errorf("explain = %q", explained)
	}
}

func TestBusStreamEndToEnd(t *testing.T) {
	s := NewSession()
	schema := NewSchema(Field{Name: "word", Type: String})
	df, topic, err := s.BusStream("words", 2, schema)
	if err != nil {
		t.Fatal(err)
	}
	counts := df.GroupBy(Col("word")).Count()
	q, err := counts.WriteStream().Format("memory").QueryName("wc").
		OutputMode(Complete).Trigger(ProcessingTime(time.Hour)).
		Checkpoint(t.TempDir()).Start("")
	if err != nil {
		t.Fatal(err)
	}
	defer q.Stop()
	for _, word := range []string{"a", "b", "a", "c", "a"} {
		if err := ProduceRow(topic, Row{word}, 0); err != nil {
			t.Fatal(err)
		}
	}
	q.ProcessAllAvailable()
	tbl, _ := s.Table("wc")
	rows, _ := tbl.Collect()
	expectRows(t, rows, "[a, 3]", "[b, 1]", "[c, 1]")
}

func TestActiveQueriesAndStopAll(t *testing.T) {
	s := NewSession()
	df, _ := s.MemoryStream("ev", clickSchema)
	q, err := df.SelectNames("country").WriteStream().Format("memory").
		Trigger(ProcessingTime(time.Hour)).Checkpoint(t.TempDir()).Start("")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.ActiveQueries()) != 1 {
		t.Error("query not tracked")
	}
	if err := s.StopAll(); err != nil {
		t.Fatal(err)
	}
	_ = q
}

// TestSQLExpressionsBatchAndStreaming runs one SQL query per row of the
// table twice: as a batch query over a registered table and as a streaming
// query over a MemoryStream fed in two epochs, whose compiled plan runs on
// column vectors. Both must return the hand-written rows.
func TestSQLExpressionsBatchAndStreaming(t *testing.T) {
	schema := NewSchema(
		Field{Name: "name", Type: String},
		Field{Name: "alias", Type: String},
		Field{Name: "flag", Type: Bool},
		Field{Name: "done", Type: Bool},
		Field{Name: "n", Type: Int64},
		Field{Name: "doc", Type: String},
		Field{Name: "ts", Type: Timestamp},
	)
	at := func(s int64) int64 { return TimestampValue(time.Unix(s, 0)) }
	input := []Row{
		{"a", "a", true, true, 1, `{"k":"x","v":1}`, at(1)},
		{"b", "c", false, true, 2, `{"k":"y"}`, at(2)},
		{"c", "c", true, false, 5, `{"v":3}`, at(12)},
		{"d", "e", false, false, 10, `not json`, at(13)},
	}
	for _, tc := range []struct {
		name, query string
		mode        OutputMode
		want        []string
	}{
		{"cast to boolean", `SELECT name, CAST(n - 1 AS BOOLEAN) AS nz FROM t`, Append,
			[]string{"[a, false]", "[b, true]", "[c, true]", "[d, true]"}},
		{"json_get", `SELECT name, json_get(doc, 'k') AS k FROM t`, Append,
			[]string{"[a, x]", "[b, y]", "[c, NULL]", "[d, NULL]"}},
		{"not in", `SELECT name FROM t WHERE name NOT IN ('a', 'c')`, Append, []string{"[b]", "[d]"}},
		{"not like", `SELECT name FROM t WHERE doc NOT LIKE '{%'`, Append, []string{"[d]"}},
		{"not between", `SELECT name FROM t WHERE n NOT BETWEEN 2 AND 5`, Append, []string{"[a]", "[d]"}},
		{"bool = bool", `SELECT name FROM t WHERE flag = done`, Append, []string{"[a]", "[d]"}},
		{"string column = string column", `SELECT name FROM t WHERE name = alias`, Append, []string{"[a]", "[c]"}},
		{"not bool column", `SELECT name FROM t WHERE NOT flag`, Append, []string{"[b]", "[d]"}},
		{"where under a window grouping",
			`SELECT window(ts, '10 seconds') AS w, count(*) AS c FROM t WHERE flag GROUP BY window(ts, '10 seconds')`, Complete,
			[]string{"[[1970-01-01T00:00:00.000000Z, 1970-01-01T00:00:10.000000Z), 1]", "[[1970-01-01T00:00:10.000000Z, 1970-01-01T00:00:20.000000Z), 1]"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSession()
			s.RegisterTable("t", schema, input)
			df, err := s.SQL(tc.query)
			if err != nil {
				t.Fatal(err)
			}
			rows, err := df.Collect()
			if err != nil {
				t.Fatal(err)
			}
			expectRows(t, rows, tc.want...)

			s = NewSession()
			_, feed := s.MemoryStream("t", schema)
			if df, err = s.SQL(tc.query); err != nil {
				t.Fatal(err)
			}
			q, err := df.WriteStream().Format("memory").QueryName("out").OutputMode(tc.mode).
				Trigger(ProcessingTime(time.Hour)).Checkpoint(t.TempDir()).Start("")
			if err != nil {
				t.Fatal(err)
			}
			defer q.Stop()
			for _, part := range [][]Row{input[:2], input[2:]} {
				feed.AddData(part...)
				if err := q.ProcessAllAvailable(); err != nil {
					t.Fatal(err)
				}
			}
			out, _ := s.Table("out")
			if rows, err = out.Collect(); err != nil {
				t.Fatal(err)
			}
			expectRows(t, rows, tc.want...)
		})
	}
}
