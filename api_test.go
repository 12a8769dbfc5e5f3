package structream

import (
	"errors"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"structream/internal/colfmt"
	"structream/internal/msgbus"
	"structream/internal/sinks"
)

func TestForeachSinkPublicAPI(t *testing.T) {
	s := NewSession()
	df, feed := s.MemoryStream("ev", clickSchema)
	var epochs []int64
	var total int
	q, err := df.SelectNames("country").WriteStream().
		Foreach(func(epoch int64, rows []Row) error {
			epochs = append(epochs, epoch)
			total += len(rows)
			return nil
		}).
		Trigger(ProcessingTime(time.Hour)).Checkpoint(t.TempDir()).Start("")
	if err != nil {
		t.Fatal(err)
	}
	defer q.Stop()
	feed.AddData(Row{"CA", 1, 1.0, 0}, Row{"US", 2, 1.0, 0})
	q.ProcessAllAvailable()
	feed.AddData(Row{"DE", 3, 1.0, 0})
	q.ProcessAllAvailable()
	if total != 3 || len(epochs) != 2 || epochs[1] != 1 {
		t.Errorf("total=%d epochs=%v", total, epochs)
	}
}

// TestManualRollbackPublicAPI is §7.2's manual rollback, with each sink's
// own half of it: forget the epochs after keep in the checkpoint and in the
// sink, restart, and the query recomputes them from the retained prefix.
func TestManualRollbackPublicAPI(t *testing.T) {
	t.Run("columnar", func(t *testing.T) {
		s := NewSession()
		df, feed := s.MemoryStream("ev", clickSchema)
		ckpt := t.TempDir()
		out := t.TempDir()
		counts := df.GroupBy(Col("country")).Count()

		start := func() *StreamingQuery {
			q, err := counts.WriteStream().Format("columnar").OutputMode(Complete).
				Trigger(ProcessingTime(time.Hour)).Checkpoint(ckpt).Start(out)
			if err != nil {
				t.Fatal(err)
			}
			return q
		}
		q := start()
		feed.AddData(Row{"CA", 1, 1.0, 0})
		q.ProcessAllAvailable() // epoch 0
		feed.AddData(Row{"XX", 2, 1.0, 0})
		q.ProcessAllAvailable() // epoch 1: "bad" data
		q.Stop()

		// Administrator rolls back to epoch 0 on both the WAL and the sink.
		if err := Rollback(ckpt, 0); err != nil {
			t.Fatal(err)
		}
		if err := RollbackFileSink(out, 0); err != nil {
			t.Fatal(err)
		}
		// Restart recomputes epoch 1 from the retained prefix.
		q2 := start()
		defer q2.Stop()
		if err := q2.ProcessAllAvailable(); err != nil {
			t.Fatal(err)
		}
		tbl, err := colfmt.OpenTable(out)
		if err != nil {
			t.Fatal(err)
		}
		rows, _ := tbl.ReadAll()
		expectRows(t, rows, "[CA, 1]", "[XX, 1]")
	})

	t.Run("memory", func(t *testing.T) {
		s := NewSession()
		df, feed := s.MemoryStream("ev", clickSchema)
		ckpt := t.TempDir()
		sink := sinks.NewMemorySink()
		query := func(df *DataFrame) *DataFrame {
			return df.Where(Gt(Col("latency"), Lit(1.5))).SelectNames("country", "user_id")
		}
		// batch is the same query over a static table of rows.
		batch := func(rows []Row) []string {
			s.RegisterTable("prefix", clickSchema, rows)
			tbl, _ := s.Table("prefix")
			out, err := query(tbl).Collect()
			if err != nil {
				t.Fatal(err)
			}
			return sortedRowStrings(out)
		}
		start := func() *StreamingQuery {
			q, err := query(df).WriteStream().Sink(sink).
				Trigger(ProcessingTime(time.Hour)).Checkpoint(ckpt).Start("")
			if err != nil {
				t.Fatal(err)
			}
			return q
		}
		fed := [][]Row{
			{{"CA", 1, 2.0, 0}, {"US", 2, 1.0, 0}},
			{{"XX", 3, 5.0, 0}},
			{{"DE", 4, 3.0, 0}, {"FR", 5, 9.0, 0}},
		}
		q := start()
		for _, rows := range fed {
			feed.AddData(rows...)
			if err := q.ProcessAllAvailable(); err != nil {
				t.Fatal(err)
			}
		}
		q.Stop()

		if err := Rollback(ckpt, 0); err != nil {
			t.Fatal(err)
		}
		sink.Truncate(0)
		expectRows(t, sink.Rows(), batch(fed[0])...)

		q2 := start()
		defer q2.Stop()
		if err := q2.ProcessAllAvailable(); err != nil {
			t.Fatal(err)
		}
		if p, ok := q2.LastProgress(); !ok || p.Epoch != 1 {
			t.Errorf("restart ran up to epoch %d (ok=%v), want 1: the epochs after keep are recomputed as one", p.Epoch, ok)
		}
		expectRows(t, sink.Rows(), batch(slices.Concat(fed...))...)
	})
}

// TestRestartPastTrimmedBusFails: a rollback that needs offsets the topic's
// retention already dropped cannot be recomputed. The restarted query must
// fail with the bus's out-of-range error and leave the sink at the kept
// prefix, not skip the trimmed rows.
func TestRestartPastTrimmedBusFails(t *testing.T) {
	s := NewSession()
	df, topic, err := s.BusStream("ev", 1, clickSchema)
	if err != nil {
		t.Fatal(err)
	}
	ckpt := t.TempDir()
	sink := sinks.NewMemorySink()
	start := func() *StreamingQuery {
		q, err := df.SelectNames("country").WriteStream().Sink(sink).
			Trigger(ProcessingTime(time.Hour)).Checkpoint(ckpt).Start("")
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	q := start()
	for _, c := range []string{"CA", "US", "DE"} {
		if err := ProduceRow(topic, Row{c, 1, 1.0, 0}, 0); err != nil {
			t.Fatal(err)
		}
		if err := q.ProcessAllAvailable(); err != nil {
			t.Fatal(err)
		}
	}
	q.Stop()

	if err := Rollback(ckpt, 0); err != nil {
		t.Fatal(err)
	}
	sink.Truncate(0)
	// Epoch 1 starts at offset 1; retention moves the topic's start past it.
	if err := topic.TrimBefore(0, 2); err != nil {
		t.Fatal(err)
	}
	q2 := start()
	defer q2.Stop()
	err = q2.ProcessAllAvailable()
	var oor *msgbus.ErrOffsetOutOfRange
	if !errors.As(err, &oor) {
		t.Fatalf("restart over a trimmed topic: err = %v, want a *msgbus.ErrOffsetOutOfRange", err)
	}
	if oor.Requested != 1 || oor.Earliest != 2 {
		t.Errorf("out of range: requested %d, earliest %d; want 1 and 2", oor.Requested, oor.Earliest)
	}
	expectRows(t, sink.Rows(), "[CA]")
}

// TestRetainEpochsBoundsCheckpoint: retainEpochs purges the checkpoint as
// the query runs, so thirty epochs leave at most two retention spans of
// offsets and commit files, and a restart over the purged checkpoint
// still carries every count on.
func TestRetainEpochsBoundsCheckpoint(t *testing.T) {
	const epochs, retain = 30, 5
	s := NewSession()
	df, feed := s.MemoryStream("ev", clickSchema)
	ckpt := t.TempDir()
	var got map[string]int64
	start := func() *StreamingQuery {
		q, err := df.GroupBy(Col("country")).Count().WriteStream().
			Foreach(func(_ int64, rows []Row) error {
				got = map[string]int64{}
				for _, r := range rows {
					got[r[0].(string)] = r[1].(int64)
				}
				return nil
			}).
			OutputMode(Complete).Option("retainEpochs", strconv.Itoa(retain)).
			Trigger(ProcessingTime(time.Hour)).Checkpoint(ckpt).Start("")
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	countries := []string{"CA", "US", "DE"}
	q := start()
	for e := 0; e < epochs; e++ {
		feed.AddData(Row{countries[e%3], e, 1.0, 0})
		if err := q.ProcessAllAvailable(); err != nil {
			t.Fatal(err)
		}
	}
	q.Stop()
	for _, dir := range []string{"offsets", "commits"} {
		files, err := os.ReadDir(filepath.Join(ckpt, dir))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) > 2*retain {
			t.Errorf("%s/ holds %d files after %d epochs, want at most %d", dir, len(files), epochs, 2*retain)
		}
	}

	q = start()
	defer q.Stop()
	feed.AddData(Row{"CA", 99, 1.0, 0})
	if err := q.ProcessAllAvailable(); err != nil {
		t.Fatal(err)
	}
	if want := map[string]int64{"CA": 11, "US": 10, "DE": 10}; !maps.Equal(got, want) {
		t.Errorf("counts after restart = %v, want %v", got, want)
	}
}

// TestConsoleSinkPublicAPI: the console format runs epochs like any other.
func TestConsoleSinkPublicAPI(t *testing.T) {
	df, feed := NewSession().MemoryStream("ev", clickSchema)
	q, err := df.SelectNames("country").WriteStream().Format("console").
		Trigger(ProcessingTime(time.Hour)).Checkpoint(t.TempDir()).Start("")
	if err != nil {
		t.Fatal(err)
	}
	defer q.Stop()
	feed.AddData(Row{"CA", 1, 1.0, 0})
	if err := q.ProcessAllAvailable(); err != nil {
		t.Fatal(err)
	}
	if p, ok := q.LastProgress(); !ok || p.NumInputRows != 1 || p.Sink == nil || p.Sink.Description != "console" {
		t.Errorf("console query progress = %+v (ok=%v), want one row into the console sink", p, ok)
	}
}

// TestUpdateModeMemorySinkGrowingValues: an update-mode result whose values
// outgrow their place in the memory sink, epoch after epoch, until the
// sink compacts its table, still reads back as the batch result.
func TestUpdateModeMemorySinkGrowingValues(t *testing.T) {
	s := NewSession()
	df, feed := s.MemoryStream("ev", clickSchema)
	query := func(df *DataFrame) *DataFrame {
		return df.GroupBy(Col("user_id")).Agg(Max(Col("country")).As("longest"), CountAll().As("n"))
	}
	q, err := query(df).WriteStream().Format("memory").QueryName("grow").OutputMode(Update).
		Trigger(ProcessingTime(time.Hour)).Checkpoint(t.TempDir()).Start("")
	if err != nil {
		t.Fatal(err)
	}
	defer q.Stop()
	var all []Row
	for e := 1; e <= 12; e++ {
		var rows []Row
		for k := 0; k < 4; k++ {
			// Each epoch's value sorts after, and is 8 bytes longer than, the last.
			rows = append(rows, Row{strings.Repeat("z", 8*e), k, 1.0, 0})
		}
		all = append(all, rows...)
		feed.AddData(rows...)
		if err := q.ProcessAllAvailable(); err != nil {
			t.Fatal(err)
		}
	}
	s.RegisterTable("all", clickSchema, all)
	tbl, _ := s.Table("all")
	want, err := query(tbl).Collect()
	if err != nil {
		t.Fatal(err)
	}
	out, _ := s.Table("grow")
	got, err := out.Collect()
	if err != nil {
		t.Fatal(err)
	}
	expectRows(t, got, sortedRowStrings(want)...)
	if len(got) != 4 || got[0][2] != int64(12) {
		t.Errorf("rows = %v, want 4 keys seen 12 times each", sortedRowStrings(got))
	}
}

// TestRateSourcePublicAPI: there is no rate format. A stream that nothing
// advances would run no epoch, so Load refuses the name.
func TestRateSourcePublicAPI(t *testing.T) {
	_, err := NewSession().ReadStream().Format("rate").Option("partitions", "2").Load("bench")
	if err == nil || !strings.Contains(err.Error(), `unknown stream format "rate"`) {
		t.Fatalf("Load of the rate format: err = %v, want unknown stream format", err)
	}
}

func TestJSONSinkPublicAPI(t *testing.T) {
	s := NewSession()
	df, feed := s.MemoryStream("ev", clickSchema)
	out := t.TempDir()
	q, err := df.SelectNames("country", "latency").WriteStream().
		Format("json").Trigger(ProcessingTime(time.Hour)).
		Checkpoint(t.TempDir()).Start(out)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Stop()
	feed.AddData(Row{"CA", 1, 9.5, 0})
	q.ProcessAllAvailable()
	data, err := os.ReadFile(filepath.Join(out, "part-000000000000.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"country":"CA"`) {
		t.Errorf("json = %s", data)
	}
}

// TestContinuousJSONSinkKeepsEverySubBatch: a continuous query delivers an
// epoch's rows as several sub-batches, and the JSON sink must keep each one,
// not overwrite the epoch's file with the last.
func TestContinuousJSONSinkKeepsEverySubBatch(t *testing.T) {
	s := NewSession()
	df, topic, err := s.BusStream("cin", 2, NewSchema(Field{Name: "x", Type: Int64}))
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	q, err := df.WriteStream().Format("json").
		Trigger(Continuous(200 * time.Millisecond)).
		Checkpoint(t.TempDir()).Start(out)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Stop()
	for i := 0; i < 10; i++ {
		if err := ProduceRow(topic, Row{i}, 0); err != nil {
			t.Fatal(err)
		}
		time.Sleep(3 * time.Millisecond)
	}
	var lines []string
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		files, err := filepath.Glob(filepath.Join(out, "*.json"))
		if err != nil {
			t.Fatal(err)
		}
		lines = lines[:0]
		for _, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			lines = append(lines, strings.Fields(string(data))...)
		}
		if len(lines) >= 10 {
			break
		}
	}
	sort.Strings(lines)
	want := []string{`{"x":0}`, `{"x":1}`, `{"x":2}`, `{"x":3}`, `{"x":4}`, `{"x":5}`, `{"x":6}`, `{"x":7}`, `{"x":8}`, `{"x":9}`}
	if !slices.Equal(lines, want) {
		t.Fatalf("the sink's files hold %v, want %v", lines, want)
	}
}

func TestContinuousModePublicAPI(t *testing.T) {
	s := NewSession()
	schema := NewSchema(Field{Name: "x", Type: Int64})
	df, topic, err := s.BusStream("cont-in", 2, schema)
	if err != nil {
		t.Fatal(err)
	}
	q, err := df.Where(Gt(Col("x"), Lit(5))).WriteStream().
		Format("memory").QueryName("cont").
		Trigger(Continuous(10 * time.Millisecond)).
		Checkpoint(t.TempDir()).Start("")
	if err != nil {
		t.Fatal(err)
	}
	defer q.Stop()
	for i := 0; i < 10; i++ {
		if err := ProduceRow(topic, Row{i}, 0); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		tbl, err := s.Table("cont")
		if err != nil {
			t.Fatal(err)
		}
		rows, err := tbl.Collect()
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) == 4 { // x ∈ {6,7,8,9}
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("continuous query did not produce expected rows in time")
}

func TestFlatMapGroupsAppendOutput(t *testing.T) {
	s := NewSession()
	df, feed := s.MemoryStream("ev", clickSchema)
	out := NewSchema(Field{Name: "msg", Type: String})
	flat := df.GroupByKey(Col("country")).FlatMapGroupsWithState(out, NewSchema(), NoTimeout,
		func(key Row, values []Row, state GroupState) []Row {
			var rows []Row
			for range values {
				rows = append(rows, Row{key[0].(string) + "!"})
			}
			return rows
		})
	q, err := flat.WriteStream().Format("memory").QueryName("flat").
		OutputMode(Append).Trigger(ProcessingTime(time.Hour)).
		Checkpoint(t.TempDir()).Start("")
	if err != nil {
		t.Fatal(err)
	}
	defer q.Stop()
	feed.AddData(Row{"CA", 1, 1.0, 0}, Row{"CA", 2, 1.0, 0}, Row{"US", 3, 1.0, 0})
	q.ProcessAllAvailable()
	tbl, _ := s.Table("flat")
	rows, _ := tbl.Collect()
	expectRows(t, rows, "[CA!]", "[CA!]", "[US!]")
}

func TestWindowBoundsInSQLProjection(t *testing.T) {
	s := NewSession()
	_, feed := s.MemoryStream("clicks", clickSchema)
	df, err := s.SQL(`SELECT window_start(window(time, '30 seconds')) AS ws, count(*) AS c
		FROM clicks GROUP BY window(time, '30 seconds')`)
	if err != nil {
		t.Fatal(err)
	}
	q, err := df.WriteStream().Format("memory").QueryName("ws").
		OutputMode(Complete).Trigger(ProcessingTime(time.Hour)).
		Checkpoint(t.TempDir()).Start("")
	if err != nil {
		t.Fatal(err)
	}
	defer q.Stop()
	feed.AddData(Row{"CA", 1, 1.0, 35 * sec})
	q.ProcessAllAvailable()
	tbl, _ := s.Table("ws")
	rows, _ := tbl.Collect()
	if len(rows) != 1 || rows[0][0] != int64(30*sec) {
		t.Errorf("rows = %v", sortedRowStrings(rows))
	}
}

func TestSessionRejectsUnknownTable(t *testing.T) {
	s := NewSession()
	if _, err := s.Table("ghost"); err == nil {
		t.Error("unknown table should error")
	}
	if _, err := s.SQL("SELECT * FROM ghost"); err == nil {
		t.Error("SQL over unknown table should error")
	}
}

func TestWriteStreamOnBatchFrameRejected(t *testing.T) {
	s := NewSession()
	s.RegisterTable("t", NewSchema(Field{Name: "x", Type: Int64}), []Row{{1}})
	df, _ := s.Table("t")
	if _, err := df.WriteStream().Checkpoint(t.TempDir()).Start(""); err == nil {
		t.Error("WriteStream on a batch DataFrame should be rejected")
	}
}

// TestWriterOptionValues: an option whose value does not parse as its key's
// type fails Start with the key's name instead of running the default in its
// place, the retired "vectorize" option says why it is refused, and values
// that parse keep their meaning — in range or not.
func TestWriterOptionValues(t *testing.T) {
	for _, tc := range []struct {
		key, value string
		err        string // "" = Start succeeds
	}{
		{"workers", "two", `option "workers" wants an integer, got "two"`},
		{"partitions", "x", `option "partitions" wants an integer`},
		{"maxRecordsPerTrigger", "1e3", `option "maxRecordsPerTrigger" wants an integer`},
		{"stateMemtableBytes", "4MiB", `option "stateMemtableBytes" wants an integer`},
		{"stateBlockCacheBytes", "", `option "stateBlockCacheBytes" wants an integer`},
		{"retainEpochs", "ten", `option "retainEpochs" wants an integer`},
		{"stateSyncMaintenance", "yes", `option "stateSyncMaintenance" wants "true" or "false"`},
		{"publish", "1", `option "publish" wants "true" or "false"`},
		{"vectorize", "false", `option "vectorize" was removed: the columnar path is always on`},
		{"vectorize", "true", `option "vectorize" was removed`},
		{"workers", "0", ""},
		{"partitions", "-3", ""},
		{"stateSyncMaintenance", "false", ""},
	} {
		t.Run(tc.key+"="+tc.value, func(t *testing.T) {
			df, _ := NewSession().MemoryStream("ev", clickSchema)
			q, err := df.WriteStream().Option(tc.key, tc.value).
				Trigger(ProcessingTime(time.Hour)).Checkpoint(t.TempDir()).Start("")
			if err == nil {
				defer q.Stop()
			}
			switch {
			case tc.err == "" && err != nil:
				t.Fatalf("Start: %v", err)
			case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
				t.Fatalf("Start returned %v, want an error containing %q", err, tc.err)
			}
		})
	}
}

func TestDropDuplicates(t *testing.T) {
	s := NewSession()
	s.RegisterTable("t", clickSchema, []Row{
		{"CA", 1, 10.0, 0}, {"CA", 2, 20.0, 0}, {"US", 3, 30.0, 0},
	})
	df, _ := s.Table("t")
	// Batch: first row per country wins.
	rows, err := df.DropDuplicates("country").SelectNames("country", "user_id").Collect()
	if err != nil {
		t.Fatal(err)
	}
	expectRows(t, rows, "[CA, 1]", "[US, 3]")

	// Streaming: dedup state spans epochs.
	s2 := NewSession()
	ev, feed := s2.MemoryStream("ev", clickSchema)
	q, err := ev.DropDuplicates("country").SelectNames("country", "user_id").
		WriteStream().Format("memory").QueryName("dd").
		Trigger(ProcessingTime(time.Hour)).Checkpoint(t.TempDir()).Start("")
	if err != nil {
		t.Fatal(err)
	}
	defer q.Stop()
	feed.AddData(Row{"CA", 1, 1.0, 0}, Row{"US", 2, 1.0, 0})
	q.ProcessAllAvailable()
	feed.AddData(Row{"CA", 9, 1.0, 0}, Row{"DE", 3, 1.0, 0}) // CA is a cross-epoch dup
	q.ProcessAllAvailable()
	tbl, _ := s2.Table("dd")
	got, _ := tbl.Collect()
	expectRows(t, got, "[CA, 1]", "[US, 2]", "[DE, 3]")
}
