package structream

import (
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"structream/internal/colfmt"
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

func TestManualRollbackPublicAPI(t *testing.T) {
	s := NewSession()
	df, feed := s.MemoryStream("ev", clickSchema)
	ckpt := t.TempDir()
	out := t.TempDir()
	counts := df.GroupBy(Col("country")).Count()

	start := func(sess *Session, frame *DataFrame) *StreamingQuery {
		q, err := frame.WriteStream().Format("columnar").OutputMode(Complete).
			Trigger(ProcessingTime(time.Hour)).Checkpoint(ckpt).Start(out)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	q := start(s, counts)
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
	q2 := start(s, counts)
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
}

func TestRateSourcePublicAPI(t *testing.T) {
	s := NewSession()
	df, err := s.ReadStream().Format("rate").
		Option("partitions", "2").Option("rowsPerSecond", "1000").Load("bench")
	if err != nil {
		t.Fatal(err)
	}
	schema, err := df.Schema()
	if err != nil {
		t.Fatal(err)
	}
	if schema.Len() != 2 || schema.Field(0).Name != "value" {
		t.Errorf("schema = %s", schema)
	}
	// Rate streams produce data once advanced; batch Collect snapshots it.
	rows, err := df.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Errorf("rate source should start empty, got %d rows", len(rows))
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
