package sources

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"structream/internal/msgbus"
	"structream/internal/sql"
	"structream/internal/sql/codec"
)

var testSchema = sql.NewSchema(
	sql.Field{Name: "id", Type: sql.TypeInt64},
	sql.Field{Name: "name", Type: sql.TypeString},
)

func TestOffsetsHelpers(t *testing.T) {
	o := Offsets{1, 2, 3}
	c := o.Clone()
	c[0] = 99
	if o[0] != 1 {
		t.Error("Clone must not alias")
	}
	if o.Total() != 6 {
		t.Error("Total broken")
	}
}

func TestBusSource(t *testing.T) {
	b := msgbus.NewBroker()
	topic, _ := b.CreateTopic("events", 2)
	src := NewCodecBusSource("events", topic, testSchema)
	if src.Partitions() != 2 || src.Name() != "events" {
		t.Fatal("metadata wrong")
	}
	topic.Append(0, msgbus.Record{Value: codec.EncodeRow(sql.Row{int64(1), "a"})})
	topic.Append(0, msgbus.Record{Value: codec.EncodeRow(sql.Row{int64(2), "b"})})
	topic.Append(1, msgbus.Record{Value: codec.EncodeRow(sql.Row{int64(3), "c"})})

	latest, err := src.Latest()
	if err != nil || latest[0] != 2 || latest[1] != 1 {
		t.Fatalf("latest = %v err=%v", latest, err)
	}
	rows, err := src.Read(0, 0, 2)
	if err != nil || len(rows) != 2 || rows[1][1] != "b" {
		t.Fatalf("rows = %v err=%v", rows, err)
	}
	// Replay: same range, same rows.
	rows2, _ := src.Read(0, 0, 2)
	if rows2[0][0] != rows[0][0] {
		t.Error("replay mismatch")
	}
	// Corrupt records are skipped, not fatal.
	topic.Append(1, msgbus.Record{Value: []byte("garbage")})
	rows3, err := src.Read(1, 0, 2)
	if err != nil || len(rows3) != 1 {
		t.Errorf("rows3 = %v err=%v", rows3, err)
	}
}

func TestMemorySource(t *testing.T) {
	src := NewMemorySource("mem", testSchema)
	src.AddData(sql.Row{1, "x"}, sql.Row{2, "y"}) // plain ints get normalized
	latest, _ := src.Latest()
	if latest[0] != 2 {
		t.Fatalf("latest = %v", latest)
	}
	rows, err := src.Read(0, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0] != int64(1) {
		t.Errorf("normalization failed: %T", rows[0][0])
	}
	if _, err := src.Read(0, 0, 5); err == nil {
		t.Error("out-of-bounds read should error")
	}
	if _, err := src.Read(1, 0, 1); err == nil {
		t.Error("bad partition should error")
	}
	earliest, _ := src.Earliest()
	if earliest[0] != 0 {
		t.Error("earliest should be 0")
	}
}

func writeJSONFile(t *testing.T, dir, name, content string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestFileSource(t *testing.T) {
	dir := t.TempDir()
	schema := sql.NewSchema(
		sql.Field{Name: "country", Type: sql.TypeString},
		sql.Field{Name: "clicks", Type: sql.TypeInt64},
		sql.Field{Name: "time", Type: sql.TypeTimestamp},
	)
	src := NewFileSource("json", dir, schema)
	latest, err := src.Latest()
	if err != nil || latest[0] != 0 {
		t.Fatalf("latest on empty dir = %v err=%v", latest, err)
	}
	writeJSONFile(t, dir, "a.json", `{"country":"CA","clicks":3,"time":"2018-06-10T00:00:00Z"}
{"country":"US","clicks":5}
`)
	writeJSONFile(t, dir, "_hidden.json", `{"country":"XX"}`)
	writeJSONFile(t, dir, "b.json.tmp", `{"country":"YY"}`)
	latest, _ = src.Latest()
	if latest[0] != 1 {
		t.Fatalf("latest = %v (hidden/tmp files must be ignored)", latest)
	}
	rows, err := src.Read(0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0][0] != "CA" || rows[0][1] != int64(3) {
		t.Fatalf("rows = %v", rows)
	}
	if rows[1][2] != nil {
		t.Error("missing field should be NULL")
	}
	if ts, ok := rows[0][2].(int64); !ok || ts <= 0 {
		t.Errorf("timestamp coercion = %v", rows[0][2])
	}
	// New file appears → new offset; earlier offsets still return the same
	// data (stable discovery order).
	writeJSONFile(t, dir, "b.json", `{"country":"DE","clicks":1}`)
	latest, _ = src.Latest()
	if latest[0] != 2 {
		t.Fatalf("latest = %v", latest)
	}
	again, _ := src.Read(0, 0, 1)
	if len(again) != 2 || again[0][0] != "CA" {
		t.Error("replay of file range changed")
	}
	rows2, _ := src.Read(0, 1, 2)
	if len(rows2) != 1 || rows2[0][0] != "DE" {
		t.Errorf("rows2 = %v", rows2)
	}
}

func TestFileSourceBadJSON(t *testing.T) {
	dir := t.TempDir()
	src := NewFileSource("json", dir, testSchema)
	writeJSONFile(t, dir, "bad.json", "{not json\n")
	src.Latest()
	if _, err := src.Read(0, 0, 1); err == nil {
		t.Error("bad JSON should surface an error (the §7.2 scenario)")
	}
}

// TestArrivalForwardedThroughWrappers: the wrappers the engine and the
// chaos tests put around a source must not hide its arrival signal — hidden,
// the query silently falls back to polling — and must not invent one for a
// source that has none.
func TestArrivalForwardedThroughWrappers(t *testing.T) {
	topic, _ := msgbus.NewBroker().CreateTopic("events", 2)
	bus := NewCodecBusSource("events", topic, testSchema)
	mem := NewMemorySource("mem", testSchema)
	signalling := map[string]struct {
		src     Source
		arrival func()
	}{
		"Instrument(Flaky(Bus))":        {Instrument(NewFlakySource(bus)), func() { topic.Append(1, msgbus.Record{}) }},
		"Instrument(Bus.PruneColumns)":  {Instrument(bus.PruneColumns([]int{0})), func() { topic.Append(0, msgbus.Record{}) }},
		"Flaky(Instrument(Flaky(Mem)))": {NewFlakySource(Instrument(NewFlakySource(mem))), func() { mem.AddData(sql.Row{int64(1), "a"}) }},
	}
	for name, c := range signalling {
		an, ok := c.src.(ArrivalNotifier)
		if !ok {
			t.Errorf("%s: not an ArrivalNotifier", name)
			continue
		}
		ch := make(chan struct{}, 1)
		stop, ok := an.NotifyArrival(ch)
		if !ok {
			t.Errorf("%s: NotifyArrival reports the source cannot signal", name)
			continue
		}
		c.arrival()
		select {
		case <-ch:
		default:
			t.Errorf("%s: an arrival did not signal", name)
		}
		stop()
		c.arrival()
		select {
		case <-ch:
			t.Errorf("%s: signalled after stop", name)
		default:
		}
	}
	if n := topic.ArrivalListeners(); n != 0 {
		t.Errorf("%d wake channels left on the topic", n)
	}

	silent := Instrument(NewFlakySource(NewFileSource("json", t.TempDir(), testSchema)))
	if _, ok := silent.NotifyArrival(make(chan struct{}, 1)); ok {
		t.Error("Instrument(Flaky(FileSource)) claims an arrival signal its source does not have")
	}
}

// TestBusSourceReadVecMatchesRead reads a topic whose records cover every
// column kind, with NULLs and a malformed record among them, through
// ReadVec — every typed column read, and only the int64 one — and holds
// each kept cell to Read's row.
func TestBusSourceReadVecMatchesRead(t *testing.T) {
	schema := sql.NewSchema(
		sql.Field{Name: "i", Type: sql.TypeInt64},
		sql.Field{Name: "s", Type: sql.TypeString},
		sql.Field{Name: "f", Type: sql.TypeFloat64},
		sql.Field{Name: "b", Type: sql.TypeBool},
		sql.Field{Name: "w", Type: sql.TypeWindow},
		sql.Field{Name: "a", Type: sql.TypeAny},
	)
	topic, _ := msgbus.NewBroker().CreateTopic("kinds", 1)
	const n = 700
	for k := 0; k < n; k++ {
		row := sql.Row{int64(k * 31), fmt.Sprint("v", k), float64(k) / 4, k%3 == 0,
			sql.Window{Start: int64(k), End: int64(k) + 5}, []byte{byte(k)}}
		if k%97 == 5 {
			row[k%5] = nil
		}
		value := codec.EncodeRow(row)
		if k == 300 {
			value = []byte("garbage")
		}
		if _, err := topic.Append(0, msgbus.Record{Value: value}); err != nil {
			t.Fatal(err)
		}
	}
	src := NewCodecBusSource("kinds", topic, schema)
	want, err := src.Read(0, 0, n)
	if err != nil || len(want) != n-1 {
		t.Fatalf("Read: %d rows, err=%v", len(want), err)
	}
	for _, keep := range [][]int{{0, 1, 2, 3, 4}, {0}} {
		b, ok, err := src.PruneColumns(keep).(VectorReader).ReadVec(0, 0, n)
		if err != nil || !ok || b.Len != len(want) {
			t.Fatalf("keep %v: ReadVec ok=%v err=%v, %d rows; want %d", keep, ok, err, b.Len, len(want))
		}
		for i, row := range want {
			for _, c := range keep {
				if got := b.Cols[c].Get(i); got != row[c] {
					t.Fatalf("keep %v, row %d col %d: ReadVec %v, Read %v", keep, i, c, got, row[c])
				}
			}
		}
		b.Release()
	}
}

// TestReadRefusesRowsOfTheWrongArity: a row with fewer or more values than
// its source's schema has no place in a column batch, so the engine's view of
// a source refuses the read with ErrRowArity, naming where the row sits.
// Rows of the right arity read as before.
func TestReadRefusesRowsOfTheWrongArity(t *testing.T) {
	src := NewMemorySource("people", testSchema)
	src.AddData(sql.Row{int64(1), "a"}, sql.Row{int64(2)}, sql.Row{int64(3), "c", "extra"})
	in := Instrument(src)
	if rows, err := in.Read(0, 0, 1); err != nil || len(rows) != 1 {
		t.Fatalf("a row of the schema's arity: %v, %v", rows, err)
	}
	for _, from := range []int64{1, 2} {
		rows, err := in.Read(0, from, 3)
		if !errors.Is(err, ErrRowArity) || rows != nil {
			t.Fatalf("read from %d: %v, %v; want ErrRowArity", from, rows, err)
		}
		if !strings.Contains(err.Error(), fmt.Sprintf("people partition 0 offset %d", from)) {
			t.Fatalf("the error does not say where the row sits: %v", err)
		}
	}
	if st := in.Stats(); st.Errors != 2 {
		t.Fatalf("%d read errors counted, want 2", st.Errors)
	}
}
