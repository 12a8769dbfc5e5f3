package sinks

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"structream/internal/colfmt"
	"structream/internal/fsx"
	"structream/internal/msgbus"
	"structream/internal/sql"
	"structream/internal/sql/logical"
	"structream/internal/sql/vec"
)

var schema = sql.NewSchema(
	sql.Field{Name: "country", Type: sql.TypeString},
	sql.Field{Name: "cnt", Type: sql.TypeInt64},
)

func batch(epoch int64, mode logical.OutputMode, rows ...sql.Row) Batch {
	return Batch{Epoch: epoch, Mode: mode, Schema: schema, Rows: rows, KeyArity: 1}
}

func TestMemorySinkAppendIdempotent(t *testing.T) {
	s := NewMemorySink()
	s.AddBatch(batch(0, logical.Append, sql.Row{"CA", int64(1)}))
	s.AddBatch(batch(1, logical.Append, sql.Row{"US", int64(2)}))
	// Replay epoch 1 (failure recovery): contents must not duplicate.
	s.AddBatch(batch(1, logical.Append, sql.Row{"US", int64(2)}))
	rows := s.Rows()
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	if got := s.RowsForEpoch(1); len(got) != 1 || got[0][0] != "US" {
		t.Errorf("epoch rows = %v", got)
	}
}

func TestMemorySinkComplete(t *testing.T) {
	s := NewMemorySink()
	s.AddBatch(batch(0, logical.Complete, sql.Row{"CA", int64(1)}))
	s.AddBatch(batch(1, logical.Complete, sql.Row{"CA", int64(5)}, sql.Row{"US", int64(2)}))
	rows := s.Rows()
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	// Snapshot isolation: mutating the returned rows must not affect the sink.
	rows[0][1] = int64(999)
	if s.Rows()[0][1] == int64(999) {
		t.Error("Rows must return a defensive copy")
	}
}

func TestMemorySinkUpdateUpserts(t *testing.T) {
	s := NewMemorySink()
	s.AddBatch(batch(0, logical.Update, sql.Row{"CA", int64(1)}, sql.Row{"US", int64(1)}))
	s.AddBatch(batch(1, logical.Update, sql.Row{"CA", int64(7)}))
	rows := s.Rows()
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	for _, r := range rows {
		if r[0] == "CA" && r[1] != int64(7) {
			t.Errorf("CA not updated: %v", r)
		}
	}

	// A repeated key overwrites the retained row in place. Rows already
	// handed out must not see it, the delivered row must not be retained,
	// first-seen order holds, and a row of another arity replaces the old.
	delivered := sql.Row{"CA", int64(9)}
	s.AddBatch(batch(2, logical.Update, delivered))
	delivered[1] = int64(-1)
	if rows[0][1] != int64(7) {
		t.Errorf("a later upsert changed rows already returned: %v", rows)
	}
	if got := s.Rows(); len(got) != 2 || got[0][0] != "CA" || got[0][1] != int64(9) || got[1][0] != "US" {
		t.Errorf("after in-place upsert: %v", got)
	}
	s.AddBatch(batch(3, logical.Update, sql.Row{"CA", int64(10), "extra"}))
	if got := s.Rows(); len(got) != 2 || len(got[0]) != 3 || got[0][1] != int64(10) {
		t.Errorf("after an upsert of another arity: %v", got)
	}
}

func TestMemorySinkModeChangeRejected(t *testing.T) {
	s := NewMemorySink()
	s.AddBatch(batch(0, logical.Append, sql.Row{"CA", int64(1)}))
	if err := s.AddBatch(batch(1, logical.Complete)); err == nil {
		t.Error("mode change should error")
	}
}

func TestMemorySinkTruncateRollback(t *testing.T) {
	s := NewMemorySink()
	for e := int64(0); e < 5; e++ {
		s.AddBatch(batch(e, logical.Append, sql.Row{"CA", e}))
	}
	s.Truncate(1)
	if got := len(s.Rows()); got != 2 {
		t.Errorf("rows after truncate = %d", got)
	}
}

func TestConsoleSink(t *testing.T) {
	var buf bytes.Buffer
	s := NewConsoleSink(&buf)
	s.MaxRows = 1
	s.AddBatch(batch(3, logical.Append, sql.Row{"CA", int64(1)}, sql.Row{"US", int64(2)}))
	out := buf.String()
	if !strings.Contains(out, "Batch: 3") || !strings.Contains(out, "[CA, 1]") {
		t.Errorf("output = %q", out)
	}
	if !strings.Contains(out, "1 more rows") {
		t.Errorf("MaxRows truncation missing: %q", out)
	}
}

func TestForeachSink(t *testing.T) {
	var got []Batch
	s := &ForeachSink{Fn: func(b Batch) error { got = append(got, b); return nil }}
	s.AddBatch(batch(0, logical.Append, sql.Row{"CA", int64(1)}))
	if len(got) != 1 || got[0].Epoch != 0 {
		t.Errorf("got = %v", got)
	}
}

func TestFileSinkAppendIdempotent(t *testing.T) {
	dir := t.TempDir()
	s := NewFileSink(dir)
	s.AddBatch(batch(0, logical.Append, sql.Row{"CA", int64(1)}))
	s.AddBatch(batch(1, logical.Append, sql.Row{"US", int64(2)}))
	s.AddBatch(batch(1, logical.Append, sql.Row{"US", int64(2)})) // replay
	tbl, err := colfmt.OpenTable(dir)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Rows() != 2 {
		t.Errorf("rows = %d, want 2 (idempotent replay)", tbl.Rows())
	}
}

func TestFileSinkComplete(t *testing.T) {
	dir := t.TempDir()
	s := NewFileSink(dir)
	s.AddBatch(batch(0, logical.Complete, sql.Row{"CA", int64(1)}))
	s.AddBatch(batch(1, logical.Complete, sql.Row{"CA", int64(9)}, sql.Row{"US", int64(2)}))
	tbl, _ := colfmt.OpenTable(dir)
	rows, err := tbl.ReadAll()
	if err != nil || len(rows) != 2 {
		t.Fatalf("rows = %v err=%v", rows, err)
	}
	for _, r := range rows {
		if r[0] == "CA" && r[1] != int64(9) {
			t.Errorf("stale complete output: %v", r)
		}
	}
}

func TestFileSinkRejectsUpdate(t *testing.T) {
	s := NewFileSink(t.TempDir())
	if err := s.AddBatch(batch(0, logical.Update, sql.Row{"CA", int64(1)})); err == nil {
		t.Error("update mode should be rejected by the file sink")
	}
}

func TestFileSinkRollback(t *testing.T) {
	dir := t.TempDir()
	s := NewFileSink(dir)
	for e := int64(0); e < 4; e++ {
		s.AddBatch(batch(e, logical.Append, sql.Row{"CA", e}))
	}
	if err := s.Rollback(1); err != nil {
		t.Fatal(err)
	}
	tbl, _ := colfmt.OpenTable(dir)
	if tbl.Rows() != 2 {
		t.Errorf("rows after rollback = %d", tbl.Rows())
	}
}

func TestJSONFileSink(t *testing.T) {
	dir := t.TempDir()
	s := NewJSONFileSink(dir)
	err := s.AddBatch(Batch{Epoch: 0, Mode: logical.Append, Schema: sql.NewSchema(
		sql.Field{Name: "window", Type: sql.TypeWindow},
		sql.Field{Name: "n", Type: sql.TypeInt64},
	), Rows: []sql.Row{{sql.Window{Start: 0, End: 10_000_000}, int64(5)}}})
	if err != nil {
		t.Fatal(err)
	}
	data, err := readFile(dir + "/part-000000000000.json")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(data, `"n":5`) || !strings.Contains(data, `"start"`) {
		t.Errorf("json = %q", data)
	}
}

func readFile(path string) (string, error) {
	b, err := os.ReadFile(path)
	return string(b), err
}

func TestBusSinkAndTransactionalWrapper(t *testing.T) {
	broker := msgbus.NewBroker()
	out, _ := broker.CreateTopic("out", 2)
	control, _ := broker.CreateTopic("out-commits", 1)
	inner := NewBusSink(out)
	inner.KeyIndex = 0
	s, err := NewTransactionalBusSink(inner, control)
	if err != nil {
		t.Fatal(err)
	}
	s.AddBatch(batch(0, logical.Append, sql.Row{"CA", int64(1)}))
	s.AddBatch(batch(1, logical.Append, sql.Row{"US", int64(2)}))
	if n := out.TotalRecords(); n != 2 {
		t.Fatalf("records = %d", n)
	}
	// Replaying an already committed epoch writes nothing.
	s.AddBatch(batch(1, logical.Append, sql.Row{"US", int64(2)}))
	if n := out.TotalRecords(); n != 2 {
		t.Errorf("records after replay = %d, want 2 (exactly-once)", n)
	}
	// Bare bus sink duplicates on replay (at-least-once), by design.
	bare, _ := broker.CreateTopic("bare", 1)
	bs := NewBusSink(bare)
	bs.AddBatch(batch(0, logical.Append, sql.Row{"CA", int64(1)}))
	bs.AddBatch(batch(0, logical.Append, sql.Row{"CA", int64(1)}))
	if n := bare.TotalRecords(); n != 2 {
		t.Errorf("bare sink records = %d", n)
	}
	// Control topic must be single-partition.
	multi, _ := broker.CreateTopic("multi", 2)
	if _, err := NewTransactionalBusSink(inner, multi); err == nil {
		t.Error("multi-partition control topic should be rejected")
	}
}

func TestJSONFileSinkReplayIdempotent(t *testing.T) {
	dir := t.TempDir()
	s := NewJSONFileSink(dir)
	// Epoch 1 writes, then "crashes" before the commit marker; recovery
	// replays it with identical offsets but rows in a different order.
	s.AddBatch(batch(0, logical.Append, sql.Row{"CA", int64(1)}))
	s.AddBatch(batch(1, logical.Append, sql.Row{"US", int64(2)}, sql.Row{"BR", int64(3)}))
	before, err := os.ReadFile(filepath.Join(dir, "part-000000000001.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddBatch(batch(1, logical.Append, sql.Row{"BR", int64(3)}, sql.Row{"US", int64(2)})); err != nil {
		t.Fatal(err)
	}
	after, _ := os.ReadFile(filepath.Join(dir, "part-000000000001.json"))
	if !bytes.Equal(before, after) {
		t.Errorf("replayed epoch file differs:\n%s\nvs\n%s", before, after)
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 2 {
		t.Errorf("replay must not create extra files: %v", entries)
	}
}

func TestJSONFileSinkCompleteReplayIdempotent(t *testing.T) {
	dir := t.TempDir()
	s := NewJSONFileSink(dir)
	s.AddBatch(batch(0, logical.Complete, sql.Row{"CA", int64(1)}))
	s.AddBatch(batch(1, logical.Complete, sql.Row{"CA", int64(4)}, sql.Row{"US", int64(2)}))
	before, err := os.ReadFile(filepath.Join(dir, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	// Replay of epoch 1 overwrites result.json with the same bytes.
	s.AddBatch(batch(1, logical.Complete, sql.Row{"US", int64(2)}, sql.Row{"CA", int64(4)}))
	after, _ := os.ReadFile(filepath.Join(dir, "result.json"))
	if !bytes.Equal(before, after) {
		t.Errorf("replayed result.json differs:\n%s\nvs\n%s", before, after)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Errorf("complete mode must keep a single file: %v", entries)
	}
}

func TestJSONFileSinkCrashLeavesNoTornFile(t *testing.T) {
	dir := t.TempDir()
	ffs := fsx.NewFaultFS(fsx.NoSync())
	s := &JSONFileSink{Dir: dir, FS: ffs}
	if err := s.AddBatch(batch(0, logical.Append, sql.Row{"CA", int64(1)})); err != nil {
		t.Fatal(err)
	}
	// Crash during epoch 1's data write: the torn bytes stay in the .tmp
	// file, never visible under the part- name.
	ffs.CrashAt, ffs.Mode = ffs.Ops()+1, fsx.CrashTorn
	err := s.AddBatch(batch(1, logical.Append, sql.Row{"US", int64(2)}))
	if !errors.Is(err, fsx.ErrCrash) {
		t.Fatalf("err = %v", err)
	}
	if _, serr := os.Stat(filepath.Join(dir, "part-000000000001.json")); !os.IsNotExist(serr) {
		t.Error("torn write became visible under the final name")
	}
	// Restart: a fresh sink replays the epoch and overwrites cleanly.
	s2 := NewJSONFileSink(dir)
	if err := s2.AddBatch(batch(1, logical.Append, sql.Row{"US", int64(2)})); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(filepath.Join(dir, "part-000000000001.json"))
	if !strings.Contains(string(got), `"US"`) {
		t.Errorf("replayed file = %q", got)
	}
}

// ------------------------------------------------------------- columnar

func colBatch(t *testing.T, epoch int64, rows ...sql.Row) Batch {
	t.Helper()
	vb := vec.FromRows(schema, rows)
	return Batch{Epoch: epoch, Mode: logical.Append, Schema: schema,
		Vecs: []*vec.Batch{vb}, KeyArity: 1}
}

func TestMemorySinkColumnarAppend(t *testing.T) {
	s := NewMemorySink()
	if err := s.AddColumnBatch(colBatch(t, 0, sql.Row{"CA", int64(1)})); err != nil {
		t.Fatal(err)
	}
	if err := s.AddColumnBatch(colBatch(t, 1, sql.Row{"US", int64(2)}, sql.Row{"MX", int64(3)})); err != nil {
		t.Fatal(err)
	}
	rows := s.Rows()
	if len(rows) != 3 || rows[0][0] != "CA" || rows[1][0] != "US" || rows[2][0] != "MX" {
		t.Fatalf("rows = %v", rows)
	}
	if got := s.RowsForEpoch(1); len(got) != 2 || got[0][1] != int64(2) {
		t.Fatalf("epoch rows = %v", got)
	}
}

// Replays must replace in both directions: a columnar delivery replacing
// a row delivery of the same epoch, and vice versa.
func TestMemorySinkColumnarReplayReplaces(t *testing.T) {
	s := NewMemorySink()
	s.AddBatch(batch(0, logical.Append, sql.Row{"CA", int64(1)}))
	if err := s.AddColumnBatch(colBatch(t, 0, sql.Row{"CA", int64(1)})); err != nil {
		t.Fatal(err)
	}
	if rows := s.Rows(); len(rows) != 1 {
		t.Fatalf("columnar replay duplicated: %v", rows)
	}
	// Read the columns back as rows, then replay again row-wise.
	_ = s.RowsForEpoch(0)
	s.AddBatch(batch(0, logical.Append, sql.Row{"CA", int64(9)}))
	rows := s.Rows()
	if len(rows) != 1 || rows[0][1] != int64(9) {
		t.Fatalf("row replay after a columnar read: %v", rows)
	}
}

func TestMemorySinkColumnarTruncate(t *testing.T) {
	s := NewMemorySink()
	s.AddColumnBatch(colBatch(t, 0, sql.Row{"CA", int64(1)}))
	s.AddColumnBatch(colBatch(t, 1, sql.Row{"US", int64(2)}))
	s.AddColumnBatch(colBatch(t, 2, sql.Row{"MX", int64(3)}))
	s.Truncate(0)
	rows := s.Rows()
	if len(rows) != 1 || rows[0][0] != "CA" {
		t.Fatalf("rows after truncate = %v", rows)
	}
	// A re-delivery of a truncated epoch is a fresh append.
	s.AddColumnBatch(colBatch(t, 1, sql.Row{"US", int64(2)}))
	if rows := s.Rows(); len(rows) != 2 {
		t.Fatalf("rows after re-delivery = %v", rows)
	}
}

// Non-append modes have per-row key handling: a columnar delivery is
// encoded row by row from the vectors into the same table.
func TestMemorySinkColumnarUpdate(t *testing.T) {
	s := NewMemorySink()
	vb := vec.FromRows(schema, []sql.Row{{"CA", int64(1)}, {"CA", int64(5)}})
	err := s.AddColumnBatch(Batch{Epoch: 0, Mode: logical.Update, Schema: schema,
		Vecs: []*vec.Batch{vb}, KeyArity: 1})
	if err != nil {
		t.Fatal(err)
	}
	rows := s.Rows()
	if len(rows) != 1 || rows[0][1] != int64(5) {
		t.Fatalf("update-mode columnar rows = %v", rows)
	}
}
