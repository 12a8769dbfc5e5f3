package sinks

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"structream/internal/sql"
	"structream/internal/sql/logical"
	"structream/internal/sql/vec"
)

// The files under testdata/parent-rows were written by the commit before the
// memory sink's result table became codec bytes (55b6aba), when it held
// boxed rows in a string-keyed map, a row slice and per-epoch row slices.
// This file is their definition — every batch is a pure function of its
// step — and compiles at that commit too, which is how they were produced:
//
//	cp parent_fixture_test.go <checkout of 55b6aba>/internal/sinks/
//	SINK_WRITE_FIXTURE=<dir> go test -run TestWriteSinkFixture ./internal/sinks
//
// TestSinkRowsMatchParent drives the same script through the current sink and
// compares what every reader returns after every step, value for value.
var fixtureSchema = sql.NewSchema(
	sql.Field{Name: "k", Type: sql.TypeString},
	sql.Field{Name: "w", Type: sql.TypeWindow},
	sql.Field{Name: "n", Type: sql.TypeInt64},
	sql.Field{Name: "f", Type: sql.TypeFloat64},
	sql.Field{Name: "b", Type: sql.TypeBinary},
)

// fixtureRow is row i of a batch salted with salt: keys repeat every seven
// rows (one of them NULL, one the empty string), and the salt moves the
// non-key cells across NULL, NaN, negative zero, empty and long byte strings
// and integers from one varint byte to ten.
func fixtureRow(i, salt int) sql.Row {
	var k, w, n, f, b sql.Value
	switch i % 7 {
	case 0:
		k = ""
	case 1: // NULL key
	default:
		k = fmt.Sprintf("key-%d", i%7)
	}
	if i%3 != 0 {
		w = sql.Window{Start: int64(i%3) * 10, End: int64(i%3)*10 + 10}
	}
	if (i+salt)%5 != 0 {
		n = (int64(1) << uint((i*5+salt*13)%63)) * int64(1-2*((i+salt)%2))
	}
	switch (i + salt) % 4 {
	case 0:
		f = math.NaN()
	case 1:
		f = math.Copysign(0, -1)
	case 2:
		f = float64(i) + float64(salt)/8
	}
	switch (i + 2*salt) % 4 {
	case 0:
		b = []byte{}
	case 1:
		b = []byte(strings.Repeat("x", (i*salt)%40))
	case 2:
		b = []byte{0, 255, byte(i), byte(salt)}
	}
	return sql.Row{k, w, n, f, b}
}

func fixtureRows(from, to, salt int) []sql.Row {
	var rows []sql.Row
	for i := from; i < to; i++ {
		rows = append(rows, fixtureRow(i, salt))
	}
	return rows
}

// A fixtureStep is one call on the sink.
type fixtureStep func(t *testing.T, s *MemorySink)

func rowStep(b Batch) fixtureStep {
	return func(t *testing.T, s *MemorySink) {
		if err := s.AddBatch(b); err != nil {
			t.Fatal(err)
		}
	}
}

// columnar turns b's rows into column batches: the first half dense, the
// second behind a selection vector that skips a dead lane after every live
// one.
func columnar(t *testing.T, b Batch) Batch {
	t.Helper()
	rows := b.Rows
	half := len(rows) / 2
	dense, ok := vec.FromRows(b.Schema, rows[:half])
	if !ok {
		t.Fatal("FromRows failed")
	}
	var padded []sql.Row
	var sel []int32
	for _, r := range rows[half:] {
		sel = append(sel, int32(len(padded)))
		padded = append(padded, r, r)
	}
	sparse, ok := vec.FromRows(b.Schema, padded)
	if !ok {
		t.Fatal("FromRows failed")
	}
	sparse.Sel = sel
	b.Rows, b.Vecs = nil, []*vec.Batch{dense, sparse}
	return b
}

func colStep(b Batch) fixtureStep {
	return func(t *testing.T, s *MemorySink) {
		if err := s.AddColumnBatch(columnar(t, b)); err != nil {
			t.Fatal(err)
		}
	}
}

func fixtureBatch(mode logical.OutputMode, epoch, sub int64, keyArity int, rows []sql.Row) Batch {
	return Batch{Epoch: epoch, Sub: sub, Mode: mode, Schema: fixtureSchema, Rows: rows, KeyArity: keyArity}
}

// fixtureScript is the step list of one output mode.
func fixtureScript(mode logical.OutputMode) []fixtureStep {
	bt := func(epoch, sub int64, keyArity int, rows []sql.Row) Batch {
		return fixtureBatch(mode, epoch, sub, keyArity, rows)
	}
	switch mode {
	case logical.Update:
		narrow := sql.NewSchema(fixtureSchema.Field(0), fixtureSchema.Field(2))
		var short []sql.Row
		for _, r := range fixtureRows(0, 9, 6) {
			short = append(short, sql.Row{r[0], r[2]})
		}
		long := fixtureRows(0, 14, 7)
		for _, r := range long {
			r[4] = []byte(strings.Repeat("grown", 30))
		}
		return []fixtureStep{
			rowStep(bt(0, 0, 2, fixtureRows(0, 10, 0))),
			colStep(bt(1, 0, 2, fixtureRows(5, 19, 1))),
			rowStep(bt(2, 0, 2, fixtureRows(0, 25, 2))),                                    // every key again: values shrink and grow
			colStep(bt(2, 0, 2, fixtureRows(0, 25, 2))),                                    // the same epoch replayed, columnar
			rowStep(bt(3, 0, 0, fixtureRows(0, 6, 0))),                                     // the whole row is the key
			rowStep(bt(4, 0, 9, fixtureRows(3, 9, 3))),                                     // a key arity beyond the schema: the whole row again
			rowStep(Batch{Epoch: 5, Mode: mode, Schema: narrow, Rows: short, KeyArity: 1}), // two-cell rows over five-cell ones
			rowStep(bt(6, 0, 2, long)),                                                     // far beyond any slack
			colStep(bt(7, 0, 2, fixtureRows(0, 14, 8))),                                    // and back
			rowStep(bt(8, 0, 2, nil)),
		}
	case logical.Complete:
		return []fixtureStep{
			rowStep(bt(0, 0, 2, fixtureRows(0, 10, 0))),
			colStep(bt(1, 0, 2, fixtureRows(0, 12, 1))),
			rowStep(bt(2, 0, 2, nil)),
			rowStep(bt(3, 0, 2, fixtureRows(4, 9, 3))),
			rowStep(bt(3, 0, 2, fixtureRows(4, 9, 3))),
			colStep(bt(4, 0, 2, nil)),
		}
	default:
		return []fixtureStep{
			rowStep(bt(0, 0, 2, fixtureRows(0, 4, 0))),
			colStep(bt(1, 0, 2, fixtureRows(4, 10, 1))),
			rowStep(bt(3, 1, 2, fixtureRows(10, 12, 2))), // sub 1 before sub 0, epoch 3 before epoch 2
			rowStep(bt(3, 0, 2, fixtureRows(12, 15, 2))),
			colStep(bt(2, 0, 2, fixtureRows(15, 19, 3))),
			colStep(bt(3, 1, 2, fixtureRows(10, 13, 4))), // a row delivery replayed as columns
			rowStep(bt(1, 0, 2, fixtureRows(4, 9, 5))),   // and a column delivery replayed as rows
			rowStep(bt(4, 0, 2, nil)),
			rowStep(bt(5, 0, 2, fixtureRows(19, 22, 6))),
			func(t *testing.T, s *MemorySink) { s.SetRetention(3) },
			rowStep(bt(2, 0, 2, fixtureRows(0, 3, 7))), // below the floor: dropped
			colStep(bt(6, 0, 2, fixtureRows(22, 26, 8))),
			rowStep(bt(6, 1, 2, fixtureRows(26, 28, 8))),
			func(t *testing.T, s *MemorySink) { s.Truncate(5) },
			colStep(bt(6, 0, 2, fixtureRows(28, 31, 9))), // a truncated epoch delivered again
			func(t *testing.T, s *MemorySink) { s.SetRetention(0) },
			rowStep(bt(7, 0, 2, fixtureRows(31, 33, 10))),
			rowStep(bt(8, 0, 2, fixtureRows(33, 35, 11))),
		}
	}
}

func showValue(v sql.Value) string {
	switch x := v.(type) {
	case nil:
		return "null"
	case float64:
		return fmt.Sprintf("float64(%016x)", math.Float64bits(x))
	case []byte:
		return fmt.Sprintf("bytes(%x)", x)
	case sql.Window:
		return fmt.Sprintf("window(%d,%d)", x.Start, x.End)
	default:
		return fmt.Sprintf("%T(%v)", v, v)
	}
}

func showRows(rows []sql.Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d", len(rows))
	for _, r := range rows {
		sb.WriteString(" [")
		for c, v := range r {
			if c > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(showValue(v))
		}
		sb.WriteByte(']')
	}
	return sb.String()
}

// showSink shows what every reader of the sink returns.
func showSink(s *MemorySink) []string {
	snap, ep := s.SnapshotRows()
	lines := []string{
		"rows " + showRows(s.Rows()),
		fmt.Sprintf("snapshot epoch=%d floor=%d last=%d %s", ep, s.Floor(), s.LastEpoch(), showRows(snap)),
	}
	for e := int64(-1); e <= 9; e++ {
		rows, ok := s.EpochRows(e)
		lines = append(lines, fmt.Sprintf("epoch %d held=%v %s | %s", e, ok, showRows(rows), showRows(s.RowsForEpoch(e))))
	}
	return lines
}

// fixtureRun drives one mode's script and renders the sink after every step.
func fixtureRun(t *testing.T, mode logical.OutputMode) []string {
	t.Helper()
	s := NewMemorySink()
	var lines []string
	for i, step := range fixtureScript(mode) {
		step(t, s)
		lines = append(lines, fmt.Sprintf("step %d", i))
		lines = append(lines, showSink(s)...)
	}
	return lines
}

var fixtureModes = []logical.OutputMode{logical.Append, logical.Update, logical.Complete}

func fixtureFile(mode logical.OutputMode) string {
	return strings.ToLower(mode.String()) + ".txt"
}

func TestWriteSinkFixture(t *testing.T) {
	dir := os.Getenv("SINK_WRITE_FIXTURE")
	if dir == "" {
		t.Skip("set SINK_WRITE_FIXTURE=<dir> to write the fixture with the code of this checkout")
	}
	for _, mode := range fixtureModes {
		data := strings.Join(fixtureRun(t, mode), "\n") + "\n"
		if err := os.WriteFile(filepath.Join(dir, fixtureFile(mode)), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSinkRowsMatchParent(t *testing.T) {
	for _, mode := range fixtureModes {
		data, err := os.ReadFile(filepath.Join("testdata", "parent-rows", fixtureFile(mode)))
		if err != nil {
			t.Fatal(err)
		}
		want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
		got := fixtureRun(t, mode)
		if len(got) != len(want) {
			t.Fatalf("%s: %d lines, the parent wrote %d", mode, len(got), len(want))
		}
		step := ""
		for i := range want {
			if strings.HasPrefix(want[i], "step ") {
				step = want[i]
			}
			if got[i] != want[i] {
				t.Fatalf("%s, %s:\n got %s\nwant %s", mode, step, got[i], want[i])
			}
		}
	}
}
