package physical

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"structream/internal/sql"
	"structream/internal/sql/vec"
)

// TestVecWindowMatchesTheRowStage holds the window op to the batch
// executor's WindowAssignFunc over the same rows: tumbling and sliding
// windows, a size that is no multiple of the slide, negative times, NULL
// times and, in a boxed time column, cells that are no int64 — with and
// without a selection upstream.
func TestVecWindowMatchesTheRowStage(t *testing.T) {
	schema := sql.NewSchema(sql.Field{Name: "k", Type: sql.TypeString}, sql.Field{Name: "ts", Type: sql.TypeTimestamp})
	var rows []sql.Row
	for i := 0; i < 90; i++ {
		var ts sql.Value = int64(i*737-20000) * 1000
		if i%9 == 4 {
			ts = nil
		}
		rows = append(rows, sql.Row{fmt.Sprint("k", i%5), ts})
	}
	drifted := append([]sql.Row(nil), rows...)
	drifted[7] = sql.Row{"drift", 12.5}
	drifted[8] = sql.Row{"drift", "noon"}
	sec := time.Second
	for _, w := range []*sql.WindowExpr{
		sql.NewWindow(sql.Col("ts"), 10*sec, 0),
		sql.NewWindow(sql.Col("ts"), 20*sec, 5*sec),
		sql.NewWindow(sql.Col("ts"), 10*sec, 3*sec),
	} {
		out := schema.Concat(sql.NewSchema(sql.Field{Name: "window", Type: sql.TypeWindow}))
		prog, err := vec.Compile(w.Time, schema)
		if err != nil {
			t.Fatal(err)
		}
		op := NewVecWindow(prog, w, out)
		for _, in := range [][]sql.Row{rows, drifted} {
			for _, sel := range [][]int32{nil, {1, 2, 3, 7, 8, 40, 41, 89}} {
				live := in
				if sel != nil {
					live = nil
					for _, i := range sel {
						live = append(live, in[i])
					}
				}
				bound, _ := w.Time.Bind(schema)
				want := WindowAssignFunc(bound.Eval, w)(live)
				b := vec.FromRows(schema, in)
				b.Sel = sel
				got := op.Apply(b).AppendRows(nil)
				if len(got) == 0 || !reflect.DeepEqual(rowStrings(got), rowStrings(want)) {
					t.Fatalf("%s over %d rows (sel %v):\n got %v\nwant %v", w, len(in), sel, got, want)
				}
			}
		}
	}
}

func rowStrings(rows []sql.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	return out
}
