package engine

import (
	"testing"

	"structream/internal/incremental"
	"structream/internal/sql"
	"structream/internal/sql/vec"
)

// TestEventTimeStatsCountNegativeTimes: a negative event time is an event
// time, not "unset". Both of scanEventTime's paths, the columnar scan and
// the boxed evaluator, and the epoch's merge of task stats report min −5,
// max 10 and avg 2 over the event times [−5, 10, −3, 7], whichever task
// reports first; a task with no event time leaves the merge as it was.
func TestEventTimeStatsCountNegativeTimes(t *testing.T) {
	schema := sql.NewSchema(sql.Field{Name: "ts", Type: sql.TypeTimestamp})
	rows := []sql.Row{{int64(-5)}, {int64(10)}, {int64(-3)}, {int64(7)}}
	batch, ok := vec.FromRows(schema, rows)
	if !ok {
		t.Fatal("FromRows failed")
	}
	pipe := &incremental.Pipeline{WatermarkEval: func(r sql.Row) sql.Value { return r[0] }, WatermarkIdx: 0}
	check := func(what string, st evtStats) {
		t.Helper()
		if st.min != -5 || st.max != 10 || st.cnt != 4 || int64(st.sum/float64(st.cnt)) != 2 {
			t.Errorf("%s: min %d, max %d, avg over %d rows %v; want -5, 10, 2 over 4", what, st.min, st.max, st.cnt, st.sum/float64(st.cnt))
		}
	}
	rowStats, vecStats := scanEventTime(pipe, rows, nil), scanEventTime(pipe, nil, batch)
	check("row path", rowStats)
	check("columnar path", vecStats)

	// The epoch merges two tasks' stats, [-5, 10] by rows and [-3, 7] by
	// columns, in either order, with tasks that saw no event time around.
	tail, _ := vec.FromRows(schema, rows[2:])
	first, second := scanEventTime(pipe, rows[:2], nil), scanEventTime(pipe, nil, tail)
	for _, order := range [][]evtStats{{{}, first, {}, second, {}}, {second, {}, first}} {
		var epoch evtStats
		for _, st := range order {
			epoch.merge(st)
		}
		check("merged", epoch)
	}
	if st := scanEventTime(pipe, nil, &vec.Batch{Schema: schema, Cols: batch.Cols, Len: 0}); st.cnt != 0 {
		t.Errorf("an empty batch reports %d event times", st.cnt)
	}
}
