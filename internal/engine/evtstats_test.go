package engine

import (
	"testing"

	"structream/internal/incremental"
	"structream/internal/sql"
	"structream/internal/sql/vec"
)

// TestEventTimeStatsCountNegativeTimes: a negative event time is an event
// time, not "unset". The scan over a typed watermark column and over a
// boxed one (a source whose times drift), and the epoch's merge of task
// stats, report min −5, max 10 and avg 2 over the event times
// [−5, 10, −3, 7], whichever task reports first; a task with no event time
// leaves the merge as it was.
func TestEventTimeStatsCountNegativeTimes(t *testing.T) {
	schema := sql.NewSchema(sql.Field{Name: "ts", Type: sql.TypeTimestamp})
	rows := []sql.Row{{int64(-5)}, {int64(10)}, {int64(-3)}, {int64(7)}}
	batch := vec.FromRows(schema, rows)
	// The same times with a cell that is no int64, which counts nowhere.
	boxed := vec.FromRows(schema, append(rows[:2:2], sql.Row{"noon"}, rows[2], rows[3]))
	if boxed.Cols[0].Kind != vec.KindAny {
		t.Fatal("the drifted column is not boxed")
	}
	pipe := &incremental.Pipeline{WatermarkIdx: 0}
	check := func(what string, st evtStats) {
		t.Helper()
		if st.min != -5 || st.max != 10 || st.cnt != 4 || int64(st.sum/float64(st.cnt)) != 2 {
			t.Errorf("%s: min %d, max %d, avg over %d rows %v; want -5, 10, 2 over 4", what, st.min, st.max, st.cnt, st.sum/float64(st.cnt))
		}
	}
	check("typed column", eventTimeStats(pipe, batch))
	check("boxed column", eventTimeStats(pipe, boxed))

	// The epoch merges two tasks' stats, [-5, 10] boxed and [-3, 7] typed,
	// in either order, with tasks that saw no event time around.
	head := vec.FromRows(schema, []sql.Row{{int64(-5)}, {"noon"}, {int64(10)}})
	first, second := eventTimeStats(pipe, head), eventTimeStats(pipe, vec.FromRows(schema, rows[2:]))
	for _, order := range [][]evtStats{{{}, first, {}, second, {}}, {second, {}, first}} {
		var epoch evtStats
		for _, st := range order {
			epoch.merge(st)
		}
		check("merged", epoch)
	}
	if st := eventTimeStats(pipe, &vec.Batch{Schema: schema, Cols: batch.Cols, Len: 0}); st.cnt != 0 {
		t.Errorf("an empty batch reports %d event times", st.cnt)
	}
}
