package engine

import (
	"testing"
	"time"

	"structream/internal/msgbus"
	"structream/internal/sinks"
	"structream/internal/sources"
	"structream/internal/sql"
	"structream/internal/sql/codec"
	"structream/internal/sql/logical"
)

// TestCompleteModeSortAndLimit: ORDER BY + LIMIT over a streaming
// aggregation is allowed in complete mode (§5.1/§5.2) and is applied to the
// full result table on every trigger.
func TestCompleteModeSortAndLimit(t *testing.T) {
	src := sources.NewMemorySource("events", eventsSchema)
	plan := &logical.Limit{
		Child: &logical.Sort{
			Child:  countByKey(streamScan("events")),
			Orders: []logical.SortOrder{{Expr: sql.Col("cnt"), Desc: true}},
		},
		N: 2,
	}
	q := compile(t, plan, logical.Complete, nil)
	sink := sinks.NewMemorySink()
	sq := startQuery(t, q, map[string]sources.Source{"events": src}, sink, Options{})

	src.AddData(
		sql.Row{"a", 1.0, 0}, sql.Row{"a", 1.0, 0}, sql.Row{"a", 1.0, 0},
		sql.Row{"b", 1.0, 0}, sql.Row{"b", 1.0, 0},
		sql.Row{"c", 1.0, 0},
	)
	if err := sq.ProcessAllAvailable(); err != nil {
		t.Fatal(err)
	}
	rows := sink.Rows()
	if len(rows) != 2 || rows[0][0] != "a" || rows[1][0] != "b" {
		t.Fatalf("top-2 = %v", sortedStrings(rows))
	}
	// c overtakes: the next trigger re-sorts the whole table.
	for i := 0; i < 5; i++ {
		src.AddData(sql.Row{"c", 1.0, 0})
	}
	if err := sq.ProcessAllAvailable(); err != nil {
		t.Fatal(err)
	}
	rows = sink.Rows()
	if rows[0][0] != "c" {
		t.Errorf("after update top = %v", sortedStrings(rows))
	}
}

// TestMultiSourceWatermarkIsMinimum: with two watermarked sources the
// global watermark is the minimum of the per-source watermarks (§4.3.1:
// "different input streams can have different watermarks"; Spark's default
// policy takes the min so no source's late data is dropped prematurely).
func TestMultiSourceWatermarkIsMinimum(t *testing.T) {
	fast := sources.NewMemorySource("fast", eventsSchema)
	slow := sources.NewMemorySource("slow", eventsSchema)
	fScan := &logical.SubqueryAlias{Child: &logical.WithWatermark{
		Child: &logical.Scan{Name: "fast", Streaming: true, Out: eventsSchema}, Column: "ts", Delay: 0}, Alias: "f"}
	sScan := &logical.SubqueryAlias{Child: &logical.WithWatermark{
		Child: &logical.Scan{Name: "slow", Streaming: true, Out: eventsSchema}, Column: "ts", Delay: 0}, Alias: "s"}
	plan := &logical.Project{
		Child: &logical.Join{Left: fScan, Right: sScan, Type: logical.InnerJoin,
			Cond: sql.Eq(sql.Col("f.k"), sql.Col("s.k"))},
		Exprs: []sql.Expr{sql.Col("f.k")},
	}
	q := compile(t, plan, logical.Append, nil)
	sink := sinks.NewMemorySink()
	sq := startQuery(t, q, map[string]sources.Source{"fast": fast, "slow": slow}, sink, Options{})

	fast.AddData(sql.Row{"a", 1.0, 100 * sec})
	slow.AddData(sql.Row{"a", 1.0, 10 * sec})
	if err := sq.ProcessAllAvailable(); err != nil {
		t.Fatal(err)
	}
	if p, _ := sq.LastProgress(); p.WatermarkMicros != 10*sec {
		t.Errorf("watermark = %d, want min(100s, 10s) = 10s", p.WatermarkMicros)
	}
	// The slow source catches up: the watermark follows the new minimum.
	slow.AddData(sql.Row{"b", 1.0, 50 * sec})
	if err := sq.ProcessAllAvailable(); err != nil {
		t.Fatal(err)
	}
	if p, _ := sq.LastProgress(); p.WatermarkMicros != 50*sec {
		t.Errorf("watermark = %d, want 50s", p.WatermarkMicros)
	}
}

// TestContinuousModeRecovery: a continuous query resumes from its WAL
// offsets after a restart; records before the last committed epoch are not
// re-delivered (at-least-once applies only to the tail).
func TestContinuousModeRecovery(t *testing.T) {
	broker := msgbus.NewBroker()
	in, _ := broker.CreateTopic("in", 1)
	ckpt := t.TempDir()
	schemaRow := func(i int) msgbus.Record {
		return msgbus.Record{Value: codec.EncodeRow(sql.Row{"k", float64(i), int64(0)})}
	}
	plan := &logical.Project{Child: streamScan("in"),
		Exprs: []sql.Expr{sql.Col("k"), sql.Col("v")}}

	startCont := func(sink sinks.Sink) *StreamingQuery {
		q := compile(t, plan, logical.Append, nil)
		src := sources.NewCodecBusSource("in", in, eventsSchema)
		sq, err := Start(q, map[string]sources.Source{"in": src}, sink, Options{
			Checkpoint: ckpt,
			Trigger:    ContinuousTrigger{EpochInterval: 5 * time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		return sq
	}

	sink1 := sinks.NewMemorySink()
	sq1 := startCont(sink1)
	for i := 0; i < 5; i++ {
		in.Append(0, schemaRow(i))
	}
	waitFor(t, func() bool { return len(sink1.Rows()) == 5 })
	// Let the coordinator commit an epoch covering all 5 records.
	waitFor(t, func() bool { return sq1.Metrics().Counter("epochs").Value() >= 1 })
	if err := sq1.Stop(); err != nil {
		t.Fatal(err)
	}

	// Restart with a fresh sink: only NEW records appear.
	sink2 := sinks.NewMemorySink()
	sq2 := startCont(sink2)
	defer sq2.Stop()
	for i := 5; i < 8; i++ {
		in.Append(0, schemaRow(i))
	}
	waitFor(t, func() bool { return len(sink2.Rows()) >= 3 })
	rows := sink2.Rows()
	if len(rows) != 3 {
		t.Fatalf("restart re-delivered committed records: %v", sortedStrings(rows))
	}
	for _, r := range rows {
		if r[1].(float64) < 5 {
			t.Errorf("old record re-delivered: %v", r)
		}
	}
}

// waitFor polls cond until it holds, for up to 20 s: long enough for a few
// restarts and a watchdog timeout under the race detector.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

// TestUpdateModeOnlyEmitsChangedKeys verifies the per-epoch delta
// semantics directly via RowsForEpoch.
func TestUpdateModeOnlyEmitsChangedKeys(t *testing.T) {
	src := sources.NewMemorySource("events", eventsSchema)
	q := compile(t, countByKey(streamScan("events")), logical.Update, nil)
	sink := sinks.NewMemorySink()
	sq := startQuery(t, q, map[string]sources.Source{"events": src}, sink, Options{})

	src.AddData(sql.Row{"a", 1.0, 0}, sql.Row{"b", 1.0, 0})
	sq.ProcessAllAvailable()
	src.AddData(sql.Row{"b", 1.0, 0})
	sq.ProcessAllAvailable()

	// Note: update-mode memory sinks track the latest value per key; the
	// per-epoch emission is visible in the progress events.
	progress := sq.EventLog().Recent(0)
	if len(progress) != 2 {
		t.Fatalf("progress = %v", progress)
	}
	if progress[0].NumOutputRows != 2 || progress[1].NumOutputRows != 1 {
		t.Errorf("output rows per epoch = %d, %d; want 2, 1",
			progress[0].NumOutputRows, progress[1].NumOutputRows)
	}
}
