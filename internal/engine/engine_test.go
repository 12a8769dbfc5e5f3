package engine

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"structream/internal/incremental"
	"structream/internal/msgbus"
	"structream/internal/sinks"
	"structream/internal/sources"
	"structream/internal/sql"
	"structream/internal/sql/analysis"
	"structream/internal/sql/codec"
	"structream/internal/sql/logical"
	"structream/internal/sql/optimizer"
	"structream/internal/sql/physical"
)

// eventsSchema is the standard test stream: keyed, valued, timestamped.
var eventsSchema = sql.NewSchema(
	sql.Field{Name: "k", Type: sql.TypeString},
	sql.Field{Name: "v", Type: sql.TypeFloat64},
	sql.Field{Name: "ts", Type: sql.TypeTimestamp},
)

const sec = int64(1_000_000)

// compile analyzes, optimizes and incrementalizes a logical plan.
func compile(t testing.TB, plan logical.Plan, mode logical.OutputMode, resolver physical.ScanResolver) *incremental.Query {
	t.Helper()
	analyzed, err := analysis.Analyze(plan)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	if err := analysis.CheckStreaming(analyzed, mode); err != nil {
		t.Fatalf("check streaming: %v", err)
	}
	optimized := optimizer.Optimize(analyzed)
	q, err := incremental.Compile(optimized, mode, resolver)
	if err != nil {
		t.Fatalf("incrementalize: %v", err)
	}
	return q
}

func streamScan(name string) *logical.Scan {
	return &logical.Scan{Name: name, Streaming: true, Out: eventsSchema}
}

// stateBudgets are the memtable budgets the stateful suites run at, under the
// names of the two state backends they replaced: "memory", the default, under
// which a suite's state never leaves the memtable, and "lsm", small enough
// that it flushes and compacts.
var stateBudgets = []struct {
	name  string
	bytes int64
}{{"memory", 0}, {"lsm", spillBudget}}

// spillBudget is a memtable budget the suites' state outgrows.
const spillBudget = 2 << 10

func startQuery(t *testing.T, q *incremental.Query, srcs map[string]sources.Source, sink sinks.Sink, opts Options) *StreamingQuery {
	t.Helper()
	if opts.Checkpoint == "" {
		opts.Checkpoint = t.TempDir()
	}
	if opts.Trigger == nil {
		opts.Trigger = ProcessingTimeTrigger{Interval: time.Hour} // driven manually
	}
	sq, err := Start(q, srcs, sink, opts)
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	t.Cleanup(func() { sq.Stop() })
	return sq
}

func sortedStrings(rows []sql.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

func expectRows(t *testing.T, rows []sql.Row, want ...string) {
	t.Helper()
	got := sortedStrings(rows)
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

// ---------------------------------------------------------------- map-only

func TestMapOnlyQuery(t *testing.T) {
	src := sources.NewMemorySource("events", eventsSchema)
	plan := &logical.Project{
		Child: &logical.Filter{Child: streamScan("events"),
			Cond: sql.Gt(sql.Col("v"), sql.Lit(10.0))},
		Exprs: []sql.Expr{sql.Col("k"), sql.As(sql.Mul(sql.Col("v"), sql.Lit(2.0)), "v2")},
	}
	q := compile(t, plan, logical.Append, nil)
	sink := sinks.NewMemorySink()
	sq := startQuery(t, q, map[string]sources.Source{"events": src}, sink, Options{})

	src.AddData(sql.Row{"a", 5.0, 0}, sql.Row{"b", 20.0, 0})
	if err := sq.ProcessAllAvailable(); err != nil {
		t.Fatal(err)
	}
	src.AddData(sql.Row{"c", 30.0, 0})
	if err := sq.ProcessAllAvailable(); err != nil {
		t.Fatal(err)
	}
	expectRows(t, sink.Rows(), "[b, 40.0]", "[c, 60.0]")
	if p, ok := sq.LastProgress(); !ok || p.NumInputRows != 1 {
		t.Errorf("progress = %+v ok=%v", p, ok)
	}
}

// ---------------------------------------------------------------- agg

func countByKey(child logical.Plan) *logical.Aggregate {
	return &logical.Aggregate{Child: child, Keys: []sql.Expr{sql.Col("k")},
		Aggs: []logical.NamedAgg{
			{Agg: sql.CountAll(), Name: "cnt"},
			{Agg: sql.SumOf(sql.Col("v")), Name: "total"},
		}}
}

func TestAggregationCompleteMode(t *testing.T) {
	src := sources.NewMemorySource("events", eventsSchema)
	q := compile(t, countByKey(streamScan("events")), logical.Complete, nil)
	sink := sinks.NewMemorySink()
	sq := startQuery(t, q, map[string]sources.Source{"events": src}, sink, Options{})

	src.AddData(sql.Row{"a", 1.0, 0}, sql.Row{"b", 2.0, 0})
	if err := sq.ProcessAllAvailable(); err != nil {
		t.Fatal(err)
	}
	expectRows(t, sink.Rows(), "[a, 1, 1.0]", "[b, 1, 2.0]")

	// Second epoch: complete mode re-emits the whole (merged) table.
	src.AddData(sql.Row{"a", 3.0, 0})
	if err := sq.ProcessAllAvailable(); err != nil {
		t.Fatal(err)
	}
	expectRows(t, sink.Rows(), "[a, 2, 4.0]", "[b, 1, 2.0]")
}

func TestAggregationUpdateMode(t *testing.T) {
	src := sources.NewMemorySource("events", eventsSchema)
	q := compile(t, countByKey(streamScan("events")), logical.Update, nil)
	if q.KeyArity != 1 {
		t.Fatalf("KeyArity = %d", q.KeyArity)
	}
	sink := sinks.NewMemorySink()
	sq := startQuery(t, q, map[string]sources.Source{"events": src}, sink, Options{})

	src.AddData(sql.Row{"a", 1.0, 0}, sql.Row{"b", 2.0, 0})
	sq.ProcessAllAvailable()
	src.AddData(sql.Row{"a", 3.0, 0}) // only "a" changes
	sq.ProcessAllAvailable()
	// The upserted view has both keys, with a's latest value.
	expectRows(t, sink.Rows(), "[a, 2, 4.0]", "[b, 1, 2.0]")
}

func TestWindowedAggregationAppendModeWithWatermark(t *testing.T) {
	src := sources.NewMemorySource("events", eventsSchema)
	plan := &logical.Aggregate{
		Child: &logical.WithWatermark{Child: streamScan("events"), Column: "ts", Delay: 5 * sec},
		Keys:  []sql.Expr{sql.NewWindow(sql.Col("ts"), 10*time.Second, 0)},
		Aggs:  []logical.NamedAgg{{Agg: sql.CountAll(), Name: "cnt"}},
	}
	q := compile(t, plan, logical.Append, nil)
	sink := sinks.NewMemorySink()
	sq := startQuery(t, q, map[string]sources.Source{"events": src}, sink, Options{})

	// Events in window [0,10s); nothing can be emitted yet.
	src.AddData(sql.Row{"a", 1.0, 1 * sec}, sql.Row{"b", 1.0, 9 * sec})
	sq.ProcessAllAvailable()
	if len(sink.Rows()) != 0 {
		t.Fatalf("premature append output: %v", sortedStrings(sink.Rows()))
	}
	// Event at t=16s: watermark becomes 16-5=11s > window end 10s → the
	// first window finalizes on the following epoch.
	src.AddData(sql.Row{"c", 1.0, 16 * sec})
	sq.ProcessAllAvailable()
	rows := sink.Rows()
	if len(rows) != 1 {
		p, _ := sq.LastProgress()
		t.Fatalf("rows = %v (watermark=%d)", sortedStrings(rows), p.WatermarkMicros)
	}
	w := rows[0][0].(sql.Window)
	if w.Start != 0 || w.End != 10*sec || rows[0][1] != int64(2) {
		t.Errorf("row = %v", rows[0])
	}
	// Late data for the finalized window is dropped, not re-emitted.
	src.AddData(sql.Row{"late", 1.0, 2 * sec})
	sq.ProcessAllAvailable()
	if len(sink.Rows()) != 1 {
		t.Errorf("late data leaked: %v", sortedStrings(sink.Rows()))
	}
	// State for the finalized window was evicted.
	if p, _ := sq.LastProgress(); p.StateRows != 1 {
		t.Errorf("state rows = %d, want 1 (only the [10,20) window)", p.StateRows)
	}
}

func TestSlidingWindowCounts(t *testing.T) {
	src := sources.NewMemorySource("events", eventsSchema)
	plan := &logical.Aggregate{
		Child: streamScan("events"),
		Keys:  []sql.Expr{sql.NewWindow(sql.Col("ts"), 20*time.Second, 10*time.Second)},
		Aggs:  []logical.NamedAgg{{Agg: sql.CountAll(), Name: "cnt"}},
	}
	q := compile(t, plan, logical.Complete, nil)
	sink := sinks.NewMemorySink()
	sq := startQuery(t, q, map[string]sources.Source{"events": src}, sink, Options{})
	src.AddData(sql.Row{"a", 1.0, 15 * sec}) // windows [0,20) and [10,30)
	sq.ProcessAllAvailable()
	if len(sink.Rows()) != 2 {
		t.Fatalf("rows = %v", sortedStrings(sink.Rows()))
	}
}

// ---------------------------------------------------------------- joins

func TestStreamStaticJoin(t *testing.T) {
	src := sources.NewMemorySource("events", eventsSchema)
	campaigns := []sql.Row{{"a", int64(100)}, {"b", int64(200)}}
	campaignSchema := sql.NewSchema(
		sql.Field{Name: "key", Type: sql.TypeString},
		sql.Field{Name: "campaign", Type: sql.TypeInt64},
	)
	staticScan := &logical.Scan{Name: "campaigns", Out: campaignSchema, Handle: campaigns}
	resolver := func(s *logical.Scan) (physical.RowSource, error) {
		return physical.NewSliceSource(s.Out, s.Handle.([]sql.Row)), nil
	}
	plan := &logical.Project{
		Child: &logical.Join{
			Left:  streamScan("events"),
			Right: staticScan,
			Type:  logical.InnerJoin,
			Cond:  sql.Eq(sql.Col("k"), sql.Col("key")),
		},
		Exprs: []sql.Expr{sql.Col("k"), sql.Col("campaign")},
	}
	q := compile(t, plan, logical.Append, resolver)
	sink := sinks.NewMemorySink()
	sq := startQuery(t, q, map[string]sources.Source{"events": src}, sink, Options{})
	src.AddData(sql.Row{"a", 1.0, 0}, sql.Row{"x", 1.0, 0}, sql.Row{"b", 1.0, 0})
	sq.ProcessAllAvailable()
	expectRows(t, sink.Rows(), "[a, 100]", "[b, 200]")
}

func TestStreamStreamInnerJoin(t *testing.T) {
	left := sources.NewMemorySource("left", eventsSchema)
	right := sources.NewMemorySource("right", eventsSchema)
	lScan := &logical.SubqueryAlias{Child: &logical.Scan{Name: "left", Streaming: true, Out: eventsSchema}, Alias: "l"}
	rScan := &logical.SubqueryAlias{Child: &logical.Scan{Name: "right", Streaming: true, Out: eventsSchema}, Alias: "r"}
	plan := &logical.Project{
		Child: &logical.Join{Left: lScan, Right: rScan, Type: logical.InnerJoin,
			Cond: sql.Eq(sql.Col("l.k"), sql.Col("r.k"))},
		Exprs: []sql.Expr{sql.Col("l.k"), sql.Col("l.v"), sql.Col("r.v")},
	}
	q := compile(t, plan, logical.Append, nil)
	sink := sinks.NewMemorySink()
	sq := startQuery(t, q, map[string]sources.Source{"left": left, "right": right}, sink, Options{})

	// Left arrives first; the match comes from a later epoch's right row —
	// cross-epoch joins are the whole point of the state store.
	left.AddData(sql.Row{"a", 1.0, 0})
	sq.ProcessAllAvailable()
	if len(sink.Rows()) != 0 {
		t.Fatal("no match should exist yet")
	}
	right.AddData(sql.Row{"a", 9.0, 0})
	sq.ProcessAllAvailable()
	expectRows(t, sink.Rows(), "[a, 1.0, 9.0]")
	// Same-epoch matches also work, exactly once.
	left.AddData(sql.Row{"b", 2.0, 0})
	right.AddData(sql.Row{"b", 8.0, 0})
	sq.ProcessAllAvailable()
	expectRows(t, sink.Rows(), "[a, 1.0, 9.0]", "[b, 2.0, 8.0]")
}

func TestStreamStreamLeftOuterJoinWithWatermark(t *testing.T) {
	left := sources.NewMemorySource("left", eventsSchema)
	right := sources.NewMemorySource("right", eventsSchema)
	lScan := &logical.SubqueryAlias{
		Child: &logical.WithWatermark{
			Child:  &logical.Scan{Name: "left", Streaming: true, Out: eventsSchema},
			Column: "ts", Delay: 5 * sec,
		}, Alias: "l"}
	rScan := &logical.SubqueryAlias{Child: &logical.Scan{Name: "right", Streaming: true, Out: eventsSchema}, Alias: "r"}
	plan := &logical.Project{
		Child: &logical.Join{Left: lScan, Right: rScan, Type: logical.LeftOuterJoin,
			Cond: sql.And(sql.Eq(sql.Col("l.k"), sql.Col("r.k")), sql.Ge(sql.Col("l.ts"), sql.Lit(int64(0))))},
		Exprs: []sql.Expr{sql.Col("l.k"), sql.Col("r.v")},
	}
	q := compile(t, plan, logical.Append, nil)
	sink := sinks.NewMemorySink()
	sq := startQuery(t, q, map[string]sources.Source{"left": left, "right": right}, sink, Options{})

	left.AddData(sql.Row{"solo", 1.0, 1 * sec})
	sq.ProcessAllAvailable()
	if len(sink.Rows()) != 0 {
		t.Fatal("outer row must wait for the watermark")
	}
	// Advance the left watermark past 1s (needs left event ≥ 6s + both
	// sides' data so the min-watermark moves).
	left.AddData(sql.Row{"later", 2.0, 20 * sec})
	sq.ProcessAllAvailable()
	sq.ProcessAllAvailable() // eviction applies on the epoch after the advance
	found := false
	for _, r := range sink.Rows() {
		if r[0] == "solo" && r[1] == nil {
			found = true
		}
	}
	if !found {
		p, _ := sq.LastProgress()
		t.Errorf("unmatched left row not emitted null-padded: %v (wm=%d)", sortedStrings(sink.Rows()), p.WatermarkMicros)
	}
}

// ---------------------------------------------------------------- dedup

func TestStreamingDistinct(t *testing.T) {
	src := sources.NewMemorySource("events", eventsSchema)
	plan := &logical.Distinct{Child: &logical.Project{
		Child: streamScan("events"), Exprs: []sql.Expr{sql.Col("k")}}}
	q := compile(t, plan, logical.Append, nil)
	sink := sinks.NewMemorySink()
	sq := startQuery(t, q, map[string]sources.Source{"events": src}, sink, Options{})
	src.AddData(sql.Row{"a", 1.0, 0}, sql.Row{"b", 1.0, 0}, sql.Row{"a", 2.0, 0})
	sq.ProcessAllAvailable()
	src.AddData(sql.Row{"a", 3.0, 0}, sql.Row{"c", 1.0, 0}) // a is a duplicate across epochs
	sq.ProcessAllAvailable()
	expectRows(t, sink.Rows(), "[a]", "[b]", "[c]")
}

// ---------------------------------------------------------------- mgws

// sessionPlan builds the paper's Figure 3 sessionization: count events per
// key, timing out sessions via event-time watermark.
func sessionPlan(timeout logical.TimeoutKind) *logical.MapGroups {
	updateFunc := func(key sql.Row, values []sql.Row, gs logical.GroupState) []sql.Row {
		if gs.HasTimedOut() {
			st := gs.Get()
			gs.Remove()
			return []sql.Row{{key[0], st[0], true}}
		}
		var total int64
		if gs.Exists() {
			total = gs.Get()[0].(int64)
		}
		total += int64(len(values))
		gs.Update(sql.Row{total})
		var maxTs int64
		for _, v := range values {
			if ts, ok := v[2].(int64); ok && ts > maxTs {
				maxTs = ts
			}
		}
		gs.SetTimeoutTimestamp(maxTs + 30*sec) // 30s session gap
		return nil
	}
	return &logical.MapGroups{
		Child: &logical.WithWatermark{
			Child:  &logical.Scan{Name: "events", Streaming: true, Out: eventsSchema},
			Column: "ts", Delay: 0,
		},
		Keys:        []sql.Expr{sql.Col("k")},
		KeyNames:    []string{"k"},
		Func:        updateFunc,
		Timeout:     logical.EventTimeTimeout,
		StateSchema: sql.NewSchema(sql.Field{Name: "count", Type: sql.TypeInt64}),
		Out: sql.NewSchema(
			sql.Field{Name: "k", Type: sql.TypeString},
			sql.Field{Name: "events", Type: sql.TypeInt64},
			sql.Field{Name: "closed", Type: sql.TypeBool},
		),
	}
}

func TestMapGroupsWithStateSessionization(t *testing.T) {
	src := sources.NewMemorySource("events", eventsSchema)
	q := compile(t, sessionPlan(logical.EventTimeTimeout), logical.Update, nil)
	sink := sinks.NewMemorySink()
	sq := startQuery(t, q, map[string]sources.Source{"events": src}, sink, Options{})

	src.AddData(sql.Row{"u1", 0.0, 1 * sec}, sql.Row{"u1", 0.0, 2 * sec}, sql.Row{"u2", 0.0, 3 * sec})
	sq.ProcessAllAvailable()
	if len(sink.Rows()) != 0 {
		t.Fatalf("sessions closed too early: %v", sortedStrings(sink.Rows()))
	}
	// u1's session times out at 2s+30s=32s; an event at 40s pushes the
	// watermark past it (delay 0). u2 times out at 33s, also past.
	src.AddData(sql.Row{"u3", 0.0, 40 * sec})
	sq.ProcessAllAvailable()
	sq.ProcessAllAvailable() // timeout fires on the epoch after the watermark advance
	rows := sink.Rows()
	want := map[string]int64{"u1": 2, "u2": 1}
	closed := map[string]int64{}
	for _, r := range rows {
		if r[2] == true {
			closed[r[0].(string)] = r[1].(int64)
		}
	}
	for k, n := range want {
		if closed[k] != n {
			t.Errorf("session %s = %d events, want %d (rows %v)", k, closed[k], n, sortedStrings(rows))
		}
	}
}

// TestProcessingTimeTimeoutRunsOnePassPerCall: a query with processing-time
// timeouts always has an epoch to run, so draining "everything available"
// must stop after one pass instead of running epochs forever.
func TestProcessingTimeTimeoutRunsOnePassPerCall(t *testing.T) {
	src := sources.NewMemorySource("events", eventsSchema)
	plan := sessionPlan(logical.ProcessingTimeTimeout)
	plan.Timeout = logical.ProcessingTimeTimeout
	q := compile(t, plan, logical.Update, nil)
	sq := startQuery(t, q, map[string]sources.Source{"events": src}, sinks.NewMemorySink(), Options{})
	src.AddData(sql.Row{"u1", 0.0, 1 * sec})
	for call := int64(1); call <= 2; call++ {
		done := make(chan error, 1)
		go func() { done <- sq.ProcessAllAvailable() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("ProcessAllAvailable never returned")
		}
		if n := sq.Metrics().Counter("epochs").Value(); n != call {
			t.Fatalf("after call %d: %d epochs, want one per call", call, n)
		}
	}
}

// ---------------------------------------------------------------- recovery

func TestRestartResumesFromCheckpoint(t *testing.T) {
	src := sources.NewMemorySource("events", eventsSchema)
	ckpt := t.TempDir()
	sink := sinks.NewMemorySink()
	srcs := map[string]sources.Source{"events": src}

	q1 := compile(t, countByKey(streamScan("events")), logical.Complete, nil)
	sq1 := startQuery(t, q1, srcs, sink, Options{Checkpoint: ckpt})
	src.AddData(sql.Row{"a", 1.0, 0})
	sq1.ProcessAllAvailable()
	if err := sq1.Stop(); err != nil {
		t.Fatal(err)
	}

	// "Code update": restart a fresh engine instance over the same
	// checkpoint; state and offsets must carry over.
	src.AddData(sql.Row{"a", 2.0, 0})
	q2 := compile(t, countByKey(streamScan("events")), logical.Complete, nil)
	sq2 := startQuery(t, q2, srcs, sink, Options{Checkpoint: ckpt})
	sq2.ProcessAllAvailable()
	expectRows(t, sink.Rows(), "[a, 2, 3.0]")
}

func TestCrashBeforeCommitReplaysEpoch(t *testing.T) {
	src := sources.NewMemorySource("events", eventsSchema)
	ckpt := t.TempDir()
	sink := sinks.NewMemorySink()
	srcs := map[string]sources.Source{"events": src}

	q1 := compile(t, countByKey(streamScan("events")), logical.Complete, nil)
	sq1 := startQuery(t, q1, srcs, sink, Options{Checkpoint: ckpt})
	src.AddData(sql.Row{"a", 1.0, 0})
	sq1.ProcessAllAvailable()
	src.AddData(sql.Row{"b", 5.0, 0})
	sq1.ProcessAllAvailable()
	sq1.Stop()

	// Simulate a crash after the WAL offsets write but before the sink
	// commit: delete the last commit marker.
	commits, err := filepath.Glob(filepath.Join(ckpt, "commits", "*.json"))
	if err != nil || len(commits) != 2 {
		t.Fatalf("commits = %v err=%v", commits, err)
	}
	sort.Strings(commits)
	if err := os.Remove(commits[len(commits)-1]); err != nil {
		t.Fatal(err)
	}

	// Restart: the engine must replay epoch 1 with identical offsets; the
	// idempotent sink ends up with exactly the right totals.
	q2 := compile(t, countByKey(streamScan("events")), logical.Complete, nil)
	sq2 := startQuery(t, q2, srcs, sink, Options{Checkpoint: ckpt})
	sq2.ProcessAllAvailable()
	expectRows(t, sink.Rows(), "[a, 1, 1.0]", "[b, 1, 5.0]")
}

func TestManualRollbackAndRecompute(t *testing.T) {
	src := sources.NewMemorySource("events", eventsSchema)
	ckpt := t.TempDir()
	sink := sinks.NewMemorySink()
	srcs := map[string]sources.Source{"events": src}

	q1 := compile(t, countByKey(streamScan("events")), logical.Complete, nil)
	sq1 := startQuery(t, q1, srcs, sink, Options{Checkpoint: ckpt})
	src.AddData(sql.Row{"a", 1.0, 0})
	sq1.ProcessAllAvailable() // epoch 0
	src.AddData(sql.Row{"bad", 99.0, 0})
	sq1.ProcessAllAvailable() // epoch 1: the "wrong results" epoch
	sq1.Stop()

	// Administrator: roll the WAL back to epoch 0 and restart (§7.2). The
	// engine recomputes epoch 1+ from the retained prefix — including the
	// "bad" record, proving the prefix is re-read deterministically.
	if err := Rollback(ckpt, 0); err != nil {
		t.Fatal(err)
	}
	q2 := compile(t, countByKey(streamScan("events")), logical.Complete, nil)
	sq2 := startQuery(t, q2, srcs, sink, Options{Checkpoint: ckpt})
	sq2.ProcessAllAvailable()
	expectRows(t, sink.Rows(), "[a, 1, 1.0]", "[bad, 1, 99.0]")
	// The recomputed epoch must be epoch 1 again.
	if p, ok := sq2.LastProgress(); !ok || p.Epoch != 1 {
		t.Errorf("recomputed epoch = %+v", p)
	}
}

// ---------------------------------------------------------------- triggers

func TestOnceTrigger(t *testing.T) {
	src := sources.NewMemorySource("events", eventsSchema)
	src.AddData(sql.Row{"a", 1.0, 0}, sql.Row{"b", 2.0, 0})
	q := compile(t, countByKey(streamScan("events")), logical.Complete, nil)
	sink := sinks.NewMemorySink()
	sq, err := Start(q, map[string]sources.Source{"events": src}, sink, Options{
		Checkpoint: t.TempDir(), Trigger: OnceTrigger{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := sq.AwaitTermination(); err != nil {
		t.Fatal(err)
	}
	expectRows(t, sink.Rows(), "[a, 1, 1.0]", "[b, 1, 2.0]")
}

func TestRunOnceDiscontinuousProcessing(t *testing.T) {
	// The §7.3 pattern: run a single epoch every "night", restarting from
	// the checkpoint each time; totals accumulate transactionally.
	src := sources.NewMemorySource("events", eventsSchema)
	ckpt := t.TempDir()
	sink := sinks.NewMemorySink()
	for night := 0; night < 3; night++ {
		src.AddData(sql.Row{"a", 1.0, 0})
		q := compile(t, countByKey(streamScan("events")), logical.Complete, nil)
		sq, err := Start(q, map[string]sources.Source{"events": src}, sink, Options{
			Checkpoint: ckpt, Trigger: OnceTrigger{}})
		if err != nil {
			t.Fatal(err)
		}
		if err := sq.AwaitTermination(); err != nil {
			t.Fatal(err)
		}
	}
	expectRows(t, sink.Rows(), "[a, 3, 3.0]")
}

func TestProcessingTimeTriggerRunsAutomatically(t *testing.T) {
	src := sources.NewMemorySource("events", eventsSchema)
	q := compile(t, countByKey(streamScan("events")), logical.Complete, nil)
	sink := sinks.NewMemorySink()
	_ = startQuery(t, q, map[string]sources.Source{"events": src}, sink, Options{
		Trigger: ProcessingTimeTrigger{Interval: time.Millisecond}})
	src.AddData(sql.Row{"a", 1.0, 0})
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if len(sink.Rows()) > 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("trigger loop never processed the data")
}

// ---------------------------------------------------------------- batching

func TestMaxRecordsPerTriggerBoundsEpochs(t *testing.T) {
	src := sources.NewMemorySource("events", eventsSchema)
	for i := 0; i < 100; i++ {
		src.AddData(sql.Row{"a", 1.0, 0})
	}
	q := compile(t, countByKey(streamScan("events")), logical.Complete, nil)
	sink := sinks.NewMemorySink()
	sq := startQuery(t, q, map[string]sources.Source{"events": src}, sink, Options{
		MaxRecordsPerTrigger: 10})
	sq.ProcessAllAvailable()
	expectRows(t, sink.Rows(), "[a, 100, 100.0]")
	if p, _ := sq.LastProgress(); p.Epoch != 9 || p.AdmissionCapRecords != 10 {
		t.Errorf("expected 10 rate-limited epochs under a cap of 10, last = %+v", p)
	}
}

func TestAdaptiveBatchingCatchesUpInOneEpoch(t *testing.T) {
	// Unbounded triggers absorb a backlog in a single large epoch — the
	// adaptive batching behaviour of §7.3.
	src := sources.NewMemorySource("events", eventsSchema)
	for i := 0; i < 1000; i++ {
		src.AddData(sql.Row{"a", 1.0, 0})
	}
	q := compile(t, countByKey(streamScan("events")), logical.Complete, nil)
	sink := sinks.NewMemorySink()
	sq := startQuery(t, q, map[string]sources.Source{"events": src}, sink, Options{})
	sq.ProcessAllAvailable()
	if p, _ := sq.LastProgress(); p.Epoch != 0 || p.NumInputRows != 1000 {
		t.Errorf("progress = %+v, want one epoch of 1000 rows", p)
	}
}

// ---------------------------------------------------------------- continuous

func TestContinuousModeEndToEnd(t *testing.T) {
	broker := msgbus.NewBroker()
	in, _ := broker.CreateTopic("in", 2)
	src := sources.NewCodecBusSource("in", in, eventsSchema)
	plan := &logical.Project{
		Child: &logical.Filter{Child: streamScan("in"), Cond: sql.Gt(sql.Col("v"), sql.Lit(0.0))},
		Exprs: []sql.Expr{sql.Col("k"), sql.Col("v")},
	}
	q := compile(t, plan, logical.Append, nil)
	sink := sinks.NewMemorySink()
	sq, err := Start(q, map[string]sources.Source{"in": src}, sink, Options{
		Checkpoint: t.TempDir(),
		Trigger:    ContinuousTrigger{EpochInterval: 10 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sq.Stop()
	for i := 0; i < 10; i++ {
		part := i % 2
		in.Append(part, msgbus.Record{Value: codec.EncodeRow(sql.Row{fmt.Sprintf("k%d", i), float64(i%3 - 1), int64(0)})})
	}
	// v values cycle -1, 0, 1: only v=1 rows pass (i%3==2 → 3 rows).
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if len(sink.Rows()) >= 3 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := len(sink.Rows()); got != 3 {
		t.Fatalf("rows = %d (%v)", got, sortedStrings(sink.Rows()))
	}
	if err := sq.Stop(); err != nil {
		t.Fatal(err)
	}
	// Epochs were committed to the WAL by the coordinator.
	if sq.Metrics().Counter("epochs").Value() == 0 {
		t.Error("no epochs committed in continuous mode")
	}
}

func TestContinuousRejectsStatefulQueries(t *testing.T) {
	src := sources.NewMemorySource("events", eventsSchema)
	q := compile(t, countByKey(streamScan("events")), logical.Complete, nil)
	_, err := Start(q, map[string]sources.Source{"events": src}, sinks.NewMemorySink(), Options{
		Checkpoint: t.TempDir(), Trigger: ContinuousTrigger{}})
	if err == nil {
		t.Fatal("stateful query must be rejected in continuous mode")
	}
}
