package incremental

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"structream/internal/sql"
	"structream/internal/sql/analysis"
	"structream/internal/sql/codec"
	"structream/internal/sql/logical"
	"structream/internal/sql/optimizer"

	"structream/internal/sql/physical"
	"structream/internal/state"
)

var testSchema = sql.NewSchema(
	sql.Field{Name: "k", Type: sql.TypeString},
	sql.Field{Name: "v", Type: sql.TypeFloat64},
	sql.Field{Name: "ts", Type: sql.TypeTimestamp},
)

const sec = int64(1_000_000)

func scan(name string) *logical.Scan {
	return &logical.Scan{Name: name, Streaming: true, Out: testSchema}
}

func mustCompile(t *testing.T, plan logical.Plan, mode logical.OutputMode) *Query {
	t.Helper()
	analyzed, err := analysis.Analyze(plan)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Compile(optimizer.Optimize(analyzed), mode, nil)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func openStore(t *testing.T, name string) *state.Store {
	t.Helper()
	p := state.NewProvider(t.TempDir())
	s, err := p.Open(state.ID{Operator: name, Partition: 0}, -1)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// ---------------------------------------------------------------- pipeline

func TestPipelineFusionAndFlush(t *testing.T) {
	plan := &logical.Aggregate{
		Child: &logical.Filter{Child: scan("s"), Cond: sql.Gt(sql.Col("v"), sql.Lit(0.0))},
		Keys:  []sql.Expr{sql.Col("k")},
		Aggs:  []logical.NamedAgg{{Agg: sql.CountAll(), Name: "cnt"}},
	}
	q := mustCompile(t, plan, logical.Update)
	if len(q.Pipelines) != 1 || q.Stateful == nil {
		t.Fatalf("query = %+v", q)
	}
	// Process produces partial-agg shuffle rows: [key, encodedBuffer].
	rows := q.Pipelines[0].Process([]sql.Row{
		{"a", 1.0, int64(0)},
		{"a", -5.0, int64(0)}, // filtered
		{"b", 2.0, int64(0)},
		{"a", 3.0, int64(0)},
	})
	if len(rows) != 2 {
		t.Fatalf("shuffle rows = %v", rows)
	}
	// Tasks are independent: a second Process starts fresh (no carryover).
	rows2 := q.Pipelines[0].Process([]sql.Row{{"a", 1.0, int64(0)}})
	if len(rows2) != 1 {
		t.Fatalf("second task rows = %v", rows2)
	}
}

func TestPipelineConcurrentTasksAreIndependent(t *testing.T) {
	q := mustCompile(t, &logical.Aggregate{
		Child: scan("s"),
		Keys:  []sql.Expr{sql.Col("k")},
		Aggs:  []logical.NamedAgg{{Agg: sql.CountAll(), Name: "cnt"}},
	}, logical.Update)
	done := make(chan int, 2)
	for w := 0; w < 2; w++ {
		go func() {
			var rows []sql.Row
			for i := 0; i < 500; i++ {
				rows = append(rows, sql.Row{fmt.Sprintf("k%d", i%7), 1.0, int64(0)})
			}
			out := q.Pipelines[0].Process(rows)
			done <- len(out)
		}()
	}
	for i := 0; i < 2; i++ {
		if n := <-done; n != 7 {
			t.Errorf("concurrent task produced %d groups, want 7", n)
		}
	}
}

// ---------------------------------------------------------------- agg op

func buildAggOp(t *testing.T, mode logical.OutputMode) (*Query, *StatefulAggregate) {
	t.Helper()
	plan := &logical.Aggregate{
		Child: &logical.WithWatermark{Child: scan("s"), Column: "ts", Delay: 0},
		Keys:  []sql.Expr{sql.NewWindow(sql.Col("ts"), 10*time.Second, 0)},
		Aggs:  []logical.NamedAgg{{Agg: sql.CountAll(), Name: "cnt"}},
	}
	q := mustCompile(t, plan, mode)
	return q, q.Stateful.(*StatefulAggregate)
}

func TestStatefulAggregateAppendEmitsOncePerWindow(t *testing.T) {
	q, op := buildAggOp(t, logical.Append)
	store := openStore(t, "agg")
	shuffle := func(rows ...sql.Row) []sql.Row { return q.Pipelines[0].Process(rows) }

	// Epoch 0: window [0,10) gets data; watermark 0 → nothing emitted.
	out, err := op.Process(&EpochContext{Epoch: 0, Mode: logical.Append},
		store, [][]sql.Row{shuffle(sql.Row{"a", 1.0, 2 * sec}, sql.Row{"b", 1.0, 5 * sec})})
	if err != nil {
		t.Fatal(err)
	}
	store.Commit(0)
	if len(out) != 0 {
		t.Fatalf("premature emit: %v", out)
	}
	// Epoch 1: watermark 15s → window [0,10) finalizes with count 2.
	out, err = op.Process(&EpochContext{Epoch: 1, Watermark: 15 * sec, Mode: logical.Append},
		store, [][]sql.Row{nil})
	if err != nil {
		t.Fatal(err)
	}
	store.Commit(1)
	if len(out) != 1 || out[0][1] != int64(2) {
		t.Fatalf("out = %v", out)
	}
	// Epoch 2: same watermark → nothing re-emitted (state evicted).
	out, _ = op.Process(&EpochContext{Epoch: 2, Watermark: 15 * sec, Mode: logical.Append},
		store, [][]sql.Row{nil})
	store.Commit(2)
	if len(out) != 0 {
		t.Fatalf("window re-emitted: %v", out)
	}
	if store.NumKeys() != 0 {
		t.Errorf("state not evicted: %d keys", store.NumKeys())
	}
}

func TestStatefulAggregateDropsLateData(t *testing.T) {
	q, op := buildAggOp(t, logical.Append)
	store := openStore(t, "agg")
	shuffle := func(rows ...sql.Row) []sql.Row { return q.Pipelines[0].Process(rows) }
	// Watermark already at 30s; a record for window [0,10) is too late.
	out, err := op.Process(&EpochContext{Epoch: 0, Watermark: 30 * sec, Mode: logical.Append},
		store, [][]sql.Row{shuffle(sql.Row{"late", 1.0, 1 * sec})})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 || store.NumKeys() != 0 {
		t.Errorf("late data leaked: out=%v keys=%d", out, store.NumKeys())
	}
}

func TestStatefulAggregateCorruptState(t *testing.T) {
	_, op := buildAggOp(t, logical.Update)
	store := openStore(t, "agg")
	store.Put([]byte("somekey"), []byte{0xff, 0xff})
	_, err := op.Process(&EpochContext{Epoch: 0, Mode: logical.Complete}, store, [][]sql.Row{nil})
	if err == nil {
		t.Error("corrupt state should surface an error")
	}
}

// TestStatefulAggregateCorruptLength: a buffer length of 2⁶³ or more in a
// state value read off disk wraps negative as an int. A signed bound check
// lets it through and the slice expression behind it panics; it is corrupt
// state, and must be reported as that.
func TestStatefulAggregateCorruptLength(t *testing.T) {
	_, op := buildAggOp(t, logical.Update)
	store := openStore(t, "agg")
	key := codec.EncodeValues([]sql.Value{sql.Window{Start: 0, End: 10 * sec}})
	store.Put(key, binary.AppendUvarint(nil, 1<<63+5))
	_, err := op.Process(&EpochContext{Epoch: 0, Mode: logical.Complete}, store, [][]sql.Row{nil})
	if err == nil || !strings.Contains(err.Error(), "corrupt aggregate state for "+op.OpName) {
		t.Fatalf("err = %v, want the corrupt-state error", err)
	}
}

// ---------------------------------------------------------------- dedup

func TestStreamingDedupEviction(t *testing.T) {
	op := &StreamingDedup{OpName: "d", EventIdx: 1, Out: sql.NewSchema(
		sql.Field{Name: "k", Type: sql.TypeString},
		sql.Field{Name: "ts", Type: sql.TypeTimestamp},
	)}
	store := openStore(t, "d")
	out, err := op.Process(&EpochContext{Epoch: 0}, store,
		[][]sql.Row{{{"a", 1 * sec}, {"a", 1 * sec}, {"b", 2 * sec}}})
	if err != nil || len(out) != 2 {
		t.Fatalf("out=%v err=%v", out, err)
	}
	store.Commit(0)
	// Watermark passes both keys: state evicted; the same row content with
	// a newer timestamp counts as a new row (different encoded key).
	out, _ = op.Process(&EpochContext{Epoch: 1, Watermark: 10 * sec}, store,
		[][]sql.Row{{{"a", 20 * sec}}})
	store.Commit(1)
	if len(out) != 1 {
		t.Fatalf("out = %v", out)
	}
	if store.NumKeys() != 1 {
		t.Errorf("keys = %d, want only the fresh one", store.NumKeys())
	}
	// A row older than the watermark is dropped entirely.
	out, _ = op.Process(&EpochContext{Epoch: 2, Watermark: 10 * sec}, store,
		[][]sql.Row{{{"z", 1 * sec}}})
	store.Commit(2)
	if len(out) != 0 {
		t.Errorf("late dedup row emitted: %v", out)
	}
}

// ---------------------------------------------------------------- join op

func TestStreamStreamJoinStateEncoding(t *testing.T) {
	for _, want := range []struct {
		row     sql.Row
		ts      int64
		matched bool
	}{
		{sql.Row{"a", 1.5}, 42, true},
		{sql.Row{nil, int64(-7)}, -1, false},
	} {
		c, _ := joinCellOf(joinRow([]sql.Value{want.row[0]}, want.ts, want.row))
		v := c.entry
		if want.matched {
			v = withMatched(v)
		}
		if !bytes.Equal(v, parentEntry(want.row, want.ts, want.matched)) {
			t.Fatalf("entry %x, the layout says %x", v, parentEntry(want.row, want.ts, want.matched))
		}
		ts, rest, err := entryTs(v)
		row, rowErr := entryRow(v, nil, 0)
		if err != nil || rowErr != nil || ts != want.ts || (rest[0] == 1) != want.matched || !reflect.DeepEqual(row, want.row) {
			t.Fatalf("decoded (%v, %d, matched %v), %v, %v; want %+v", row, ts, rest[0] == 1, err, rowErr, want)
		}
	}
	if _, err := entryRow([]byte{0xff}, nil, 0); err == nil {
		t.Error("corrupt entry should error")
	}
	hdr := joinGroup{lo: 3, hi: 300, live: 7}
	var got joinGroup
	if err := got.decodeHeader(hdr.appendHeader(nil)); err != nil || !reflect.DeepEqual(got, hdr) {
		t.Fatalf("header = %+v err=%v", got, err)
	}
	// Time-index keys order by (side, ts, join key, idx).
	kb := codec.EncodeValues([]sql.Value{"k"})
	a, b := new(joinKeyBuf).key(tagTime, 'L', 255, kb, 9), new(joinKeyBuf).key(tagTime, 'L', 256, kb, 2)
	if bytes.Compare(a, b) >= 0 {
		t.Errorf("time index does not order by ts: %x !< %x", a, b)
	}
	ts, gotKB, idx, err := parseJoinTimeKey(a)
	if err != nil || ts != 255 || !bytes.Equal(gotKB, kb) || idx != 9 {
		t.Errorf("parsed (%d, %x, %d, %v)", ts, gotKB, idx, err)
	}
}

// joinStateRows counts the store's buffered rows: entry keys only, not the
// headers, the time index or the meta key.
func joinStateRows(store *state.Store) int {
	n := 0
	store.Iterate(func(k, _ []byte) bool {
		if k[0] == tagEntry {
			n++
		}
		return true
	})
	return n
}

func TestStreamStreamJoinNullKeysNeverMatch(t *testing.T) {
	op := &StreamStreamJoin{
		OpName: "j", Type: logical.InnerJoin,
		LeftArity: 2, RightArity: 2,
		LeftEventIdx: -1, RightEventIdx: -1,
	}
	store := openStore(t, "j")
	left := []sql.Row{joinRow([]sql.Value{nil}, -1, sql.Row{nil, "L"})}
	right := []sql.Row{joinRow([]sql.Value{nil}, -1, sql.Row{nil, "R"})}
	out, err := op.Process(&EpochContext{Epoch: 0}, store, [][]sql.Row{left, right})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Errorf("NULL keys matched: %v", out)
	}
	if store.NumKeys() != 1 { // the meta key alone
		t.Errorf("NULL-keyed rows buffered: %d keys", store.NumKeys())
	}
}

func TestStreamStreamJoinWatermarkEviction(t *testing.T) {
	op := &StreamStreamJoin{
		OpName: "j", Type: logical.LeftOuterJoin,
		LeftArity: 2, RightArity: 2,
		LeftEventIdx: 1, RightEventIdx: 1,
	}
	store := openStore(t, "j")
	// Left row buffered, no match.
	left := []sql.Row{joinRow([]sql.Value{"k"}, 1*sec, sql.Row{"k", 1 * sec})}
	out, err := op.Process(&EpochContext{Epoch: 0}, store, [][]sql.Row{left, nil})
	if err != nil || len(out) != 0 {
		t.Fatalf("out=%v err=%v", out, err)
	}
	store.Commit(0)
	// Watermark passes: unmatched left row emitted null-padded, evicted.
	out, err = op.Process(&EpochContext{Epoch: 1, Watermark: 5 * sec}, store, [][]sql.Row{nil, nil})
	if err != nil || len(out) != 1 {
		t.Fatalf("out=%v err=%v", out, err)
	}
	if out[0][0] != "k" || out[0][2] != nil {
		t.Errorf("padded row = %v", out[0])
	}
	if joinStateRows(store) != 0 || store.NumKeys() != 1 {
		t.Errorf("state not evicted: %d rows, %d keys", joinStateRows(store), store.NumKeys())
	}
}

// ---------------------------------------------------------------- mgws

func TestFlatMapGroupsStateEncoding(t *testing.T) {
	row, timeout, et, err := decodeGroupState(encodeGroupState(sql.Row{"x", int64(3)}, 99, true))
	if err != nil || row[1] != int64(3) || timeout != 99 || !et {
		t.Fatalf("decoded %v %d %v err=%v", row, timeout, et, err)
	}
	if _, _, _, err := decodeGroupState([]byte{1}); err == nil {
		t.Error("corrupt group state should error")
	}
}

func TestFlatMapGroupsProcessingTimeTimeout(t *testing.T) {
	fired := map[string]bool{}
	op := &FlatMapGroupsWithState{
		OpName: "m", NumKeys: 1, InArity: 2,
		Timeout: logical.ProcessingTimeTimeout,
		Out:     sql.NewSchema(sql.Field{Name: "k", Type: sql.TypeString}),
		Func: func(key sql.Row, values []sql.Row, gs logical.GroupState) []sql.Row {
			if gs.HasTimedOut() {
				fired[key[0].(string)] = true
				gs.Remove()
				return []sql.Row{{key[0]}}
			}
			gs.Update(sql.Row{int64(len(values))})
			gs.SetTimeoutDuration(time.Second)
			return nil
		},
	}
	store := openStore(t, "m")
	in := []sql.Row{{"a", "a", 1.0}} // [key, payload...]
	if _, err := op.Process(&EpochContext{Epoch: 0, ProcTime: 0}, store, [][]sql.Row{in}); err != nil {
		t.Fatal(err)
	}
	store.Commit(0)
	// Processing time advances past the 1s timeout → callback fires.
	out, err := op.Process(&EpochContext{Epoch: 1, ProcTime: 2_000_000}, store, [][]sql.Row{nil})
	if err != nil {
		t.Fatal(err)
	}
	if !fired["a"] || len(out) != 1 {
		t.Errorf("timeout did not fire: fired=%v out=%v", fired, out)
	}
	store.Commit(1)
	// Fired timeouts clear; no double fire.
	out, _ = op.Process(&EpochContext{Epoch: 2, ProcTime: 9_000_000}, store, [][]sql.Row{nil})
	if len(out) != 0 {
		t.Errorf("timeout fired twice: %v", out)
	}
}

// ---------------------------------------------------------------- compile

func TestCompileRejectsTwoStatefulOps(t *testing.T) {
	plan := &logical.Aggregate{
		Child: &logical.Distinct{Child: scan("s")},
		Keys:  []sql.Expr{sql.Col("k")},
		Aggs:  []logical.NamedAgg{{Agg: sql.CountAll(), Name: "c"}},
	}
	analyzed, err := analysis.Analyze(plan)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Compile(analyzed, logical.Update, nil)
	if err == nil || !strings.Contains(err.Error(), "stateful") {
		t.Errorf("err = %v", err)
	}
}

func TestCompileRejectsWatermarkOnDerivedColumn(t *testing.T) {
	plan := &logical.Aggregate{
		Child: &logical.WithWatermark{
			Child: &logical.Project{Child: scan("s"), Exprs: []sql.Expr{
				sql.As(sql.Add(sql.Col("ts"), sql.IntervalLit(1)), "shifted"),
				sql.Col("k"),
			}},
			Column: "shifted", Delay: 0,
		},
		Keys: []sql.Expr{sql.Col("k")},
		Aggs: []logical.NamedAgg{{Agg: sql.CountAll(), Name: "c"}},
	}
	analyzed, err := analysis.Analyze(plan)
	if err != nil {
		t.Fatal(err)
	}
	if _, err = Compile(analyzed, logical.Update, nil); err == nil {
		t.Error("watermark on a derived column should be rejected with a clear error")
	}
}

func TestCompileStreamStaticJoinNeedsResolver(t *testing.T) {
	static := &logical.Scan{Name: "t", Out: sql.NewSchema(sql.Field{Name: "k2", Type: sql.TypeString})}
	plan := &logical.Join{Left: scan("s"), Right: static, Type: logical.InnerJoin,
		Cond: sql.Eq(sql.Col("k"), sql.Col("k2"))}
	analyzed, err := analysis.Analyze(plan)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(analyzed, logical.Append, nil); err == nil {
		t.Error("stream-static join without a resolver should fail")
	}
}

func TestCompileStreamStreamJoinNeedsEquiKey(t *testing.T) {
	other := &logical.SubqueryAlias{Child: scan("s2"), Alias: "r"}
	this := &logical.SubqueryAlias{Child: scan("s"), Alias: "l"}
	plan := &logical.Join{Left: this, Right: other, Type: logical.InnerJoin,
		Cond: sql.Gt(sql.Col("l.v"), sql.Col("r.v"))}
	analyzed, err := analysis.Analyze(plan)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(analyzed, logical.Append, nil); err == nil {
		t.Error("stream-stream join without an equality predicate should fail")
	}
}

func TestCompileMapOnlyQueryHasIdentityPost(t *testing.T) {
	plan := &logical.Project{Child: scan("s"), Exprs: []sql.Expr{sql.Col("k")}}
	q := mustCompile(t, plan, logical.Append)
	if q.Stateful != nil || len(q.Pipelines) != 1 {
		t.Fatalf("query = %+v", q)
	}
	rows, err := q.Post([]sql.Row{{"x"}})
	if err != nil || len(rows) != 1 {
		t.Fatalf("post: %v %v", rows, err)
	}
	if q.OutSchema.Len() != 1 || q.OutSchema.Field(0).Name != "k" {
		t.Errorf("schema = %s", q.OutSchema)
	}
}

func TestPostStageAppliesHavingAndProjection(t *testing.T) {
	plan := &logical.Project{
		Child: &logical.Filter{
			Child: &logical.Aggregate{
				Child: scan("s"),
				Keys:  []sql.Expr{sql.Col("k")},
				Aggs:  []logical.NamedAgg{{Agg: sql.CountAll(), Name: "cnt"}},
			},
			Cond: sql.Gt(sql.Col("cnt"), sql.Lit(1)),
		},
		Exprs: []sql.Expr{sql.As(sql.Col("k"), "key")},
	}
	q := mustCompile(t, plan, logical.Update)
	rows, err := q.Post([]sql.Row{{"a", int64(1)}, {"b", int64(5)}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0] != "b" {
		t.Fatalf("post rows = %v", rows)
	}
}

func TestCompileStreamStaticJoinPipeline(t *testing.T) {
	staticSchema := sql.NewSchema(
		sql.Field{Name: "k2", Type: sql.TypeString},
		sql.Field{Name: "label", Type: sql.TypeString},
	)
	staticRows := []sql.Row{{"a", "A"}, {"b", "B"}}
	static := &logical.Scan{Name: "dim", Out: staticSchema, Handle: staticRows}
	resolver := func(s *logical.Scan) (physical.RowSource, error) {
		return physical.NewSliceSource(s.Out, s.Handle.([]sql.Row)), nil
	}
	plan := &logical.Project{
		Child: &logical.Join{Left: scan("s"), Right: static, Type: logical.LeftOuterJoin,
			Cond: sql.Eq(sql.Col("k"), sql.Col("k2"))},
		Exprs: []sql.Expr{sql.Col("k"), sql.Col("label")},
	}
	analyzed, err := analysis.Analyze(plan)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Compile(optimizer.Optimize(analyzed), logical.Append, resolver)
	if err != nil {
		t.Fatal(err)
	}
	out := q.Pipelines[0].Process([]sql.Row{
		{"a", 1.0, int64(0)},
		{"zzz", 1.0, int64(0)}, // unmatched: null-padded (left outer)
		{nil, 1.0, int64(0)},   // NULL key: preserved, never matches
	})
	if len(out) != 3 {
		t.Fatalf("out = %v", out)
	}
	byKey := map[any]any{}
	for _, r := range out {
		byKey[r[0]] = r[1]
	}
	if byKey["a"] != "A" || byKey["zzz"] != nil || byKey[nil] != nil {
		t.Errorf("out = %v", out)
	}
}

func TestCompileStreamStaticSemiAntiJoin(t *testing.T) {
	staticSchema := sql.NewSchema(sql.Field{Name: "k2", Type: sql.TypeString})
	static := &logical.Scan{Name: "dim", Out: staticSchema, Handle: []sql.Row{{"a"}}}
	resolver := func(s *logical.Scan) (physical.RowSource, error) {
		return physical.NewSliceSource(s.Out, s.Handle.([]sql.Row)), nil
	}
	for _, tc := range []struct {
		typ  logical.JoinType
		want string
	}{
		{logical.LeftSemiJoin, "a"},
		{logical.LeftAntiJoin, "b"},
	} {
		plan := &logical.Join{Left: scan("s"), Right: static, Type: tc.typ,
			Cond: sql.Eq(sql.Col("k"), sql.Col("k2"))}
		analyzed, err := analysis.Analyze(plan)
		if err != nil {
			t.Fatal(err)
		}
		q, err := Compile(optimizer.Optimize(analyzed), logical.Append, resolver)
		if err != nil {
			t.Fatal(err)
		}
		out := q.Pipelines[0].Process([]sql.Row{
			{"a", 1.0, int64(0)}, {"b", 2.0, int64(0)},
		})
		if len(out) != 1 || out[0][0] != tc.want {
			t.Errorf("%s: out = %v, want key %s", tc.typ, out, tc.want)
		}
		// Semi/anti output keeps the stream schema only.
		if q.Stateful != nil || len(out[0]) != 3 {
			t.Errorf("%s: schema/arity wrong: %v", tc.typ, out)
		}
	}
}

func TestCompileDistinctWithKeyColumns(t *testing.T) {
	plan := &logical.Distinct{Child: scan("s"), Cols: []string{"k"}}
	q := mustCompile(t, plan, logical.Append)
	dedup := q.Stateful.(*StreamingDedup)
	if len(dedup.KeyIdxs) != 1 || dedup.KeyIdxs[0] != 0 {
		t.Fatalf("key idxs = %v", dedup.KeyIdxs)
	}
	store := openStore(t, "dd")
	out, err := dedup.Process(&EpochContext{Epoch: 0}, store, [][]sql.Row{{
		{"a", 1.0, int64(0)}, {"a", 99.0, int64(5)}, {"b", 2.0, int64(0)},
	}})
	if err != nil || len(out) != 2 {
		t.Fatalf("out=%v err=%v", out, err)
	}
	// First row per key wins.
	if out[0][1] != 1.0 {
		t.Errorf("representative row = %v", out[0])
	}
	// Routing uses the key column.
	if len(q.Pipelines[0].KeyEvals) != 1 {
		t.Errorf("route arity = %d", len(q.Pipelines[0].KeyEvals))
	}
}

func TestCompileMapGroupsPipelineShape(t *testing.T) {
	mg := &logical.MapGroups{
		Child:    scan("s"),
		Keys:     []sql.Expr{sql.Col("k")},
		KeyNames: []string{"k"},
		Func: func(key sql.Row, values []sql.Row, gs logical.GroupState) []sql.Row {
			return []sql.Row{{key[0], int64(len(values))}}
		},
		Out: sql.NewSchema(
			sql.Field{Name: "k", Type: sql.TypeString},
			sql.Field{Name: "n", Type: sql.TypeInt64},
		),
	}
	q := mustCompile(t, mg, logical.Update)
	if q.KeyArity != 1 {
		t.Errorf("KeyArity = %d (output leads with the key)", q.KeyArity)
	}
	// Shuffle rows are [key, fullRow...].
	rows := q.Pipelines[0].Process([]sql.Row{{"a", 1.0, int64(7)}})
	if len(rows) != 1 || len(rows[0]) != 4 || rows[0][0] != "a" || rows[0][3] != int64(7) {
		t.Fatalf("shuffle row = %v", rows[0])
	}
	op := q.Stateful.(*FlatMapGroupsWithState)
	store := openStore(t, op.Name())
	out, err := op.Process(&EpochContext{Epoch: 0}, store, [][]sql.Row{rows})
	if err != nil || len(out) != 1 || out[0][1] != int64(1) {
		t.Fatalf("out=%v err=%v", out, err)
	}
}

func TestProcessToRoutesWithoutMaterializing(t *testing.T) {
	plan := &logical.Project{Child: scan("s"), Exprs: []sql.Expr{sql.Col("k")}}
	q := mustCompile(t, plan, logical.Append)
	var got []sql.Row
	q.Pipelines[0].ProcessTo([]sql.Row{{"x", 1.0, int64(0)}, {"y", 2.0, int64(0)}},
		func(r sql.Row) { got = append(got, r) })
	if len(got) != 2 || got[1][0] != "y" {
		t.Fatalf("got = %v", got)
	}
}
