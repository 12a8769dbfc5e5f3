package engine

import (
	"fmt"
	"math/rand"

	"testing"

	"structream/internal/sinks"
	"structream/internal/sources"
	"structream/internal/sql"
	"structream/internal/sql/logical"
)

// These tests check the paper's central semantic guarantee, prefix
// consistency (§4.2): "Structured Streaming will always produce results
// consistent with running this query on a prefix of the data in all input
// sources." Concretely: after any sequence of epochs covering a prefix of
// the stream, the complete-mode result table must equal the batch result
// of the same query over exactly that prefix — regardless of how the
// prefix was chopped into epochs, and regardless of restarts in between.

// refAggregate computes the batch reference: count and sum per key.
func refAggregate(rows []sql.Row) map[string][2]float64 {
	out := map[string][2]float64{}
	for _, r := range rows {
		k := r[0].(string)
		cur := out[k]
		cur[0]++
		cur[1] += r[1].(float64)
		out[k] = cur
	}
	return out
}

func sinkAggregate(t *testing.T, rows []sql.Row) map[string][2]float64 {
	t.Helper()
	out := map[string][2]float64{}
	for _, r := range rows {
		k := r[0].(string)
		if _, dup := out[k]; dup {
			t.Fatalf("duplicate key %q in complete-mode output", k)
		}
		out[k] = [2]float64{float64(r[1].(int64)), r[2].(float64)}
	}
	return out
}

func randomRow(rng *rand.Rand) sql.Row {
	return sql.Row{
		fmt.Sprintf("k%d", rng.Intn(8)),
		float64(rng.Intn(100)),
		int64(rng.Intn(1000)) * sec,
	}
}

// TestPrefixConsistencyRandomEpochs drives random workloads through random
// epoch chunkings and compares every intermediate result to the batch
// reference over the prefix.
func TestPrefixConsistencyRandomEpochs(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(trial)))
			src := sources.NewMemorySource("events", eventsSchema)
			q := compile(t, countByKey(streamScan("events")), logical.Complete, nil)
			sink := sinks.NewMemorySink()
			sq := startQuery(t, q, map[string]sources.Source{"events": src}, sink, Options{
				NumPartitions: 1 + rng.Intn(4),
			})

			var prefix []sql.Row
			for step := 0; step < 8; step++ {
				chunk := rng.Intn(20) // may be zero: empty triggers
				for i := 0; i < chunk; i++ {
					row := randomRow(rng)
					prefix = append(prefix, row)
					src.AddData(row)
				}
				if err := sq.ProcessAllAvailable(); err != nil {
					t.Fatal(err)
				}
				if len(prefix) == 0 {
					continue
				}
				want := refAggregate(prefix)
				got := sinkAggregate(t, sink.Rows())
				if len(got) != len(want) {
					t.Fatalf("step %d: %d keys, want %d", step, len(got), len(want))
				}
				for k, w := range want {
					if got[k] != w {
						t.Fatalf("step %d key %s: got %v, want %v", step, k, got[k], w)
					}
				}
			}
		})
	}
}

// TestPrefixConsistencyAcrossRestarts interleaves random stop/restart
// cycles: every restart must resume from the committed prefix with state
// intact, so intermediate results stay prefix-consistent.
func TestPrefixConsistencyAcrossRestarts(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	src := sources.NewMemorySource("events", eventsSchema)
	ckpt := t.TempDir()
	sink := sinks.NewMemorySink()
	srcs := map[string]sources.Source{"events": src}

	var prefix []sql.Row
	for cycle := 0; cycle < 6; cycle++ {
		q := compile(t, countByKey(streamScan("events")), logical.Complete, nil)
		sq, err := Start(q, srcs, sink, Options{
			Checkpoint: ckpt,
			Trigger:    ProcessingTimeTrigger{Interval: 3600e9},
		})
		if err != nil {
			t.Fatal(err)
		}
		steps := 1 + rng.Intn(3)
		for s := 0; s < steps; s++ {
			for i := 0; i < 1+rng.Intn(10); i++ {
				row := randomRow(rng)
				prefix = append(prefix, row)
				src.AddData(row)
			}
			if err := sq.ProcessAllAvailable(); err != nil {
				t.Fatal(err)
			}
			want := refAggregate(prefix)
			got := sinkAggregate(t, sink.Rows())
			for k, w := range want {
				if got[k] != w {
					t.Fatalf("cycle %d: key %s got %v want %v", cycle, k, got[k], w)
				}
			}
		}
		if err := sq.Stop(); err != nil { // "code update": stop and restart
			t.Fatal(err)
		}
	}
}

// TestStreamingDedupMatchesBatchDistinct: streaming dedup over any epoch
// chunking equals batch DISTINCT over the whole input.
func TestStreamingDedupMatchesBatchDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	src := sources.NewMemorySource("events", eventsSchema)
	plan := &logical.Distinct{Child: &logical.Project{
		Child: streamScan("events"),
		Exprs: []sql.Expr{sql.Col("k"), sql.Col("v")},
	}}
	q := compile(t, plan, logical.Append, nil)
	sink := sinks.NewMemorySink()
	sq := startQuery(t, q, map[string]sources.Source{"events": src}, sink, Options{})

	distinct := map[string]bool{}
	for step := 0; step < 10; step++ {
		for i := 0; i < rng.Intn(15); i++ {
			k := fmt.Sprintf("k%d", rng.Intn(4))
			v := float64(rng.Intn(3))
			distinct[fmt.Sprintf("%s/%v", k, v)] = true
			src.AddData(sql.Row{k, v, int64(0)})
		}
		if err := sq.ProcessAllAvailable(); err != nil {
			t.Fatal(err)
		}
		got := map[string]bool{}
		for _, r := range sink.Rows() {
			key := fmt.Sprintf("%s/%v", r[0], r[1])
			if got[key] {
				t.Fatalf("duplicate %s emitted by streaming dedup", key)
			}
			got[key] = true
		}
		if len(got) != len(distinct) {
			t.Fatalf("step %d: %d distinct rows, want %d", step, len(got), len(distinct))
		}
	}
}

// TestStreamStreamJoinMatchesBatchJoin: an inner stream-stream join over
// random epoch interleavings produces exactly the batch join of the full
// inputs (each matching pair exactly once).
func TestStreamStreamJoinMatchesBatchJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
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
	sq := startQuery(t, q, map[string]sources.Source{"left": left, "right": right}, sink, Options{
		NumPartitions: 3,
	})

	var allLeft, allRight []sql.Row
	for step := 0; step < 8; step++ {
		for i := 0; i < rng.Intn(5); i++ {
			row := sql.Row{fmt.Sprintf("k%d", rng.Intn(3)), float64(len(allLeft)), int64(0)}
			allLeft = append(allLeft, row)
			left.AddData(row)
		}
		for i := 0; i < rng.Intn(5); i++ {
			row := sql.Row{fmt.Sprintf("k%d", rng.Intn(3)), float64(1000 + len(allRight)), int64(0)}
			allRight = append(allRight, row)
			right.AddData(row)
		}
		if err := sq.ProcessAllAvailable(); err != nil {
			t.Fatal(err)
		}
	}
	// Batch reference: nested-loop join.
	want := map[string]int{}
	for _, l := range allLeft {
		for _, r := range allRight {
			if l[0] == r[0] {
				want[fmt.Sprintf("%v/%v/%v", l[0], l[1], r[1])]++
			}
		}
	}
	got := map[string]int{}
	for _, r := range sink.Rows() {
		got[fmt.Sprintf("%v/%v/%v", r[0], r[1], r[2])]++
	}
	if len(got) != len(want) {
		t.Fatalf("got %d join pairs, want %d", len(got), len(want))
	}
	for k, n := range want {
		if got[k] != n {
			t.Errorf("pair %s: emitted %d times, want %d", k, got[k], n)
		}
	}
}

// TestStreamStreamJoinWithLaggingSidesMatchesBatchJoin: a click may trail
// its impression by up to 10 s (r.ts BETWEEN l.ts AND l.ts + 10 s) while the
// watermark trails the streams by only 2 s, so the watermark passes a left
// row long before the last right row that can match it arrives. No row is
// late on its own side (event times jitter by under the watermark delay), so
// after every epoch the join must hold exactly the pairs a nested-loop join
// over the consumed prefix finds, and a left-outer join must not have given
// up on a left row the prefix — or any later, non-late right row — matches.
// Evicting by ts < W on both sides, as the join did before its eviction
// followed the band, drops those left rows: pairs go missing, and the outer
// join pads rows that match later.
func TestStreamStreamJoinWithLaggingSidesMatchesBatchJoin(t *testing.T) {
	const band, delay = 10 * sec, 2 * sec
	for _, typ := range []logical.JoinType{logical.InnerJoin, logical.LeftOuterJoin} {
		t.Run(typ.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(31))
			left := sources.NewMemorySource("left", eventsSchema)
			right := sources.NewMemorySource("right", eventsSchema)
			side := func(name, alias string) logical.Plan {
				return &logical.SubqueryAlias{Alias: alias, Child: &logical.WithWatermark{
					Child: &logical.Scan{Name: name, Streaming: true, Out: eventsSchema}, Column: "ts", Delay: delay}}
			}
			plan := &logical.Project{
				Child: &logical.Join{Left: side("left", "l"), Right: side("right", "r"), Type: typ,
					Cond: sql.And(sql.Eq(sql.Col("l.k"), sql.Col("r.k")), sql.And(
						sql.Ge(sql.Col("r.ts"), sql.Col("l.ts")),
						sql.Le(sql.Col("r.ts"), sql.Add(sql.Col("l.ts"), sql.IntervalLit(band)))))},
				Exprs: []sql.Expr{sql.Col("l.k"), sql.Col("l.v"), sql.Col("r.v")},
			}
			q := compile(t, plan, logical.Append, nil)
			sink := sinks.NewMemorySink()
			sq := startQuery(t, q, map[string]sources.Source{"left": left, "right": right}, sink, Options{NumPartitions: 3})

			var allLeft, allRight []sql.Row
			clock := 100 * sec
			add := func(src *sources.MemorySource, all *[]sql.Row, key string, id float64) {
				// Under the watermark delay behind the newest event time: never late.
				row := sql.Row{key, id, clock - rng.Int63n(delay/2)}
				*all = append(*all, row)
				src.AddData(row)
			}
			// check holds the sink to the nested-loop join over the prefix; at
			// the end of the stream every unmatched left row must be out too.
			check := func(step int, final bool) {
				t.Helper()
				want, matchedLeft := map[string]int{}, map[float64]bool{}
				for _, l := range allLeft {
					for _, r := range allRight {
						if d := r[2].(int64) - l[2].(int64); l[0] == r[0] && d >= 0 && d <= band {
							want[fmt.Sprintf("%v/%v/%v", l[0], l[1], r[1])]++
							matchedLeft[l[1].(float64)] = true
						}
					}
				}
				got, padded := map[string]int{}, map[float64]int{}
				for _, r := range sink.Rows() {
					if r[2] == nil {
						padded[r[1].(float64)]++
					} else {
						got[fmt.Sprintf("%v/%v/%v", r[0], r[1], r[2])]++
					}
				}
				for k, n := range want {
					if got[k] != n {
						t.Fatalf("step %d: pair %s emitted %d times, the batch join over the prefix has it %d times", step, k, got[k], n)
					}
				}
				if len(got) != len(want) {
					t.Fatalf("step %d: %d distinct pairs, the batch join over the prefix has %d", step, len(got), len(want))
				}
				for id, n := range padded {
					if typ == logical.InnerJoin || matchedLeft[id] || n != 1 {
						t.Fatalf("step %d: left row %v came out null-padded %d times (matched in the prefix: %v)", step, id, n, matchedLeft[id])
					}
				}
				for _, l := range allLeft {
					if id := l[1].(float64); final && typ == logical.LeftOuterJoin && l[0] != "flush" && !matchedLeft[id] && padded[id] != 1 {
						t.Fatalf("end of stream: unmatched left row %v came out null-padded %d times", id, padded[id])
					}
				}
			}
			for step := 0; step < 40; step++ {
				for i := rng.Intn(4); i > 0; i-- {
					add(left, &allLeft, fmt.Sprintf("k%d", rng.Intn(3)), float64(len(allLeft)))
					clock += rng.Int63n(2 * sec)
				}
				for i := rng.Intn(4); i > 0; i-- {
					add(right, &allRight, fmt.Sprintf("k%d", rng.Intn(3)), float64(1000+len(allRight)))
					clock += rng.Int63n(2 * sec)
				}
				if err := sq.ProcessAllAvailable(); err != nil {
					t.Fatal(err)
				}
				check(step, false)
			}
			// A row far ahead on each side moves the watermark past everything
			// buffered, band included.
			clock += 1000 * sec
			add(left, &allLeft, "flush", -1)
			add(right, &allRight, "flush", -2)
			if err := sq.ProcessAllAvailable(); err != nil {
				t.Fatal(err)
			}
			check(40, true)
			if len(allLeft) < 40 || len(allRight) < 40 {
				t.Fatalf("weak run: %d left rows, %d right rows", len(allLeft), len(allRight))
			}
		})
	}
}

// TestWatermarkNeverRegresses: the watermark is monotonic even when event
// times jump backwards between epochs.
func TestWatermarkNeverRegresses(t *testing.T) {
	src := sources.NewMemorySource("events", eventsSchema)
	plan := &logical.Aggregate{
		Child: &logical.WithWatermark{Child: streamScan("events"), Column: "ts", Delay: 0},
		Keys:  []sql.Expr{sql.NewWindow(sql.Col("ts"), 10e6, 0)},
		Aggs:  []logical.NamedAgg{{Agg: sql.CountAll(), Name: "cnt"}},
	}
	q := compile(t, plan, logical.Update, nil)
	sink := sinks.NewMemorySink()
	sq := startQuery(t, q, map[string]sources.Source{"events": src}, sink, Options{})

	var last int64 = -1
	for _, ts := range []int64{50, 10, 80, 5, 200, 100} {
		src.AddData(sql.Row{"a", 1.0, ts * sec})
		if err := sq.ProcessAllAvailable(); err != nil {
			t.Fatal(err)
		}
		wm := sq.Watermark()
		if wm < last {
			t.Fatalf("watermark regressed: %d -> %d", last, wm)
		}
		last = wm
	}
	if last != 200*sec {
		t.Errorf("final watermark = %d, want %d", last, 200*sec)
	}
}

// TestGCRetainsRecoverability: with RetainEpochs set, old checkpoint files
// are purged but restart still works.
func TestGCRetainsRecoverability(t *testing.T) {
	src := sources.NewMemorySource("events", eventsSchema)
	ckpt := t.TempDir()
	sink := sinks.NewMemorySink()
	srcs := map[string]sources.Source{"events": src}
	q := compile(t, countByKey(streamScan("events")), logical.Complete, nil)
	// A 64-byte memtable seals every epoch or two: manifests for GC to keep.
	sq := startQuery(t, q, srcs, sink, Options{Checkpoint: ckpt, RetainEpochs: 3,
		StateMemtableBytes: 64})
	var total float64
	for i := 0; i < 12; i++ {
		v := float64(i)
		total += v
		src.AddData(sql.Row{"a", v, 0})
		if err := sq.ProcessAllAvailable(); err != nil {
			t.Fatal(err)
		}
	}
	if err := sq.Stop(); err != nil {
		t.Fatal(err)
	}
	// Restart over the GC'd checkpoint and keep going.
	src.AddData(sql.Row{"a", 100.0, 0})
	total += 100
	q2 := compile(t, countByKey(streamScan("events")), logical.Complete, nil)
	sq2 := startQuery(t, q2, srcs, sink, Options{Checkpoint: ckpt, RetainEpochs: 3,
		StateMemtableBytes: 64})
	if err := sq2.ProcessAllAvailable(); err != nil {
		t.Fatal(err)
	}
	rows := sink.Rows()
	if len(rows) != 1 || rows[0][1] != int64(13) || rows[0][2] != total {
		t.Fatalf("rows = %v, want count 13 sum %v", sortedStrings(rows), total)
	}
}
