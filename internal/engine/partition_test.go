package engine

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"structream/internal/fsx"
	"structream/internal/incremental"
	"structream/internal/sinks"
	"structream/internal/sources"
	"structream/internal/sql"
	"structream/internal/sql/logical"
	"structream/internal/sql/physical"
	"structream/internal/state"
)

// Differential and crash tests for the partitioned runtime: N workers must
// produce byte-identical output to a single-worker run, including through
// crashes that land between two state partitions' commits and between the
// last of them and the commit marker.

// partSchema uses an int64 measure so every aggregate is exact: float
// sums re-associate under sharding, integers don't.
var partSchema = sql.NewSchema(
	sql.Field{Name: "k", Type: sql.TypeString},
	sql.Field{Name: "n", Type: sql.TypeInt64},
	sql.Field{Name: "ts", Type: sql.TypeTimestamp},
)

func partScan() *logical.Scan {
	return &logical.Scan{Name: "events", Streaming: true, Out: partSchema}
}

// partSource deals seeded rows across srcParts partitions. The deal is a
// pure function of (seed, rows, srcParts), so every run over the same
// arguments streams identical data.
func partSource(seed int64, rows, srcParts int) *sources.PartitionedSource {
	rng := rand.New(rand.NewSource(seed))
	parts := make([][]sql.Row, srcParts)
	for i := 0; i < rows; i++ {
		p := i % srcParts
		parts[p] = append(parts[p], sql.Row{
			fmt.Sprintf("k%d", rng.Intn(8)),
			int64(rng.Intn(100)),
			int64(i/srcParts) * sec,
		})
	}
	return sources.NewPartitionedSource("events", partSchema, parts)
}

// othersSchema is the right side of the stream-stream join shape.
var othersSchema = sql.NewSchema(
	sql.Field{Name: "k2", Type: sql.TypeString},
	sql.Field{Name: "m", Type: sql.TypeInt64},
	sql.Field{Name: "ts2", Type: sql.TypeTimestamp},
)

// othersSource deals the join's right side like partSource deals the left:
// same key space and event-time span, different values.
func othersSource(seed int64, rows, srcParts int) *sources.PartitionedSource {
	rng := rand.New(rand.NewSource(seed + 1000))
	parts := make([][]sql.Row, srcParts)
	for i := 0; i < rows; i++ {
		p := i % srcParts
		parts[p] = append(parts[p], sql.Row{
			fmt.Sprintf("k%d", rng.Intn(8)),
			int64(rng.Intn(100)),
			int64(i/srcParts)*sec + int64(rng.Intn(3))*sec,
		})
	}
	return sources.NewPartitionedSource("others", othersSchema, parts)
}

// keyedSource deals the stream side of the stream-static join shapes: the
// partSchema with keys that also come NULL and empty, under its own name so
// the other shapes' data stays what it was.
func keyedSource(seed int64, rows, srcParts int) *sources.PartitionedSource {
	rng := rand.New(rand.NewSource(seed + 2000))
	keys := []sql.Value{nil, "", "k0", "k1", "k2", "k3", "k4", "k5"}
	parts := make([][]sql.Row, srcParts)
	for i := 0; i < rows; i++ {
		p := i % srcParts
		parts[p] = append(parts[p], sql.Row{keys[rng.Intn(len(keys))], int64(rng.Intn(100)), int64(i/srcParts) * sec})
	}
	return sources.NewPartitionedSource("keyed", partSchema, parts)
}

var dimSchema = sql.NewSchema(
	sql.Field{Name: "k2", Type: sql.TypeString},
	sql.Field{Name: "w", Type: sql.TypeInt64},
	sql.Field{Name: "lbl", Type: sql.TypeString},
)

// dimTables are the static sides of the join shapes: one row per key,
// several per key, NULL keys and payloads, nothing.
var dimTables = map[string][]sql.Row{
	"unique":   {{"k0", int64(10), "A"}, {"k1", int64(60), "B"}, {"k3", int64(90), "C"}, {"", int64(40), "E"}},
	"repeated": {{"k0", int64(10), "A1"}, {"k1", int64(60), "B"}, {"k0", int64(70), "A2"}, {"", int64(0), "E1"}, {"k0", int64(-1), "A3"}, {"", int64(99), "E2"}},
	"nullkeys": {{nil, int64(10), "N1"}, {"k0", int64(50), "A"}, {nil, int64(30), "N2"}, {"k1", nil, nil}},
	"empty":    {},
}

func dimResolver(s *logical.Scan) (physical.RowSource, error) {
	return physical.NewSliceSource(s.Out, s.Handle.([]sql.Row)), nil
}

// joinPlans are the stream-static join shapes: every static table × join
// type and stream side × with and without a residual, map-only, plus the
// Yahoo! shape (filter, narrowing projection, join, tumbling window,
// partial aggregate) and a join feeding the columnar exchange (dedup).
func joinPlans(t *testing.T) map[string]*incremental.Query {
	t.Helper()
	keyed := func() logical.Plan { return &logical.Scan{Name: "keyed", Streaming: true, Out: partSchema} }
	dim := func(table string) logical.Plan {
		return &logical.Scan{Name: "dim", Out: dimSchema, Handle: dimTables[table]}
	}
	plans := map[string]*incremental.Query{}
	for table := range dimTables {
		for _, shape := range []struct {
			name         string
			typ          logical.JoinType
			streamIsLeft bool
		}{
			{"inner", logical.InnerJoin, true}, {"outer", logical.LeftOuterJoin, true},
			{"semi", logical.LeftSemiJoin, true}, {"anti", logical.LeftAntiJoin, true},
			{"inner-stream-right", logical.InnerJoin, false}, {"outer-stream-right", logical.RightOuterJoin, false},
		} {
			for _, residual := range []bool{false, true} {
				cond := sql.Expr(sql.Eq(sql.Col("k"), sql.Col("k2")))
				name := fmt.Sprintf("join-%s-%s", shape.name, table)
				if residual {
					cond = sql.And(cond, sql.Lt(sql.Col("n"), sql.Col("w")))
					name += "-residual"
				}
				join := &logical.Join{Left: keyed(), Right: dim(table), Type: shape.typ, Cond: cond}
				if !shape.streamIsLeft {
					join.Left, join.Right = join.Right, join.Left
				}
				plans[name] = compile(t, join, logical.Append, dimResolver)
			}
		}
		views := &logical.Project{
			Child: &logical.Filter{
				Child: &logical.WithWatermark{Child: keyed(), Column: "ts", Delay: 4 * sec},
				Cond:  sql.Ne(sql.Col("k"), sql.Lit("k1"))},
			Exprs: []sql.Expr{sql.Col("k"), sql.Col("ts")},
		}
		plans["join-yahoo-"+table] = compile(t, &logical.Aggregate{
			Child: &logical.Join{Left: views, Right: dim(table), Type: logical.LeftOuterJoin,
				Cond: sql.Eq(sql.Col("k"), sql.Col("k2"))},
			Keys: []sql.Expr{sql.NewWindow(sql.Col("ts"), 10*time.Second, 0), sql.Col("lbl")},
			Aggs: []logical.NamedAgg{{Agg: sql.CountAll(), Name: "cnt"}, {Agg: sql.SumOf(sql.Col("w")), Name: "weight"}},
		}, logical.Update, dimResolver)
		plans["join-dedup-"+table] = compile(t, &logical.Distinct{
			Child: &logical.Join{Left: keyed(), Right: dim(table), Type: logical.InnerJoin,
				Cond: sql.Eq(sql.Col("k"), sql.Col("k2"))},
			Cols: []string{"k", "lbl"},
		}, logical.Append, dimResolver)
	}
	return plans
}

// partPlans are the fuzzed query shapes: stateless, dedup (the fully
// vectorized exchange path), keyed/windowed aggregation (the partial-agg
// shuffle path), a stream-stream outer join (two map sides into one
// stateful reduce, with rows emitted both on match and at eviction), and an
// inner one whose 2 s time band — written from the left column's side —
// buckets its state far finer than the 48 s the streams span.
func partPlans(t *testing.T) map[string]*incremental.Query {
	t.Helper()
	return map[string]*incremental.Query{
		"stateless-append": compile(t, &logical.Project{
			Child: &logical.Filter{Child: partScan(),
				Cond: sql.Gt(sql.Col("n"), sql.Lit(int64(30)))},
			Exprs: []sql.Expr{sql.Col("k"),
				sql.As(sql.Mul(sql.Col("n"), sql.Lit(int64(2))), "n2"),
				sql.Col("ts")},
		}, logical.Append, nil),
		"distinct-append": compile(t, &logical.Distinct{
			Child: partScan(), Cols: []string{"k", "n"},
		}, logical.Append, nil),
		"keyed-agg-update": compile(t, &logical.Aggregate{
			Child: partScan(),
			Keys:  []sql.Expr{sql.Col("k")},
			Aggs: []logical.NamedAgg{
				{Agg: sql.CountAll(), Name: "cnt"},
				{Agg: sql.SumOf(sql.Col("n")), Name: "total"},
				{Agg: sql.MinOf(sql.Col("n")), Name: "lo"},
				{Agg: sql.MaxOf(sql.Col("n")), Name: "hi"},
			},
		}, logical.Update, nil),
		"windowed-agg-update": compile(t, &logical.Aggregate{
			Child: partScan(),
			Keys: []sql.Expr{
				sql.NewWindow(sql.Col("ts"), 10*time.Second, 5*time.Second),
				sql.Col("k"),
			},
			Aggs: []logical.NamedAgg{
				{Agg: sql.CountAll(), Name: "cnt"},
				{Agg: sql.SumOf(sql.Col("n")), Name: "total"},
			},
		}, logical.Update, nil),
		"outer-join-append": compile(t, &logical.Join{
			Left:  &logical.WithWatermark{Child: partScan(), Column: "ts", Delay: 4 * sec},
			Right: &logical.WithWatermark{Child: &logical.Scan{Name: "others", Streaming: true, Out: othersSchema}, Column: "ts2", Delay: 4 * sec},
			Type:  logical.LeftOuterJoin,
			Cond: sql.And(sql.Eq(sql.Col("k"), sql.Col("k2")), sql.And(
				sql.Ge(sql.Col("ts2"), sql.Col("ts")),
				sql.Le(sql.Col("ts2"), sql.Add(sql.Col("ts"), sql.IntervalLit(3*sec))))),
		}, logical.Append, nil),
		"band-join-append": compile(t, &logical.Join{
			Left:  &logical.WithWatermark{Child: partScan(), Column: "ts", Delay: 4 * sec},
			Right: &logical.WithWatermark{Child: &logical.Scan{Name: "others", Streaming: true, Out: othersSchema}, Column: "ts2", Delay: 4 * sec},
			Type:  logical.InnerJoin,
			Cond: sql.And(sql.Eq(sql.Col("k"), sql.Col("k2")), sql.And(
				sql.Ge(sql.Col("ts"), sql.Sub(sql.Col("ts2"), sql.IntervalLit(2*sec))),
				sql.Le(sql.Col("ts"), sql.Col("ts2")))),
		}, logical.Append, nil),
	}
}

// runPartitioned drives one preloaded query to completion, at the given
// memtable budget, and returns its sink.
func runPartitioned(t *testing.T, q *incremental.Query, seed int64, workers int, budget int64) *sinks.MemorySink {
	t.Helper()
	sink := sinks.NewMemorySink()
	srcs := map[string]sources.Source{"events": partSource(seed, 96, 2), "others": othersSource(seed, 96, 2), "keyed": keyedSource(seed, 96, 2)}
	sq := startQuery(t, q, srcs, sink, Options{
		Workers:              workers,
		NumPartitions:        2,
		MaxRecordsPerTrigger: 16,
		StateMemtableBytes:   budget,
	})
	if err := sq.ProcessAllAvailable(); err != nil {
		t.Fatalf("workers=%d budget=%d: %v", workers, budget, err)
	}
	if err := sq.Stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	return sink
}

// TestPartitionDifferentialFuzz is the partitioned runtime's correctness
// gate: for every fuzzed query shape and seed, the single-worker run that
// keeps its state in the memtable, and every worker degree spilling its
// state, must emit the rows the parent's row stages emitted
// (testdata/parent-rowpath/partition-fuzz.txt), row for row, in order.
func TestPartitionDifferentialFuzz(t *testing.T) {
	plans := fuzzPlans(t)
	if op, ok := plans["band-join-append"].Stateful.(*incremental.StreamStreamJoin); !ok || op.Band == nil || *op.Band != (incremental.TimeBand{Lo: 0, Hi: 2 * sec}) {
		t.Fatalf("band-join-append compiled without its band: %+v", plans["band-join-append"].Stateful)
	}
	fixture := readRowPathSections(t, "partition-fuzz", "query ")
	if len(fixture) != len(plans)*len(fuzzSeeds) {
		t.Fatalf("the fixture holds %d runs, the shapes and seeds make %d", len(fixture), len(plans)*len(fuzzSeeds))
	}
	for name, q := range plans {
		for _, seed := range fuzzSeeds {
			golden, ok := fixture[fuzzSection(name, seed)]
			if !ok {
				t.Fatalf("%s seed=%d: not in the fixture", name, seed)
			}
			if len(golden) == 0 && !strings.HasSuffix(name, "-empty") && !strings.HasSuffix(name, "-empty-residual") {
				t.Fatalf("%s seed=%d: the parent's run emitted nothing", name, seed)
			}
			runs := []struct {
				workers int
				budget  int64
			}{{1, 0}, {1, spillBudget}, {2, spillBudget}, {4, spillBudget}}
			for _, r := range runs {
				got := fixtureLines(runPartitioned(t, q, seed, r.workers, r.budget).Rows(), false)
				if !slices.Equal(got, golden) {
					t.Fatalf("%s seed=%d workers=%d budget=%d: the sink holds other rows than the parent's:\n got  %v\n want %v",
						name, seed, r.workers, r.budget, got, golden)
				}
			}
		}
	}
}

// TestOuterJoinReplaysToIdenticalBytes: the rows an outer stream-stream join
// emits when the watermark evicts unmatched buffered rows come out in the
// eviction index's order — (event time, join key, arrival index) — not in
// whatever order the store iterates. Runs that keep the state in the
// memtable and runs that spill it must write byte-identical sink files.
func TestOuterJoinReplaysToIdenticalBytes(t *testing.T) {
	q := partPlans(t)["outer-join-append"]
	var golden map[string][]byte
	for _, budget := range []int64{0, 0, spillBudget, spillBudget} {
		dir := t.TempDir()
		srcs := map[string]sources.Source{"events": partSource(5, 192, 2), "others": othersSource(5, 192, 2)}
		sq := startQuery(t, q, srcs, &sinks.JSONFileSink{Dir: dir}, Options{
			NumPartitions:        2,
			MaxRecordsPerTrigger: 48, // epochs wide enough to evict several unmatched rows each
			StateMemtableBytes:   budget,
		})
		if err := sq.ProcessAllAvailable(); err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if err := sq.Stop(); err != nil {
			t.Fatal(err)
		}
		got := dirContents(t, dir)
		if golden == nil {
			golden = got
			var all []byte
			for _, data := range got {
				all = append(all, data...)
			}
			if padded := bytes.Count(all, []byte(`"k2":null`)); padded < 8 || padded == bytes.Count(all, []byte(`"k2":`)) {
				t.Fatalf("want both matched and null-padded rows, got %d padded of %d", padded, bytes.Count(all, []byte(`"k2":`)))
			}
			continue
		}
		if d := sinkDiff(golden, got); d != "" {
			t.Fatalf("budget %d run diverged from the first run:\n%s", budget, d)
		}
	}
}

// TestPartitionProgressReportsWorkers checks the worker count is visible
// in telemetry: progress events carry it and the pool gauges move.
func TestPartitionProgressReportsWorkers(t *testing.T) {
	q := partPlans(t)["keyed-agg-update"]
	sink := sinks.NewMemorySink()
	sq := startQuery(t, q, map[string]sources.Source{"events": partSource(1, 48, 2)}, sink, Options{
		Workers:              3,
		NumPartitions:        2,
		MaxRecordsPerTrigger: 16,
	})
	if err := sq.ProcessAllAvailable(); err != nil {
		t.Fatal(err)
	}
	prog, ok := sq.LastProgress()
	if !ok || prog.Workers != 3 {
		t.Fatalf("progress = %+v (ok=%v), want workers=3", prog, ok)
	}
	reg := sq.Metrics()
	if got := reg.Gauge("workers").Value(); got != 3 {
		t.Fatalf("workers gauge = %d", got)
	}
	if got := reg.Gauge("shardTasksRun").Value(); got == 0 {
		t.Fatal("shardTasksRun gauge never moved")
	}
}

// TestWorkersSizeThePoolAndTheMapSplit: Workers decides two things, the
// pool's size and how many slices a source partition's range is cut into —
// max(Workers, 1), by the one split rule, so the default pool of two does
// not widen the split — and nothing about which files an epoch writes: the
// checkpoint holds offsets/, commits/ and state/ at every value.
func TestWorkersSizeThePoolAndTheMapSplit(t *testing.T) {
	for _, tc := range []struct{ workers, pool, mapTasks int }{
		// 1024 rows per source partition: four 256-record slices' worth each.
		{0, defaultPoolSize, 2}, {1, defaultPoolSize, 2}, {2, 2, 4}, {4, 4, 8},
	} {
		t.Run(fmt.Sprintf("workers=%d", tc.workers), func(t *testing.T) {
			ckpt := t.TempDir()
			q := partPlans(t)["keyed-agg-update"]
			sq := startQuery(t, q, map[string]sources.Source{"events": partSource(1, 8*minRecordsPerShard, 2)}, sinks.NewMemorySink(), Options{
				Checkpoint: ckpt, Workers: tc.workers, NumPartitions: 2,
			})
			if err := sq.ProcessAllAvailable(); err != nil {
				t.Fatal(err)
			}
			epochs := sq.Epochs().Traces()
			if len(epochs) != 1 {
				t.Fatalf("ran %d epochs, want 1", len(epochs))
			}
			mapTasks := int64(-1)
			for _, sp := range epochs[0].Root.Children {
				if sp.Name == "getBatch" {
					mapTasks = sp.Attrs["tasks"]
				}
			}
			if mapTasks != int64(tc.mapTasks) {
				t.Errorf("map stage ran %d tasks, want %d", mapTasks, tc.mapTasks)
			}
			if names := dirNames(t, ckpt); !slices.Equal(names, []string{"commits", "offsets", "state"}) {
				t.Errorf("checkpoint holds %v, want commits, offsets and state", names)
			}
			reg := sq.Metrics()
			if got := reg.Gauge("workers").Value(); got != int64(tc.pool) {
				t.Errorf("workers gauge = %d, want a pool of %d", got, tc.pool)
			}
			// One map stage, one reduce stage of two tasks.
			if tasks, stages := reg.Gauge("shardTasksRun").Value(), reg.Gauge("shardStagesRun").Value(); tasks != int64(tc.mapTasks)+2 || stages != 2 {
				t.Errorf("pool ran %d tasks in %d stages, want %d in 2", tasks, stages, tc.mapTasks+2)
			}
		})
	}
}

// TestRestartUnderAnotherPartitionCountRefused: the hash exchange routes a
// key by hash mod NumPartitions, so a stateful checkpoint can only be resumed
// under the count that wrote it — under another one, moved groups would
// restart from zero without a word. Once an epoch has committed, the store
// directories are the record of that count and a restart that disagrees is
// refused by name. A stateless query holds no state to misroute, and a crash
// inside the first epoch leaves none that committed: both restart under any
// count.
func TestRestartUnderAnotherPartitionCountRefused(t *testing.T) {
	run := func(q *incremental.Query, ckpt string, fsys fsx.FS, parts int, budget int64) ([]sql.Row, error) {
		sink := sinks.NewMemorySink()
		sq, err := Start(q, map[string]sources.Source{"events": partSource(3, 96, 2)}, sink, Options{
			Checkpoint: ckpt, FS: fsys, NumPartitions: parts, StateMemtableBytes: budget,
			MaxRecordsPerTrigger: 16, Trigger: ProcessingTimeTrigger{Interval: time.Hour},
		})
		if err != nil {
			return nil, err
		}
		defer sq.Stop()
		err = sq.ProcessAllAvailable()
		return sink.Rows(), err
	}
	for _, budget := range stateBudgets {
		for _, c := range [][2]int{{4, 8}, {8, 4}} {
			t.Run(fmt.Sprintf("%s/%d-to-%d", budget.name, c[0], c[1]), func(t *testing.T) {
				q, ckpt := partPlans(t)["keyed-agg-update"], t.TempDir()
				if _, err := run(q, ckpt, fsx.NoSync(), c[0], budget.bytes); err != nil {
					t.Fatal(err)
				}
				_, err := run(q, ckpt, fsx.NoSync(), c[1], budget.bytes)
				if !errors.Is(err, ErrPartitionCount) {
					t.Fatalf("restart under %d partitions returned %v, want ErrPartitionCount", c[1], err)
				}
				for _, n := range c {
					if !strings.Contains(err.Error(), fmt.Sprint(n)) {
						t.Errorf("%q does not name %d", err, n)
					}
				}
				if _, err := run(q, ckpt, fsx.NoSync(), c[0], budget.bytes); err != nil {
					t.Fatalf("restart under the count that wrote the checkpoint: %v", err)
				}
			})
		}
	}
	t.Run("stateless", func(t *testing.T) {
		q, ckpt := partPlans(t)["stateless-append"], t.TempDir()
		for _, parts := range []int{4, 8, 4} {
			if _, err := run(q, ckpt, fsx.NoSync(), parts, 0); err != nil {
				t.Fatalf("%d partitions: %v", parts, err)
			}
		}
	})
	t.Run("first-epoch-crash", func(t *testing.T) {
		q := partPlans(t)["keyed-agg-update"]
		golden, err := run(q, t.TempDir(), fsx.NoSync(), 8, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Every partition's epoch-0 delta is durable, the commit marker is not.
		ckpt, ffs := t.TempDir(), fsx.NewFaultFS(fsx.NoSync())
		ffs.CrashWhen, ffs.Mode = nthOp(fsx.OpWrite, "/commits/", 1), fsx.CrashBefore
		if _, err := run(q, ckpt, ffs, 4, 0); !ffs.Crashed() || err == nil {
			t.Fatalf("crash never fired (err=%v)", err)
		}
		got, err := run(q, ckpt, fsx.NoSync(), 8, 0)
		if err != nil {
			t.Fatalf("restart under 8 partitions with nothing committed: %v", err)
		}
		rowsExactlyEqual(t, got, golden, "replayed under 8 partitions")
	})
}

// gatedOp lets a test decide how each state partition's task ends.
type gatedOp struct {
	incremental.StatefulOp
	gate func(partition int) error
}

func (g gatedOp) Process(ctx *incremental.EpochContext, store *state.Store, inputs [][]sql.Row) ([]sql.Row, error) {
	if err := g.gate(store.ID().Partition); err != nil {
		return nil, err
	}
	return g.StatefulOp.Process(ctx, store, inputs)
}

// TestFailedStageSettles: a stage is over when every task has settled, not
// when the first one fails — a sibling may be inside a state commit, and
// the epoch that replaces this one must not race it. Partition 1 fails at
// once while partition 0 is still running: the epoch's error is not
// returned until partition 0 has returned too, and it is partition 0's,
// the lowest-indexed failure.
func TestFailedStageSettles(t *testing.T) {
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			errFast, errSlow := errors.New("partition 1 failed at once"), errors.New("partition 0 failed late")
			entered, failed, release := make(chan struct{}), make(chan struct{}), make(chan struct{})
			q := partPlans(t)["keyed-agg-update"]
			// Once: a runner that attempts a failed task again must fail this
			// test on its assertion, not panic on a second close.
			var failOnce, enterOnce sync.Once
			q.Stateful = gatedOp{q.Stateful, func(partition int) error {
				if partition == 1 {
					failOnce.Do(func() { close(failed) })
					return errFast
				}
				enterOnce.Do(func() { close(entered) })
				<-release
				return errSlow
			}}
			sq := startQuery(t, q, map[string]sources.Source{"events": partSource(1, 48, 2)}, sinks.NewMemorySink(), Options{
				Workers: workers, NumPartitions: 2,
			})
			done := make(chan error, 1)
			go func() { done <- sq.ProcessAllAvailable() }()
			<-entered
			<-failed
			select {
			case err := <-done:
				close(release)
				t.Fatalf("epoch returned %v with partition 0's task still running", err)
			case <-time.After(100 * time.Millisecond):
			}
			close(release)
			if err := <-done; !errors.Is(err, errSlow) {
				t.Fatalf("epoch returned %v, want the lowest-indexed failure (%v)", err, errSlow)
			}
		})
	}
}

// ------------------------------------------------------------- torture

// runPartitionTorture runs the keyed-agg workload over a JSON file sink
// with the given worker degree; two reduce tasks commit at once, so the op
// schedule is concurrency-nondeterministic, which is exactly what the
// CrashWhen predicates below are for.
func runPartitionTorture(t *testing.T, ckpt, sinkDir string, fsys fsx.FS, workers int) error {
	t.Helper()
	q := compile(t, &logical.Aggregate{
		Child: partScan(),
		Keys:  []sql.Expr{sql.Col("k")},
		Aggs: []logical.NamedAgg{
			{Agg: sql.CountAll(), Name: "cnt"},
			{Agg: sql.SumOf(sql.Col("n")), Name: "total"},
		},
	}, logical.Update, nil)
	sink := &sinks.JSONFileSink{Dir: sinkDir, FS: fsys}
	sq, err := Start(q, map[string]sources.Source{"events": partSource(7, 48, 2)}, sink, Options{
		Checkpoint:           ckpt,
		FS:                   fsys,
		Workers:              workers,
		NumPartitions:        2,
		MaxRecordsPerTrigger: 8,
		Trigger:              ProcessingTimeTrigger{Interval: time.Hour}, // driven manually
	})
	if err != nil {
		return err
	}
	t.Cleanup(func() { sq.Stop() })
	return sq.ProcessAllAvailable()
}

// nthOp matches the n-th mutating operation of one kind on a path holding
// fragment: what a crash point looks like when two reduce tasks interleave
// and operation numbers shift from run to run.
func nthOp(kind fsx.OpKind, fragment string, target int) func(fsx.OpKind, string) bool {
	seen := 0
	return func(k fsx.OpKind, path string) bool {
		if k != kind || !strings.Contains(filepath.ToSlash(path), fragment) {
			return false
		}
		seen++
		return seen == target
	}
}

// TestPartitionCrashTorture crashes a two-worker run at every interesting
// point of an epoch whose state partitions commit concurrently — at the
// first partition's state-delta write, in the window where one partition's
// delta is durable and the other's is not, and at the commit marker, in
// before/torn/after flavors — then restarts at the SAME worker degree and
// at degree 1 (mixed-degree recovery), requiring both to converge to the
// single-worker crash-free output byte for byte. Nothing per partition
// records that a delta landed: an epoch without its marker is replayed
// whole, and a replayed partition commit overwrites its delta with the
// same bytes.
func TestPartitionCrashTorture(t *testing.T) {
	if testing.Short() {
		t.Skip("crash torture skipped with -short")
	}

	// Golden: single-worker, fault-free. Workers must not change the bytes.
	goldenSink := t.TempDir()
	if err := runPartitionTorture(t, t.TempDir(), goldenSink, fsx.NoSync(), 1); err != nil {
		t.Fatalf("golden run: %v", err)
	}
	golden := dirContents(t, goldenSink)
	if len(golden) < 2 {
		t.Fatalf("golden run produced too little output: %v", golden)
	}

	// Two-worker fault-free differential before any crashing.
	plainSink := t.TempDir()
	if err := runPartitionTorture(t, t.TempDir(), plainSink, fsx.NoSync(), 2); err != nil {
		t.Fatalf("two-worker run: %v", err)
	}
	if d := sinkDiff(golden, dirContents(t, plainSink)); d != "" {
		t.Fatalf("two-worker run diverged from single-worker golden:\n%s", d)
	}

	// A state delta reaches its name by a write to "<version>.delta.tmp" and
	// a rename; two partitions commit per epoch, so the 7th delta write is
	// epoch 3's first.
	specs := []struct {
		name     string
		kind     fsx.OpKind
		fragment string
		nth      int
		mode     fsx.CrashMode
	}{
		{"first-delta-before", fsx.OpWrite, ".delta", 1, fsx.CrashBefore},
		{"first-delta-torn", fsx.OpWrite, ".delta", 1, fsx.CrashTorn},
		{"first-delta-unrenamed", fsx.OpWrite, ".delta", 1, fsx.CrashAfter},
		{"between-deltas-after", fsx.OpRename, ".delta", 1, fsx.CrashAfter},
		{"second-delta-torn", fsx.OpWrite, ".delta", 2, fsx.CrashTorn},
		{"later-epoch-delta-torn", fsx.OpWrite, ".delta", 7, fsx.CrashTorn},
		{"later-epoch-between-deltas", fsx.OpRename, ".delta", 7, fsx.CrashAfter},
		{"marker-before", fsx.OpWrite, "/commits/", 1, fsx.CrashBefore},
		{"marker-torn", fsx.OpWrite, "/commits/", 1, fsx.CrashTorn},
		{"marker-after", fsx.OpWrite, "/commits/", 1, fsx.CrashAfter},
		{"marker-durable-unacknowledged", fsx.OpRename, "/commits/", 1, fsx.CrashAfter},
		{"later-marker-torn", fsx.OpWrite, "/commits/", 3, fsx.CrashTorn},
	}
	for _, spec := range specs {
		for _, restartWorkers := range []int{2, 1} {
			label := fmt.Sprintf("%s restart-w%d", spec.name, restartWorkers)
			ckpt, sinkDir := t.TempDir(), t.TempDir()
			ffs := fsx.NewFaultFS(fsx.NoSync())
			ffs.CrashWhen, ffs.Mode = nthOp(spec.kind, spec.fragment, spec.nth), spec.mode
			err := runPartitionTorture(t, ckpt, sinkDir, ffs, 2)
			if !ffs.Crashed() {
				t.Fatalf("%s: crash never fired (err=%v)", label, err)
			}
			if err == nil {
				t.Fatalf("%s: crashed run reported success", label)
			}
			// Restart over the surviving checkpoint — at the crashed degree
			// or at degree 1, which must read the same WAL and the same
			// half-committed state either way.
			if err := runPartitionTorture(t, ckpt, sinkDir, fsx.NoSync(), restartWorkers); err != nil {
				t.Fatalf("%s: restart failed: %v", label, err)
			}
			if d := sinkDiff(golden, dirContents(t, sinkDir)); d != "" {
				t.Fatalf("%s: sink did not converge to the crash-free output:\n%s", label, d)
			}
		}
	}
}
