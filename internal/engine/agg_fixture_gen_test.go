package engine

import (
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"structream/internal/sinks"
	"structream/internal/sources"
	"structream/internal/sql"
	"structream/internal/sql/codec"
	"structream/internal/sql/logical"
)

// The files under testdata/parent-agg were written by the commit before the
// aggregate's shuffle row became a partial cell (0fb9de6), when a partial
// group crossed the exchange as [keys..., one encoded buffer per aggregate]
// and reached the store through Serialize/Deserialize. This file is their
// definition — the input is a pure function of (epoch, row) — and compiles at
// that commit too, which is how they were produced:
//
//	cp agg_fixture_gen_test.go <checkout of 0fb9de6>/internal/engine/
//	AGG_WRITE_FIXTURE=<dir> go test -run TestWriteAggFixture ./internal/engine
//
// TestAggBytesMatchParent runs the same query with the current code and
// compares every state file and every sink row with those, byte for byte.
const (
	aggFixtureEpochs = 6
	// Above twice a map slice's 256-record floor, so Workers: 2
	// really cuts each epoch into two map tasks.
	aggFixtureRowsPerEpoch = 700
)

var aggFixtureSchema = sql.NewSchema(
	sql.Field{Name: "k", Type: sql.TypeString},
	sql.Field{Name: "n", Type: sql.TypeInt64},
	sql.Field{Name: "v", Type: sql.TypeFloat64},
	sql.Field{Name: "ts", Type: sql.TypeTimestamp},
)

// aggFixturePlan groups by a window and a string key and carries every
// aggregate the partial cell has a typed layout for beyond the bulk kernels'.
func aggFixturePlan() logical.Plan {
	return &logical.Aggregate{
		Child: &logical.WithWatermark{
			Child:  &logical.Scan{Name: "events", Streaming: true, Out: aggFixtureSchema},
			Column: "ts", Delay: 5 * sec},
		Keys: []sql.Expr{sql.NewWindow(sql.Col("ts"), 10*time.Second, 0), sql.Col("k")},
		Aggs: []logical.NamedAgg{
			{Agg: sql.CountAll(), Name: "cnt"},
			{Agg: sql.Count(sql.Col("v")), Name: "cntv"},
			{Agg: sql.SumOf(sql.Col("n")), Name: "isum"},
			{Agg: sql.SumOf(sql.Col("v")), Name: "fsum"},
			{Agg: sql.AvgOf(sql.Col("v")), Name: "mean"},
			{Agg: sql.MinOf(sql.Col("v")), Name: "lo"},
			{Agg: sql.MaxOf(sql.Col("k")), Name: "hi"},
		},
	}
}

// aggFixtureRows is epoch e's input. Event time advances 8 s per epoch over a
// 12 s spread, so with a 5 s delay every epoch finalizes a window or two and
// every tenth row is late; a seventh of the keys and a ninth of the values are
// NULL. Float inputs are multiples of 1/4, so sums are exact whatever the
// association the shard split imposes.
func aggFixtureRows(e int) []sql.Row {
	keys := []sql.Value{"", "a", "b", "cc", "Aa", "key-with-a-longer-name", nil}
	rows := make([]sql.Row, aggFixtureRowsPerEpoch)
	for i := range rows {
		x := int64(e*aggFixtureRowsPerEpoch + i)
		ts := (int64(e)*8+x*7919%12)*sec + x%1000
		if i%10 == 9 {
			ts -= 40 * sec // late once the watermark has moved
		}
		if ts < 0 {
			ts = x % 1000
		}
		var v sql.Value
		if x%9 != 0 {
			v = float64(x%41-20) * 0.25
		}
		rows[i] = sql.Row{keys[x*31%int64(len(keys))], x%1000 - 500, v, ts}
	}
	return rows
}

// aggFixtureSink renders every delivered row as a "sink <epoch> <hex>" line.
type aggFixtureSink struct{ lines []string }

func (s *aggFixtureSink) AddBatch(b sinks.Batch) error {
	for _, r := range b.Rows {
		s.lines = append(s.lines, fmt.Sprintf("sink %03d %s", b.Epoch, hex.EncodeToString(codec.EncodeRow(r))))
	}
	return nil
}

// aggFixtureVariant is one execution the fixture's bytes must not depend on:
// columnar or on the row stages, and a worker count.
type aggFixtureVariant struct {
	columnar bool
	opts     Options
}

// aggFixtureRun drives the plan over the fixture's epochs and renders what it
// left: one "state <path> <hex>" line per file under the checkpoint's state
// directory and one line per sink row, all sorted (Complete mode emits in the
// store's iteration order, and the reduce partitions finish in any order).
func aggFixtureRun(t *testing.T, mode logical.OutputMode, v aggFixtureVariant) []string {
	t.Helper()
	opts := v.opts
	opts.Checkpoint = t.TempDir()
	opts.NumPartitions = 3
	src := sources.NewMemorySource("events", aggFixtureSchema)
	sink := &aggFixtureSink{}
	q := compile(t, aggFixturePlan(), mode, nil)
	if !v.columnar {
		q = rowPath(q)
	}
	sq := startQuery(t, q, map[string]sources.Source{"events": src}, sink, opts)
	for e := 0; e < aggFixtureEpochs; e++ {
		src.AddData(aggFixtureRows(e)...)
		if err := sq.ProcessAllAvailable(); err != nil {
			t.Fatalf("opts=%+v: %v", opts, err)
		}
	}
	sq.Stop()
	lines := sink.lines
	root := filepath.Join(opts.Checkpoint, "state")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		rel, _ := filepath.Rel(root, path)
		lines = append(lines, fmt.Sprintf("state %s %s", filepath.ToSlash(rel), hex.EncodeToString(data)))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(lines)
	return lines
}

// aggFixtureVariants are the executions that must not show in the bytes:
// columnar and row stages, one and two workers.
func aggFixtureVariants(backend string) []aggFixtureVariant {
	var out []aggFixtureVariant
	for _, columnar := range []bool{true, false} {
		for _, workers := range []int{1, 2} {
			out = append(out, aggFixtureVariant{columnar, Options{StateBackend: backend, Workers: workers}})
		}
	}
	return out
}

func aggFixtureName(mode logical.OutputMode, backend string) string {
	return fmt.Sprintf("%s-%s.txt", strings.ToLower(mode.String()), backend)
}

func TestWriteAggFixture(t *testing.T) {
	dir := os.Getenv("AGG_WRITE_FIXTURE")
	if dir == "" {
		t.Skip("set AGG_WRITE_FIXTURE=<dir> to write the fixture with the code of this checkout")
	}
	for _, mode := range []logical.OutputMode{logical.Update, logical.Complete} {
		for _, backend := range []string{"memory", "lsm"} {
			var want []string
			for _, v := range aggFixtureVariants(backend) {
				got := aggFixtureRun(t, mode, v)
				if want == nil {
					want = got
				} else if strings.Join(got, "\n") != strings.Join(want, "\n") {
					t.Fatalf("%s/%s: columnar=%v workers=%d leaves other bytes than the first variant", mode, backend, v.columnar, v.opts.Workers)
				}
			}
			if err := os.WriteFile(filepath.Join(dir, aggFixtureName(mode, backend)), []byte(strings.Join(want, "\n")+"\n"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}
