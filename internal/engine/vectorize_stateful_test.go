package engine

import (
	"fmt"
	"reflect"
	"testing"

	"structream/internal/incremental"
	"structream/internal/sinks"
	"structream/internal/sources"
	"structream/internal/sql"
	"structream/internal/sql/logical"
)

// The stateful differential: the map side (kernels, columnar partial
// aggregation, the cell exchange) must leave the sink the parent's row
// stages left (testdata/parent-rowpath) for every output mode, memtable
// budget and worker count, and equal the batch query over the consumed
// prefix after every epoch. These shapes aim at the stateful machinery
// specifically: NULL grouping keys, watermark-expired groups, and mid-epoch
// type drift, whose batch holds the drifted column boxed.

// runStatefulEpochs drives q, a compile of plan, over the epochs with full
// Options control, checks the sink against the batch oracle after each, and
// returns it.
func runStatefulEpochs(t *testing.T, q *incremental.Query, plan logical.Plan, mode logical.OutputMode, epochs [][]sql.Row, opts Options) *sinks.MemorySink {
	t.Helper()
	src := sources.NewMemorySource("events", eventsSchema)
	sink := sinks.NewMemorySink()
	sq := startQuery(t, q, map[string]sources.Source{"events": src}, sink, opts)
	oracle := newBatchOracle(t, plan, mode)
	for i, rows := range epochs {
		src.AddData(rows...)
		if err := sq.ProcessAllAvailable(); err != nil {
			t.Fatalf("opts=%+v: %v", opts, err)
		}
		oracle.epoch(rows)
		oracle.check(t, sink.Rows(), fmt.Sprintf("after epoch %d", i))
	}
	return sink
}

// The shapes and epochs are statefulShapes and statefulEpochs
// (rowpath_fixture_gen_test.go), the definition of the fixture.
func TestStatefulVectorizeDifferential(t *testing.T) {
	epochs := statefulEpochs()
	for name, s := range statefulShapes() {
		golden := readRowPathFixture(t, "stateful-"+name)
		for _, budget := range stateBudgets {
			for _, workers := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("%s/%s/w%d", name, budget.name, workers), func(t *testing.T) {
					opts := Options{StateMemtableBytes: budget.bytes, Workers: workers}
					sink := runStatefulEpochs(t, compile(t, s.plan, s.mode, nil), s.plan, s.mode, epochs, opts)
					if got := renderEpochs(sink, len(epochs)+2, s.unordered); !reflect.DeepEqual(got, golden) {
						t.Fatalf("the sink holds other rows than the parent's:\n got  %v\n want %v", got, golden)
					}
				})
			}
		}
	}
}

// TestStatefulVectorizeSmallTriggers re-runs the watermarked shape with a
// tiny admission cap so epochs split mid-group: partial buffers for one
// logical group then arrive across several epochs, and the merged groups
// must be the batch query's and the parent's, at every memtable budget.
func TestStatefulVectorizeSmallTriggers(t *testing.T) {
	plan, rows := smallTriggerPlan(), smallTriggerRows()
	golden := readRowPathFixture(t, "small-triggers")
	for _, budget := range stateBudgets {
		t.Run(budget.name, func(t *testing.T) {
			sink := smallTriggerRun(t, budget.bytes)
			// The source's one partition runs its backlog smallTriggerPerEpoch
			// rows an epoch.
			oracle := newBatchOracle(t, plan, logical.Append)
			for i := 0; i < len(rows); i += smallTriggerPerEpoch {
				oracle.epoch(rows[i:min(i+smallTriggerPerEpoch, len(rows))])
			}
			oracle.check(t, sink.Rows(), "after the backlog")
			if got := fixtureLines(sink.Rows(), false); !reflect.DeepEqual(got, golden) {
				t.Fatalf("the sink holds other rows than the parent's:\n got  %v\n want %v", got, golden)
			}
		})
	}
}
