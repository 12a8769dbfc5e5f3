package engine

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"structream/internal/fsx"
	"structream/internal/health"
	"structream/internal/sinks"
	"structream/internal/sources"
	"structream/internal/sql"
	"structream/internal/sql/logical"
)

// jsonKeys returns the sorted key set of v's JSON object form.
func jsonKeys(t *testing.T, v any) []string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(data, &obj); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(obj))
	for k := range obj {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// missing lists the members of want that got lacks.
func missing(got, want []string) []string {
	have := map[string]bool{}
	for _, k := range got {
		have[k] = true
	}
	var out []string
	for _, k := range want {
		if !have[k] {
			out = append(out, k)
		}
	}
	return out
}

// TestTelemetryContractInBothModes pins what consumers of the monitoring
// surface parse: the QueryProgress JSON key set, the six child span names
// and the registry names the benchmark reads, for the same map-only query
// under both execution modes. The key lists were captured at the commit
// before the two modes came to share one publish path: microbatch must
// match exactly, continuous may only have gained keys. One key left the
// microbatch list since: "vectorized", which said whether the columnar path
// was switched on, went with the switch; "vectorizedRows", which counted the
// rows that ran it (and was omitted when zero), went when every row did.
// And it pins where
// those views come from: every committed epoch has exactly one record in the
// query's ring, holding its progress event, its six-stage tree and its four
// lineage instants, and the event's breakdown is the tree's, summed by name.
func TestTelemetryContractInBothModes(t *testing.T) {
	registryNames := []string{"inputRows", "outputRows", "epochs", "backlogRecords", "stage.stateCommit.us", "epoch.us"}
	// Every microbatch query runs on the task pool, at any worker count.
	poolGauges := []string{"workers", "shardTasksRun", "shardStagesRun", "shardBusyMicros"}
	cases := []struct {
		name    string
		trigger Trigger
		exact   bool
		// lineage puts a stamp's four engine-written instants in the order the
		// mode reaches them: continuous workers read and run an epoch's data
		// before the mark that admits it.
		lineage  func(health.Stamp) [4]int64
		progress []string
		source   []string
		sink     []string
		registry []string
	}{
		{
			name: "microbatch", trigger: ProcessingTimeTrigger{Interval: time.Hour}, exact: true,
			lineage: func(s health.Stamp) [4]int64 {
				return [4]int64{s.AdmitMicros, s.IngestMicros, s.ExecuteMicros, s.CommitMicros}
			},
			progress: []string{"bottleneckStage", "durationUs", "epoch", "inputRowsPerSecond", "numInputRows",
				"numOutputRows", "outputRowsPerSecond", "processingMicros", "processingMillis", "queryName",
				"sink", "sourceEndOffsetTotals", "sources", "stateBytes", "stateRows", "watermarkMicros"},
			source:   []string{"endOffsets", "inputRowsPerSecond", "latestOffsets", "name", "numInputRows", "readMicros", "startOffsets"},
			sink:     []string{"description", "numOutputRows", "outputRowsPerSecond", "writeMicros"},
			registry: append(poolGauges, registryNames...),
		},
		{
			name: "continuous", trigger: ContinuousTrigger{EpochInterval: 5 * time.Millisecond},
			lineage: func(s health.Stamp) [4]int64 {
				return [4]int64{s.IngestMicros, s.ExecuteMicros, s.AdmitMicros, s.CommitMicros}
			},
			progress: []string{"bottleneckStage", "durationUs", "epoch", "inputRowsPerSecond", "numInputRows",
				"numOutputRows", "outputRowsPerSecond", "processingMicros", "processingMillis", "queryName",
				"sink", "sources", "stateBytes", "stateRows", "watermarkMicros"},
			source:   []string{"endOffsets", "inputRowsPerSecond", "latestOffsets", "name", "numInputRows", "readMicros", "startOffsets"},
			sink:     []string{"description", "numOutputRows", "outputRowsPerSecond", "writeMicros"},
			registry: registryNames,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := sources.NewMemorySource("events", eventsSchema)
			q := compile(t, streamScan("events"), logical.Append, nil)
			sq := startQuery(t, q, map[string]sources.Source{"events": src}, sinks.NewMemorySink(), Options{Trigger: tc.trigger})
			// Enough rows that the read and the sink write each take a
			// measurable microsecond, so their omitempty fields are present.
			rows := make([]sql.Row, 20000)
			for i := range rows {
				rows[i] = sql.Row{fmt.Sprintf("k%d", i), float64(i), int64(0)}
			}
			src.AddData(rows...)
			if tc.exact {
				if err := sq.ProcessAllAvailable(); err != nil {
					t.Fatal(err)
				}
			} else {
				waitFor(t, func() bool { return sq.Metrics().Counter("epochs").Value() > 0 })
			}
			if err := sq.Stop(); err != nil {
				t.Fatal(err)
			}

			// omitempty fields come and go with an epoch's size, so the key
			// sets are the union over the run's events.
			events := sq.EventLog().Recent(0)
			if len(events) == 0 {
				t.Fatal("no progress event")
			}
			var progress, source, sink []string
			for _, p := range events {
				if len(p.Sources) != 1 || p.Sink == nil {
					t.Fatalf("sources = %+v, sink = %+v", p.Sources, p.Sink)
				}
				progress = append(progress, jsonKeys(t, p)...)
				source = append(source, jsonKeys(t, p.Sources[0])...)
				sink = append(sink, jsonKeys(t, p.Sink)...)
			}
			check := func(what string, got, want []string) {
				t.Helper()
				if lost := missing(got, want); len(lost) > 0 {
					t.Errorf("%s lost keys %v (has %v)", what, lost, got)
				}
				if gained := missing(want, got); tc.exact && len(gained) > 0 {
					t.Errorf("%s gained keys %v", what, gained)
				}
			}
			check("progress", progress, tc.progress)
			check("sources[0]", source, tc.source)
			check("sink", sink, tc.sink)

			// One record per committed epoch, and every view a read of it.
			records := sq.Epochs().Recent(0, nil)
			if len(records) != len(events) || len(sq.Epochs().Traces()) != len(events) {
				t.Fatalf("%d committed epochs, %d ring records, %d finished traces",
					len(events), len(records), len(sq.Epochs().Traces()))
			}
			want := append([]string(nil), stageNames...)
			sort.Strings(want)
			for i, rec := range records {
				p := events[i]
				if rec.Epoch != p.Epoch || rec.Progress == nil || rec.Progress.Epoch != p.Epoch || rec.Trace == nil || rec.Trace.Epoch != p.Epoch {
					t.Fatalf("record %d = %+v beside the progress event of epoch %d", i, rec, p.Epoch)
				}
				var spans []string
				for name := range childNames(rec.Trace) {
					spans = append(spans, name)
				}
				sort.Strings(spans)
				if strings.Join(spans, ",") != strings.Join(want, ",") {
					t.Errorf("epoch %d: child span names = %v, want %v", p.Epoch, spans, want)
				}
				sums := map[string]int64{}
				for _, sp := range rec.Trace.Root.Children {
					sums[sp.Name] += sp.DurationMicros
				}
				if !reflect.DeepEqual(sums, p.DurationBreakdown) {
					t.Errorf("epoch %d: durationUs = %v, the root's children sum to %v", p.Epoch, p.DurationBreakdown, sums)
				}
				stamp, ok := sq.Health().Stamp(p.Epoch)
				at := tc.lineage(stamp)
				if !ok || at[0] <= 0 || at[0] > at[1] || at[1] > at[2] || at[2] > at[3] || stamp.IngestMicros != rec.IngestMicros {
					t.Errorf("epoch %d: lineage %+v (%v) is not four instants in the mode's order", p.Epoch, stamp, ok)
				}
			}
			var registered []string
			for name := range sq.Metrics().Snapshot() {
				registered = append(registered, name)
			}
			for name := range sq.Metrics().Histograms() {
				registered = append(registered, name)
			}
			if lost := missing(registered, tc.registry); len(lost) > 0 {
				t.Errorf("registry lost %v (has %v)", lost, registered)
			}
		})
	}
}

// TestContinuousRetriesTransientReads: the engine's I/O retry promises retry
// "on a source read or sink write" and continuous workers must honour it —
// one transient read fault is absorbed, counted once, and costs no row.
func TestContinuousRetriesTransientReads(t *testing.T) {
	inner := sources.NewMemorySource("events", eventsSchema)
	flaky := sources.NewFlakySource(inner)
	flaky.FailReads(fmt.Errorf("flaky read: %w", fsx.ErrTransient), 1)
	q := compile(t, streamScan("events"), logical.Append, nil)
	sink := sinks.NewMemorySink()
	sq := startQuery(t, q, map[string]sources.Source{"events": flaky}, sink, Options{
		Trigger: ContinuousTrigger{EpochInterval: 5 * time.Millisecond},
	})
	for i := 0; i < 10; i++ {
		inner.AddData(sql.Row{fmt.Sprintf("k%d", i), float64(i), int64(0)})
	}
	waitFor(t, func() bool { return len(sink.Rows()) >= 10 || sq.Err() != nil })
	waitFor(t, func() bool { return sq.Metrics().Counter("epochs").Value() > 0 || sq.Err() != nil })
	if err := sq.Stop(); err != nil {
		t.Fatalf("transient read fault not absorbed: %v", err)
	}
	got := sortedStrings(sink.Rows())
	if len(got) != 10 {
		t.Fatalf("sink holds %d rows, want 10: %v", len(got), got)
	}
	for i := 1; i < len(got); i++ {
		if got[i] == got[i-1] {
			t.Errorf("duplicated row %s", got[i])
		}
	}
	if n := sq.Metrics().Counter("ioRetries").Value(); n != 1 {
		t.Errorf("ioRetries = %d, want 1", n)
	}
	if p, ok := sq.LastProgress(); !ok || p.IORetries != 1 {
		t.Errorf("progress.IORetries = %d (ok=%v), want 1", p.IORetries, ok)
	}
}

// TestContinuousCountsCorruptWALTail: a torn uncommitted offsets entry
// dropped by recovery is counted in continuous mode as it is in microbatch
// mode, on the registry and in the progress event.
func TestContinuousCountsCorruptWALTail(t *testing.T) {
	ckpt := t.TempDir()
	src := sources.NewMemorySource("events", eventsSchema)
	start := func(sink sinks.Sink) *StreamingQuery {
		q := compile(t, streamScan("events"), logical.Append, nil)
		return startQuery(t, q, map[string]sources.Source{"events": src}, sink, Options{
			Checkpoint: ckpt,
			Trigger:    ContinuousTrigger{EpochInterval: 5 * time.Millisecond},
		})
	}
	sq := start(sinks.NewMemorySink())
	src.AddData(sql.Row{"a", 1.0, int64(0)})
	waitFor(t, func() bool { return sq.Metrics().Counter("epochs").Value() > 0 })
	if err := sq.Stop(); err != nil {
		t.Fatal(err)
	}
	// A crash tears the next epoch's offsets entry after the atomic rename
	// made it visible but before any of its effects committed.
	next := sq.LastCommittedEpoch() + 1
	torn := filepath.Join(ckpt, "offsets", fmt.Sprintf("%012d.json", next))
	if err := os.WriteFile(torn, []byte(`{"epoch": 1, "time`), 0o644); err != nil {
		t.Fatal(err)
	}

	sink := sinks.NewMemorySink()
	sq = start(sink)
	if got := sq.Metrics().Counter("corruptionsDetected").Value(); got != 1 {
		t.Errorf("corruptionsDetected = %d, want 1", got)
	}
	src.AddData(sql.Row{"b", 2.0, int64(0)})
	waitFor(t, func() bool { return sq.Metrics().Counter("epochs").Value() > 0 })
	if err := sq.Stop(); err != nil {
		t.Fatal(err)
	}
	if p, ok := sq.LastProgress(); !ok || p.CorruptionsDetected != 1 {
		t.Errorf("progress.CorruptionsDetected = %d (ok=%v), want 1", p.CorruptionsDetected, ok)
	}
	expectRows(t, sink.Rows(), "[b, 2.0, 0]")
}
