package engine

import (
	"bytes"
	"errors"
	"fmt"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	"structream/internal/sinks"
	"structream/internal/sources"
	"structream/internal/sql"
	"structream/internal/sql/logical"
	"structream/internal/trace"
)

// stageNames is the six-stage taxonomy every committed epoch must carry.
var stageNames = []string{"planning", "getBatch", "execution", "stateCommit", "walCommit", "sinkCommit"}

// childNames collects the names of a trace root's direct children.
func childNames(et *trace.EpochTrace) map[string]bool {
	names := map[string]bool{}
	for _, c := range et.Root.Children {
		names[c.Name] = true
	}
	return names
}

// TestMicrobatchTraceCompleteness: every committed microbatch epoch —
// including one driving a stateful operator — retains a full span tree:
// root plus all six stage children.
func TestMicrobatchTraceCompleteness(t *testing.T) {
	src := sources.NewMemorySource("events", eventsSchema)
	q := compile(t, countByKey(streamScan("events")), logical.Complete, nil)
	sq := startQuery(t, q, map[string]sources.Source{"events": src}, sinks.NewMemorySink(), Options{})

	for i := 0; i < 3; i++ {
		src.AddData(sql.Row{fmt.Sprintf("k%d", i), float64(i), int64(0)})
		if err := sq.ProcessAllAvailable(); err != nil {
			t.Fatal(err)
		}
	}

	epochs := sq.Epochs().Traces()
	if len(epochs) != 3 {
		t.Fatalf("retained %d epoch traces, want 3", len(epochs))
	}
	for _, et := range epochs {
		if et.Mode != "microbatch" {
			t.Errorf("epoch %d mode = %q", et.Epoch, et.Mode)
		}
		if et.Root == nil || et.Root.Name != "epoch" {
			t.Fatalf("epoch %d has no root span", et.Epoch)
		}
		if et.Root.Attrs["committed"] != 1 {
			t.Errorf("epoch %d not marked committed: %v", et.Epoch, et.Root.Attrs)
		}
		if got := et.OpenStage(); got != "" {
			t.Errorf("epoch %d still has open stage %q after commit", et.Epoch, got)
		}
		names := childNames(et)
		for _, want := range stageNames {
			if !names[want] {
				t.Errorf("epoch %d trace missing stage %q (has %v)", et.Epoch, want, names)
			}
		}
	}
	if n := len(sq.Epochs().Recent(0, nil)); n != 3 {
		t.Errorf("the ring holds %d records, %d of them finished: no epoch should be in flight after ProcessAllAvailable", n, len(epochs))
	}
	if rec, ok := sq.Epochs().Record(1); !ok || rec.Trace != epochs[1] {
		t.Error("Record(1) lookup failed")
	}
}

// TestDurationBreakdownSumsToWallTime: the six DurationBreakdown segments
// are contiguous wall-clock sections, so their sum lands within 10% of
// ProcessingMicros — the ISSUE 3 acceptance bound — even for a stateful
// query whose fused stages are split proportionally, with the map stage
// unsplit and split across two workers.
func TestDurationBreakdownSumsToWallTime(t *testing.T) {
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			src := sources.NewMemorySource("events", eventsSchema)
			q := compile(t, countByKey(streamScan("events")), logical.Complete, nil)
			sq := startQuery(t, q, map[string]sources.Source{"events": src}, sinks.NewMemorySink(), Options{Workers: workers})

			for epoch := 0; epoch < 3; epoch++ {
				rows := make([]sql.Row, 0, 4000)
				for i := 0; i < 4000; i++ {
					rows = append(rows, sql.Row{fmt.Sprintf("k%d", i%97), float64(i), int64(0)})
				}
				src.AddData(rows...)
				if err := sq.ProcessAllAvailable(); err != nil {
					t.Fatal(err)
				}
			}

			events := sq.EventLog().Recent(10)
			if len(events) != 3 {
				t.Fatalf("got %d progress events, want 3", len(events))
			}
			for _, p := range events {
				if p.ProcessingMicros <= 0 {
					t.Fatalf("epoch %d: ProcessingMicros = %d", p.Epoch, p.ProcessingMicros)
				}
				var sum int64
				for _, stage := range stageNames {
					v, ok := p.DurationBreakdown[stage]
					if !ok {
						t.Fatalf("epoch %d: breakdown missing %q: %v", p.Epoch, stage, p.DurationBreakdown)
					}
					if v < 0 {
						t.Fatalf("epoch %d: negative segment %s=%d", p.Epoch, stage, v)
					}
					sum += v
				}
				diff := p.ProcessingMicros - sum
				if diff < 0 {
					diff = -diff
				}
				if diff*10 > p.ProcessingMicros {
					t.Errorf("epoch %d: breakdown sum %dµs vs ProcessingMicros %dµs — off by more than 10%% (%v)",
						p.Epoch, sum, p.ProcessingMicros, p.DurationBreakdown)
				}
				// A stateful epoch spends time on both sides of the reduce
				// stage's split: store open/commit and op.Process.
				if p.DurationBreakdown["stateCommit"] == 0 || p.DurationBreakdown["execution"] == 0 {
					t.Errorf("epoch %d: reduce-stage split lost a side: %v", p.Epoch, p.DurationBreakdown)
				}
				if p.BottleneckStage == "" {
					t.Errorf("epoch %d: no bottleneck stage", p.Epoch)
				}
				if p.ProcessingMillis != p.ProcessingMicros/1000 {
					t.Errorf("epoch %d: millis %d inconsistent with micros %d", p.Epoch, p.ProcessingMillis, p.ProcessingMicros)
				}
			}
		})
	}
}

// TestContinuousTraceCompleteness: continuous-mode epoch marks also
// retain the full six-stage span tree.
func TestContinuousTraceCompleteness(t *testing.T) {
	src := sources.NewMemorySource("events", eventsSchema)
	plan := streamScan("events")
	q := compile(t, plan, logical.Append, nil)
	sink := sinks.NewMemorySink()
	sq, err := Start(q, map[string]sources.Source{"events": src}, sink, Options{
		Checkpoint: t.TempDir(),
		Trigger:    ContinuousTrigger{EpochInterval: 5 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sq.Stop()
	src.AddData(sql.Row{"a", 1.0, int64(0)}, sql.Row{"b", 2.0, int64(0)})
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && sq.Metrics().Counter("epochs").Value() == 0 {
		time.Sleep(2 * time.Millisecond)
	}
	if err := sq.Stop(); err != nil {
		t.Fatal(err)
	}

	epochs := sq.Epochs().Traces()
	if len(epochs) == 0 {
		t.Fatal("no epoch traces retained")
	}
	for _, et := range epochs {
		if et.Mode != "continuous" {
			t.Errorf("epoch %d mode = %q", et.Epoch, et.Mode)
		}
		if et.Root.Attrs["committed"] != 1 {
			t.Errorf("epoch %d not marked committed", et.Epoch)
		}
		names := childNames(et)
		for _, want := range stageNames {
			if !names[want] {
				t.Errorf("epoch %d trace missing stage %q (has %v)", et.Epoch, want, names)
			}
		}
	}
	// The continuous progress event carries the same observability surface.
	p, ok := sq.LastProgress()
	if !ok {
		t.Fatal("no progress event")
	}
	if p.Sink == nil || p.Sink.Description != "memory" {
		t.Errorf("sink section = %+v", p.Sink)
	}
	if len(p.Sources) != 1 || p.Sources[0].Name != "events" {
		t.Errorf("sources section = %+v", p.Sources)
	}
	for _, stage := range stageNames {
		if _, ok := p.DurationBreakdown[stage]; !ok {
			t.Errorf("continuous breakdown missing %q: %v", stage, p.DurationBreakdown)
		}
	}
}

// TestWatchdogVerdictNamesHungStage: when the epoch watchdog fires, its
// error names the stage the epoch is stuck in, read from the open-span stack
// of the epoch's record in the ring, and the record is retained: the partial
// tree with its open stage, no progress event, no lineage.
func TestWatchdogVerdictNamesHungStage(t *testing.T) {
	inner := sources.NewMemorySource("events", eventsSchema)
	inner.AddData(sql.Row{"a", 1.0, int64(0)})
	flaky := sources.NewFlakySource(inner)
	q := compile(t, streamScan("events"), logical.Append, nil)
	sq := startQuery(t, q, map[string]sources.Source{"events": flaky}, sinks.NewMemorySink(), Options{
		EpochTimeout: 100 * time.Millisecond,
	})
	flaky.StallReads()
	defer flaky.ReleaseStall()
	err := sq.ProcessAllAvailable()
	if !errors.Is(err, ErrEpochTimeout) {
		t.Fatalf("hung epoch returned %v, want ErrEpochTimeout", err)
	}
	if !strings.Contains(err.Error(), `in stage "getBatch"`) {
		t.Errorf("watchdog verdict does not name the hung stage: %v", err)
	}
	// The abandoned epoch's partial trace was sealed and retained.
	epochs := sq.Epochs().Traces()
	if len(epochs) != 1 {
		t.Fatalf("retained %d traces, want the abandoned epoch", len(epochs))
	}
	if epochs[0].Root.Attrs["abandonedByWatchdog"] != 1 {
		t.Errorf("abandoned trace attrs = %v", epochs[0].Root.Attrs)
	}
	rec, ok := sq.Epochs().Record(0)
	if !ok || rec.Trace != epochs[0] || rec.Trace.OpenStage() != "getBatch" {
		t.Errorf("the abandoned epoch's record = %+v (%v), want its tree with getBatch still open", rec, ok)
	}
	if _, stamped := sq.Health().Stamp(0); rec.Progress != nil || stamped || len(sq.EventLog().Recent(0)) != 0 {
		t.Errorf("an epoch that never committed has progress %v or lineage (%v)", rec.Progress, stamped)
	}
}

// TestTelemetryInBothModes: a microbatch and a continuous query both carry
// an epoch ring and a health tracker reading it — one constructor wires them
// for both.
func TestTelemetryInBothModes(t *testing.T) {
	for _, trig := range []Trigger{
		ProcessingTimeTrigger{Interval: time.Hour},
		ContinuousTrigger{EpochInterval: 5 * time.Millisecond},
	} {
		src := sources.NewMemorySource("events", eventsSchema)
		q := compile(t, streamScan("events"), logical.Append, nil)
		sq := startQuery(t, q, map[string]sources.Source{"events": src}, sinks.NewMemorySink(), Options{Trigger: trig})
		if sq.Epochs() == nil || sq.Health() == nil {
			t.Errorf("%T: Epochs() = %v, Health() = %v, want both", trig, sq.Epochs(), sq.Health())
		}
		if rep := sq.Health().Health(); rep.Query != "query" {
			t.Errorf("%T: health report = %+v", trig, rep)
		}
	}
}

// gate blocks the first call through it until released, and says when
// that call has arrived; later calls pass.
type gate struct {
	once             sync.Once
	arrived, release chan struct{}
}

func newGate() *gate { return &gate{arrived: make(chan struct{}), release: make(chan struct{})} }

func (g *gate) pass() {
	g.once.Do(func() {
		close(g.arrived)
		<-g.release
	})
}

// gatedSource blocks its first row read in the gate. Vector reads are not
// offered, so every map task reads rows.
type gatedSource struct {
	sources.Source
	g *gate
}

func (s *gatedSource) Read(p int, from, to int64) ([]sql.Row, error) {
	s.g.pass()
	return s.Source.Read(p, from, to)
}

// TestProfilerLabels: a goroutine profile taken while a map task blocks in
// its source shows that task's goroutine labelled with the query, the stage
// and the source partition, and the epoch's own goroutine, waiting in
// getBatch, labelled with the query and that stage; one taken while the sink
// blocks shows the epoch's goroutine in sinkCommit.
func TestProfilerLabels(t *testing.T) {
	src := sources.NewMemorySource("events", eventsSchema)
	read, write := newGate(), newGate()
	q := compile(t, streamScan("events"), logical.Append, nil)
	sq := startQuery(t, q, map[string]sources.Source{"events": &gatedSource{src, read}},
		&hookSink{sinks.NewMemorySink(), func(int64) { write.pass() }}, Options{Name: "labelled"})
	src.AddData(sql.Row{"a", 1.0, int64(0)})
	done := make(chan error, 1)
	go func() { done <- sq.ProcessAllAvailable() }()

	labels := func() string {
		var b bytes.Buffer
		if err := pprof.Lookup("goroutine").WriteTo(&b, 1); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	<-read.arrived
	got := labels()
	for _, want := range []string{
		`# labels: {"partition":"0", "query":"labelled", "stage":"map"}`,
		`# labels: {"query":"labelled", "stage":"getBatch"}`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("goroutine profile while the map task blocks lacks %s:\n%s", want, got)
		}
	}
	close(read.release)
	<-write.arrived
	if got, want := labels(), `# labels: {"query":"labelled", "stage":"sinkCommit"}`; !strings.Contains(got, want) {
		t.Errorf("goroutine profile while the sink blocks lacks %s:\n%s", want, got)
	}
	close(write.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
