package engine

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"structream/internal/sinks"
	"structream/internal/sources"
	"structream/internal/sql"
	"structream/internal/sql/logical"
)

// TestQueryStatusLifecycle: Status is settled atomically with Err — once
// Done() is closed, a terminal status and the matching error are visible,
// with no window where the query is done but still reads Running.
func TestQueryStatusLifecycle(t *testing.T) {
	src := sources.NewMemorySource("events", eventsSchema)
	q := compile(t, streamScan("events"), logical.Append, nil)
	sq := startQuery(t, q, map[string]sources.Source{"events": src}, sinks.NewMemorySink(), Options{})
	if got := sq.Status(); got != StatusRunning {
		t.Errorf("fresh query status = %v, want Running", got)
	}
	if err := sq.Stop(); err != nil {
		t.Fatal(err)
	}
	if got := sq.Status(); got != StatusStopped {
		t.Errorf("stopped query status = %v, want Stopped", got)
	}

	// A failing query lands in Failed with Err set by the time Done closes.
	failing := sources.NewFlakySource(sources.NewMemorySource("events", eventsSchema))
	failing.FailReads(errors.New("permanent"), 1000)
	if ms, ok := failing.Inner.(*sources.MemorySource); ok {
		ms.AddData(sql.Row{"a", 1.0, int64(0)})
	}
	q2 := compile(t, streamScan("events"), logical.Append, nil)
	sq2, err := Start(q2, map[string]sources.Source{"events": failing}, sinks.NewMemorySink(), Options{
		Checkpoint: t.TempDir(),
		Trigger:    OnceTrigger{},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-sq2.Done()
	if got := sq2.Status(); got != StatusFailed {
		t.Errorf("failed query status = %v, want Failed", got)
	}
	if sq2.Err() == nil {
		t.Error("Failed status must come with a non-nil Err")
	}
}

// TestEpochWatchdogFailsHungEpoch: a source read that hangs forever fails
// the epoch with ErrEpochTimeout instead of hanging the query, at every
// worker count; the query terminates — so its caller can restart it from
// the checkpoint — without waiting for the task the watchdog gave up on,
// and the abandoned epoch goroutine cannot commit after release.
func TestEpochWatchdogFailsHungEpoch(t *testing.T) {
	for _, workers := range []int{0, 1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			inner := sources.NewMemorySource("events", eventsSchema)
			inner.AddData(sql.Row{"a", 1.0, int64(0)})
			flaky := sources.NewFlakySource(inner)
			flaky.StallReads()
			defer flaky.ReleaseStall()
			q := compile(t, streamScan("events"), logical.Append, nil)
			sink := sinks.NewMemorySink()
			sq := startQuery(t, q, map[string]sources.Source{"events": flaky}, sink, Options{
				Trigger:      AvailableNowTrigger{},
				Workers:      workers,
				EpochTimeout: 100 * time.Millisecond,
			})
			select {
			case <-sq.Done():
			case <-time.After(2 * time.Second):
				t.Fatal("query did not terminate within 2s of a hung epoch")
			}
			if err := sq.Err(); !errors.Is(err, ErrEpochTimeout) {
				t.Fatalf("hung epoch returned %v, want ErrEpochTimeout", err)
			}
			// Releasing the stall lets the abandoned goroutine run; it must
			// abort before the sink, not deliver a batch for a dead epoch.
			flaky.ReleaseStall()
			time.Sleep(50 * time.Millisecond)
			if rows := sink.Rows(); len(rows) != 0 {
				t.Errorf("abandoned epoch delivered %d rows to the sink", len(rows))
			}
		})
	}
}

// TestContinuousWatchdogFailsStalledWorker: the continuous-mode watchdog
// fails the query when data is pending but no worker advances.
func TestContinuousWatchdogFailsStalledWorker(t *testing.T) {
	inner := sources.NewMemorySource("events", eventsSchema)
	flaky := sources.NewFlakySource(inner)
	q := compile(t, streamScan("events"), logical.Append, nil)
	sq, err := Start(q, map[string]sources.Source{"events": flaky}, sinks.NewMemorySink(), Options{
		Checkpoint:   t.TempDir(),
		Trigger:      ContinuousTrigger{EpochInterval: 10 * time.Millisecond},
		EpochTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sq.Stop()
	flaky.StallReads()
	defer flaky.ReleaseStall()
	inner.AddData(sql.Row{"a", 1.0, int64(0)})
	select {
	case <-sq.Done():
		if err := sq.Err(); !errors.Is(err, ErrEpochTimeout) {
			t.Fatalf("stalled continuous query returned %v, want ErrEpochTimeout", err)
		}
		if sq.Status() != StatusFailed {
			t.Errorf("status = %v, want Failed", sq.Status())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("continuous watchdog never fired")
	}
}

// countingSource counts the calls a continuous worker makes in its poll
// loop.
type countingSource struct {
	sources.Source
	calls *atomic.Int64
}

func (s countingSource) Latest() (sources.Offsets, error) {
	s.calls.Add(1)
	return s.Source.Latest()
}

func (s countingSource) Read(p int, from, to int64) ([]sql.Row, error) {
	s.calls.Add(1)
	return s.Source.Read(p, from, to)
}

// TestContinuousStartFailureLaunchesNothing: when one stream of a map-only
// union has no source bound, Start returns the error and leaves nothing
// behind — the other stream's workers must not be polling their source
// (and writing to the sink) for a query nobody holds a handle to. Whichever
// side is missing, so the test does not depend on pipeline order.
func TestContinuousStartFailureLaunchesNothing(t *testing.T) {
	plan := &logical.Union{Left: streamScan("a"), Right: streamScan("b")}
	q := compile(t, plan, logical.Append, nil)
	for _, bound := range []string{"a", "b"} {
		var calls atomic.Int64
		inner := sources.NewMemorySource(bound, eventsSchema)
		inner.AddData(sql.Row{"k", 1.0, int64(0)})
		sink := sinks.NewMemorySink()
		_, err := Start(q, map[string]sources.Source{bound: countingSource{inner, &calls}}, sink, Options{
			Checkpoint: t.TempDir(),
			Trigger:    ContinuousTrigger{EpochInterval: 5 * time.Millisecond},
		})
		if err == nil {
			t.Fatalf("only %q bound: Start succeeded", bound)
		}
		after := calls.Load()
		time.Sleep(50 * time.Millisecond) // a leaked worker polls every 200µs
		if now := calls.Load(); now != after {
			t.Errorf("only %q bound: %d source calls arrived after Start returned %v", bound, now-after, err)
		}
		if n := len(sink.Rows()); n != 0 {
			t.Errorf("only %q bound: %d rows reached the sink of a query that never started", bound, n)
		}
	}
}

// TestContinuousAdmissionBudget: continuous-mode workers respect
// MaxRecordsPerTrigger per epoch — intake between consecutive epoch marks
// never exceeds the budget even with a large backlog available.
func TestContinuousAdmissionBudget(t *testing.T) {
	src := sources.NewMemorySource("events", eventsSchema)
	for i := 0; i < 5000; i++ {
		src.AddData(sql.Row{"k", float64(i), int64(0)})
	}
	q := compile(t, streamScan("events"), logical.Append, nil)
	sink := sinks.NewMemorySink()
	sq, err := Start(q, map[string]sources.Source{"events": src}, sink, Options{
		Checkpoint:           t.TempDir(),
		Trigger:              ContinuousTrigger{EpochInterval: 20 * time.Millisecond},
		MaxRecordsPerTrigger: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(sink.Rows()) < 5000 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if err := sq.Stop(); err != nil {
		t.Fatal(err)
	}
	if got := len(sink.Rows()); got != 5000 {
		t.Fatalf("sink rows = %d, want 5000", got)
	}
	for _, p := range sq.EventLog().Recent(0) {
		// Workers reserve in maxPoll chunks; one in-flight poll per
		// partition may land just after a mark, so allow that slack.
		if p.NumInputRows > 300+4096 {
			t.Errorf("epoch %d admitted %d rows, far above the 300 budget", p.Epoch, p.NumInputRows)
		}
	}
}
