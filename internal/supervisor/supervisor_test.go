package supervisor

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"structream/internal/engine"
	"structream/internal/fsx"
	"structream/internal/msgbus"
	"structream/internal/sinks"
	"structream/internal/sources"
	"structream/internal/sql"
	"structream/internal/sql/codec"
	"structream/internal/sql/logical"
)

func TestDefaultClassifier(t *testing.T) {
	cases := []struct {
		err  error
		want Class
	}{
		{fsx.Transient("flaky nic"), Transient},
		{fmt.Errorf("wrap: %w", fsx.ErrCrash), Transient},
		{fmt.Errorf("epoch 3 hung: %w", engine.ErrEpochTimeout), Transient},
		{errors.New("never seen before"), Transient},
		{fmt.Errorf("frame: %w", fsx.ErrCorrupt), Fatal},
		{MarkFatal(errors.New("schema drift")), Fatal},
	}
	for _, c := range cases {
		if got := DefaultClassifier(c.err); got != c.want {
			t.Errorf("classify(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

// TestSupervisorRestartsOnTransientFailure: a query whose source throws a
// burst of transient errors is restarted from its checkpoint and finishes
// the stream; the restart surfaces in lifecycle events, Restarts(), and in
// QueryProgress counters.
func TestSupervisorRestartsOnTransientFailure(t *testing.T) {
	inner := sources.NewMemorySource("events", eventsSchema)
	for i := 0; i < 40; i++ {
		inner.AddData(sql.Row{fmt.Sprintf("k%d", i), float64(i), int64(0)})
	}
	flaky := sources.NewFlakySource(inner)
	sink := sinks.NewMemorySink()
	ckpt := t.TempDir()
	var instances atomic.Int64

	var mu sync.Mutex
	var heard []EventKind

	sup, err := Supervise(Spec{
		Name: "restart-test",
		Start: func(restart int64) (*engine.StreamingQuery, error) {
			if instances.Add(1) == 1 {
				// One failure more than the engine's I/O retry absorbs
				// (MaxIORetries + 1 reads): the epoch fails, and nothing
				// below the supervisor runs a failed task again.
				flaky.FailReads(fsx.Transient("injected read fault"), 2)
			} else {
				flaky.FailReads(nil, 0)
			}
			q := compileQuery(t, projectionPlan(), logical.Append)
			return engine.Start(q, map[string]sources.Source{"events": flaky}, sink, engine.Options{
				Checkpoint:   ckpt,
				Trigger:      engine.ProcessingTimeTrigger{Interval: 2 * time.Millisecond},
				MaxIORetries: 1,
				RetryBackoff: time.Millisecond,
			})
		},
		Policy: Policy{InitialBackoff: 2 * time.Millisecond, MaxRestartsPerWindow: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Stop()
	sup.AddListener(func(ev Event) {
		mu.Lock()
		heard = append(heard, ev.Kind)
		mu.Unlock()
	})

	// The replacement instance can push rows before the supervisor finishes
	// recording the restart, so wait for the bookkeeping too, not just the
	// sink.
	waitFor(t, 10*time.Second, func() bool {
		return len(sink.Rows()) == 40 && sup.Restarts() >= 1 && sup.Status() == engine.StatusRunning
	}, "all rows through the sink and restart recorded")
	if got := sup.Restarts(); got < 1 {
		t.Errorf("Restarts() = %d, want >= 1", got)
	}
	if got := sup.Status(); got != engine.StatusRunning {
		t.Errorf("Status() = %v, want Running", got)
	}

	kinds := map[EventKind]int{}
	for _, ev := range sup.Events() {
		kinds[ev.Kind]++
	}
	if kinds[QueryStarted] < 2 || kinds[QueryFailed] < 1 || kinds[QueryRestarted] < 1 {
		t.Errorf("event counts = %v, want started>=2 failed>=1 restarted>=1", kinds)
	}
	mu.Lock()
	heardAny := len(heard) > 0
	mu.Unlock()
	if !heardAny {
		t.Error("listener registered after start received no events")
	}

	// Restart bookkeeping must be visible in the engine's progress events
	// (on epochs run after the restart; recovery replay precedes the
	// supervisor's counter threading).
	inner.AddData(sql.Row{"extra", 99.0, int64(0)})
	waitFor(t, 5*time.Second, func() bool {
		p, ok := sup.Query().LastProgress()
		return ok && p.NumInputRows > 0 && p.Restarts == sup.Restarts()
	}, "Restarts counter in QueryProgress")
	if p, _ := sup.Query().LastProgress(); p.RestartBackoffMillis < 1 {
		t.Errorf("RestartBackoffMillis = %d, want >= 1", p.RestartBackoffMillis)
	}

	if err := sup.Stop(); err != nil {
		t.Errorf("Stop() = %v", err)
	}
	if got := sup.Status(); got != engine.StatusStopped {
		t.Errorf("after Stop, Status() = %v", got)
	}
}

// TestSupervisorGivesUpOnFatal: a classified-fatal error is never retried.
func TestSupervisorGivesUpOnFatal(t *testing.T) {
	inner := sources.NewMemorySource("events", eventsSchema)
	inner.AddData(sql.Row{"a", 1.0, int64(0)})
	flaky := sources.NewFlakySource(inner)
	flaky.FailReads(MarkFatal(errors.New("incompatible schema")), 1000)
	sink := sinks.NewMemorySink()
	var instances atomic.Int64

	sup, err := Supervise(Spec{
		Name: "fatal-test",
		Start: func(restart int64) (*engine.StreamingQuery, error) {
			instances.Add(1)
			q := compileQuery(t, projectionPlan(), logical.Append)
			return engine.Start(q, map[string]sources.Source{"events": flaky}, sink, engine.Options{
				Checkpoint:   t.TempDir(),
				Trigger:      engine.ProcessingTimeTrigger{Interval: time.Millisecond},
				MaxIORetries: -1,
			})
		},
		Policy: Policy{InitialBackoff: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	werr := sup.Wait()
	if werr == nil || !errors.Is(werr, errFatal) {
		t.Fatalf("Wait() = %v, want the marked-fatal error", werr)
	}
	if got := sup.Status(); got != engine.StatusFailed {
		t.Errorf("Status() = %v, want Failed", got)
	}
	if got := sup.Restarts(); got != 0 {
		t.Errorf("Restarts() = %d, want 0 (fatal must not restart)", got)
	}
	if got := instances.Load(); got != 1 {
		t.Errorf("instances = %d, want 1", got)
	}
	evs := sup.Events()
	if len(evs) == 0 || evs[len(evs)-1].Kind != QueryGaveUp {
		t.Errorf("last event = %+v, want QueryGaveUp", evs[len(evs)-1])
	}
	if evs[len(evs)-1].Class != Fatal {
		t.Errorf("gave-up class = %v, want Fatal", evs[len(evs)-1].Class)
	}
}

// TestCircuitBreakerBoundsCrashLoop: a query that fails on every instance
// stops being restarted once MaxRestartsPerWindow is exhausted.
func TestCircuitBreakerBoundsCrashLoop(t *testing.T) {
	inner := sources.NewMemorySource("events", eventsSchema)
	inner.AddData(sql.Row{"a", 1.0, int64(0)})
	flaky := sources.NewFlakySource(inner)
	flaky.FailReads(fsx.Transient("persistently flaky"), 1<<30)

	sup, err := Supervise(Spec{
		Name: "breaker-test",
		Start: func(restart int64) (*engine.StreamingQuery, error) {
			q := compileQuery(t, projectionPlan(), logical.Append)
			return engine.Start(q, map[string]sources.Source{"events": flaky}, sink(), engine.Options{
				Checkpoint:   t.TempDir(),
				Trigger:      engine.ProcessingTimeTrigger{Interval: time.Millisecond},
				MaxIORetries: -1,
			})
		},
		Policy: Policy{
			InitialBackoff:       time.Millisecond,
			MaxBackoff:           2 * time.Millisecond,
			MaxRestartsPerWindow: 3,
			Window:               time.Minute,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	werr := sup.Wait()
	if werr == nil || !strings.Contains(werr.Error(), "circuit breaker open") {
		t.Fatalf("Wait() = %v, want circuit breaker error", werr)
	}
	if got := sup.Restarts(); got != 3 {
		t.Errorf("Restarts() = %d, want exactly MaxRestartsPerWindow=3", got)
	}
	evs := sup.Events()
	if evs[len(evs)-1].Kind != QueryGaveUp {
		t.Errorf("last event = %v, want QueryGaveUp", evs[len(evs)-1].Kind)
	}
}

func sink() *sinks.MemorySink { return sinks.NewMemorySink() }

// TestBackoffGrowsExponentially: with jitter disabled, consecutive restart
// backoffs follow InitialBackoff × Multiplier^n, capped at MaxBackoff, and
// each is recorded on its QueryRestarted event.
func TestBackoffGrowsExponentially(t *testing.T) {
	inner := sources.NewMemorySource("events", eventsSchema)
	inner.AddData(sql.Row{"a", 1.0, int64(0)})
	flaky := sources.NewFlakySource(inner)
	flaky.FailReads(fsx.Transient("always"), 1<<30)

	sup, err := Supervise(Spec{
		Name: "backoff-test",
		Start: func(restart int64) (*engine.StreamingQuery, error) {
			q := compileQuery(t, projectionPlan(), logical.Append)
			return engine.Start(q, map[string]sources.Source{"events": flaky}, sink(), engine.Options{
				Checkpoint:   t.TempDir(),
				Trigger:      engine.ProcessingTimeTrigger{Interval: time.Millisecond},
				MaxIORetries: -1,
			})
		},
		Policy: Policy{
			InitialBackoff:       2 * time.Millisecond,
			MaxBackoff:           16 * time.Millisecond,
			Multiplier:           2,
			Jitter:               -1, // exact doubling for the test
			MaxRestartsPerWindow: 6,
			Window:               time.Minute,
			StableAfter:          time.Hour, // never reset within the test
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if werr := sup.Wait(); werr == nil {
		t.Fatal("crash loop should end in an error")
	}
	var backoffs []time.Duration
	for _, ev := range sup.Events() {
		if ev.Kind == QueryRestarted {
			backoffs = append(backoffs, ev.Backoff)
		}
	}
	want := []time.Duration{2, 4, 8, 16, 16, 16}
	if len(backoffs) != 6 {
		t.Fatalf("restarted %d times, want 6 (backoffs %v)", len(backoffs), backoffs)
	}
	for i, b := range backoffs {
		if b != want[i]*time.Millisecond {
			t.Errorf("backoff %d = %v, want %v", i, b, want[i]*time.Millisecond)
		}
	}
}

// TestSupervisorRestartsFailedStart: an error out of Spec.Start on a
// restart attempt is classified and retried like any other failure, and
// the supervisor recovers once Start succeeds again.
func TestSupervisorRestartsFailedStart(t *testing.T) {
	inner := sources.NewMemorySource("events", eventsSchema)
	for i := 0; i < 8; i++ {
		inner.AddData(sql.Row{fmt.Sprintf("k%d", i), float64(i), int64(0)})
	}
	flaky := sources.NewFlakySource(inner)
	sink := sinks.NewMemorySink()
	ckpt := t.TempDir()
	var instances atomic.Int64

	sup, err := Supervise(Spec{
		Name: "failed-start-test",
		Start: func(restart int64) (*engine.StreamingQuery, error) {
			switch instances.Add(1) {
			case 1:
				flaky.FailReads(fsx.Transient("kill first instance"), 20)
			case 2:
				return nil, fsx.Transient("checkpoint store briefly unreachable")
			default:
				flaky.FailReads(nil, 0)
			}
			q := compileQuery(t, projectionPlan(), logical.Append)
			return engine.Start(q, map[string]sources.Source{"events": flaky}, sink, engine.Options{
				Checkpoint:   ckpt,
				Trigger:      engine.ProcessingTimeTrigger{Interval: 2 * time.Millisecond},
				MaxIORetries: 1,
				RetryBackoff: time.Millisecond,
			})
		},
		Policy: Policy{InitialBackoff: 2 * time.Millisecond, MaxRestartsPerWindow: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Stop()
	waitFor(t, 10*time.Second, func() bool { return len(sink.Rows()) == 8 }, "rows after a failed restart attempt")
	if got := instances.Load(); got < 3 {
		t.Errorf("instances = %d, want >= 3 (initial, failed start, recovery)", got)
	}
}

// TestSupervisorSurvivesFlakyBroker drives a supervised query off the
// message bus and injects a burst of fetch faults at the broker — the
// transport analogue of the flaky-source tests above. The first instance
// dies once its retry budget is exhausted; the supervisor restarts it, the
// fault hook is cleared, and the restarted query drains the topic from its
// checkpointed offsets.
func TestSupervisorSurvivesFlakyBroker(t *testing.T) {
	broker := msgbus.NewBroker()
	topic, err := broker.CreateTopic("events", 1)
	if err != nil {
		t.Fatal(err)
	}
	const total = 30
	for i := 0; i < total; i++ {
		row := sql.Row{fmt.Sprintf("k%d", i), float64(i), int64(0)}
		if _, err := topic.Append(0, msgbus.Record{Value: codec.EncodeRow(row)}); err != nil {
			t.Fatal(err)
		}
	}

	sink := sinks.NewMemorySink()
	ckpt := t.TempDir()
	var instances atomic.Int64
	sup, err := Supervise(Spec{
		Name: "flaky-broker",
		Start: func(restart int64) (*engine.StreamingQuery, error) {
			if instances.Add(1) == 1 {
				// One fault more than the engine's I/O retry absorbs
				// (MaxIORetries + 1 = 2 fetches): the task fails, and with
				// it the epoch — a task runs once.
				var remaining atomic.Int64
				remaining.Store(2)
				topic.InjectFetchFault(func(part int, from int64) error {
					if remaining.Add(-1) >= 0 {
						return fsx.Transient("broker connection reset")
					}
					return nil
				})
			} else {
				topic.InjectFetchFault(nil)
			}
			q := compileQuery(t, projectionPlan(), logical.Append)
			src := sources.NewCodecBusSource("events", topic, eventsSchema)
			return engine.Start(q, map[string]sources.Source{"events": src}, sink, engine.Options{
				Checkpoint:   ckpt,
				Trigger:      engine.ProcessingTimeTrigger{Interval: 2 * time.Millisecond},
				MaxIORetries: 1,
				RetryBackoff: time.Millisecond,
			})
		},
		Policy: Policy{InitialBackoff: 2 * time.Millisecond, MaxRestartsPerWindow: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Stop()

	// As above: the sink can fill before the restart bookkeeping lands.
	waitFor(t, 10*time.Second, func() bool {
		return len(sink.Rows()) == total && sup.Restarts() >= 1 && sup.Status() == engine.StatusRunning
	}, "topic drained through the sink and restart recorded")
	if got := sup.Restarts(); got < 1 {
		t.Errorf("Restarts() = %d, want >= 1 (fetch faults should have killed instance 1)", got)
	}
	if got := sup.Status(); got != engine.StatusRunning {
		t.Errorf("Status() = %v, want Running", got)
	}
	// Exactly-once through the restart: every key once, values doubled.
	seen := map[string]bool{}
	for _, r := range sink.Rows() {
		k := r[0].(string)
		if seen[k] {
			t.Fatalf("duplicate key %q in sink after restart", k)
		}
		seen[k] = true
	}
	if err := sup.Stop(); err != nil {
		t.Fatal(err)
	}
}

// TestArrivalRestartLeavesOneRegistration: a supervised, arrival-driven
// query over the bus dies on fetch faults, is restarted on the same topic,
// and goes on being woken by appends; the dead instance's wake channel is
// gone from the topic, the replacement's is the only one, and Stop removes
// that too.
func TestArrivalRestartLeavesOneRegistration(t *testing.T) {
	topic, err := msgbus.NewBroker().CreateTopic("events", 1)
	if err != nil {
		t.Fatal(err)
	}
	produce := func(i int) {
		row := sql.Row{fmt.Sprintf("k%d", i), float64(i), int64(0)}
		if _, err := topic.Append(0, msgbus.Record{Value: codec.EncodeRow(row)}); err != nil {
			t.Fatal(err)
		}
	}
	sink := sinks.NewMemorySink()
	ckpt := t.TempDir()
	var faults atomic.Int64
	topic.InjectFetchFault(func(part int, from int64) error {
		if faults.Add(-1) >= 0 {
			return fsx.Transient("broker connection reset")
		}
		return nil
	})
	sup, err := Supervise(Spec{
		Name: "arrival-restart",
		Start: func(restart int64) (*engine.StreamingQuery, error) {
			q := compileQuery(t, projectionPlan(), logical.Append)
			src := sources.NewCodecBusSource("events", topic, eventsSchema)
			return engine.Start(q, map[string]sources.Source{"events": src}, sink, engine.Options{
				Checkpoint:   ckpt,
				Trigger:      engine.ProcessingTimeTrigger{},
				MaxIORetries: 1,
				RetryBackoff: time.Millisecond,
			})
		},
		Policy: Policy{InitialBackoff: 2 * time.Millisecond, MaxRestartsPerWindow: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Stop()

	produce(0)
	waitFor(t, 10*time.Second, func() bool { return len(sink.Rows()) == 1 }, "the first record")
	first := sup.Query()
	faults.Store(2) // MaxIORetries + 1 fetches: the next epoch fails
	produce(1)
	waitFor(t, 10*time.Second, func() bool {
		return len(sink.Rows()) == 2 && sup.Restarts() == 1 && sup.Status() == engine.StatusRunning
	}, "the restart and the record that caused it")
	produce(2)
	waitFor(t, 10*time.Second, func() bool { return len(sink.Rows()) == 3 }, "a record appended after the restart")
	if n := topic.ArrivalListeners(); n != 1 {
		t.Errorf("%d wake channels on the topic with one instance running, want 1", n)
	}
	for name, sq := range map[string]*engine.StreamingQuery{"first": first, "replacement": sup.Query()} {
		if n := sq.Metrics().Counter("triggerTimerWakeups").Value(); n != 0 {
			t.Errorf("%s instance: %d timer wake-ups", name, n)
		}
	}
	if err := sup.Stop(); err != nil {
		t.Fatal(err)
	}
	if n := topic.ArrivalListeners(); n != 0 {
		t.Errorf("%d wake channels left on the topic after Stop", n)
	}
}
