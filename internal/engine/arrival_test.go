package engine

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"structream/internal/msgbus"
	"structream/internal/sinks"
	"structream/internal/sources"
	"structream/internal/sql"
	"structream/internal/sql/codec"
	"structream/internal/sql/logical"
)

// The tests below are about the path from an append to its epoch when no
// timer sits on it. They are written to hang (and fail on their own
// deadline) when a wake-up is lost, never to get slower: nothing in them
// polls the engine into making progress.

// ledger holds, per producer key, how many rows the sink held at the latest
// commit, and wakes whoever waits for a count.
type ledger struct {
	mu    sync.Mutex
	cond  *sync.Cond
	byKey map[string]int
}

// watch attaches a ledger to sq: every commit recounts the sink. (All of it,
// not the epoch's rows: a continuous worker may deliver a sub-batch under an
// epoch number whose mark has already passed.)
func watch(sq *StreamingQuery, sink *sinks.MemorySink) *ledger {
	l := &ledger{}
	l.cond = sync.NewCond(&l.mu)
	sq.AddEpochListener(func(int64) {
		byKey := map[string]int{}
		for _, r := range sink.Rows() {
			byKey[r[0].(string)]++
		}
		l.mu.Lock()
		l.byKey = byKey
		l.mu.Unlock()
		l.cond.Broadcast()
	})
	return l
}

func (l *ledger) await(key string, n int) {
	l.mu.Lock()
	for l.byKey[key] < n {
		l.cond.Wait()
	}
	l.mu.Unlock()
}

// produceClosedLoop appends n single records under key to partition part of
// topic, each at a random instant after the previous one was committed — so
// every append finds the engine somewhere between finishing an epoch,
// planning the next and going to sleep, and every one of them needs its own
// wake-up.
func produceClosedLoop(l *ledger, topic *msgbus.Topic, part int, key string, n int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		if rng.Intn(3) > 0 {
			time.Sleep(time.Duration(rng.Intn(150)) * time.Microsecond)
		}
		topic.Append(part, msgbus.Record{Value: codec.EncodeRow(sql.Row{key, float64(i), int64(0)})})
		l.await(key, i+1)
	}
}

// lateSource widens the window a lost wake-up needs from nanoseconds to
// tens of microseconds: its Latest looks at the inner source and then
// dawdles before answering, so appends keep landing after the engine has
// looked and before it blocks. A waiter that keeps the protocol (register,
// look, block; never discard a token) does not care; one that registers
// late, or drains its channel after looking, hangs within a few records.
type lateSource struct {
	sources.Source
	looks *atomic.Int64
}

func late(src sources.Source) lateSource { return lateSource{src, new(atomic.Int64)} }

func (s lateSource) Latest() (sources.Offsets, error) {
	latest, err := s.Source.Latest()
	time.Sleep(time.Duration(s.looks.Add(1)%4) * 25 * time.Microsecond)
	return latest, err
}

func (s lateSource) NotifyArrival(ch chan<- struct{}) (func(), bool) {
	return s.Source.(sources.ArrivalNotifier).NotifyArrival(ch)
}

// finishWithin fails the test when the producers do not all return in time:
// a record that no epoch picked up.
func finishWithin(t *testing.T, sq *StreamingQuery, wg *sync.WaitGroup, d time.Duration) {
	t.Helper()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("lost wake-up: an appended record was not committed within %v (arrival wake-ups %d, timer wake-ups %d, epochs %d)",
			d, wakeups(sq, "Arrival"), wakeups(sq, "Timer"), sq.Metrics().Counter("epochs").Value())
	}
}

func wakeups(sq *StreamingQuery, kind string) int64 {
	return sq.Metrics().Counter("trigger" + kind + "Wakeups").Value()
}

func TestArrivalWakesIdleQueryForEveryAppend(t *testing.T) {
	const producers, each = 4, 150
	topic, _ := msgbus.NewBroker().CreateTopic("in", producers)
	src := late(sources.NewCodecBusSource("in", topic, eventsSchema))
	q := compile(t, streamScan("in"), logical.Append, nil)
	sink := sinks.NewMemorySink()
	sq := startQuery(t, q, map[string]sources.Source{"in": src}, sink, Options{Trigger: ProcessingTimeTrigger{}})
	l := watch(sq, sink)

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			produceClosedLoop(l, topic, p, fmt.Sprintf("p%d", p), each, int64(p))
		}(p)
	}
	finishWithin(t, sq, &wg, 30*time.Second)
	if err := sq.Stop(); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, r := range sink.Rows() {
		seen[r.String()] = true
	}
	if len(seen) != producers*each || len(sink.Rows()) != producers*each {
		t.Errorf("sink holds %d rows, %d distinct, want %d each", len(sink.Rows()), len(seen), producers*each)
	}
	if n := wakeups(sq, "Timer"); n != 0 {
		t.Errorf("%d timer wake-ups on a query whose only source signals arrival", n)
	}
	if n := wakeups(sq, "Arrival"); n == 0 {
		t.Error("no arrival wake-up was counted")
	}
}

// TestArrivalFromOneOfTwoSources: the wake channel is registered with both
// sources of a union, and appends to one alone drive the query.
func TestArrivalFromOneOfTwoSources(t *testing.T) {
	broker := msgbus.NewBroker()
	busy, _ := broker.CreateTopic("a", 1)
	silent, _ := broker.CreateTopic("b", 1)
	q := compile(t, &logical.Union{Left: streamScan("a"), Right: streamScan("b")}, logical.Append, nil)
	sink := sinks.NewMemorySink()
	sq := startQuery(t, q, map[string]sources.Source{
		"a": late(sources.NewCodecBusSource("a", busy, eventsSchema)),
		"b": late(sources.NewCodecBusSource("b", silent, eventsSchema)),
	}, sink, Options{Trigger: ProcessingTimeTrigger{}})
	l := watch(sq, sink)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		produceClosedLoop(l, busy, 0, "only", 100, 7)
	}()
	finishWithin(t, sq, &wg, 30*time.Second)
	if a, b := busy.ArrivalListeners(), silent.ArrivalListeners(); a != 1 || b != 1 {
		t.Errorf("running query: listeners a=%d b=%d, want one on each topic", a, b)
	}
	if err := sq.Stop(); err != nil {
		t.Fatal(err)
	}
	if n := wakeups(sq, "Timer"); n != 0 {
		t.Errorf("%d timer wake-ups with two signalling sources", n)
	}
	if a, b := busy.ArrivalListeners(), silent.ArrivalListeners(); a != 0 || b != 0 {
		t.Errorf("stopped query: listeners a=%d b=%d, want none", a, b)
	}
}

// TestArrivalRegistrationsDoNotLeak: whatever way a query over a shared
// topic ends — stopped idle, stopped mid-stream, failed in an epoch, never
// started, in either execution mode — the topic is left with no registered
// wake channel.
func TestArrivalRegistrationsDoNotLeak(t *testing.T) {
	const parts = 2
	topic, _ := msgbus.NewBroker().CreateTopic("in", parts)
	newSource := func() sources.Source { return sources.NewCodecBusSource("in", topic, eventsSchema) }
	appendOne := func(i int) {
		topic.Append(i%parts, msgbus.Record{Value: codec.EncodeRow(sql.Row{"k", float64(i), int64(0)})})
	}
	ckpt := t.TempDir()
	for cycle := 0; cycle < 100; cycle++ {
		opts := Options{Checkpoint: ckpt + "/mb", Trigger: ProcessingTimeTrigger{}}
		want := 1 // one channel for the whole microbatch query
		if cycle%4 == 3 {
			opts = Options{Checkpoint: ckpt + "/cont", Trigger: ContinuousTrigger{EpochInterval: time.Millisecond}}
			want = parts // one per worker
		}
		if cycle%2 == 0 {
			appendOne(cycle)
		}
		sink := sinks.NewMemorySink()
		sq, err := Start(compile(t, streamScan("in"), logical.Append, nil), map[string]sources.Source{"in": newSource()}, sink, opts)
		if err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		if cycle%5 == 0 {
			// Now and then wait for the registration to be visible and for
			// a record to come through it before stopping.
			l := watch(sq, sink)
			for topic.ArrivalListeners() != want {
				time.Sleep(50 * time.Microsecond)
			}
			key := fmt.Sprintf("c%d", cycle)
			topic.Append(0, msgbus.Record{Value: codec.EncodeRow(sql.Row{key, 0.0, int64(0)})})
			l.await(key, 1)
		}
		if err := sq.Stop(); err != nil {
			t.Fatalf("cycle %d: stop: %v", cycle, err)
		}
		if n := topic.ArrivalListeners(); n != 0 {
			t.Fatalf("cycle %d: %d wake channels left on the topic after Stop", cycle, n)
		}
	}

	// A Start that fails after binding the topic's source.
	union := compile(t, &logical.Union{Left: streamScan("in"), Right: streamScan("missing")}, logical.Append, nil)
	for _, trig := range []Trigger{ProcessingTimeTrigger{}, ContinuousTrigger{}} {
		if _, err := Start(union, map[string]sources.Source{"in": newSource()}, sinks.NewMemorySink(), Options{Checkpoint: t.TempDir(), Trigger: trig}); err == nil {
			t.Fatalf("%T: Start succeeded with a stream unbound", trig)
		}
		if n := topic.ArrivalListeners(); n != 0 {
			t.Errorf("%T: failed Start left %d wake channels on the topic", trig, n)
		}
	}

	// A query that dies in an epoch unregisters on its way out.
	flaky := sources.NewFlakySource(newSource())
	flaky.FailReads(fmt.Errorf("permanent"), 1000)
	sq, err := Start(compile(t, streamScan("in"), logical.Append, nil), map[string]sources.Source{"in": flaky}, sinks.NewMemorySink(),
		Options{Checkpoint: t.TempDir(), Trigger: ProcessingTimeTrigger{}})
	if err != nil {
		t.Fatal(err)
	}
	appendOne(0)
	<-sq.Done()
	if sq.Err() == nil {
		t.Error("query over a failing source terminated without an error")
	}
	if n := topic.ArrivalListeners(); n != 0 {
		t.Errorf("failed query left %d wake channels on the topic", n)
	}
}

// signallingSource is countingSource with the arrival extension forwarded:
// what a wrapper has to do to keep its query off the timer.
type signallingSource struct{ countingSource }

func (s signallingSource) NotifyArrival(ch chan<- struct{}) (func(), bool) {
	return s.Source.(sources.ArrivalNotifier).NotifyArrival(ch)
}

// TestIdleQueryDoesNotPoll counts source calls instead of timing anything:
// an idle arrival-driven query makes none; one whose source cannot signal
// still polls; one with processing-time timeouts still runs its epochs.
func TestIdleQueryDoesNotPoll(t *testing.T) {
	start := func(t *testing.T, src sources.Source) (*StreamingQuery, *ledger) {
		q := compile(t, streamScan("events"), logical.Append, nil)
		sink := sinks.NewMemorySink()
		sq := startQuery(t, q, map[string]sources.Source{"events": src}, sink, Options{Trigger: ProcessingTimeTrigger{}})
		return sq, watch(sq, sink)
	}

	t.Run("signalling source", func(t *testing.T) {
		var calls atomic.Int64
		mem := sources.NewMemorySource("events", eventsSchema)
		sq, l := start(t, signallingSource{countingSource{mem, &calls}})
		mem.AddData(sql.Row{"a", 1.0, int64(0)})
		l.await("a", 1)
		// The planning pass that finds nothing more may still be running;
		// after it, not one call. With a 1 ms poll every window has ~50.
		quiet := false
		for try := 0; try < 20 && !quiet; try++ {
			before := calls.Load()
			time.Sleep(50 * time.Millisecond)
			quiet = calls.Load() == before
		}
		if !quiet {
			t.Errorf("an idle query kept calling its source (%d calls so far)", calls.Load())
		}
		if n := wakeups(sq, "Timer"); n != 0 {
			t.Errorf("%d timer wake-ups", n)
		}
		// And it is asleep, not dead.
		mem.AddData(sql.Row{"b", 1.0, int64(0)})
		l.await("b", 1)
	})

	t.Run("source without the extension", func(t *testing.T) {
		var calls atomic.Int64
		mem := sources.NewMemorySource("events", eventsSchema)
		sq, l := start(t, countingSource{mem, &calls}) // the embedded interface hides NotifyArrival
		base := calls.Load()
		deadline := time.Now().Add(10 * time.Second)
		for calls.Load() < base+20 {
			if time.Now().After(deadline) {
				t.Fatalf("a query over a source that cannot signal stopped polling it (%d calls)", calls.Load()-base)
			}
			time.Sleep(time.Millisecond)
		}
		mem.AddData(sql.Row{"a", 1.0, int64(0)})
		l.await("a", 1)
		if a, tm := wakeups(sq, "Arrival"), wakeups(sq, "Timer"); a != 0 || tm == 0 {
			t.Errorf("arrival wake-ups %d, timer wake-ups %d: want none and some", a, tm)
		}
	})

	t.Run("processing-time timeouts", func(t *testing.T) {
		plan := sessionPlan(logical.ProcessingTimeTimeout)
		plan.Timeout = logical.ProcessingTimeTimeout
		plan.Func = func(key sql.Row, values []sql.Row, gs logical.GroupState) []sql.Row {
			if gs.HasTimedOut() {
				gs.Remove()
				return []sql.Row{{key[0], int64(0), true}}
			}
			gs.Update(sql.Row{int64(len(values))})
			gs.SetTimeoutDuration(10 * time.Millisecond)
			return nil
		}
		mem := sources.NewMemorySource("events", eventsSchema)
		sink := sinks.NewMemorySink()
		sq := startQuery(t, compile(t, plan, logical.Update, nil), map[string]sources.Source{"events": mem}, sink,
			Options{Trigger: ProcessingTimeTrigger{}})
		mem.AddData(sql.Row{"u1", 0.0, 1 * sec})
		// Nothing arrives after this: only a timer can run the epoch that
		// notices the timeout.
		deadline := time.Now().Add(10 * time.Second)
		for len(sink.Rows()) == 0 {
			if time.Now().After(deadline) {
				t.Fatal("the processing-time timeout never fired without new data")
			}
			time.Sleep(time.Millisecond)
		}
		expectRows(t, sink.Rows(), "[u1, 0, true]")
		if a, tm := wakeups(sq, "Arrival"), wakeups(sq, "Timer"); a != 0 || tm == 0 {
			t.Errorf("arrival wake-ups %d, timer wake-ups %d: want none and some", a, tm)
		}
	})
}

// TestContinuousWorkersWaitForArrival: the workers of a continuous query
// over the bus block on the same signal — no poll, no timed wait.
func TestContinuousWorkersWaitForArrival(t *testing.T) {
	const parts = 3
	topic, _ := msgbus.NewBroker().CreateTopic("in", parts)
	src := late(sources.NewCodecBusSource("in", topic, eventsSchema))
	q := compile(t, streamScan("in"), logical.Append, nil)
	sink := sinks.NewMemorySink()
	sq := startQuery(t, q, map[string]sources.Source{"in": src}, sink, Options{
		Trigger: ContinuousTrigger{EpochInterval: time.Millisecond}})
	l := watch(sq, sink)
	var wg sync.WaitGroup
	for p := 0; p < parts; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			produceClosedLoop(l, topic, p, fmt.Sprintf("p%d", p), 30, int64(p))
		}(p)
	}
	finishWithin(t, sq, &wg, 30*time.Second)
	if err := sq.Stop(); err != nil {
		t.Fatal(err)
	}
	if a, tm := wakeups(sq, "Arrival"), wakeups(sq, "Timer"); a == 0 || tm != 0 {
		t.Errorf("arrival wake-ups %d, timer wake-ups %d: want some and none", a, tm)
	}
	if n := topic.ArrivalListeners(); n != 0 {
		t.Errorf("%d wake channels left on the topic after Stop", n)
	}
}
