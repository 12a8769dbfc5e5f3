package serve

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"structream/internal/sinks"
	"structream/internal/sql"
	"structream/internal/sql/logical"
)

var testSchema = sql.NewSchema(
	sql.Field{Name: "k", Type: sql.TypeString},
	sql.Field{Name: "n", Type: sql.TypeInt64},
)

// epochRows builds distinct, recognizable rows for one epoch.
func epochRows(epoch int64, n int) []sql.Row {
	rows := make([]sql.Row, n)
	for i := range rows {
		rows[i] = sql.Row{fmt.Sprintf("e%04d-%02d", epoch, i), epoch}
	}
	return rows
}

// addEpoch delivers one epoch to the sink the way the engine would.
func addEpoch(t *testing.T, ms *sinks.MemorySink, mode logical.OutputMode, epoch int64, rows []sql.Row) {
	t.Helper()
	if err := ms.AddBatch(sinks.Batch{Epoch: epoch, Mode: mode, Schema: testSchema, Rows: rows}); err != nil {
		t.Fatal(err)
	}
}

// seededSink returns an append-mode memory sink holding epochs 0..n-1 with
// `per` rows each.
func seededSink(t *testing.T, n int, per int) *sinks.MemorySink {
	t.Helper()
	ms := sinks.NewMemorySink()
	for e := int64(0); e < int64(n); e++ {
		addEpoch(t, ms, logical.Append, e, epochRows(e, per))
	}
	return ms
}

func nextFrame(t *testing.T, sub *Subscription) Frame {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	f, err := sub.Next(ctx)
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	return f
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, timeout time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", timeout, msg)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func nextErr(t *testing.T, sub *Subscription) error {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err := sub.Next(ctx)
	if err == nil {
		t.Fatal("Next: want error, got frame")
	}
	return err
}

// fakeClock drives the hub's stall/eviction logic deterministically.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestSubscribeFromStartReplaysCommittedPrefix(t *testing.T) {
	ms := seededSink(t, 5, 3)
	h := NewHub("q", ms, HubOptions{})
	defer h.Close()

	sub, err := h.Subscribe(SubscribeOptions{Cursor: -1, From: "start"})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	hello := nextFrame(t, sub)
	if hello.Kind != FrameHello || hello.Cursor != -1 || hello.Mode != "append" {
		t.Fatalf("hello = %+v", hello)
	}
	if len(hello.Schema) != 2 || hello.Schema[0] != "k" {
		t.Errorf("hello schema = %v", hello.Schema)
	}
	for e := int64(0); e < 5; e++ {
		f := nextFrame(t, sub)
		if f.Kind != FrameEpoch || f.Epoch != e || f.Cursor != e {
			t.Fatalf("frame %d = %+v", e, f)
		}
		if len(f.Rows) != 3 || f.Rows[0][1] != e {
			t.Fatalf("epoch %d rows = %v", e, f.Rows)
		}
	}
	// Caught up: idle, then a live epoch arrives through the ring.
	if _, ok, err := sub.TryNext(); ok || err != nil {
		t.Fatalf("TryNext when caught up = ok=%v err=%v", ok, err)
	}
	addEpoch(t, ms, logical.Append, 5, epochRows(5, 2))
	h.Notify(5)
	f := nextFrame(t, sub)
	if f.Kind != FrameEpoch || f.Epoch != 5 || len(f.Rows) != 2 {
		t.Fatalf("live frame = %+v", f)
	}
}

func TestCursorResumeIsGapAndDupFree(t *testing.T) {
	ms := seededSink(t, 5, 1)
	h := NewHub("q", ms, HubOptions{})
	defer h.Close()

	sub, err := h.Subscribe(SubscribeOptions{Cursor: 2, SkipHello: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	for _, want := range []int64{3, 4} {
		f := nextFrame(t, sub)
		if f.Kind != FrameEpoch || f.Epoch != want {
			t.Fatalf("resume frame = %+v, want epoch %d", f, want)
		}
	}
	if _, ok, _ := sub.TryNext(); ok {
		t.Fatal("resume delivered an extra frame")
	}
	if got := sub.Cursor(); got != 4 {
		t.Fatalf("cursor after resume = %d", got)
	}
}

func TestCursorBeyondCommittedPrefixResets(t *testing.T) {
	ms := seededSink(t, 3, 1)
	h := NewHub("q", ms, HubOptions{})
	defer h.Close()

	sub, err := h.Subscribe(SubscribeOptions{Cursor: 99, SkipHello: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	f := nextFrame(t, sub)
	if f.Kind != FrameSnapshot || !f.Reset || f.Cursor != 2 {
		t.Fatalf("rollback resume frame = %+v", f)
	}
	if f.Reason == "" {
		t.Error("reset snapshot should carry a reason")
	}
}

func TestResumeBelowRetentionFloorResetsBySnapshot(t *testing.T) {
	ms := seededSink(t, 5, 1)
	ms.SetRetention(2) // keeps epochs 3,4; floor = 2
	if got := ms.Floor(); got != 2 {
		t.Fatalf("floor = %d, want 2", got)
	}
	h := NewHub("q", ms, HubOptions{})
	defer h.Close()

	sub, err := h.Subscribe(SubscribeOptions{Cursor: 0, SkipHello: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	f := nextFrame(t, sub)
	if f.Kind != FrameSnapshot || !f.Reset {
		t.Fatalf("below-floor resume frame = %+v", f)
	}
	if f.Reason != "cursor below retention floor" {
		t.Errorf("reason = %q", f.Reason)
	}
	if f.Cursor != 4 {
		t.Errorf("snapshot cursor = %d, want 4", f.Cursor)
	}
	// Delivery continues gap-free from the re-anchored cursor.
	addEpoch(t, ms, logical.Append, 5, epochRows(5, 1))
	h.Notify(5)
	if f := nextFrame(t, sub); f.Kind != FrameEpoch || f.Epoch != 5 {
		t.Fatalf("post-reset frame = %+v", f)
	}
}

func TestNonAppendModeDeliversSnapshots(t *testing.T) {
	ms := sinks.NewMemorySink()
	upsert := func(epoch int64, rows ...sql.Row) {
		t.Helper()
		if err := ms.AddBatch(sinks.Batch{Epoch: epoch, Mode: logical.Update, Schema: testSchema, Rows: rows, KeyArity: 1}); err != nil {
			t.Fatal(err)
		}
	}
	upsert(0, sql.Row{"a", int64(1)})
	h := NewHub("q", ms, HubOptions{})
	defer h.Close()

	sub, err := h.Subscribe(SubscribeOptions{Cursor: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if f := nextFrame(t, sub); f.Kind != FrameHello || f.Mode != "update" {
		t.Fatalf("hello = %+v", f)
	}
	f := nextFrame(t, sub)
	if f.Kind != FrameSnapshot || f.Cursor != 0 || len(f.Rows) != 1 {
		t.Fatalf("initial snapshot = %+v", f)
	}
	// A live commit in update mode arrives as a replacement snapshot.
	upsert(1, sql.Row{"a", int64(2)})
	h.Notify(1)
	f = nextFrame(t, sub)
	if f.Kind != FrameSnapshot || f.Cursor != 1 {
		t.Fatalf("live snapshot = %+v", f)
	}
	if len(f.Rows) != 1 || f.Rows[0][1] != int64(2) {
		t.Fatalf("snapshot rows = %v", f.Rows)
	}
	// Resuming with an old cursor in a non-append mode re-anchors.
	sub2, err := h.Subscribe(SubscribeOptions{Cursor: 0, SkipHello: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sub2.Close()
	if f := nextFrame(t, sub2); f.Kind != FrameSnapshot || !f.Reset {
		t.Fatalf("non-append resume = %+v", f)
	}
}

// TestSlowConsumerLagsAndCatchesUpGapFree overflows a small ring and checks
// the subscriber still observes every epoch exactly once, via sink replay.
func TestSlowConsumerLagsAndCatchesUpGapFree(t *testing.T) {
	ms := sinks.NewMemorySink()
	h := NewHub("q", ms, HubOptions{RingFrames: 4})
	defer h.Close()

	sub, err := h.Subscribe(SubscribeOptions{Cursor: -1, From: "live", SkipHello: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	const epochs = 12
	for e := int64(0); e < epochs; e++ {
		addEpoch(t, ms, logical.Append, e, epochRows(e, 1))
		h.Notify(e)
	}
	var got []int64
	for int64(len(got)) < epochs {
		f := nextFrame(t, sub)
		if f.Kind != FrameEpoch {
			t.Fatalf("frame = %+v", f)
		}
		got = append(got, f.Epoch)
	}
	for i, e := range got {
		if e != int64(i) {
			t.Fatalf("epoch sequence has a gap/dup at %d: %v", i, got)
		}
	}
	if h.Registry().Counter("lagged").Value() == 0 {
		t.Error("ring overflow should have marked the subscriber lagged")
	}
	if h.Registry().Counter("replayFrames").Value() == 0 {
		t.Error("catch-up should have replayed from the sink")
	}
}

func TestStalledConsumerIsEvicted(t *testing.T) {
	clock := newFakeClock()
	ms := sinks.NewMemorySink()
	h := NewHub("q", ms, HubOptions{
		RingFrames:   4,
		StallTimeout: time.Second,
		Clock:        clock.Now,
	})
	defer h.Close()

	sub, err := h.Subscribe(SubscribeOptions{Cursor: -1, From: "live", SkipHello: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	addEpoch(t, ms, logical.Append, 0, epochRows(0, 1))
	h.Notify(0)
	// The frame sits undrained past the stall timeout; the next sweep
	// evicts. Wait for the async sweep so a fast Next cannot sneak the
	// buffered frame out first.
	clock.Advance(2 * time.Second)
	addEpoch(t, ms, logical.Append, 1, epochRows(1, 1))
	h.Notify(1)
	// The sweep may evict while broadcasting epoch 0, before epoch 1 is
	// broadcast: wait for both, so the resumed snapshot below covers epoch 1.
	waitFor(t, 5*time.Second, func() bool {
		return h.Registry().Counter("evictions").Value() == 1 && h.Registry().Counter("framesBroadcast").Value() == 2
	}, "stall eviction sweep and epoch 1's broadcast")

	f := nextFrame(t, sub)
	if f.Kind != FrameEvicted {
		t.Fatalf("frame = %+v, want evicted", f)
	}
	if f.RetryMillis <= 0 {
		t.Error("evicted frame should carry reconnect guidance")
	}
	if err := nextErr(t, sub); err != ErrEvicted {
		t.Fatalf("err after evicted frame = %v", err)
	}
	if h.Registry().Counter("evictions").Value() != 1 {
		t.Errorf("evictions = %d", h.Registry().Counter("evictions").Value())
	}
	if f.Cursor != -1 {
		t.Errorf("evicted cursor = %d, want -1 (nothing was drained)", f.Cursor)
	}
	// The evicted client reconnects with its (empty) cursor: no applied
	// prefix to extend, so it re-anchors from a snapshot of the table.
	sub2, err := h.Subscribe(SubscribeOptions{Cursor: f.Cursor, SkipHello: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sub2.Close()
	rf := nextFrame(t, sub2)
	if rf.Kind != FrameSnapshot || rf.Cursor != 1 || len(rf.Rows) != 2 {
		t.Fatalf("post-eviction resume frame = %+v", rf)
	}
}

// TestSnapshotStopsAtTheBroadcastPrefix: an epoch the sink already holds
// but the hub has not broadcast yet is not in a new subscriber's snapshot.
// The snapshot's rows and its cursor describe the same prefix, and the
// epoch arrives once, in its own frame, when it is broadcast.
func TestSnapshotStopsAtTheBroadcastPrefix(t *testing.T) {
	ms := sinks.NewMemorySink()
	h := NewHub("q", ms, HubOptions{})
	defer h.Close()
	addEpoch(t, ms, logical.Append, 0, epochRows(0, 2))
	h.Notify(0)
	waitFor(t, 5*time.Second, func() bool {
		return h.Registry().Counter("framesBroadcast").Value() == 1
	}, "epoch 0 broadcast")
	addEpoch(t, ms, logical.Append, 1, epochRows(1, 3)) // written, not yet notified

	sub, err := h.Subscribe(SubscribeOptions{Cursor: -1, SkipHello: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	snap := nextFrame(t, sub)
	if snap.Kind != FrameSnapshot || snap.Cursor != 0 || len(snap.Rows) != 2 {
		t.Fatalf("snapshot = %+v, want epoch 0's 2 rows at cursor 0", snap)
	}
	h.Notify(1)
	f := nextFrame(t, sub)
	if f.Kind != FrameEpoch || f.Epoch != 1 || len(f.Rows) != 3 {
		t.Fatalf("frame after the snapshot = %+v, want epoch 1's 3 rows", f)
	}
}

// TestOverloadShedsSlowestFirst drives the global frame budget over its
// limit and checks the slowest consumer is shed while a draining consumer
// is untouched.
func TestOverloadShedsSlowestFirst(t *testing.T) {
	ms := sinks.NewMemorySink()
	h := NewHub("q", ms, HubOptions{RingFrames: 100, MaxBufferedFrames: 8})
	defer h.Close()

	fast, err := h.Subscribe(SubscribeOptions{Cursor: -1, From: "live", SkipHello: true})
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Close()
	slow, err := h.Subscribe(SubscribeOptions{Cursor: -1, From: "live", SkipHello: true})
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()

	for e := int64(0); e < 12; e++ {
		addEpoch(t, ms, logical.Append, e, epochRows(e, 1))
		h.Notify(e)
		// fast drains every epoch; slow never does.
		if f := nextFrame(t, fast); f.Kind != FrameEpoch || f.Epoch != e {
			t.Fatalf("fast frame = %+v, want epoch %d", f, e)
		}
	}
	f := nextFrame(t, slow)
	if f.Kind != FrameEvicted {
		t.Fatalf("slow frame = %+v, want evicted", f)
	}
	if h.Registry().Counter("evictions").Value() == 0 {
		t.Error("overload should have evicted the slowest subscriber")
	}
}

func TestSubscriberLimit(t *testing.T) {
	ms := sinks.NewMemorySink()
	h := NewHub("q", ms, HubOptions{MaxSubscribers: 1})
	defer h.Close()
	sub, err := h.Subscribe(SubscribeOptions{Cursor: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Subscribe(SubscribeOptions{Cursor: -1}); err != ErrHubFull {
		t.Fatalf("second subscribe err = %v, want ErrHubFull", err)
	}
	sub.Close()
	// A freed slot admits the next subscriber.
	sub2, err := h.Subscribe(SubscribeOptions{Cursor: -1})
	if err != nil {
		t.Fatalf("subscribe after close: %v", err)
	}
	sub2.Close()
	if h.Registry().Counter("rejected").Value() != 1 {
		t.Errorf("rejected = %d", h.Registry().Counter("rejected").Value())
	}
}

func TestHubCloseDeliversShutdownFrame(t *testing.T) {
	ms := seededSink(t, 1, 1)
	h := NewHub("q", ms, HubOptions{})
	sub, err := h.Subscribe(SubscribeOptions{Cursor: 0, SkipHello: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	h.Close()
	f := nextFrame(t, sub)
	if f.Kind != FrameShutdown || f.RetryMillis <= 0 {
		t.Fatalf("frame after close = %+v", f)
	}
	if err := nextErr(t, sub); err != ErrHubClosed {
		t.Fatalf("err after shutdown frame = %v", err)
	}
	if _, err := h.Subscribe(SubscribeOptions{Cursor: -1}); err != ErrHubClosed {
		t.Fatalf("subscribe after close err = %v", err)
	}
	h.Close() // idempotent
}

func TestHeartbeatCarriesCursor(t *testing.T) {
	ms := seededSink(t, 3, 1)
	h := NewHub("q", ms, HubOptions{})
	defer h.Close()
	sub, err := h.Subscribe(SubscribeOptions{Cursor: 1, SkipHello: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	nextFrame(t, sub) // epoch 2
	hb := sub.Heartbeat()
	if hb.Kind != FrameHeartbeat || hb.Cursor != 2 {
		t.Fatalf("heartbeat = %+v", hb)
	}
}

func TestRetryJitterIsBounded(t *testing.T) {
	ms := sinks.NewMemorySink()
	h := NewHub("q", ms, HubOptions{RetryMillis: 1000, Seed: 7})
	defer h.Close()
	for i := 0; i < 100; i++ {
		got := h.retryJitter()
		if got < 500 || got > 1500 {
			t.Fatalf("retry jitter %d outside [500,1500]", got)
		}
	}
}

// TestLatestAnchorNoDuplicateUnderConcurrentCommits races a From-"latest"
// subscribe (snapshot anchor) against concurrent epoch commits and checks
// every epoch is delivered at most once with contiguous cursors — the
// prefix-consistency contract around the snapshot→live handoff.
func TestLatestAnchorNoDuplicateUnderConcurrentCommits(t *testing.T) {
	iters := 200
	if testing.Short() {
		iters = 25
	}
	for iter := 0; iter < iters; iter++ {
		ms := seededSink(t, 2, 1)
		h := NewHub("q", ms, HubOptions{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			addEpoch(t, ms, logical.Append, 2, epochRows(2, 1))
			h.Notify(2)
			addEpoch(t, ms, logical.Append, 3, epochRows(3, 1))
			h.Notify(3)
		}()
		sub, err := h.Subscribe(SubscribeOptions{Cursor: -1}) // From "latest"
		if err != nil {
			t.Fatal(err)
		}
		seen := map[int64]int{}
		cursor := int64(-100)
		for cursor < 3 {
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			f, err := sub.Next(ctx)
			cancel()
			if err != nil {
				t.Fatalf("iter %d: %v (cursor %d)", iter, err, cursor)
			}
			if f.Kind == FrameEpoch {
				seen[f.Epoch]++
				if cursor != -100 && f.Epoch != cursor+1 {
					t.Fatalf("iter %d: gap/dup: epoch %d after cursor %d", iter, f.Epoch, cursor)
				}
			}
			if f.Kind == FrameEpoch || f.Kind == FrameSnapshot {
				cursor = f.Cursor
			}
		}
		for e, n := range seen {
			if n > 1 {
				t.Fatalf("iter %d: epoch %d delivered %d times", iter, e, n)
			}
		}
		sub.Close()
		h.Close()
		<-done
	}
}

// countingReplayer counts the full-table reads the hub makes.
type countingReplayer struct {
	*sinks.MemorySink
	mu        sync.Mutex
	snapshots int
}

func (c *countingReplayer) SnapshotRows() ([]sql.Row, int64) {
	c.mu.Lock()
	c.snapshots++
	c.mu.Unlock()
	return c.MemorySink.SnapshotRows()
}

func (c *countingReplayer) reads() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.snapshots
}

// In update and complete mode a broadcast is a snapshot of the whole table:
// the hub must not build one no ring will take, and its cursor must advance
// all the same, so that a subscriber arriving later anchors at the newest
// epoch with a snapshot of its own.
func TestAdvanceBuildsNoSnapshotWithoutSubscribers(t *testing.T) {
	rep := &countingReplayer{MemorySink: sinks.NewMemorySink()}
	upsert := func(epoch int64) {
		t.Helper()
		b := sinks.Batch{Epoch: epoch, Mode: logical.Update, Schema: testSchema, Rows: epochRows(epoch%2, 3), KeyArity: 1}
		if err := rep.AddBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	upsert(0)
	h := NewHub("q", rep, HubOptions{})
	defer h.Close()
	cursor := func() int64 {
		h.mu.Lock()
		defer h.mu.Unlock()
		return h.last
	}
	for e := int64(1); e <= 5; e++ {
		upsert(e)
		h.Notify(e)
		waitFor(t, 5*time.Second, func() bool { return cursor() == e }, "broadcast cursor did not advance")
	}
	if n := rep.reads(); n != 0 {
		t.Fatalf("%d snapshots built for no subscriber", n)
	}
	sub, err := h.Subscribe(SubscribeOptions{Cursor: -1, SkipHello: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if f := nextFrame(t, sub); f.Kind != FrameSnapshot || f.Cursor != 5 || len(f.Rows) != 6 {
		t.Fatalf("late subscriber's snapshot = %+v", f)
	}
	upsert(6)
	h.Notify(6)
	if f := nextFrame(t, sub); f.Kind != FrameSnapshot || f.Cursor != 6 || len(f.Rows) != 6 {
		t.Fatalf("live snapshot = %+v", f)
	}
	if n := rep.reads(); n != 2 {
		t.Fatalf("%d snapshots built, want the subscriber's own and one broadcast", n)
	}
}
