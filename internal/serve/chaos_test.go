package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"structream/internal/engine"
	"structream/internal/fsx"
	"structream/internal/sinks"
	"structream/internal/sources"
	"structream/internal/sql"
	"structream/internal/sql/logical"
)

// ------------------------------------------------ prefix-consistency oracle

// chaosChecker validates every frame any subscriber applies against the
// golden (unbounded) sink the same engine committed to. It is shared by
// all churn workers; failures are collected, not fatal mid-flight, so one
// broken invariant doesn't deadlock the remaining workers.
type chaosChecker struct {
	golden *sinks.MemorySink
	fed    *atomic.Int64 // rows produced by the feeder so far

	mu   sync.Mutex
	errs []string
}

func newChaosChecker(golden *sinks.MemorySink, fed *atomic.Int64) *chaosChecker {
	return &chaosChecker{golden: golden, fed: fed}
}

func (c *chaosChecker) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.errs) < 10 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

func (c *chaosChecker) report(t *testing.T) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.errs {
		t.Error(e)
	}
}

// checkEpoch asserts an epoch frame carries exactly the rows the golden
// sink committed for that epoch. The golden sink is written before the
// epoch's WAL commit, and the hub broadcasts only committed epochs, so by
// the time any subscriber sees epoch N the golden copy exists.
func (c *chaosChecker) checkEpoch(who string, f Frame) {
	want, _ := c.golden.EpochRows(f.Epoch) // absent = legitimately empty epoch
	if len(want) != len(f.Rows) {
		c.fail("%s: epoch %d has %d rows, golden has %d", who, f.Epoch, len(f.Rows), len(want))
		return
	}
	counts := make(map[string]int, len(want))
	for _, r := range want {
		counts[fmt.Sprint(r)]++
	}
	for _, r := range f.Rows {
		k := fmt.Sprint(r)
		if counts[k] == 0 {
			c.fail("%s: epoch %d delivered row %s not committed by golden", who, f.Epoch, k)
			return
		}
		counts[k]--
	}
}

// checkSnapshot asserts a (reset) snapshot is internally consistent: no
// duplicate rows, and every row is one the feeder actually produced (the
// workload's rows are self-describing: k = "r%07d", v2 = 2*id). Restarts
// may legitimately re-batch not-yet-committed rows into later epochs, so
// snapshot rows are validated by content, not by epoch membership —
// epoch-granular prefix consistency is enforced exactly on the epoch-frame
// path by checkEpoch.
func (c *chaosChecker) checkSnapshot(who string, f Frame) {
	seen := make(map[string]bool, len(f.Rows))
	for _, r := range f.Rows {
		k := fmt.Sprint(r)
		if seen[k] {
			c.fail("%s: snapshot at cursor %d duplicates row %s", who, f.Cursor, k)
			return
		}
		seen[k] = true
		if len(r) != 2 {
			c.fail("%s: snapshot row %s has arity %d, want 2", who, k, len(r))
			return
		}
		var id int64
		if n, err := fmt.Sscanf(fmt.Sprint(r[0]), "r%d", &id); n != 1 || err != nil {
			c.fail("%s: snapshot row %s has malformed key", who, k)
			return
		}
		v2, ok := toFloat(r[1])
		if id < 0 || id >= c.fed.Load() || !ok || v2 != float64(2*id) {
			c.fail("%s: snapshot row %s does not match the fed workload", who, k)
			return
		}
	}
}

// toFloat normalizes a projected value across the in-process path
// (float64) and the SSE JSON round-trip (json.Number-free float64).
func toFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case float32:
		return float64(x), true
	case int64:
		return float64(x), true
	default:
		return 0, false
	}
}

// ------------------------------------------------ churn workers

type churnStats struct {
	events    atomic.Int64 // connects + disconnects + stalls + faults
	stalls    atomic.Int64
	evicted   atomic.Int64
	sseFaults atomic.Int64
	epochs    atomic.Int64 // epoch frames applied across all sessions
}

// applyFrame advances one session's view by a frame, enforcing the cursor
// contract: epoch frames extend the applied prefix by exactly one; reset
// snapshots re-anchor it. Returns the new cursor and whether the session
// hit a terminal frame.
func applyFrame(ck *chaosChecker, st *churnStats, who string, f Frame, cursor int64) (int64, bool) {
	switch f.Kind {
	case FrameHello, FrameHeartbeat:
		return cursor, false
	case FrameEpoch:
		if cursor >= 0 && f.Epoch != cursor+1 {
			ck.fail("%s: epoch %d after cursor %d: gap or dup", who, f.Epoch, cursor)
		}
		ck.checkEpoch(who, f)
		st.epochs.Add(1)
		return f.Epoch, false
	case FrameSnapshot:
		ck.checkSnapshot(who, f)
		return f.Cursor, false
	case FrameEvicted:
		st.evicted.Add(1)
		return f.Cursor, true
	case FrameShutdown:
		return f.Cursor, true
	default:
		ck.fail("%s: unknown frame kind %q", who, f.Kind)
		return cursor, true
	}
}

// runChurnWorker runs `sessions` in-process subscribe/drain/disconnect
// sessions, resuming each from the previous session's cursor (with
// occasional abandonment) and deliberately stalling some sessions past the
// hub's stall timeout.
func runChurnWorker(h *Hub, ck *chaosChecker, st *churnStats, rng *rand.Rand, id, sessions int) {
	cursor := int64(-1)
	for s := 0; s < sessions; s++ {
		who := fmt.Sprintf("worker%02d/s%02d", id, s)
		opts := SubscribeOptions{Cursor: cursor}
		if cursor < 0 {
			opts.From = "start"
		}
		sub, err := h.Subscribe(opts)
		if err != nil {
			st.events.Add(1) // rejected connect is still a churn event
			time.Sleep(time.Millisecond)
			continue
		}
		st.events.Add(1) // connect
		if rng.Intn(6) == 0 {
			// Stall: stop draining long enough for the sweep (fed by the
			// ongoing commit stream) to evict this subscriber.
			st.stalls.Add(1)
			st.events.Add(1)
			time.Sleep(250 * time.Millisecond)
		}
		budget := rng.Intn(12) + 2
		for i := 0; i < budget; i++ {
			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			f, err := sub.Next(ctx)
			cancel()
			if err != nil {
				break // idle, evicted-after-terminal, or hub closed
			}
			var terminal bool
			cursor, terminal = applyFrame(ck, st, who, f, cursor)
			if terminal {
				break
			}
		}
		sub.Close()
		st.events.Add(1) // disconnect
		if rng.Intn(10) == 0 {
			cursor = -1 // abandoned client: next session starts over
		}
	}
}

// runSSEWorker drives the same churn over the SSE transport against a live
// listener whose writer schedule injects deterministic torn writes, stalls
// and mid-frame drops on a subset of connections.
func runSSEWorker(url string, ck *chaosChecker, st *churnStats, rng *rand.Rand, id, sessions int) {
	cursor := int64(-1)
	for s := 0; s < sessions; s++ {
		who := fmt.Sprintf("sse%02d/s%02d", id, s)
		target := url + "?from=start"
		if cursor >= 0 {
			target = fmt.Sprintf("%s?cursor=%d", url, cursor)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, target, nil)
		if err != nil {
			cancel()
			continue
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			cancel()
			st.events.Add(1)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			cancel()
			st.events.Add(1)
			continue
		}
		st.events.Add(1) // connect
		br := bufio.NewReader(resp.Body)
		budget := rng.Intn(10) + 2
		for i := 0; i < budget; i++ {
			f, err := readSSEFrame(br)
			if err != nil {
				// Torn frame, injected drop, stall timeout, or server
				// close: the partial frame is discarded and the session
				// resumes from the last applied cursor.
				st.sseFaults.Add(1)
				st.events.Add(1)
				break
			}
			var terminal bool
			cursor, terminal = applyFrame(ck, st, who, f, cursor)
			if terminal {
				break
			}
		}
		resp.Body.Close()
		cancel()
		st.events.Add(1) // disconnect
	}
}

// ------------------------------------------------ the suite

// TestChurnChaosSuite is the acceptance scenario for the serving layer: a
// query crashes and is restarted by hand mid-stream while hundreds of
// subscriber sessions connect, drain, stall, disconnect and resume — some
// in-process, some over SSE connections with injected torn writes and
// mid-frame drops. Every applied epoch sequence must stay gap-free,
// duplicate-free, and prefix-consistent with the golden sink; stalled
// consumers must be evicted rather than stall the commit path; and the
// hub must shed all session goroutines by the end.
func TestChurnChaosSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("churn chaos suite is the long tier")
	}
	baseGoroutines := runtime.NumGoroutine()

	golden := sinks.NewMemorySink()
	served := sinks.NewMemorySink()
	served.SetRetention(64) // small enough that slow resumes cross the floor
	var fed atomic.Int64
	ck := newChaosChecker(golden, &fed)
	st := &churnStats{}

	src := sources.NewMemorySource("events", eventsSchema)
	ckpt := t.TempDir()

	h := NewHub("churn", served, HubOptions{
		RingFrames:     8,
		StallTimeout:   60 * time.Millisecond,
		MaxSubscribers: 512,
		WrapWriter: func(w FlushWriter) FlushWriter {
			// Deterministic per-connection fault schedule for the SSE
			// side of the churn: every third connection tears or drops a
			// frame a few writes in.
			idx := sseConns.Add(1)
			if idx%3 != 0 {
				return w
			}
			kind := FaultTorn
			if idx%6 == 0 {
				kind = FaultDrop
			}
			return NewFaultWriter(w, FaultSpec{Op: 2 + idx%5, Kind: kind})
		},
	})
	defer h.Close()

	// Restart by hand: while the live instance dies of an error other than
	// corruption, start the next over the checkpoint and attach the hub to
	// it. The first instance's checkpoint FS dies mid-epoch — a simulated
	// process crash early in the run — while subscribers stay connected.
	start := func(n int) (*engine.StreamingQuery, error) {
		var fs fsx.FS
		if n == 1 {
			ffs := fsx.NewFaultFS(fsx.Real())
			ffs.CrashAt = 10
			ffs.Mode = fsx.CrashAfter
			fs = ffs
		}
		q := compileQuery(t, projectionPlan(), logical.Append)
		sq, err := engine.Start(q, map[string]sources.Source{"events": src},
			sinks.NewTeeSink(golden, served), engine.Options{
				Checkpoint:           ckpt,
				FS:                   fs,
				Trigger:              engine.ProcessingTimeTrigger{Interval: 2 * time.Millisecond},
				MaxRecordsPerTrigger: 16,
				EpochTimeout:         250 * time.Millisecond,
			})
		if err == nil {
			h.Attach(sq)
		}
		return sq, err
	}
	var mu sync.Mutex // guards live and stopped against the restart loop
	live, err := start(1)
	if err != nil {
		t.Fatal(err)
	}
	stopped, instances := false, 1
	var died []error // what ended each instance the loop replaced; read after loopDone
	loopDone := make(chan struct{})
	go func() {
		defer close(loopDone)
		for sq := live; instances < 10; instances++ {
			<-sq.Done()
			err := sq.Err()
			if err == nil || fsx.IsCorrupt(err) {
				return
			}
			died = append(died, err)
			next, err := start(instances + 1)
			if err != nil {
				died = append(died, err)
				return
			}
			mu.Lock()
			live, sq = next, next
			halt := stopped
			mu.Unlock()
			if halt {
				next.Stop() //nolint:errcheck // stopQuery came while next was starting
			}
		}
	}()
	stopQuery := func() {
		mu.Lock()
		stopped = true
		sq := live
		mu.Unlock()
		sq.Stop() //nolint:errcheck // the restart loop records why an instance died
		<-loopDone
	}
	defer stopQuery()

	srv := httptest.NewServer(http.HandlerFunc(h.ServeSubscribe))
	defer srv.Close()

	// Feeder: keep epochs committing (unique rows, so every frame row maps
	// to exactly one golden epoch) for as long as the churn runs — the
	// stall sweep only fires on the commit path, by design.
	feedDone := make(chan struct{})
	stopFeed := make(chan struct{})
	go func() {
		defer close(feedDone)
		for {
			select {
			case <-stopFeed:
				return
			case <-time.After(2 * time.Millisecond):
			}
			// Reserve ids before publishing: a row must never be seen by
			// a subscriber while the checker's fed counter is behind it.
			base := fed.Load()
			fed.Add(8)
			rows := make([]sql.Row, 8)
			for i := range rows {
				id := base + int64(i)
				rows[i] = sql.Row{fmt.Sprintf("r%07d", id), float64(id), int64(0)}
			}
			src.AddData(rows...)
		}
	}()

	const (
		inProcWorkers  = 10
		inProcSessions = 50
		sseWorkers     = 6
		sseSessions    = 12
	)
	var wg sync.WaitGroup
	for w := 0; w < inProcWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			runChurnWorker(h, ck, st, rand.New(rand.NewSource(int64(1000+w))), w, inProcSessions)
		}(w)
	}
	for w := 0; w < sseWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			runSSEWorker(srv.URL, ck, st, rand.New(rand.NewSource(int64(2000+w))), w, sseSessions)
		}(w)
	}
	wg.Wait()
	close(stopFeed)
	<-feedDone

	// Convergence: everything fed must commit (across the restart), then a
	// final fresh subscriber must replay the retained window gap-free up
	// to the last committed epoch.
	waitFor(t, 30*time.Second, func() bool {
		return int64(len(golden.Rows())) == fed.Load()
	}, "golden sink to hold every fed row")

	final, err := h.Subscribe(SubscribeOptions{Cursor: -1, From: "start"})
	if err != nil {
		t.Fatal(err)
	}
	last := served.LastEpoch()
	cursor := int64(-1)
	for cursor < last {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		f, err := final.Next(ctx)
		cancel()
		if err != nil {
			t.Fatalf("final drain stuck at cursor %d (last %d): %v", cursor, last, err)
		}
		var terminal bool
		cursor, terminal = applyFrame(ck, st, "final", f, cursor)
		if terminal {
			t.Fatalf("final drain hit terminal frame %+v at cursor %d", f, cursor)
		}
	}
	final.Close()

	ck.report(t)

	// The scheduled chaos actually happened.
	if got := st.events.Load(); got < 1000 {
		t.Errorf("churn events = %d, want >= 1000", got)
	}
	stopQuery()
	if instances < 2 || len(died) < 1 || !errors.Is(died[0], fsx.ErrCrash) {
		t.Errorf("instances = %d, restarted after %v: want a restart after the crash mid-churn", instances, died)
	}
	if st.stalls.Load() == 0 || h.Registry().Counter("evictions").Value() == 0 {
		t.Errorf("stalls = %d hub evictions = %d, want stalled consumers evicted",
			st.stalls.Load(), h.Registry().Counter("evictions").Value())
	}
	if st.sseFaults.Load() == 0 {
		t.Errorf("sse faults = 0, want injected connection faults to fire")
	}
	if st.epochs.Load() == 0 {
		t.Error("no epoch frames applied by any session")
	}

	// Every session goroutine must be gone: subscriptions closed, SSE
	// handlers unwound, pump still running (it belongs to the hub).
	h.Close()
	srv.Close()
	waitFor(t, 10*time.Second, func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= baseGoroutines+8
	}, fmt.Sprintf("goroutines to settle near baseline %d (now %d)", baseGoroutines, runtime.NumGoroutine()))
}

// sseConns numbers SSE connections across the suite for the deterministic
// fault schedule.
var sseConns atomic.Int64

// TestEpochCommitOverheadUnderFanout bounds the serving layer's work on the
// commit path by counting it. The hub's commit-side work is an atomic max
// and a non-blocking channel send, never a broadcast: with 256 subscribers
// attached, the engine must commit all 50 epochs while the test holds the
// hub's lock — so the pump, which broadcasts, cannot run, and the hub work
// done on the commit goroutine per epoch is 0 — and once the lock is let go
// every subscriber must receive every one of them. The test compared the
// engine's epoch-latency p99 with and without the subscribers until that
// comparison of two p99s of 50 epochs failed now and then under
// `go test -race ./...` on two CPUs: a clock on a shared machine measures the
// neighbours as much as the hub, a count does not.
func TestEpochCommitOverheadUnderFanout(t *testing.T) {
	const subscribers, rounds = 256, 50
	src := sources.NewMemorySource("events", eventsSchema)
	ms := sinks.NewMemorySink()
	sq := startQuery(t, projectionPlan(), logical.Append, src, ms)
	h := NewHub("overhead", ms, HubOptions{MaxSubscribers: subscribers + 1})
	defer h.Close()
	h.Attach(sq)
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer wg.Wait()
	defer cancel()
	received := make([]atomic.Int64, subscribers) // epoch frames, per subscriber
	for i := range received {
		sub, err := h.Subscribe(SubscribeOptions{Cursor: -1, From: "live", SkipHello: true})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer sub.Close()
			for {
				f, err := sub.Next(ctx)
				if err != nil {
					return
				}
				if f.Kind == FrameEpoch {
					received[i].Add(1)
				}
			}
		}()
	}
	first := sq.LastCommittedEpoch()
	fed := make(chan error, 1)
	h.mu.Lock()
	go func() {
		for round := 0; round < rounds; round++ {
			for i := 0; i < 40; i++ {
				src.AddData(sql.Row{fmt.Sprintf("k%02d-%02d", round, i), float64(i), int64(0)})
			}
			if err := sq.ProcessAllAvailable(); err != nil {
				fed <- err
				return
			}
		}
		fed <- nil
	}()
	var err error
	select {
	case err = <-fed:
	case <-time.After(time.Minute):
		err = fmt.Errorf("the engine stopped committing while the hub's lock was held: the commit path waits on the hub")
	}
	committed := sq.LastCommittedEpoch() - first
	h.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if committed < rounds {
		t.Fatalf("%d epochs committed for %d rounds", committed, rounds)
	}
	deadline := time.Now().Add(time.Minute)
	for i := range received {
		for received[i].Load() < committed {
			if time.Now().After(deadline) {
				t.Fatalf("subscriber %d received %d of the %d epochs committed", i, received[i].Load(), committed)
			}
			time.Sleep(time.Millisecond)
		}
	}
}
