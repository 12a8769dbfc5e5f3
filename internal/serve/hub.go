// Package serve is the live serving layer: it broadcasts a streaming
// query's committed epochs to subscribers over SSE and long-poll
// transports and answers point-in-time queryable-state reads, turning the
// paper's §3 "interactive applications over streaming output" into a
// network surface.
//
// The delivery contract is the paper's prefix consistency: every
// subscriber observes a gap-free, duplicate-free sequence of committed
// epochs, resumable across its own disconnects and query restarts from
// the checkpoint via cursors (committed-epoch resume tokens) replayed
// from the sink. Robustness is the design center — no subscriber may
// stall or bloat the epoch-commit path:
//
//   - The engine-side epoch listener is an atomic store plus a
//     non-blocking channel send; a pump goroutine pulls committed epochs
//     out of the sink and broadcasts them.
//   - Each subscriber has a bounded frame ring. Overflow marks the
//     subscriber lagged and drops its buffered deltas; it catches up by
//     replaying epochs from the sink at its own pace (coalescing: the
//     ring never grows past its bound).
//   - A cursor below the sink's retention floor cannot be replayed
//     gap-free; the subscriber gets a snapshot frame with Reset set —
//     the explicit "restart from snapshot" signal.
//   - Consumers that stop draining past StallTimeout are evicted with a
//     terminal frame carrying jittered reconnect guidance; a global
//     buffered-frame budget sheds the slowest consumers first under
//     fan-out overload.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"structream/internal/engine"
	"structream/internal/health"
	"structream/internal/metrics"
	"structream/internal/sql"
	"structream/internal/sql/logical"
)

// Replayer is the sink-side surface the hub replays from — the single
// source of truth for what each committed epoch appended. sinks.MemorySink
// implements it.
type Replayer interface {
	Schema() sql.Schema
	Mode() (logical.OutputMode, bool)
	// EpochRows returns one epoch's appended rows (append mode); ok is
	// false below the retention floor and for non-append modes.
	EpochRows(epoch int64) ([]sql.Row, bool)
	// SnapshotRows returns the whole result table plus the newest epoch
	// reflected in it.
	SnapshotRows() ([]sql.Row, int64)
	// Floor is the newest epoch dropped by retention (-1 = nothing
	// dropped); epochs at or below it are not replayable.
	Floor() int64
	// LastEpoch is the newest epoch delivered to the sink (-1 = none).
	LastEpoch() int64
}

// Frame kinds, in the order a subscriber typically sees them.
const (
	FrameHello     = "hello"     // subscription metadata: schema, mode, cursor, heartbeat/retry guidance
	FrameEpoch     = "epoch"     // one committed epoch's appended rows (append mode)
	FrameSnapshot  = "snapshot"  // full result table; Reset means discard prior state and re-anchor
	FrameHeartbeat = "heartbeat" // keepalive carrying the current cursor
	FrameEvicted   = "evicted"   // terminal: the hub shed this subscriber; reconnect after RetryMillis
	FrameShutdown  = "shutdown"  // terminal: hub or server is closing; reconnect after RetryMillis
)

// Frame is one unit of delivery to a subscriber. Cursor is the resume
// token: the newest committed epoch reflected in the subscriber's view
// after applying the frame.
type Frame struct {
	Kind   string `json:"kind"`
	Query  string `json:"query,omitempty"`
	Epoch  int64  `json:"epoch,omitempty"`
	Cursor int64  `json:"cursor"`
	// Reset on a snapshot frame tells the client its prior accumulated
	// view (if any) is not a prefix of this one — discard and re-anchor.
	Reset  bool      `json:"reset,omitempty"`
	Reason string    `json:"reason,omitempty"`
	Schema []string  `json:"schema,omitempty"`
	Mode   string    `json:"mode,omitempty"`
	Rows   []sql.Row `json:"rows,omitempty"`
	// RetryMillis (terminal and hello frames) is jittered reconnect
	// guidance; HeartbeatMillis (hello) is the keepalive cadence.
	RetryMillis     int64 `json:"retryMillis,omitempty"`
	HeartbeatMillis int64 `json:"heartbeatMillis,omitempty"`
	// EmitMicros is the hub's broadcast timestamp (µs since epoch), the
	// basis for per-subscriber delivery-latency percentiles.
	EmitMicros int64 `json:"emitMicros,omitempty"`
	// IngestMicros is when the frame's epoch was read from its source
	// (from the engine's latency lineage), letting clients compute their
	// own end-to-end freshness. 0 when no query is attached or the epoch
	// aged out of the query's epoch ring.
	IngestMicros int64 `json:"ingestMicros,omitempty"`
}

// HubOptions tunes a hub's robustness envelope. Zero values get the
// defaults documented per field.
type HubOptions struct {
	// RingFrames bounds each subscriber's buffered frames (default 64).
	// Overflow marks the subscriber lagged: its buffer is dropped and it
	// replays from the sink at its own pace.
	RingFrames int
	// MaxSubscribers caps concurrent subscriptions (default 8192);
	// beyond it Subscribe returns ErrHubFull (HTTP 503 + Retry-After).
	MaxSubscribers int
	// MaxBufferedFrames is the global buffered-frame budget across all
	// subscribers (default 1<<16). Exceeding it evicts the slowest
	// consumers (largest buffers) first — graceful degradation under
	// fan-out overload.
	MaxBufferedFrames int
	// StallTimeout evicts a subscriber that has buffered or pending
	// frames but has not drained any for this long (default 30s).
	StallTimeout time.Duration
	// HeartbeatInterval is how often transports emit keepalive frames on
	// an idle subscription (default 10s).
	HeartbeatInterval time.Duration
	// WriteTimeout bounds each transport write (default 10s); a
	// subscriber whose connection cannot absorb a frame within it is
	// disconnected (and will resume by cursor).
	WriteTimeout time.Duration
	// PollWaitMax bounds a long-poll request's wait parameter (default 30s).
	PollWaitMax time.Duration
	// RetryMillis is the base reconnect delay surfaced to clients,
	// jittered to 0.5×–1.5× per frame (default 2000).
	RetryMillis int64
	// Seed makes the retry jitter deterministic in tests (0 = seed 1).
	Seed int64
	// Clock overrides time.Now for deterministic stall/eviction tests.
	Clock func() time.Time
	// WrapWriter, when set, wraps each transport connection's writer —
	// the deterministic connection-fault injection hook (see FaultWriter).
	WrapWriter func(w FlushWriter) FlushWriter
}

func (o HubOptions) withDefaults() HubOptions {
	if o.RingFrames <= 0 {
		o.RingFrames = 64
	}
	if o.MaxSubscribers <= 0 {
		o.MaxSubscribers = 8192
	}
	if o.MaxBufferedFrames <= 0 {
		o.MaxBufferedFrames = 1 << 16
	}
	if o.StallTimeout <= 0 {
		o.StallTimeout = 30 * time.Second
	}
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = 10 * time.Second
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 10 * time.Second
	}
	if o.PollWaitMax <= 0 {
		o.PollWaitMax = 30 * time.Second
	}
	if o.RetryMillis <= 0 {
		o.RetryMillis = 2000
	}
	if o.Clock == nil {
		o.Clock = time.Now
	}
	return o
}

// Subscription errors. Transports map them to terminal frames/status codes.
var (
	ErrHubFull   = errors.New("serve: subscriber limit reached")
	ErrHubClosed = errors.New("serve: hub closed")
	ErrEvicted   = errors.New("serve: subscriber evicted")
	ErrSubClosed = errors.New("serve: subscription closed")
)

// Hub broadcasts one query's committed epochs to its subscribers and
// serves its queryable state. It survives restarts: the caller Attaches
// each instance it starts over the checkpoint, and cursors and the sink
// carry delivery continuity across the gap.
type Hub struct {
	name string
	rep  Replayer
	opts HubOptions
	reg  *metrics.Registry

	latest atomic.Int64  // newest engine-committed epoch seen
	wake   chan struct{} // pump wakeup (capacity 1)

	mu       sync.Mutex
	last     int64 // newest epoch broadcast to rings
	subs     map[int64]*Subscription
	nextID   int64
	buffered int // frames across all rings (global budget)
	closed   bool
	closeCh  chan struct{}
	detach   func() // removes the engine epoch listener
	attached *engine.StreamingQuery
	query    *engine.StreamingQuery // newest attached instance (for state reads, mode and schema)
	health   *health.Tracker        // attached instance's health tracker; nil before Attach
	rng      *rand.Rand
}

// NewHub creates a hub for the named query serving from rep. Call Attach
// to connect it to a running instance.
func NewHub(name string, rep Replayer, opts HubOptions) *Hub {
	opts = opts.withDefaults()
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	h := &Hub{
		name:    name,
		rep:     rep,
		opts:    opts,
		reg:     metrics.NewRegistry(),
		wake:    make(chan struct{}, 1),
		subs:    map[int64]*Subscription{},
		closeCh: make(chan struct{}),
		rng:     rand.New(rand.NewSource(seed)),
	}
	// Anchor the broadcast cursor at what the sink already holds, so a
	// hub attached to a warm query doesn't re-broadcast history (early
	// subscribers replay it by cursor instead).
	h.last = rep.LastEpoch()
	h.latest.Store(h.last)
	go h.pump()
	return h
}

// Name returns the query name the hub serves.
func (h *Hub) Name() string { return h.name }

// Registry exposes the hub's metrics (subscribers, evictions, replay
// depth, ...); the monitor merges them into /metrics as serve.*.
func (h *Hub) Registry() *metrics.Registry { return h.reg }

// Attach points the hub at a (new) query instance: it registers the
// epoch-commit listener and adopts the instance for state reads.
// Idempotent per instance; attaching a replacement detaches the previous
// listener. The epoch listener is a non-blocking nudge — the commit path
// never waits on subscribers.
func (h *Hub) Attach(q *engine.StreamingQuery) {
	if q == nil {
		return
	}
	h.mu.Lock()
	if h.closed || h.attached == q {
		h.mu.Unlock()
		return
	}
	detach := h.detach
	h.attached = q
	h.query = q
	h.health = q.Health()
	h.mu.Unlock()
	if detach != nil {
		detach()
	}
	remove := q.AddEpochListener(func(epoch int64) { h.Notify(epoch) })
	h.mu.Lock()
	if h.closed || h.attached != q {
		h.mu.Unlock()
		remove()
		return
	}
	h.detach = remove
	h.mu.Unlock()
	h.Notify(q.LastCommittedEpoch())
}

// Query returns the newest attached instance, or nil.
func (h *Hub) Query() *engine.StreamingQuery {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.query
}

// Notify records a committed epoch and nudges the pump. Safe from the
// engine's commit path: an atomic max plus a non-blocking send.
func (h *Hub) Notify(epoch int64) {
	if epoch < 0 {
		return
	}
	for {
		cur := h.latest.Load()
		if epoch <= cur || h.latest.CompareAndSwap(cur, epoch) {
			break
		}
	}
	select {
	case h.wake <- struct{}{}:
	default:
	}
}

// Close shuts the hub down: the pump exits, waiting subscribers receive a
// terminal shutdown frame, and further Subscribes fail.
func (h *Hub) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	detach := h.detach
	h.detach = nil
	close(h.closeCh)
	for _, sub := range h.subs {
		sub.wakeLocked()
	}
	h.mu.Unlock()
	if detach != nil {
		detach()
	}
}

// pump moves committed epochs from the sink into subscriber rings. It is
// the only writer of h.last, so the broadcast order every ring sees is the
// commit order — the prefix-consistency spine.
func (h *Hub) pump() {
	for {
		select {
		case <-h.closeCh:
			return
		case <-h.wake:
		}
		h.advance()
	}
}

// advance broadcasts every committed epoch not yet in the rings, then
// runs the stall/overload sweep.
func (h *Hub) advance() {
	for {
		latest := h.latest.Load()
		h.mu.Lock()
		if h.closed {
			h.mu.Unlock()
			return
		}
		if h.last >= latest {
			h.sweepLocked()
			h.mu.Unlock()
			return
		}
		next := h.last + 1
		now := h.opts.Clock()
		var f Frame
		mode, _ := h.modeLocked()
		switch {
		case mode != logical.Append:
			// Update/Complete deliver per-epoch snapshots of the result
			// table (the sink retains no deltas); each snapshot replaces
			// the previous view, so skipping straight to the newest
			// committed epoch is both correct and the coalescing we want.
			// The table is decoded only when a ring will take the frame: a
			// subscriber that arrives later gets its own snapshot.
			var rows []sql.Row
			ep := h.rep.LastEpoch()
			if h.ringOpenLocked() {
				rows, ep = h.rep.SnapshotRows()
			}
			if ep < latest {
				ep = latest
			}
			f = Frame{Kind: FrameSnapshot, Query: h.name, Epoch: ep, Cursor: ep, Rows: rows, EmitMicros: now.UnixMicro(), IngestMicros: h.ingestMicrosLocked(ep)}
			h.last = ep
		case next <= h.rep.Floor():
			// Retention already dropped epochs the rings never saw (the
			// hub fell behind a fast-truncating sink): re-anchor everyone
			// via an explicit reset snapshot.
			rows, ep := h.rep.SnapshotRows()
			if ep < next {
				ep = next
			}
			f = Frame{Kind: FrameSnapshot, Query: h.name, Epoch: ep, Cursor: ep, Reset: true, Reason: "retention floor passed broadcast cursor", Rows: rows, EmitMicros: now.UnixMicro(), IngestMicros: h.ingestMicrosLocked(ep)}
			h.last = ep
		default:
			// The engine committed `next`: the sink write happens before
			// the WAL commit, so absence means a legitimately empty epoch
			// (e.g. continuous mode emits no sub-batches without output).
			rows, _ := h.rep.EpochRows(next)
			f = Frame{Kind: FrameEpoch, Query: h.name, Epoch: next, Cursor: next, Rows: rows, EmitMicros: now.UnixMicro(), IngestMicros: h.ingestMicrosLocked(next)}
			h.last = next
		}
		h.broadcastLocked(f, now)
		h.sweepLocked()
		h.mu.Unlock()
	}
}

// modeLocked returns the output mode of the served result: the attached
// query's, which is known before its first epoch, or, before any Attach,
// the mode the sink's batches were written in (none before the first).
func (h *Hub) modeLocked() (logical.OutputMode, bool) {
	if h.query != nil {
		return h.query.OutputMode(), true
	}
	return h.rep.Mode()
}

// schemaLocked returns the schema of the served result, from the same
// source as modeLocked: the attached query's, or, before any Attach, the
// sink's (empty before its first batch).
func (h *Hub) schemaLocked() sql.Schema {
	if h.query != nil {
		return h.query.OutputSchema()
	}
	return h.rep.Schema()
}

// ringOpenLocked reports whether broadcastLocked would append a frame to
// any ring.
func (h *Hub) ringOpenLocked() bool {
	for _, sub := range h.subs {
		if sub.evictReason == "" && !sub.closed && !sub.lagged && !sub.snapshotPending && len(sub.ring) < h.opts.RingFrames {
			return true
		}
	}
	return false
}

// broadcastLocked appends f to every live ring. Never blocks: a full ring
// marks its subscriber lagged (buffer dropped, sink replay catches it up).
func (h *Hub) broadcastLocked(f Frame, now time.Time) {
	h.reg.Counter("framesBroadcast").Add(1)
	for _, sub := range h.subs {
		if sub.evictReason != "" || sub.closed {
			continue
		}
		if sub.lagged || sub.snapshotPending {
			sub.wakeLocked() // catching up from the sink; just nudge
			continue
		}
		if len(sub.ring) >= h.opts.RingFrames {
			h.buffered -= len(sub.ring)
			sub.ring = nil
			sub.lagged = true
			h.reg.Counter("lagged").Add(1)
			sub.wakeLocked()
			continue
		}
		sub.ring = append(sub.ring, f)
		h.buffered++
		sub.wakeLocked()
	}
}

// sweepLocked enforces the robustness ladder: evict stalled consumers,
// then shed the slowest until the global buffer budget holds. It also
// refreshes the hub gauges.
func (h *Hub) sweepLocked() {
	now := h.opts.Clock()
	var maxDepth int64
	for _, sub := range h.subs {
		if sub.evictReason != "" || sub.closed {
			continue
		}
		if d := h.last - sub.cursor; d > maxDepth {
			maxDepth = d
		}
		behind := len(sub.ring) > 0 || sub.lagged
		if behind && now.Sub(sub.lastDrain) > h.opts.StallTimeout {
			h.evictLocked(sub, fmt.Sprintf("stalled: no frames drained in %v", h.opts.StallTimeout))
		}
	}
	for h.buffered > h.opts.MaxBufferedFrames {
		var slowest *Subscription
		for _, sub := range h.subs {
			if sub.evictReason != "" || sub.closed {
				continue
			}
			if slowest == nil || len(sub.ring) > len(slowest.ring) {
				slowest = sub
			}
		}
		if slowest == nil || len(slowest.ring) == 0 {
			break
		}
		h.evictLocked(slowest, "overload: global frame budget exceeded, shedding slowest")
	}
	h.reg.Gauge("subscribers").Set(int64(len(h.subs)))
	h.reg.Gauge("bufferedFrames").Set(int64(h.buffered))
	h.reg.Gauge("replayDepth").Set(maxDepth)
	h.reg.Gauge("maxSubscribers").SetMax(int64(len(h.subs)))
}

// evictLocked sheds a subscriber: its buffer is released immediately and
// its next Next returns a terminal evicted frame with reconnect guidance.
func (h *Hub) evictLocked(sub *Subscription, reason string) {
	h.buffered -= len(sub.ring)
	sub.ring = nil
	sub.lagged = false
	sub.evictReason = reason
	h.reg.Counter("evictions").Add(1)
	sub.wakeLocked()
}

// ingestMicrosLocked looks up an epoch's source-read instant on its record
// in the attached query's epoch ring — there from the commit on, while the
// engine is still publishing the epoch. Caller holds h.mu; the ring has its
// own lock and never takes the hub's, so the nesting is safe.
func (h *Hub) ingestMicrosLocked(epoch int64) int64 {
	if s, ok := h.health.Stamp(epoch); ok {
		return s.IngestMicros
	}
	return 0
}

// Delivered tells the health subsystem that a subscriber flushed f — the
// terminal hop of the epoch's latency lineage, observed into the query's
// endToEndLatency.us histogram. Transports call it after each successful
// frame write; in-process consumers (the fan-out bench, ssql) call it
// directly after applying a frame.
func (h *Hub) Delivered(f Frame) {
	if f.Kind != FrameEpoch && f.Kind != FrameSnapshot {
		return
	}
	h.mu.Lock()
	tr := h.health
	now := h.opts.Clock()
	h.mu.Unlock()
	tr.StampDeliver(f.Epoch, now)
}

// retryJitterLocked returns the reconnect guidance for one frame:
// RetryMillis jittered uniformly over 0.5×–1.5× so a mass disconnect does
// not reconnect in lockstep.
func (h *Hub) retryJitterLocked() int64 {
	base := h.opts.RetryMillis
	return base/2 + h.rng.Int63n(base+1)
}

// SubscribeOptions positions a new subscription.
type SubscribeOptions struct {
	// Cursor resumes after the given committed epoch (the client has
	// already applied epochs ≤ Cursor). Negative means no cursor — use
	// From. A cursor below the sink's retention floor re-anchors via a
	// reset snapshot.
	Cursor int64
	// From positions cursorless subscriptions: "latest" (default —
	// snapshot of the current table, then live epochs), "live" (only
	// epochs committed after subscribing), "start" (replay everything the
	// sink retains, re-anchoring by snapshot if retention truncated).
	From string
	// SkipHello suppresses the metadata frame (repeat long-polls).
	SkipHello bool
}

// Subscribe registers a subscriber. The returned Subscription's Next
// yields frames in delivery order; the caller must Close it.
func (h *Hub) Subscribe(o SubscribeOptions) (*Subscription, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, ErrHubClosed
	}
	if len(h.subs) >= h.opts.MaxSubscribers {
		h.reg.Counter("rejected").Add(1)
		return nil, ErrHubFull
	}
	sub := &Subscription{
		hub:          h,
		id:           h.nextID,
		cursor:       h.last,
		lastDrain:    h.opts.Clock(),
		helloPending: !o.SkipHello,
	}
	h.nextID++
	mode, _ := h.modeLocked()
	switch {
	case o.Cursor >= 0:
		h.reg.Counter("resumes").Add(1)
		if o.Cursor > h.last {
			// A cursor from the future (e.g. the query was rolled back):
			// nothing gap-free can be replayed — re-anchor by snapshot.
			sub.snapshotPending = true
			sub.resetReason = "cursor beyond committed prefix"
		} else {
			sub.cursor = o.Cursor
			if mode != logical.Append && o.Cursor < h.last {
				sub.snapshotPending = true
				sub.resetReason = "non-append mode resumes by snapshot"
			} else if o.Cursor < h.last {
				sub.lagged = true // catch up from the sink
			}
		}
	case o.From == "live":
		// cursor stays at h.last: only future epochs.
	case o.From == "start":
		sub.cursor = -1
		if mode == logical.Append && h.last >= 0 {
			sub.lagged = true
		} else if h.last >= 0 {
			sub.snapshotPending = true
			sub.resetReason = "non-append mode anchors by snapshot"
		}
	default: // "latest"
		if h.last >= 0 {
			sub.snapshotPending = true
			sub.resetReason = "initial snapshot"
		}
	}
	h.subs[sub.id] = sub
	h.reg.Counter("connects").Add(1)
	h.reg.Gauge("subscribers").Set(int64(len(h.subs)))
	return sub, nil
}

// Subscription is one subscriber's position in the hub. Next is the only
// consumption API; both transports and in-process consumers (ssql's
// :subscribe, the fan-out bench, the chaos suite) drive it.
type Subscription struct {
	hub *Hub
	id  int64

	// All fields below are guarded by hub.mu.
	cursor          int64
	ring            []Frame
	lagged          bool
	snapshotPending bool
	resetReason     string
	helloPending    bool
	evictReason     string
	evictSent       bool
	shutdownSent    bool
	closed          bool
	lastDrain       time.Time
	waitCh          chan struct{}
}

// Cursor returns the subscription's current resume token.
func (s *Subscription) Cursor() int64 {
	s.hub.mu.Lock()
	defer s.hub.mu.Unlock()
	return s.cursor
}

// wakeLocked signals a waiting Next, if any.
func (s *Subscription) wakeLocked() {
	if s.waitCh != nil {
		close(s.waitCh)
		s.waitCh = nil
	}
}

// Close unsubscribes. Idempotent; pending frames are released.
func (s *Subscription) Close() {
	h := s.hub
	h.mu.Lock()
	if !s.closed {
		s.closed = true
		h.buffered -= len(s.ring)
		s.ring = nil
		delete(h.subs, s.id)
		h.reg.Counter("disconnects").Add(1)
		h.reg.Gauge("subscribers").Set(int64(len(h.subs)))
		s.wakeLocked()
	}
	h.mu.Unlock()
}

// Next returns the next frame, blocking until one is available, ctx ends,
// or the subscription terminates. Terminal frames (evicted, shutdown) are
// delivered once; subsequent calls return the matching error.
func (s *Subscription) Next(ctx context.Context) (Frame, error) {
	h := s.hub
	for {
		// The idle verdict and the waiter registration share one hold of
		// hub.mu: a broadcast landing between two holds would find no
		// waiter, and after the last commit nobody would wake this caller.
		h.mu.Lock()
		f, ok, err := s.stepLocked()
		if err != nil || ok {
			h.mu.Unlock()
			return f, err
		}
		if s.waitCh == nil {
			s.waitCh = make(chan struct{})
		}
		ch := s.waitCh
		h.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return Frame{}, ctx.Err()
		}
	}
}

// TryNext returns the next frame without blocking; ok is false when the
// subscription is idle (caught up with no frame pending).
func (s *Subscription) TryNext() (Frame, bool, error) {
	s.hub.mu.Lock()
	defer s.hub.mu.Unlock()
	return s.stepLocked()
}

// stepLocked produces at most one frame; ok=false means idle. Caller holds
// hub.mu.
func (s *Subscription) stepLocked() (Frame, bool, error) {
	h := s.hub
	now := h.opts.Clock()
	for {
		switch {
		case s.closed:
			return Frame{}, false, ErrSubClosed
		case s.evictReason != "":
			if s.evictSent {
				return Frame{}, false, ErrEvicted
			}
			s.evictSent = true
			return Frame{
				Kind: FrameEvicted, Query: h.name, Cursor: s.cursor,
				Reason: s.evictReason, RetryMillis: h.retryJitterLocked(),
			}, true, nil
		case h.closed:
			if s.shutdownSent {
				return Frame{}, false, ErrHubClosed
			}
			s.shutdownSent = true
			return Frame{
				Kind: FrameShutdown, Query: h.name, Cursor: s.cursor,
				Reason: "hub closed", RetryMillis: h.retryJitterLocked(),
			}, true, nil
		case s.helloPending:
			s.helloPending = false
			s.lastDrain = now
			mode, _ := h.modeLocked()
			return Frame{
				Kind: FrameHello, Query: h.name, Cursor: s.cursor,
				Schema:          h.schemaLocked().Names(),
				Mode:            mode.String(),
				RetryMillis:     h.retryJitterLocked(),
				HeartbeatMillis: h.opts.HeartbeatInterval.Milliseconds(),
			}, true, nil
		case s.snapshotPending:
			s.snapshotPending = false
			s.lastDrain = now
			// The sink may already hold epochs the hub has not broadcast
			// (it is written before the engine commits and notifies). The
			// snapshot stops at the broadcast prefix, like its cursor: an
			// append-mode table drops those epochs' rows, its tail, so each
			// arrives once, in its own frame. An update- or complete-mode
			// table cannot be rewound, but the frame of the epoch it
			// reflects replaces it again, which changes nothing.
			mode, _ := h.modeLocked()
			rows, ep := h.rep.SnapshotRows()
			for ; ep > h.last; ep-- {
				if mode == logical.Append {
					tail, _ := h.rep.EpochRows(ep)
					rows = rows[:max(0, len(rows)-len(tail))]
				}
			}
			reason := s.resetReason
			s.resetReason = ""
			s.cursor = ep
			if mode == logical.Append && s.cursor < h.last {
				s.lagged = true
			}
			h.reg.Counter("snapshotFrames").Add(1)
			return Frame{
				Kind: FrameSnapshot, Query: h.name, Epoch: ep, Cursor: ep,
				Reset: true, Reason: reason, Rows: rows,
				EmitMicros:   now.UnixMicro(),
				IngestMicros: h.ingestMicrosLocked(ep),
			}, true, nil
		case s.lagged:
			next := s.cursor + 1
			if next > h.last {
				s.lagged = false
				continue
			}
			if next <= h.rep.Floor() {
				// Below the replayable window: explicit restart-from-
				// snapshot instead of a silent gap.
				s.snapshotPending = true
				s.resetReason = "cursor below retention floor"
				continue
			}
			mode, hasMode := h.modeLocked()
			if hasMode && mode != logical.Append {
				s.snapshotPending = true
				s.resetReason = "non-append mode resumes by snapshot"
				continue
			}
			rows, _ := h.rep.EpochRows(next)
			s.cursor = next
			s.lastDrain = now
			if next >= h.last {
				s.lagged = false
			}
			h.reg.Counter("replayFrames").Add(1)
			return Frame{
				Kind: FrameEpoch, Query: h.name, Epoch: next, Cursor: next,
				Rows: rows, EmitMicros: now.UnixMicro(),
				IngestMicros: h.ingestMicrosLocked(next),
			}, true, nil
		case len(s.ring) > 0:
			f := s.ring[0]
			s.ring = s.ring[1:]
			h.buffered--
			if f.Kind == FrameEpoch && f.Cursor <= s.cursor {
				// A frame at or behind the cursor is already covered by a
				// snapshot or replay; delivering it would duplicate rows.
				continue
			}
			s.cursor = f.Cursor
			s.lastDrain = now
			h.reg.Counter("framesDelivered").Add(1)
			return f, true, nil
		default:
			s.lastDrain = now // caught up: an idle subscriber is not stalled
			return Frame{}, false, nil
		}
	}
}

// Heartbeat builds a keepalive frame carrying the current cursor, so even
// idle subscribers can persist fresh resume tokens.
func (s *Subscription) Heartbeat() Frame {
	h := s.hub
	h.mu.Lock()
	defer h.mu.Unlock()
	h.reg.Counter("heartbeats").Add(1)
	return Frame{Kind: FrameHeartbeat, Query: h.name, Cursor: s.cursor}
}
