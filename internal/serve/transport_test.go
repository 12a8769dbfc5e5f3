package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"structream/internal/engine"
	"structream/internal/incremental"
	"structream/internal/sinks"
	"structream/internal/sources"
	"structream/internal/sql"
	"structream/internal/sql/analysis"
	"structream/internal/sql/logical"
	"structream/internal/sql/optimizer"
)

// ------------------------------------------------ engine test harness
// (engine's in-package helpers are out of reach from another package's
// tests)

var eventsSchema = sql.NewSchema(
	sql.Field{Name: "k", Type: sql.TypeString},
	sql.Field{Name: "v", Type: sql.TypeFloat64},
	sql.Field{Name: "ts", Type: sql.TypeTimestamp},
)

func streamScan() *logical.Scan {
	return &logical.Scan{Name: "events", Streaming: true, Out: eventsSchema}
}

func projectionPlan() logical.Plan {
	return &logical.Project{
		Child: streamScan(),
		Exprs: []sql.Expr{sql.Col("k"), sql.As(sql.Mul(sql.Col("v"), sql.Lit(2.0)), "v2")},
	}
}

func aggregationPlan() logical.Plan {
	return &logical.Aggregate{
		Child: streamScan(),
		Keys:  []sql.Expr{sql.Col("k")},
		Aggs:  []logical.NamedAgg{{Agg: sql.CountAll(), Name: "cnt"}},
	}
}

func compileQuery(t *testing.T, plan logical.Plan, mode logical.OutputMode) *incremental.Query {
	t.Helper()
	analyzed, err := analysis.Analyze(plan)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	if err := analysis.CheckStreaming(analyzed, mode); err != nil {
		t.Fatalf("check streaming: %v", err)
	}
	q, err := incremental.Compile(optimizer.Optimize(analyzed), mode, nil)
	if err != nil {
		t.Fatalf("incrementalize: %v", err)
	}
	return q
}

func startQuery(t *testing.T, plan logical.Plan, mode logical.OutputMode, src sources.Source, sink sinks.Sink) *engine.StreamingQuery {
	t.Helper()
	q := compileQuery(t, plan, mode)
	sq, err := engine.Start(q, map[string]sources.Source{"events": src}, sink, engine.Options{
		Checkpoint: t.TempDir(),
		Trigger:    engine.ProcessingTimeTrigger{Interval: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sq.Stop() }) //nolint:errcheck
	return sq
}

// ------------------------------------------------ SSE client harness

// readSSEFrame reads lines until one data: payload parses as a Frame.
// Returns an error on connection failure or torn (unterminated) payloads.
func readSSEFrame(br *bufio.Reader) (Frame, error) {
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			// A torn frame arrives as a partial line without the
			// terminator: the client must discard it, not apply it.
			return Frame{}, fmt.Errorf("sse read: %w", err)
		}
		line = strings.TrimRight(line, "\n")
		if !strings.HasPrefix(line, "data: ") {
			continue // event:, retry:, blank separators
		}
		var f Frame
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &f); err != nil {
			return Frame{}, fmt.Errorf("sse payload: %w", err)
		}
		return f, nil
	}
}

func sseGet(t *testing.T, url string) (*bufio.Reader, context.CancelFunc) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		cancel()
		t.Fatalf("subscribe status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("content-type = %q", ct)
	}
	t.Cleanup(func() { cancel(); resp.Body.Close() })
	return bufio.NewReader(resp.Body), cancel
}

func TestSSESubscribeStreamsCommittedEpochs(t *testing.T) {
	ms := seededSink(t, 4, 2)
	h := NewHub("q", ms, HubOptions{})
	defer h.Close()
	srv := httptest.NewServer(http.HandlerFunc(h.ServeSubscribe))
	defer srv.Close()

	br, cancel := sseGet(t, srv.URL+"?from=start")
	defer cancel()
	f, err := readSSEFrame(br)
	if err != nil || f.Kind != FrameHello {
		t.Fatalf("first frame = %+v err=%v", f, err)
	}
	for e := int64(0); e < 4; e++ {
		f, err := readSSEFrame(br)
		if err != nil || f.Kind != FrameEpoch || f.Epoch != e || len(f.Rows) != 2 {
			t.Fatalf("frame %d = %+v err=%v", e, f, err)
		}
	}
	// A live commit streams through the open connection.
	addEpoch(t, ms, logical.Append, 4, epochRows(4, 1))
	h.Notify(4)
	f, err = readSSEFrame(br)
	if err != nil || f.Kind != FrameEpoch || f.Epoch != 4 {
		t.Fatalf("live frame = %+v err=%v", f, err)
	}
}

func TestSSEHeartbeatsOnIdle(t *testing.T) {
	ms := seededSink(t, 1, 1)
	h := NewHub("q", ms, HubOptions{HeartbeatInterval: 20 * time.Millisecond})
	defer h.Close()
	srv := httptest.NewServer(http.HandlerFunc(h.ServeSubscribe))
	defer srv.Close()

	br, cancel := sseGet(t, srv.URL+"?cursor=0")
	defer cancel()
	f, err := readSSEFrame(br) // hello
	if err != nil || f.Kind != FrameHello {
		t.Fatalf("hello = %+v err=%v", f, err)
	}
	f, err = readSSEFrame(br)
	if err != nil || f.Kind != FrameHeartbeat || f.Cursor != 0 {
		t.Fatalf("idle frame = %+v err=%v, want heartbeat at cursor 0", f, err)
	}
}

// TestSSETornWriteResumesByCursor tears a connection mid-frame and checks
// a cursor reconnect observes the epoch sequence with no gap and no dup.
func TestSSETornWriteResumesByCursor(t *testing.T) {
	ms := seededSink(t, 5, 1)
	var conns atomic.Int64
	h := NewHub("q", ms, HubOptions{
		WrapWriter: func(w FlushWriter) FlushWriter {
			if conns.Add(1) == 1 {
				// Connection writes: 0 retry line, 1 hello, 2 epoch 0,
				// 3 epoch 1 (torn mid-frame).
				return NewFaultWriter(w, FaultSpec{Op: 3, Kind: FaultTorn})
			}
			return w
		},
	})
	defer h.Close()
	srv := httptest.NewServer(http.HandlerFunc(h.ServeSubscribe))
	defer srv.Close()

	br, cancel := sseGet(t, srv.URL+"?from=start")
	var applied []int64
	cursor := int64(-1)
	for {
		f, err := readSSEFrame(br)
		if err != nil {
			break // torn frame: discarded, connection dead
		}
		if f.Kind == FrameEpoch {
			applied = append(applied, f.Epoch)
			cursor = f.Cursor
		}
	}
	cancel()
	if len(applied) != 1 || applied[0] != 0 {
		t.Fatalf("first connection applied %v, want [0] before the torn write", applied)
	}

	// Reconnect with the last applied cursor: delivery must continue at
	// epoch 1, exactly once each.
	br2, cancel2 := sseGet(t, fmt.Sprintf("%s?cursor=%d", srv.URL, cursor))
	defer cancel2()
	if f, err := readSSEFrame(br2); err != nil || f.Kind != FrameHello {
		t.Fatalf("reconnect hello = %+v err=%v", f, err)
	}
	for _, want := range []int64{1, 2, 3, 4} {
		f, err := readSSEFrame(br2)
		if err != nil || f.Kind != FrameEpoch || f.Epoch != want {
			t.Fatalf("reconnect frame = %+v err=%v, want epoch %d", f, err, want)
		}
	}
	if conns.Load() != 2 {
		t.Errorf("connections = %d", conns.Load())
	}
}

func TestSSERejectsBadParams(t *testing.T) {
	ms := sinks.NewMemorySink()
	h := NewHub("q", ms, HubOptions{})
	defer h.Close()
	srv := httptest.NewServer(http.HandlerFunc(h.ServeSubscribe))
	defer srv.Close()
	for _, bad := range []string{"?cursor=abc", "?cursor=-2", "?from=bogus"} {
		resp, err := http.Get(srv.URL + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s status = %d, want 400", bad, resp.StatusCode)
		}
	}
}

func TestSubscribeOverloadAndClosedStatus(t *testing.T) {
	ms := sinks.NewMemorySink()
	h := NewHub("q", ms, HubOptions{MaxSubscribers: 1})
	srv := httptest.NewServer(http.HandlerFunc(h.ServeSubscribe))
	defer srv.Close()

	sub, err := h.Subscribe(SubscribeOptions{Cursor: -1}) // occupy the only slot
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overload status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 should carry Retry-After")
	}
	sub.Close()
	h.Close()
	resp, err = http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("closed-hub status = %d, want 410", resp.StatusCode)
	}
}

func TestPollDrainsAndResumes(t *testing.T) {
	ms := seededSink(t, 5, 1)
	h := NewHub("q", ms, HubOptions{})
	defer h.Close()
	srv := httptest.NewServer(http.HandlerFunc(h.ServePoll))
	defer srv.Close()

	poll := func(params string) pollResponse {
		t.Helper()
		resp, err := http.Get(srv.URL + params)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("poll status %d: %s", resp.StatusCode, body)
		}
		var pr pollResponse
		if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
			t.Fatal(err)
		}
		return pr
	}

	// First poll: hello plus the first slice of the replay.
	pr := poll("?from=start&max=3")
	if len(pr.Frames) != 3 || pr.Frames[0].Kind != FrameHello {
		t.Fatalf("first poll = %+v", pr)
	}
	if pr.Frames[1].Epoch != 0 || pr.Frames[2].Epoch != 1 || pr.Cursor != 1 {
		t.Fatalf("first poll frames = %+v cursor=%d", pr.Frames, pr.Cursor)
	}
	// Resumed poll skips hello and continues gap-free.
	pr = poll(fmt.Sprintf("?cursor=%d&max=100", pr.Cursor))
	if len(pr.Frames) != 3 || pr.Frames[0].Epoch != 2 || pr.Frames[2].Epoch != 4 || pr.Cursor != 4 {
		t.Fatalf("resumed poll = %+v cursor=%d", pr.Frames, pr.Cursor)
	}
	// A caught-up poll with wait blocks until the next commit.
	done := make(chan pollResponse, 1)
	go func() { done <- poll("?cursor=4&wait=5s") }()
	time.Sleep(20 * time.Millisecond)
	addEpoch(t, ms, logical.Append, 5, epochRows(5, 1))
	h.Notify(5)
	select {
	case pr = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("waiting poll did not return")
	}
	if len(pr.Frames) != 1 || pr.Frames[0].Epoch != 5 || pr.Cursor != 5 {
		t.Fatalf("waiting poll = %+v cursor=%d", pr.Frames, pr.Cursor)
	}
	// A caught-up poll with wait=0 returns immediately and empty.
	pr = poll("?cursor=5")
	if len(pr.Frames) != 0 || pr.Cursor != 5 {
		t.Fatalf("empty poll = %+v cursor=%d", pr.Frames, pr.Cursor)
	}
}

// TestHubAttachedEngineEndToEnd wires a real microbatch query to a hub and
// checks subscribers observe exactly the rows the sink committed.
func TestHubAttachedEngineEndToEnd(t *testing.T) {
	src := sources.NewMemorySource("events", eventsSchema)
	ms := sinks.NewMemorySink()
	sq := startQuery(t, projectionPlan(), logical.Append, src, ms)

	h := NewHub(sq.Name(), ms, HubOptions{})
	defer h.Close()
	h.Attach(sq)

	sub, err := h.Subscribe(SubscribeOptions{Cursor: -1, From: "start", SkipHello: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	const rows = 40
	for i := 0; i < rows; i++ {
		src.AddData(sql.Row{fmt.Sprintf("k%03d", i), float64(i), int64(0)})
	}
	if err := sq.ProcessAllAvailable(); err != nil {
		t.Fatal(err)
	}

	got := map[string]bool{}
	lastEpoch := int64(-1)
	deadline := time.Now().Add(10 * time.Second)
	for len(got) < rows {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d rows observed", len(got), rows)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		f, err := sub.Next(ctx)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if f.Kind != FrameEpoch {
			t.Fatalf("frame = %+v", f)
		}
		if f.Epoch != lastEpoch+1 {
			t.Fatalf("epoch %d after %d: gap or dup", f.Epoch, lastEpoch)
		}
		lastEpoch = f.Epoch
		for _, r := range f.Rows {
			key := fmt.Sprint(r[0])
			if got[key] {
				t.Fatalf("row %q delivered twice", key)
			}
			got[key] = true
		}
	}
}

// ------------------------------------------------ queryable state

func TestServeStateSnapshot(t *testing.T) {
	src := sources.NewMemorySource("events", eventsSchema)
	ms := sinks.NewMemorySink()
	sq := startQuery(t, aggregationPlan(), logical.Update, src, ms)

	h := NewHub(sq.Name(), ms, HubOptions{})
	defer h.Close()
	h.Attach(sq)
	srv := httptest.NewServer(http.HandlerFunc(h.ServeState))
	defer srv.Close()

	const keys = 17
	for i := 0; i < keys; i++ {
		src.AddData(sql.Row{fmt.Sprintf("k%03d", i), 1.0, int64(0)})
		src.AddData(sql.Row{fmt.Sprintf("k%03d", i), 2.0, int64(0)})
	}
	if err := sq.ProcessAllAvailable(); err != nil {
		t.Fatal(err)
	}

	getState := func(params string) StateResponse {
		t.Helper()
		resp, err := http.Get(srv.URL + params)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("state status %d: %s", resp.StatusCode, body)
		}
		var sr StateResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
		return sr
	}

	sr := getState("")
	if sr.Epoch < 0 {
		t.Fatalf("state epoch = %d, want committed", sr.Epoch)
	}
	total := 0
	var entries []StateEntry
	for _, p := range sr.Partitions {
		total += p.NumKeys
		entries = append(entries, p.Entries...)
	}
	if total != keys {
		t.Fatalf("state keys = %d, want %d", total, keys)
	}
	if len(entries) != keys {
		t.Fatalf("entries = %d, want %d", len(entries), keys)
	}
	seen := map[string]bool{}
	for _, e := range entries {
		if len(e.Key) != 1 || e.ValueHex == "" {
			t.Fatalf("entry = %+v", e)
		}
		seen[e.Key[0]] = true
	}
	if len(seen) != keys {
		t.Fatalf("decoded %d distinct keys, want %d", len(seen), keys)
	}

	// limit=0: counts only.
	sr = getState("?limit=0")
	for _, p := range sr.Partitions {
		if len(p.Entries) != 0 {
			t.Fatalf("limit=0 returned entries: %+v", p)
		}
	}
	// Point lookup by encoded key hex.
	want := entries[0]
	sr = getState("?keyHex=" + want.KeyHex)
	found := 0
	for _, p := range sr.Partitions {
		for _, e := range p.Entries {
			if e.KeyHex != want.KeyHex {
				t.Fatalf("lookup returned %+v, want key %s", e, want.KeyHex)
			}
			found++
		}
	}
	if found != 1 {
		t.Fatalf("point lookup found %d entries", found)
	}
	// Bad params are rejected.
	for _, bad := range []string{"?limit=-1", "?partition=99", "?keyHex=zz", "?prefixHex=zz"} {
		resp, err := http.Get(srv.URL + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s status = %d, want 400", bad, resp.StatusCode)
		}
	}
}

func TestServeStateWithoutStatefulOperator(t *testing.T) {
	src := sources.NewMemorySource("events", eventsSchema)
	ms := sinks.NewMemorySink()
	sq := startQuery(t, projectionPlan(), logical.Append, src, ms)
	h := NewHub(sq.Name(), ms, HubOptions{})
	defer h.Close()
	h.Attach(sq)
	srv := httptest.NewServer(http.HandlerFunc(h.ServeState))
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("stateless query status = %d, want 404", resp.StatusCode)
	}
}

func TestServeStateUnattached(t *testing.T) {
	h := NewHub("q", sinks.NewMemorySink(), HubOptions{})
	defer h.Close()
	srv := httptest.NewServer(http.HandlerFunc(h.ServeState))
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("unattached status = %d, want 503", resp.StatusCode)
	}
}
