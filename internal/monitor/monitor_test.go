package monitor

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"structream/internal/engine"
	"structream/internal/incremental"
	"structream/internal/serve"
	"structream/internal/sinks"
	"structream/internal/sources"
	"structream/internal/sql"
	"structream/internal/sql/analysis"
	"structream/internal/sql/logical"
	"structream/internal/sql/optimizer"
)

// The monitor package sits above the engine, so engine's in-package test
// helpers are out of reach (importing them back would cycle). These mirror
// engine_test.go's compile/schema helpers.

var eventsSchema = sql.NewSchema(
	sql.Field{Name: "k", Type: sql.TypeString},
	sql.Field{Name: "v", Type: sql.TypeFloat64},
	sql.Field{Name: "ts", Type: sql.TypeTimestamp},
)

func startProjection(t *testing.T) (*engine.StreamingQuery, *sources.MemorySource, *sinks.MemorySink) {
	t.Helper()
	plan := &logical.Project{
		Child: &logical.Scan{Name: "events", Streaming: true, Out: eventsSchema},
		Exprs: []sql.Expr{sql.Col("k"), sql.As(sql.Mul(sql.Col("v"), sql.Lit(2.0)), "v2")},
	}
	analyzed, err := analysis.Analyze(plan)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	if err := analysis.CheckStreaming(analyzed, logical.Append); err != nil {
		t.Fatalf("check streaming: %v", err)
	}
	q, err := incremental.Compile(optimizer.Optimize(analyzed), logical.Append, nil)
	if err != nil {
		t.Fatalf("incrementalize: %v", err)
	}
	src := sources.NewMemorySource("events", eventsSchema)
	ms := sinks.NewMemorySink()
	sq, err := engine.Start(q, map[string]sources.Source{"events": src}, ms, engine.Options{
		Checkpoint: t.TempDir(),
		Trigger:    engine.ProcessingTimeTrigger{Interval: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sq.Stop() }) //nolint:errcheck
	return sq, src, ms
}

// publishedServer returns a monitor Server with one running projection
// query registered and published for serving, plus two committed epochs.
func publishedServer(t *testing.T) (*Server, *engine.StreamingQuery, *serve.Hub) {
	t.Helper()
	sq, src, ms := startProjection(t)
	for i := 0; i < 4; i++ {
		src.AddData(sql.Row{fmt.Sprintf("k%d", i), float64(i), int64(0)})
	}
	if err := sq.ProcessAllAvailable(); err != nil {
		t.Fatal(err)
	}
	h := serve.NewHub(sq.Name(), ms, serve.HubOptions{})
	t.Cleanup(h.Close)
	h.Attach(sq)
	s := New()
	s.Register(sq)
	s.RegisterHub(h)
	return s, sq, h
}

func TestHubEndpointsMounted(t *testing.T) {
	s, sq, _ := publishedServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Long-poll drains the committed prefix through the mounted route.
	resp, err := http.Get(ts.URL + "/queries/" + sq.Name() + "/poll?from=start&max=100")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("poll status %d: %s", resp.StatusCode, body)
	}
	var pr struct {
		Frames []serve.Frame `json:"frames"`
		Cursor int64         `json:"cursor"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Frames) < 2 || pr.Frames[0].Kind != serve.FrameHello || pr.Cursor < 0 {
		t.Fatalf("poll = %+v cursor=%d", pr.Frames, pr.Cursor)
	}
	rows := 0
	for _, f := range pr.Frames[1:] {
		if f.Kind != serve.FrameEpoch {
			t.Fatalf("frame = %+v", f)
		}
		rows += len(f.Rows)
	}
	if rows != 4 {
		t.Fatalf("polled %d rows, want 4", rows)
	}

	// State endpoint is mounted too (404 here: projection is stateless —
	// but routed to the hub, not the generic unknown-query handler).
	resp, err = http.Get(ts.URL + "/queries/" + sq.Name() + "/state")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || !strings.Contains(string(body), "stateful") {
		t.Fatalf("state status %d: %s", resp.StatusCode, body)
	}
}

func TestUnpublishedQueryIs404(t *testing.T) {
	s, sq, _ := publishedServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, ep := range []string{"subscribe", "poll", "state"} {
		resp, err := http.Get(ts.URL + "/queries/no-such-query/" + ep)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound || !strings.Contains(string(body), "not published") {
			t.Fatalf("%s status %d: %s", ep, resp.StatusCode, body)
		}
	}
	// The query itself is still monitored even if someone unregistered the
	// hub: progress stays mounted under the same prefix.
	resp, err := http.Get(ts.URL + "/queries/" + sq.Name() + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("progress status = %d", resp.StatusCode)
	}
}

// TestEndpointsReadOneRing: /progress, /trace and /health are views of the
// query's one ring of epoch records, so they name the same epochs in the
// same order — there is no second history for one of them to disagree from.
func TestEndpointsReadOneRing(t *testing.T) {
	sq, src, _ := startProjection(t)
	for i := 0; i < 5; i++ {
		src.AddData(sql.Row{fmt.Sprintf("k%d", i), float64(i), int64(0)})
		if err := sq.ProcessAllAvailable(); err != nil {
			t.Fatal(err)
		}
	}
	s := New()
	s.Register(sq)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(ts.URL + "/queries/" + sq.Name() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, %v", path, resp.StatusCode, err)
		}
		return body
	}
	type epoch struct {
		Epoch int64 `json:"epoch"`
	}
	var progress []epoch
	if err := json.Unmarshal(get("/progress?n=5"), &progress); err != nil {
		t.Fatal(err)
	}
	var traced []epoch
	for _, line := range strings.Split(strings.TrimSpace(string(get("/trace?format=jsonl"))), "\n") {
		var e epoch
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		traced = append(traced, e)
	}
	var report struct {
		Stamps []epoch `json:"recentStamps"`
	}
	if err := json.Unmarshal(get("/health"), &report); err != nil {
		t.Fatal(err)
	}
	want := []epoch{{0}, {1}, {2}, {3}, {4}}
	for view, got := range map[string][]epoch{"/progress?n=5": progress, "/trace?format=jsonl": traced, "/health recentStamps": report.Stamps} {
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s names epochs %v, want %v", view, got, want)
		}
	}
}

// TestCloseDrainsOpenSubscription opens a live SSE subscription against a
// real listener and checks Close hands it a clean terminal frame instead
// of a torn connection.
func TestCloseDrainsOpenSubscription(t *testing.T) {
	s, sq, _ := publishedServer(t)
	s.DrainTimeout = 5 * time.Second
	addr, err := s.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		"http://"+addr+"/queries/"+sq.Name()+"/subscribe?from=start", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("subscribe status = %d", resp.StatusCode)
	}

	br := bufio.NewReader(resp.Body)
	readFrame := func() serve.Frame {
		t.Helper()
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				t.Fatalf("sse read: %v", err)
			}
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			var f serve.Frame
			if err := json.Unmarshal([]byte(strings.TrimPrefix(strings.TrimRight(line, "\n"), "data: ")), &f); err != nil {
				t.Fatalf("sse payload: %v", err)
			}
			return f
		}
	}
	if f := readFrame(); f.Kind != serve.FrameHello {
		t.Fatalf("first frame = %+v", f)
	}

	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()

	// Drain until the terminal frame: the epochs already in flight may
	// arrive first, then the clean shutdown.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("no shutdown frame before deadline")
		}
		f := readFrame()
		if f.Kind == serve.FrameShutdown {
			if f.Reason != "server closing" || f.RetryMillis <= 0 || f.Cursor < -1 {
				t.Fatalf("shutdown frame = %+v", f)
			}
			break
		}
	}
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return")
	}
}

func TestMetricsMergeServePrefix(t *testing.T) {
	s, sq, h := publishedServer(t)
	sub, err := h.Subscribe(serve.SubscribeOptions{Cursor: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]map[string]int64
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	snap, ok := out[sq.Name()]
	if !ok {
		t.Fatalf("metrics missing query %q: %v", sq.Name(), out)
	}
	if snap["serve.subscribers"] != 1 {
		t.Fatalf("serve.subscribers = %d, want 1 (snapshot %v)", snap["serve.subscribers"], snap)
	}
	if _, ok := snap["epochs"]; !ok {
		t.Fatalf("engine metrics missing from merged snapshot: %v", snap)
	}

	// Prometheus text format carries the same merged keys as labeled
	// samples under sanitized family names.
	resp, err = http.Get(ts.URL + "/metrics?format=text")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	want := fmt.Sprintf("structream_serve_subscribers{query=%q} 1", sq.Name())
	if !strings.Contains(string(body), want) {
		t.Fatalf("text metrics missing %s:\n%s", want, body)
	}
}

func TestQueriesReportServing(t *testing.T) {
	s, sq, h := publishedServer(t)
	sub, err := h.Subscribe(serve.SubscribeOptions{Cursor: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/queries")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out []QuerySummary
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Name != sq.Name() {
		t.Fatalf("queries = %+v", out)
	}
	if !out[0].Serving || out[0].Subscribers != 1 {
		t.Fatalf("summary = %+v, want Serving with 1 subscriber", out[0])
	}
}
