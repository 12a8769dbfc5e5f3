package structream

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"structream/internal/metrics"
)

// getBody fetches a monitor URL and returns status code and body.
func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, body
}

// TestMonitorEndpoints drives the full §7.4 HTTP surface against a live
// query: query listing, progress (including the duration breakdown and
// per-source/sink sections), Chrome-format traces, and both metric
// renderings.
func TestMonitorEndpoints(t *testing.T) {
	s := NewSession()
	df, feed := s.MemoryStream("ev", clickSchema)
	q, err := df.SelectNames("country").WriteStream().
		QueryName("mon").
		Foreach(func(epoch int64, rows []Row) error { return nil }).
		Trigger(ProcessingTime(time.Hour)).Checkpoint(t.TempDir()).Start("")
	if err != nil {
		t.Fatal(err)
	}
	defer q.Stop()

	m, err := s.Monitor("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	base := "http://" + m.Addr()

	feed.AddData(Row{"CA", 1, 1.0, 0}, Row{"US", 2, 2.0, 0})
	if err := q.ProcessAllAvailable(); err != nil {
		t.Fatal(err)
	}
	feed.AddData(Row{"DE", 3, 3.0, 0})
	if err := q.ProcessAllAvailable(); err != nil {
		t.Fatal(err)
	}

	// ---- GET /queries
	code, body := getBody(t, base+"/queries")
	if code != http.StatusOK {
		t.Fatalf("/queries: status %d", code)
	}
	var listing []struct {
		Name         string                 `json:"name"`
		Status       string                 `json:"status"`
		Epochs       int64                  `json:"epochs"`
		LastProgress *metrics.QueryProgress `json:"lastProgress"`
	}
	if err := json.Unmarshal(body, &listing); err != nil {
		t.Fatalf("/queries: %v\n%s", err, body)
	}
	if len(listing) != 1 || listing[0].Name != "mon" {
		t.Fatalf("/queries: got %+v", listing)
	}
	if listing[0].Status != "Running" || listing[0].Epochs != 2 {
		t.Errorf("/queries: status=%s epochs=%d", listing[0].Status, listing[0].Epochs)
	}
	if listing[0].LastProgress == nil || listing[0].LastProgress.Epoch != 1 {
		t.Errorf("/queries: lastProgress %+v", listing[0].LastProgress)
	}

	// ---- GET /queries/{name}/progress
	code, body = getBody(t, base+"/queries/mon/progress?n=2")
	if code != http.StatusOK {
		t.Fatalf("/progress: status %d", code)
	}
	var events []metrics.QueryProgress
	if err := json.Unmarshal(body, &events); err != nil {
		t.Fatalf("/progress: %v\n%s", err, body)
	}
	if len(events) != 2 {
		t.Fatalf("/progress: got %d events", len(events))
	}
	first := events[0]
	if first.Epoch != 0 || first.NumInputRows != 2 {
		t.Errorf("/progress[0]: epoch=%d rows=%d", first.Epoch, first.NumInputRows)
	}
	for _, stage := range []string{"planning", "getBatch", "execution", "stateCommit", "walCommit", "sinkCommit"} {
		if _, ok := first.DurationBreakdown[stage]; !ok {
			t.Errorf("/progress: durationUs missing %q: %v", stage, first.DurationBreakdown)
		}
	}
	if len(first.Sources) != 1 || first.Sources[0].Name != "ev" || first.Sources[0].NumInputRows != 2 {
		t.Errorf("/progress: sources %+v", first.Sources)
	}
	if first.Sink == nil || first.Sink.Description != "foreach" {
		t.Errorf("/progress: sink %+v", first.Sink)
	}

	// ---- GET /queries/{name}/trace (Chrome trace_event format)
	code, body = getBody(t, base+"/queries/mon/trace")
	if code != http.StatusOK {
		t.Fatalf("/trace: status %d", code)
	}
	var chrome struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			TID  int64  `json:"tid"`
			Dur  int64  `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &chrome); err != nil {
		t.Fatalf("/trace: %v\n%s", err, body)
	}
	perEpoch := map[int64]map[string]bool{}
	for _, ev := range chrome.TraceEvents {
		if ev.Ph != "X" {
			t.Errorf("/trace: event %q has ph=%q, want X", ev.Name, ev.Ph)
		}
		if perEpoch[ev.TID] == nil {
			perEpoch[ev.TID] = map[string]bool{}
		}
		perEpoch[ev.TID][ev.Name] = true
	}
	if len(perEpoch) != 2 {
		t.Fatalf("/trace: got %d epochs, want 2", len(perEpoch))
	}
	for epoch, names := range perEpoch {
		for _, want := range []string{"epoch", "planning", "getBatch", "execution", "stateCommit", "walCommit", "sinkCommit"} {
			if !names[want] {
				t.Errorf("/trace: epoch %d missing span %q (has %v)", epoch, want, names)
			}
		}
	}

	// ---- JSON lines export
	code, body = getBody(t, base+"/queries/mon/trace?format=jsonl")
	if code != http.StatusOK || len(strings.Split(strings.TrimSpace(string(body)), "\n")) != 2 {
		t.Errorf("/trace?format=jsonl: status %d body %s", code, body)
	}

	// ---- GET /metrics (JSON and text)
	code, body = getBody(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	var metricsOut map[string]map[string]int64
	if err := json.Unmarshal(body, &metricsOut); err != nil {
		t.Fatalf("/metrics: %v\n%s", err, body)
	}
	mon := metricsOut["mon"]
	if mon == nil || mon["epochs"] != 2 || mon["inputRows"] != 3 {
		t.Errorf("/metrics: %v", mon)
	}
	if _, ok := mon["epoch.us.p99"]; !ok {
		t.Errorf("/metrics: missing epoch.us.p99 histogram percentile: %v", mon)
	}
	code, body = getBody(t, base+"/metrics?format=text")
	if code != http.StatusOK || !strings.Contains(string(body), `structream_epochs{query="mon"} 2`) {
		t.Errorf("/metrics?format=text: status %d\n%s", code, body)
	}
	if !strings.Contains(string(body), "# TYPE structream_epochs counter") {
		t.Errorf("/metrics?format=text: missing TYPE line for structream_epochs\n%s", body)
	}

	// ---- unknown query
	if code, _ := getBody(t, base+"/queries/nope/progress"); code != http.StatusNotFound {
		t.Errorf("unknown query: status %d, want 404", code)
	}
	if code, _ := getBody(t, base+"/queries/nope/trace"); code != http.StatusNotFound {
		t.Errorf("unknown trace: status %d, want 404", code)
	}
}

// TestMonitorSeesLaterQueries checks that a query started after the
// monitor is opened still shows up on the endpoint.
func TestMonitorSeesLaterQueries(t *testing.T) {
	s := NewSession()
	m, err := s.Monitor("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	df, feed := s.MemoryStream("ev", clickSchema)
	q, err := df.SelectNames("country").WriteStream().
		QueryName("late").
		Foreach(func(epoch int64, rows []Row) error { return nil }).
		Trigger(ProcessingTime(time.Hour)).Checkpoint(t.TempDir()).Start("")
	if err != nil {
		t.Fatal(err)
	}
	defer q.Stop()
	feed.AddData(Row{"CA", 1, 1.0, 0})
	if err := q.ProcessAllAvailable(); err != nil {
		t.Fatal(err)
	}

	code, body := getBody(t, fmt.Sprintf("http://%s/queries/late/progress", m.Addr()))
	if code != http.StatusOK {
		t.Fatalf("late query not visible: status %d body %s", code, body)
	}
	var events []metrics.QueryProgress
	if err := json.Unmarshal(body, &events); err != nil || len(events) != 1 {
		t.Fatalf("late query progress: err=%v events=%v", err, events)
	}
}

// TestMonitorExposesLSMStateStats drives a spilling LSM-backed aggregation
// and asserts its storage internals are observable from the outside: the
// stateOperators section of progress JSON carries SSTable, compaction, and
// block-cache figures, and the metric registry (both
// /metrics renderings) carries the matching gauges.
func TestMonitorExposesLSMStateStats(t *testing.T) {
	s := NewSession()
	df, feed := s.MemoryStream("ev", clickSchema)
	q, err := df.GroupBy(Col("country")).Count().WriteStream().
		QueryName("lsmq").
		OutputModeName("update").
		Option("stateBackend", "lsm").
		Option("stateMemtableBytes", "512").
		Option("stateSyncMaintenance", "true"). // epoch 1 is in SSTables before the last epoch reads it
		Foreach(func(epoch int64, rows []Row) error { return nil }).
		Trigger(ProcessingTime(time.Hour)).Checkpoint(t.TempDir()).Start("")
	if err != nil {
		t.Fatal(err)
	}
	defer q.Stop()

	m, err := s.Monitor("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	base := "http://" + m.Addr()

	// Three epochs of 40 unique keys each — ~20× the memtable threshold —
	// then the first epoch's keys again: fresh keys stop at the bloom
	// filters and a merge reads past the cache, so only reading spilled
	// keys back sends data blocks through it.
	for e := 0; e < 4; e++ {
		rows := make([]Row, 40)
		for i := range rows {
			rows[i] = Row{fmt.Sprintf("c%03d", e%3*40+i), int64(i), 1.0, int64(0)}
		}
		feed.AddData(rows...)
		if err := q.ProcessAllAvailable(); err != nil {
			t.Fatal(err)
		}
	}

	// ---- progress JSON carries the stateOperators LSM section.
	code, body := getBody(t, base+"/queries/lsmq/progress")
	if code != http.StatusOK {
		t.Fatalf("/progress: status %d", code)
	}
	var events []metrics.QueryProgress
	if err := json.Unmarshal(body, &events); err != nil || len(events) == 0 {
		t.Fatalf("/progress: err=%v\n%s", err, body)
	}
	if len(events[0].StateOperators) == 0 {
		t.Fatalf("/progress: no stateOperators:\n%s", body)
	}
	so := events[0].StateOperators[0]
	if so.SSTables == 0 || so.SSTableBytes == 0 {
		t.Errorf("/progress: ssTables=%d ssTableBytes=%d, want both > 0", so.SSTables, so.SSTableBytes)
	}
	if so.BlockCacheHits+so.BlockCacheMisses == 0 {
		t.Error("/progress: block cache saw no traffic")
	}
	if !strings.Contains(string(body), "blockCacheHitRate") {
		t.Errorf("/progress: JSON missing blockCacheHitRate:\n%s", body)
	}

	// ---- both /metrics renderings carry the LSM gauges.
	code, body = getBody(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	var metricsOut map[string]map[string]int64
	if err := json.Unmarshal(body, &metricsOut); err != nil {
		t.Fatalf("/metrics: %v\n%s", err, body)
	}
	lq := metricsOut["lsmq"]
	if lq == nil || lq["stateSSTables"] == 0 {
		t.Errorf("/metrics: stateSSTables gauge missing or zero: %v", lq)
	}
	for _, g := range []string{"stateMemtableBytes", "stateSSTableBytes", "stateFlushes",
		"stateBlockCacheHits", "stateBlockCacheMisses",
		"stateFlushBacklog", "stateMaintenanceStallUs"} {
		if _, ok := lq[g]; !ok {
			t.Errorf("/metrics: missing gauge %q", g)
		}
	}
	code, body = getBody(t, base+"/metrics?format=text")
	if code != http.StatusOK || !strings.Contains(string(body), `structream_stateSSTables{query="lsmq"}`) {
		t.Errorf("/metrics?format=text: status %d, missing structream_stateSSTables\n%s", code, body)
	}
	for _, line := range []string{`structream_stateFlushBacklog{query="lsmq"}`, `structream_stateMaintenanceStallUs{query="lsmq"}`} {
		if !strings.Contains(string(body), line) {
			t.Errorf("/metrics?format=text: missing %s\n%s", line, body)
		}
	}
}
