// Package monitor exposes running streaming queries over HTTP — the live
// half of the paper's §7.4 monitoring surface. A Server renders each
// query's metric registry (counters, gauges, latency-histogram
// percentiles) and three views of its ring of epoch records
// (metrics.EpochRing) — recent QueryProgress events, epoch traces in Chrome
// trace_event format, the lineage in the health report — so `curl | jq` and
// chrome://tracing both work against a live engine, and agree on which
// epochs there are:
//
//	GET /metrics                         all queries' metrics (JSON; ?format=text for Prometheus exposition)
//	GET /queries                         query summaries
//	GET /queries/{name}/progress         recent progress events (?n=K, default 1)
//	GET /queries/{name}/trace            epoch traces (Chrome trace_event; ?format=jsonl for JSON lines)
//	GET /queries/{name}/health           health report: lineage stamps, per-partition rows and task time
//	GET /debug/pprof/...                 net/http/pprof: goroutine, heap and CPU profiles on demand, samples
//	                                     labelled query, stage and partition by the engine
//
// Queries published through the serving layer (internal/serve) add live
// egress endpoints:
//
//	GET /queries/{name}/subscribe        SSE stream of committed epochs (?cursor=N resumes, ?from=latest|live|start)
//	GET /queries/{name}/poll             long-poll batch of frames (?cursor=N&wait=1s&max=100)
//	GET /queries/{name}/state            prefix-consistent queryable-state snapshot
package monitor

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"sync"
	"time"

	"structream/internal/engine"
	"structream/internal/metrics"
	"structream/internal/serve"
	"structream/internal/trace"
)

// Server is an HTTP monitoring endpoint over a set of streaming queries.
// Queries register by name; registering a second query under the same
// name replaces the first: a query restarted from its checkpoint takes
// over its predecessor's monitoring slot.
type Server struct {
	// DrainTimeout bounds Close's graceful drain: in-flight requests and
	// subscriptions get this long to finish their final frame before the
	// listener is torn down (default 5s). Set before Serve.
	DrainTimeout time.Duration

	mu        sync.Mutex
	names     []string // registration order
	queries   map[string]*engine.StreamingQuery
	hubs      map[string]*serve.Hub
	httpSrv   *http.Server
	ln        net.Listener
	drain     chan struct{}
	drainOnce sync.Once
}

// New creates a Server with no queries registered.
func New() *Server {
	return &Server{
		queries: map[string]*engine.StreamingQuery{},
		hubs:    map[string]*serve.Hub{},
		drain:   make(chan struct{}),
	}
}

// Register adds (or replaces) a query under its name.
func (s *Server) Register(q *engine.StreamingQuery) {
	if q == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, seen := s.queries[q.Name()]; !seen {
		s.names = append(s.names, q.Name())
	}
	s.queries[q.Name()] = q
}

// RegisterHub mounts a serving hub's subscribe/poll/state endpoints under
// /queries/{name}/. Re-registering a name replaces the hub.
func (s *Server) RegisterHub(h *serve.Hub) {
	if h == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hubs[h.Name()] = h
}

func (s *Server) hub(name string) (*serve.Hub, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.hubs[name]
	return h, ok
}

func (s *Server) hubsSnapshot() map[string]*serve.Hub {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]*serve.Hub, len(s.hubs))
	for k, v := range s.hubs {
		out[k] = v
	}
	return out
}

// snapshot returns the registered queries in registration order.
func (s *Server) snapshot() []*engine.StreamingQuery {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*engine.StreamingQuery, 0, len(s.names))
	for _, name := range s.names {
		out = append(out, s.queries[name])
	}
	return out
}

func (s *Server) query(name string) (*engine.StreamingQuery, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	q, ok := s.queries[name]
	return q, ok
}

// Handler returns the Server's routing handler — what Serve mounts, and
// what tests drive through net/http/httptest. Request contexts cancel
// when Close begins draining, so long-lived subscriptions end with a
// clean final frame instead of a torn connection.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /queries", s.handleQueries)
	mux.HandleFunc("GET /queries/{name}/progress", s.handleProgress)
	mux.HandleFunc("GET /queries/{name}/trace", s.handleTrace)
	mux.HandleFunc("GET /queries/{name}/health", s.handleHealth)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /queries/{name}/subscribe", s.handleHub((*serve.Hub).ServeSubscribe))
	mux.HandleFunc("GET /queries/{name}/poll", s.handleHub((*serve.Hub).ServePoll))
	mux.HandleFunc("GET /queries/{name}/state", s.handleHub((*serve.Hub).ServeState))
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithCancel(r.Context())
		defer cancel()
		go func() {
			select {
			case <-s.drain:
				cancel()
			case <-ctx.Done():
			}
		}()
		mux.ServeHTTP(w, r.WithContext(ctx))
	})
}

// handleHub routes /queries/{name}/<hub endpoint> to the registered hub.
func (s *Server) handleHub(fn func(*serve.Hub, http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		h, ok := s.hub(r.PathValue("name"))
		if !ok {
			http.Error(w, "query is not published for serving", http.StatusNotFound)
			return
		}
		fn(h, w, r)
	}
}

// Serve starts listening on addr (e.g. "localhost:8080", ":0" for an
// ephemeral port) and serves in a background goroutine. It returns the
// bound address, useful when addr requested port 0.
func (s *Server) Serve(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: s.Handler()}
	s.mu.Lock()
	s.ln = ln
	s.httpSrv = srv
	s.mu.Unlock()
	go srv.Serve(ln) //nolint:errcheck // ErrServerClosed on Close
	return ln.Addr().String(), nil
}

// Addr returns the listening address, or "" before Serve.
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close drains and stops the server: in-flight requests and
// subscriptions see their contexts cancel (transports write a clean
// terminal frame), then the listener shuts down gracefully within
// DrainTimeout; whatever remains is aborted. Registered queries and hubs
// are unaffected — the session owns their lifecycle.
func (s *Server) Close() error {
	s.drainOnce.Do(func() { close(s.drain) })
	s.mu.Lock()
	srv := s.httpSrv
	timeout := s.DrainTimeout
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		// The drain deadline passed with connections still open: abort.
		return srv.Close()
	}
	return nil
}

// writeJSON renders v with stable formatting for golden tests.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone: nothing to do
}

// handleMetrics renders every query's metric snapshot. JSON by default;
// ?format=text emits the Prometheus text exposition format: `# HELP` and
// `# TYPE` per family, one `{query="..."}`-labeled sample per query, and
// histogram quantiles as labeled gauges, so a stock Prometheus scrape of
// /metrics?format=text works unmodified.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	queries := s.snapshot()
	hubs := s.hubsSnapshot()
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.writePromText(w, queries, hubs)
		return
	}
	// Serving-layer metrics merge into the owning query's section under a
	// serve. prefix (serve.subscribers, serve.evictions, ...).
	out := map[string]map[string]int64{}
	for _, q := range queries {
		snap := q.Metrics().Snapshot()
		if h, ok := hubs[q.Name()]; ok {
			for k, v := range h.Registry().Snapshot() {
				snap["serve."+k] = v
			}
		}
		out[q.Name()] = snap
	}
	writeJSON(w, out)
}

// promName maps a registry metric name onto the Prometheus charset
// ([a-zA-Z0-9_:]) under a structream_ namespace: dots and other
// separators collapse to underscores (epoch.us → structream_epoch_us).
func promName(name string) string {
	b := []byte("structream_" + name)
	for i := range b {
		c := b[i]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' || c == ':' {
			continue
		}
		b[i] = '_'
	}
	return string(b)
}

// promFamily accumulates one metric family's samples across queries so
// HELP/TYPE are emitted exactly once per family, as the format requires.
type promFamily struct {
	typ   string
	help  string
	lines []string
}

type promWriter struct {
	fams  map[string]*promFamily
	order []string
}

func (p *promWriter) add(name, typ, help, line string) {
	f, ok := p.fams[name]
	if !ok {
		f = &promFamily{typ: typ, help: help}
		p.fams[name] = f
		p.order = append(p.order, name)
	}
	f.lines = append(f.lines, line)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// promSource is one registry to render: a query's own, or its serving
// hub's under the serve. prefix.
type promSource struct {
	query  string
	prefix string
	reg    *metrics.Registry
}

// writePromText renders every query's registry — and its serving hub's,
// under a serve. prefix — in Prometheus exposition format.
func (s *Server) writePromText(w io.Writer, queries []*engine.StreamingQuery, hubs map[string]*serve.Hub) {
	var srcs []promSource
	for _, q := range queries {
		srcs = append(srcs, promSource{query: q.Name(), reg: q.Metrics()})
		if h, ok := hubs[q.Name()]; ok {
			srcs = append(srcs, promSource{query: q.Name(), prefix: "serve.", reg: h.Registry()})
		}
	}
	writeProm(w, srcs)
}

func writeProm(w io.Writer, srcs []promSource) {
	p := &promWriter{fams: map[string]*promFamily{}}
	for _, src := range srcs {
		label := fmt.Sprintf("{query=%q}", src.query)
		counters := src.reg.Counters()
		for _, k := range sortedKeys(counters) {
			fam := promName(src.prefix + k)
			p.add(fam, "counter", fmt.Sprintf("Value of the %s%s counter.", src.prefix, k),
				fmt.Sprintf("%s%s %d", fam, label, counters[k]))
		}
		gauges := src.reg.Gauges()
		for _, k := range sortedKeys(gauges) {
			fam := promName(src.prefix + k)
			p.add(fam, "gauge", fmt.Sprintf("Value of the %s%s gauge.", src.prefix, k),
				fmt.Sprintf("%s%s %d", fam, label, gauges[k]))
		}
		hists := src.reg.Histograms()
		for _, k := range sortedKeys(hists) {
			hs := hists[k]
			fam := promName(src.prefix + k)
			help := fmt.Sprintf("Quantiles of the %s%s latency histogram.", src.prefix, k)
			for _, qu := range []struct {
				q string
				v int64
			}{{"0.5", hs.P50}, {"0.95", hs.P95}, {"0.99", hs.P99}, {"1", hs.Max}} {
				p.add(fam, "gauge", help,
					fmt.Sprintf("%s{query=%q,quantile=%q} %d", fam, src.query, qu.q, qu.v))
			}
			p.add(fam+"_count", "counter", fmt.Sprintf("Observation count of %s%s.", src.prefix, k),
				fmt.Sprintf("%s_count%s %d", fam, label, hs.Count))
			p.add(fam+"_sum", "counter", fmt.Sprintf("Observation sum of %s%s.", src.prefix, k),
				fmt.Sprintf("%s_sum%s %d", fam, label, hs.Sum))
		}
	}
	for _, name := range p.order {
		f := p.fams[name]
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, f.help, name, f.typ)
		for _, line := range f.lines {
			fmt.Fprintln(w, line)
		}
	}
}

// handleHealth renders one query's health report: the lineage of the epoch
// ring's newest records and per-partition stats.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	q, ok := s.query(r.PathValue("name"))
	if !ok {
		http.Error(w, "unknown query", http.StatusNotFound)
		return
	}
	writeJSON(w, q.Health().Health())
}

// QuerySummary is one row of GET /queries.
type QuerySummary struct {
	Name   string `json:"name"`
	Status string `json:"status"`
	// Epochs is the number of committed epochs since the query started.
	Epochs int64 `json:"epochs"`
	// LastProgress is the most recent progress event, if any.
	LastProgress *metrics.QueryProgress `json:"lastProgress,omitempty"`
	// Serving reports live-egress state for published queries.
	Serving     bool  `json:"serving,omitempty"`
	Subscribers int64 `json:"subscribers,omitempty"`
}

func (s *Server) handleQueries(w http.ResponseWriter, r *http.Request) {
	var out []QuerySummary
	hubs := s.hubsSnapshot()
	for _, q := range s.snapshot() {
		summary := QuerySummary{
			Name:   q.Name(),
			Status: q.Status().String(),
			Epochs: q.Metrics().Counter("epochs").Value(),
		}
		if h, ok := hubs[q.Name()]; ok {
			summary.Serving = true
			summary.Subscribers = h.Registry().Gauge("subscribers").Value()
		}
		if p, ok := q.LastProgress(); ok {
			p := p
			summary.LastProgress = &p
		}
		out = append(out, summary)
	}
	if out == nil {
		out = []QuerySummary{}
	}
	writeJSON(w, out)
}

func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	q, ok := s.query(r.PathValue("name"))
	if !ok {
		http.Error(w, "unknown query", http.StatusNotFound)
		return
	}
	n := 1
	if v := r.URL.Query().Get("n"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed < 1 {
			http.Error(w, "n must be a positive integer", http.StatusBadRequest)
			return
		}
		n = parsed
	}
	writeJSON(w, q.EventLog().Recent(n)) // never nil: an empty history renders as []
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	q, ok := s.query(r.PathValue("name"))
	if !ok {
		http.Error(w, "unknown query", http.StatusNotFound)
		return
	}
	traces := q.Epochs().Traces()
	if r.URL.Query().Get("format") == "jsonl" {
		w.Header().Set("Content-Type", "application/x-ndjson")
		trace.WriteJSON(w, traces) //nolint:errcheck // client gone: nothing to do
		return
	}
	w.Header().Set("Content-Type", "application/json")
	trace.WriteChrome(w, traces) //nolint:errcheck // client gone: nothing to do
}
