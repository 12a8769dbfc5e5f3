package structream

import (
	"fmt"
	"structream/internal/engine"
	"structream/internal/monitor"
	"structream/internal/serve"
	"structream/internal/sinks"
	"sync"

	"structream/internal/msgbus"
	"structream/internal/sources"
	"structream/internal/sql"
	"structream/internal/sql/logical"
	"structream/internal/sql/parser"
	"structream/internal/sql/physical"
)

// Session is the entry point, playing the role of SparkSession: it holds
// the catalog of named tables, streams and views, an in-process message
// bus, and the set of active streaming queries. Sessions are safe for
// concurrent use.
type Session struct {
	mu       sync.Mutex
	tables   map[string]*tableEntry
	streams  map[string]sources.Source
	views    map[string]*DataFrame
	queries  []*StreamingQuery
	broker   *msgbus.Broker
	monitors []*monitor.Server
	hubs     map[string]*serve.Hub
}

// tableEntry is a static (or snapshot-backed) table. rows is a function so
// memory-sink tables always serve a consistent current snapshot.
type tableEntry struct {
	schema sql.Schema
	rows   func() []sql.Row
}

// NewSession creates an empty session.
func NewSession() *Session {
	return &Session{
		tables:  map[string]*tableEntry{},
		streams: map[string]sources.Source{},
		views:   map[string]*DataFrame{},
	}
}

// Broker returns the session's in-process message bus (created lazily),
// the stand-in for a Kafka cluster.
func (s *Session) Broker() *msgbus.Broker {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.broker == nil {
		s.broker = msgbus.NewBroker()
	}
	return s.broker
}

// RegisterTable registers a static in-memory table, queryable by name from
// SQL and joinable with streams.
func (s *Session) RegisterTable(name string, schema Schema, rows []Row) {
	normalized := make([]sql.Row, len(rows))
	for i, r := range rows {
		nr := make(sql.Row, len(r))
		for j, v := range r {
			nr[j] = sql.Normalize(v)
		}
		normalized[i] = nr
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tables[name] = &tableEntry{schema: schema, rows: func() []sql.Row { return normalized }}
}

// registerLiveTable registers a table whose contents are recomputed on
// every read (memory-sink result tables).
func (s *Session) registerLiveTable(name string, schema Schema, rows func() []sql.Row) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tables[name] = &tableEntry{schema: schema, rows: rows}
}

// RegisterStream binds a Source implementation under a name and returns a
// streaming DataFrame over it. Most callers use the ReadStream builder
// instead; this is the escape hatch for custom sources.
func (s *Session) RegisterStream(name string, src sources.Source) *DataFrame {
	s.mu.Lock()
	s.streams[name] = src
	s.mu.Unlock()
	return &DataFrame{
		s:    s,
		plan: &logical.Scan{Name: name, Streaming: true, Out: src.Schema()},
	}
}

// CreateView names a DataFrame so SQL queries can reference it.
func (s *Session) CreateView(name string, df *DataFrame) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.views[name] = df
}

// Table returns a DataFrame over a registered static table or view.
func (s *Session) Table(name string) (*DataFrame, error) {
	plan, err := s.ResolveTable(name)
	if err != nil {
		return nil, err
	}
	return &DataFrame{s: s, plan: plan}, nil
}

// SQL parses a query against the session catalog and returns its
// DataFrame. Streams, tables and views are all addressable by name; the
// query runs in batch mode via Collect or as a stream via WriteStream.
func (s *Session) SQL(query string) (*DataFrame, error) {
	plan, err := parser.Parse(query, s)
	if err != nil {
		return nil, err
	}
	return &DataFrame{s: s, plan: plan}, nil
}

// ResolveTable implements parser.Catalog over the session catalog.
func (s *Session) ResolveTable(name string) (logical.Plan, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if df, ok := s.views[name]; ok {
		return df.plan, nil
	}
	if src, ok := s.streams[name]; ok {
		return &logical.Scan{Name: name, Streaming: true, Out: src.Schema()}, nil
	}
	if t, ok := s.tables[name]; ok {
		return &logical.Scan{Name: name, Out: t.schema, Handle: t}, nil
	}
	return nil, fmt.Errorf("structream: unknown table or stream %q", name)
}

// staticResolver resolves static Scan leaves during execution.
func (s *Session) staticResolver(scan *logical.Scan) (physical.RowSource, error) {
	if t, ok := scan.Handle.(*tableEntry); ok {
		return t.source(), nil
	}
	s.mu.Lock()
	t, ok := s.tables[scan.Name]
	s.mu.Unlock()
	if ok {
		return t.source(), nil
	}
	return nil, fmt.Errorf("structream: no data registered for table %q", scan.Name)
}

// source builds a fresh scan source for the table.
func (t *tableEntry) source() physical.RowSource {
	return physical.NewSliceSource(t.schema, t.rows())
}

// batchResolver additionally snapshots streaming scans so the same query
// runs as a batch job over all data currently available — the hybrid
// batch/stream execution of §7.3.
func (s *Session) batchResolver(scan *logical.Scan) (physical.RowSource, error) {
	if !scan.Streaming {
		return s.staticResolver(scan)
	}
	s.mu.Lock()
	src, ok := s.streams[scan.Name]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("structream: no source bound for stream %q", scan.Name)
	}
	earliest, err := src.Earliest()
	if err != nil {
		return nil, err
	}
	latest, err := src.Latest()
	if err != nil {
		return nil, err
	}
	var rows []sql.Row
	for p := 0; p < src.Partitions(); p++ {
		batch, err := src.Read(p, earliest[p], latest[p])
		if err != nil {
			return nil, err
		}
		rows = append(rows, batch...)
	}
	return physical.NewSliceSource(scan.Out, rows), nil
}

// source returns the bound source for a stream name.
func (s *Session) source(name string) (sources.Source, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	src, ok := s.streams[name]
	return src, ok
}

// trackQuery records an active query and registers it with every
// monitoring endpoint the session has opened.
func (s *Session) trackQuery(q *StreamingQuery) {
	s.mu.Lock()
	s.queries = append(s.queries, q)
	mons := append([]*monitor.Server(nil), s.monitors...)
	s.mu.Unlock()
	for _, m := range mons {
		m.Register(q)
	}
}

// Publish attaches a live serving hub to a running query (the paper's §3
// interactive-application surface): subscribers stream its committed
// epochs over SSE/long-poll and read its operator state point-in-time,
// with cursors, bounded fan-out and slow-consumer eviction (see
// internal/serve). rep is the replay source — normally the query's
// *sinks.MemorySink* (use SetRetention to bound it). The hub mounts on
// every session monitor under /queries/{name}/subscribe|poll|state.
// Publishing a name again (a manual restart) closes the previous hub.
func (s *Session) Publish(q *StreamingQuery, rep serve.Replayer, opts serve.HubOptions) *serve.Hub {
	hub := serve.NewHub(q.Name(), rep, opts)
	hub.Attach(q)
	s.mu.Lock()
	if s.hubs == nil {
		s.hubs = map[string]*serve.Hub{}
	}
	old := s.hubs[q.Name()]
	s.hubs[q.Name()] = hub
	mons := append([]*monitor.Server(nil), s.monitors...)
	s.mu.Unlock()
	if old != nil {
		old.Close()
	}
	for _, m := range mons {
		m.RegisterHub(hub)
	}
	return hub
}

// Hub returns the serving hub published for a query name, if any.
func (s *Session) Hub(name string) (*serve.Hub, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.hubs[name]
	return h, ok
}

// Monitor starts an HTTP monitoring endpoint (§7.4) serving /metrics,
// /queries, /queries/{name}/progress, and /queries/{name}/trace for every
// query in the session — those already running and any started later.
// addr is a listen address like "localhost:8080"; use ":0" for an
// ephemeral port and Server.Addr to discover it. Close the returned
// server to stop listening; the queries keep running.
func (s *Session) Monitor(addr string) (*monitor.Server, error) {
	m := monitor.New()
	s.mu.Lock()
	s.monitors = append(s.monitors, m)
	existing := append([]*StreamingQuery(nil), s.queries...)
	hubs := make([]*serve.Hub, 0, len(s.hubs))
	for _, h := range s.hubs {
		hubs = append(hubs, h)
	}
	s.mu.Unlock()
	for _, q := range existing {
		m.Register(q)
	}
	for _, h := range hubs {
		m.RegisterHub(h)
	}
	if _, err := m.Serve(addr); err != nil {
		return nil, err
	}
	return m, nil
}

// ActiveQueries returns the session's started streaming queries.
func (s *Session) ActiveQueries() []*StreamingQuery {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*StreamingQuery(nil), s.queries...)
}

// StopAll stops every active query (returning the first error) and closes
// any published serving hubs, so live subscribers receive a terminal
// shutdown frame rather than waiting on a dead query.
func (s *Session) StopAll() error {
	var first error
	for _, q := range s.ActiveQueries() {
		if err := q.Stop(); err != nil && first == nil {
			first = err
		}
	}
	s.mu.Lock()
	hubs := make([]*serve.Hub, 0, len(s.hubs))
	for _, h := range s.hubs {
		hubs = append(hubs, h)
	}
	s.hubs = nil
	s.mu.Unlock()
	for _, h := range hubs {
		h.Close()
	}
	return first
}

// Rollback rewinds a stopped query's checkpoint so epochs after keep are
// forgotten (§7.2 manual rollback). Roll the sink back too (file sinks:
// RollbackFileSink; memory sinks: Truncate), then restart the query — it
// recomputes from the retained prefix as long as the sources still hold
// that data.
func Rollback(checkpointDir string, keep int64) error {
	return engine.Rollback(checkpointDir, keep)
}

// RollbackFileSink removes a columnar file sink's output from epochs after
// keep, the sink-side half of a manual rollback.
func RollbackFileSink(dir string, keep int64) error {
	return (&sinks.FileSink{Dir: dir}).Rollback(keep)
}
