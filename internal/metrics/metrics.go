// Package metrics implements the monitoring surface of §7.4: counters and
// gauges in a registry, per-epoch QueryProgress events, a structured JSON
// event log that operators can tail or ship to external tools, and the ring
// of epoch records (EpochRing) that is a query's one memory of its recent
// epochs — progress event, span tree and latency lineage of each.
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Int64 }

// Add increments the counter.
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Value reads the counter.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a point-in-time metric.
type Gauge struct{ v atomic.Int64 }

// Set stores the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// SetMax raises the gauge to v if v is greater (high-water marks).
func (g *Gauge) SetMax(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value reads the gauge.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Registry is a named collection of metrics.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named latency histogram.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// Snapshot renders all metrics as a sorted name→value map. Histograms
// contribute derived entries: <name>.count, .p50, .p95, .p99 and .max.
func (r *Registry) Snapshot() map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counters)+len(r.gauges)+5*len(r.histograms))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	for name, h := range r.histograms {
		s := h.Snapshot()
		out[name+".count"] = s.Count
		out[name+".p50"] = s.P50
		out[name+".p95"] = s.P95
		out[name+".p99"] = s.P99
		out[name+".max"] = s.Max
	}
	return out
}

// Counters returns the current value of every counter by name. The
// Prometheus exposition renderer uses it to type counter series.
func (r *Registry) Counters() map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counters))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	return out
}

// Gauges returns the current value of every gauge by name.
func (r *Registry) Gauges() map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.gauges))
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	return out
}

// Histograms returns a snapshot of every histogram by name.
func (r *Registry) Histograms() map[string]HistogramSnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]HistogramSnapshot, len(r.histograms))
	for name, h := range r.histograms {
		out[name] = h.Snapshot()
	}
	return out
}

// RatePerSec derives a rows-per-second rate from a count and an elapsed
// duration, safe for sub-millisecond (even zero-measured) epochs: the
// elapsed time is floored at one microsecond instead of dividing by zero.
func RatePerSec(n int64, elapsed time.Duration) float64 {
	if elapsed < time.Microsecond {
		elapsed = time.Microsecond
	}
	return float64(n) / elapsed.Seconds()
}

// SourceProgress is the per-source section of QueryProgress, mirroring
// Spark's SourceProgress: the offset range this epoch consumed, where the
// source's head was, and the resulting rates.
type SourceProgress struct {
	Name            string  `json:"name"`
	StartOffsets    []int64 `json:"startOffsets,omitempty"`
	EndOffsets      []int64 `json:"endOffsets,omitempty"`
	LatestOffsets   []int64 `json:"latestOffsets,omitempty"`
	NumInputRows    int64   `json:"numInputRows"`
	InputRowsPerSec float64 `json:"inputRowsPerSecond"`
	// ReadMicros is the summed source-read time across this epoch's tasks.
	ReadMicros int64 `json:"readMicros,omitempty"`
	// EventTimeMaxMicros is the newest event time this source contributed
	// this epoch; WatermarkLagUs is processing time minus this source's own
	// watermark candidate (max event time − declared delay). Both are
	// omitted for sources feeding no watermarked pipeline.
	EventTimeMaxMicros int64 `json:"eventTimeMaxMicros,omitempty"`
	WatermarkLagUs     int64 `json:"watermarkLagUs,omitempty"`
	// ReadErrors counts failed reads against this source since the query
	// started (including retried transient failures); LastErrorAtMicros and
	// LastError describe the most recent one.
	ReadErrors        int64  `json:"readErrors,omitempty"`
	LastErrorAtMicros int64  `json:"lastErrorAtMicros,omitempty"`
	LastError         string `json:"lastError,omitempty"`
}

// SinkProgress is the per-sink section of QueryProgress.
type SinkProgress struct {
	// Description names the sink kind ("memory", "json", ...).
	Description      string  `json:"description"`
	NumOutputRows    int64   `json:"numOutputRows"`
	OutputRowsPerSec float64 `json:"outputRowsPerSecond"`
	// WriteMicros is the time spent inside the sink's AddBatch this epoch.
	WriteMicros int64 `json:"writeMicros,omitempty"`
}

// StateOperatorProgress is the per-stateful-operator section of
// QueryProgress: cardinality, footprint, and the state store's cache and
// file activity, mirroring Spark's stateOperators block.
type StateOperatorProgress struct {
	Operator      string `json:"operator"`
	NumRowsTotal  int64  `json:"numRowsTotal"`
	StateBytes    int64  `json:"stateBytes"`
	CacheHits     int64  `json:"cacheHits"`
	CacheMisses   int64  `json:"cacheMisses"`
	DeltasWritten int64  `json:"deltasWritten"`

	// The LSM tree's shape and traffic, summed over the partitions' stores.
	MemtableBytes     int64   `json:"memtableBytes,omitempty"`
	SSTables          int64   `json:"ssTables,omitempty"`
	SSTableBytes      int64   `json:"ssTableBytes,omitempty"`
	Flushes           int64   `json:"flushes,omitempty"`
	Compactions       int64   `json:"compactions,omitempty"`
	CompactionBytes   int64   `json:"compactionBytes,omitempty"`
	BlockCacheHits    int64   `json:"blockCacheHits,omitempty"`
	BlockCacheMisses  int64   `json:"blockCacheMisses,omitempty"`
	BlockCacheHitRate float64 `json:"blockCacheHitRate,omitempty"`
	// FlushBacklog is the number of sealed memtables waiting on background
	// flush at epoch end; MaintenanceStallUs is cumulative commit time
	// spent blocked on the backlog ceiling running maintenance inline.
	FlushBacklog       int64 `json:"flushBacklog,omitempty"`
	MaintenanceStallUs int64 `json:"maintenanceStallUs,omitempty"`
	// WatermarkLagUs is processing time minus the watermark this operator
	// ran under — how far behind real time its event-time frontier is.
	WatermarkLagUs int64 `json:"watermarkLagUs,omitempty"`
}

// EventTimeProgress is the epoch's event-time section, mirroring Spark's
// eventTime block: the min/avg/max event time observed across this
// epoch's raw input rows, the watermark in force, and the watermark's lag
// behind processing time. Present only for queries with at least one
// watermarked pipeline.
type EventTimeProgress struct {
	MinMicros int64 `json:"minMicros,omitempty"`
	AvgMicros int64 `json:"avgMicros,omitempty"`
	MaxMicros int64 `json:"maxMicros,omitempty"`
	// WatermarkMicros duplicates QueryProgress.WatermarkMicros so the
	// section is self-contained for consumers that only read eventTime.
	WatermarkMicros int64 `json:"watermarkMicros"`
	// WatermarkLagUs is processing time minus the watermark — the staleness
	// bound on what stateful operators may still revise. Omitted until the
	// watermark first advances.
	WatermarkLagUs int64 `json:"watermarkLagUs,omitempty"`
}

// QueryProgress describes one epoch of a streaming query, mirroring
// Spark's StreamingQueryProgress events.
type QueryProgress struct {
	QueryName        string  `json:"queryName"`
	Epoch            int64   `json:"epoch"`
	NumInputRows     int64   `json:"numInputRows"`
	NumOutputRows    int64   `json:"numOutputRows"`
	ProcessingMillis int64   `json:"processingMillis"`
	WatermarkMicros  int64   `json:"watermarkMicros"`
	StateRows        int64   `json:"stateRows"`
	StateBytes       int64   `json:"stateBytes"`
	InputRowsPerSec  float64 `json:"inputRowsPerSecond"`
	OutputRowsPerSec float64 `json:"outputRowsPerSecond"`
	// VectorizedRows counts how many of this epoch's input rows ran the
	// columnar path — rows fall back to the row path per task when a batch's
	// types drift or a stage doesn't compile to kernels.
	VectorizedRows int64 `json:"vectorizedRows,omitempty"`
	// Workers is Options.Workers — the task pool's size and the map split's
	// width — omitted when unset.
	Workers int `json:"workers,omitempty"`
	// ProcessingMicros is the epoch's wall time at µs resolution;
	// ProcessingMillis is this rounded down. Sub-millisecond epochs report
	// 0 ms but keep a meaningful µs figure, which is what rates and the
	// DurationBreakdown sum are derived from.
	ProcessingMicros int64 `json:"processingMicros"`
	// DurationBreakdown splits ProcessingMicros into disjoint wall-clock
	// stage segments (µs): planning, getBatch, execution, stateCommit,
	// walCommit, sinkCommit. The values sum to ≈ ProcessingMicros.
	DurationBreakdown map[string]int64 `json:"durationUs,omitempty"`
	// BottleneckStage names the largest DurationBreakdown segment: the
	// stage an operator looks at first when an epoch runs long.
	BottleneckStage string           `json:"bottleneckStage,omitempty"`
	Sources         []SourceProgress `json:"sources,omitempty"`
	Sink            *SinkProgress    `json:"sink,omitempty"`
	// EventTime is the epoch's event-time telemetry (min/avg/max event
	// time, watermark, watermark lag); nil for queries with no watermarked
	// pipeline.
	EventTime *EventTimeProgress `json:"eventTime,omitempty"`
	// StateOperators reports per-stateful-operator state store activity.
	StateOperators []StateOperatorProgress `json:"stateOperators,omitempty"`
	SourceOffsets  map[string]int64        `json:"sourceEndOffsetTotals,omitempty"`
	// IORetries is the cumulative count of transient I/O failures absorbed
	// by retry (source reads, sink writes) since the query started.
	IORetries int64 `json:"ioRetries,omitempty"`
	// CorruptionsDetected is the cumulative count of corrupt records the
	// durability layer detected and safely recovered from (e.g. a torn
	// uncommitted WAL tail dropped during restart).
	CorruptionsDetected int64 `json:"corruptionsDetected,omitempty"`
	// AdmissionCapRecords is the per-epoch record cap in force when this
	// epoch was planned: the query's MaxRecordsPerTrigger. 0 means
	// unlimited intake.
	AdmissionCapRecords int64 `json:"admissionCapRecords,omitempty"`
	// BacklogRecords is how many source records admission control deferred
	// past this epoch — the distance to the sources' heads at planning time.
	BacklogRecords int64 `json:"backlogRecords,omitempty"`
}

// BottleneckStage names the largest segment of a duration breakdown, or
// "" when the breakdown is empty. Ties break alphabetically so the result
// is deterministic.
func BottleneckStage(breakdown map[string]int64) string {
	best, bestV := "", int64(-1)
	names := make([]string, 0, len(breakdown))
	for name := range breakdown {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if v := breakdown[name]; v > bestV {
			best, bestV = name, v
		}
	}
	return best
}

// EventLog publishes progress events: each lands on its epoch's record in
// the query's ring and is appended as a JSON line to the writer, if there is
// one. Writer failures are not swallowed — they are counted, by the
// eventLogWriteFailures counter of the log's registry.
type EventLog struct {
	// emitMu serializes whole emissions, so concurrent emitters' JSON lines
	// reach the writer whole and in emission order.
	emitMu sync.Mutex
	w      io.Writer
	ring   *EpochRing
	reg    *Registry
}

// NewEventLog creates an event log over ring. w and reg may be nil: reg
// mirrors the log's delivery counters (eventLogWriteFailures,
// eventLogEvicted).
func NewEventLog(w io.Writer, ring *EpochRing, reg *Registry) *EventLog {
	return &EventLog{w: w, ring: ring, reg: reg}
}

// Emit publishes one progress event: onto its epoch's record first, then the
// writer, both under the emission lock so concurrent emitters cannot
// interleave deliveries.
func (l *EventLog) Emit(p QueryProgress) {
	l.emitMu.Lock()
	defer l.emitMu.Unlock()

	l.ring.Update(p.Epoch, func(r *EpochRecord) { r.Progress = &p })
	if l.w != nil {
		data, err := json.Marshal(p)
		if err == nil {
			_, err = fmt.Fprintf(l.w, "%s\n", data)
		}
		if err != nil && l.reg != nil {
			l.reg.Counter("eventLogWriteFailures").Add(1)
		}
	}
	if evicted := l.ring.Evicted(); l.reg != nil && evicted > 0 {
		l.reg.Gauge("eventLogEvicted").Set(evicted)
	}
}

// Recent returns up to n of the most recent events (all retained when
// n <= 0), oldest first: the progress of the ring's newest published epochs.
func (l *EventLog) Recent(n int) []QueryProgress {
	recs := l.ring.Recent(n, func(r *EpochRecord) bool { return r.Progress != nil })
	out := make([]QueryProgress, len(recs))
	for i, r := range recs {
		out[i] = *r.Progress
	}
	return out
}
