// Package health is the query's health view: the end-to-end latency
// lineage of its newest epochs and the rows and task time of each stage's
// partitions. The paper's promise is prefix-consistent answers with bounded
// end-to-end latency (§3–§4); this package makes that latency *observable*
// — not just per-stage durations, but the full source-read →
// subscriber-frame-flushed lineage of every epoch, read off the query's
// epoch ring. Profiles are not its business: the engine labels its tasks
// (query, stage, partition) and the monitor serves /debug/pprof.
//
// Every started query has a Tracker. A nil *Tracker is what a serving hub
// with no query attached holds in its place: the two methods it calls
// (Stamp, StampDeliver) answer for it; the rest expect a tracker.
package health

import (
	"sort"
	"sync"
	"time"

	"structream/internal/metrics"
)

// Stamp is one epoch's latency lineage as reports render it: the instants
// of the epoch's record in the query's ring (metrics.EpochRecord has their
// meaning). Zero means "not reached yet".
type Stamp struct {
	Epoch         int64 `json:"epoch"`
	IngestMicros  int64 `json:"ingestMicros,omitempty"`
	AdmitMicros   int64 `json:"admitMicros,omitempty"`
	ExecuteMicros int64 `json:"executeMicros,omitempty"`
	CommitMicros  int64 `json:"commitMicros,omitempty"`
	DeliverMicros int64 `json:"deliverMicros,omitempty"`
}

// EndToEndMicros is the freshness of the epoch as seen by the slowest
// subscriber so far: deliver − ingest, or 0 if either end is unstamped.
func (s Stamp) EndToEndMicros() int64 {
	if s.IngestMicros == 0 || s.DeliverMicros == 0 {
		return 0
	}
	return s.DeliverMicros - s.IngestMicros
}

// PartitionStat is the rows and task time one partition of one stage has
// taken since the query started: "map" by source partition (rows read),
// "reduce" by state partition (keys held) — where skew shows.
type PartitionStat struct {
	Stage     string `json:"stage"`
	Partition int    `json:"partition"`
	Rows      int64  `json:"rows"`
	Micros    int64  `json:"micros"`
}

// Config wires a Tracker to its query's telemetry.
type Config struct {
	Query string
	// Registry receives the endToEndLatency.us observations made when
	// deliver stamps land.
	Registry *metrics.Registry
	// Ring is the query's epoch ring: lineage is read from and deliveries
	// written to its records (default: a ring of the tracker's own).
	Ring *metrics.EpochRing
}

// Tracker is one query's health state: the per-partition accumulators and
// the lineage view of the query's epoch ring. Safe for concurrent use.
type Tracker struct {
	cfg Config

	mu    sync.Mutex
	parts map[string][]PartitionStat
}

// New builds a Tracker.
func New(cfg Config) *Tracker {
	if cfg.Ring == nil {
		cfg.Ring = metrics.NewEpochRing()
	}
	return &Tracker{cfg: cfg, parts: make(map[string][]PartitionStat)}
}

// -------------------------------------------------------------- lineage

// stampOf renders a ring record's lineage.
func stampOf(r metrics.EpochRecord) Stamp {
	return Stamp{r.Epoch, r.IngestMicros, r.AdmitMicros, r.ExecuteMicros, r.CommitMicros, r.DeliverMicros}
}

// stamped reports whether any lineage instant of r has been written.
func stamped(r *metrics.EpochRecord) bool {
	return stampOf(*r) != Stamp{Epoch: r.Epoch}
}

// StampDeliver records that a subscriber flushed the epoch's frame at
// `at`, advancing the deliver instant of the epoch's record and observing
// the full source-read → frame-flushed latency into endToEndLatency.us.
// Called once per subscriber per epoch by the serving layer.
func (t *Tracker) StampDeliver(epoch int64, at time.Time) {
	if t == nil {
		return
	}
	us := at.UnixMicro()
	var e2e int64 = -1
	t.cfg.Ring.Update(epoch, func(r *metrics.EpochRecord) {
		r.DeliverMicros = max(r.DeliverMicros, us)
		if r.IngestMicros > 0 {
			e2e = us - r.IngestMicros
		}
	})
	if e2e >= 0 && t.cfg.Registry != nil {
		t.cfg.Registry.Histogram("endToEndLatency.us").Observe(e2e)
	}
}

// Stamp returns the lineage of one epoch, if the ring still holds it and
// any of it has been written.
func (t *Tracker) Stamp(epoch int64) (Stamp, bool) {
	if t == nil {
		return Stamp{}, false
	}
	r, ok := t.cfg.Ring.Record(epoch)
	return stampOf(r), ok && stamped(&r)
}

// ----------------------------------------------------------- partitions

// ObservePartition adds one task's rows and wall time to its partition's
// cell of a stage; the engine calls it per map task and per reduce task.
func (t *Tracker) ObservePartition(stage string, partition int, rows int64, d time.Duration) {
	if partition < 0 {
		return
	}
	t.mu.Lock()
	cells := t.parts[stage]
	for len(cells) <= partition {
		cells = append(cells, PartitionStat{Stage: stage, Partition: len(cells)})
	}
	cells[partition].Rows += rows
	cells[partition].Micros += d.Microseconds()
	t.parts[stage] = cells
	t.mu.Unlock()
}

// --------------------------------------------------------------- report

// Report is the answer to GET /queries/{name}/health and `ssql :health`.
type Report struct {
	Query      string          `json:"query"`
	Stamps     []Stamp         `json:"recentStamps,omitempty"`
	Partitions []PartitionStat `json:"partitions,omitempty"`
}

// Health assembles the current report.
func (t *Tracker) Health() Report {
	r := Report{Query: t.cfg.Query}
	t.mu.Lock()
	for _, cells := range t.parts {
		r.Partitions = append(r.Partitions, cells...)
	}
	t.mu.Unlock()
	sort.Slice(r.Partitions, func(i, j int) bool {
		if r.Partitions[i].Stage != r.Partitions[j].Stage {
			return r.Partitions[i].Stage < r.Partitions[j].Stage
		}
		return r.Partitions[i].Partition < r.Partitions[j].Partition
	})
	for _, rec := range t.cfg.Ring.Recent(8, stamped) {
		r.Stamps = append(r.Stamps, stampOf(rec))
	}
	return r
}
