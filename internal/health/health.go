// Package health is the streaming health subsystem: end-to-end latency
// lineage, watermark-lag telemetry, and an anomaly-triggered flight
// recorder. The paper's promise is prefix-consistent answers with bounded
// end-to-end latency (§3–§4); this package makes that latency *observable*
// — not just per-stage durations, but the full source-read →
// subscriber-frame-flushed lineage of every epoch — and captures a
// diagnostic bundle at the moment an epoch deviates from its own rolling
// baseline, when the evidence (traces, profiles, progress history) still
// exists.
//
// Every started query has a Tracker. A nil *Tracker is what a serving hub
// with no query attached holds in its place: the two methods it calls
// (Stamp, StampDeliver) answer for it; the rest expect a tracker.
package health

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"structream/internal/fsx"
	"structream/internal/metrics"
)

// Clock is the injectable time source. Both the detector and the recorder
// consult it, so anomaly→capture is deterministically testable.
type Clock func() time.Time

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

// Sample is one epoch's detector input, produced by the engine on the
// commit path. WatermarkLagUs < 0 means "no watermarked pipeline" and the
// signal is skipped for that epoch.
type Sample struct {
	Epoch           int64
	LatencyUs       int64
	InputRowsPerSec float64
	BacklogRecords  int64
	WatermarkLagUs  int64
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

// Config wires a Tracker to its query's telemetry and its bundle
// directory. Zero values get sane defaults from New.
type Config struct {
	Query string
	// Dir is the bundle ring directory. Empty disables the recorder (the
	// detector still runs and Report still surfaces anomalies).
	Dir string
	// FS is the filesystem bundles are written through (default fsx.Real).
	FS fsx.FS
	// Clock is the injectable time source (default time.Now).
	Clock Clock

	// MaxBundles bounds the on-disk bundle ring (default 8).
	MaxBundles int
	// Window is the rolling-baseline ring size per signal (default 64).
	Window int
	// MinSamples gates the detector until a baseline exists (default 8).
	MinSamples int
	// Mult is the multiplicative trip threshold: a sample is anomalous
	// when it exceeds Mult× the rolling mean (default 3).
	Mult float64
	// ZScore is the z-score trip threshold applied when the baseline has
	// nonzero spread (default 4).
	ZScore float64
	// CooldownEpochs suppresses re-capture for this many epochs after a
	// trip, so a sustained anomaly yields one bundle, not one per epoch
	// (default 32).
	CooldownEpochs int64

	// CPUProfileDuration is how long the capture's CPU profile runs
	// (default 250ms; 0 with DisableProfiles skips profiles entirely).
	CPUProfileDuration time.Duration
	// DisableProfiles skips the pprof CPU/heap profiles and goroutine
	// dump — for tests that need byte-deterministic bundles.
	DisableProfiles bool
	// SyncCapture runs bundle capture inline on the ObserveEpoch call
	// instead of a background goroutine — for deterministic tests.
	SyncCapture bool

	// Registry receives the endToEndLatency.us observations made when
	// deliver stamps land, and is snapshotted into bundles.
	Registry *metrics.Registry
	// Ring is the query's epoch ring: lineage is read from and deliveries
	// written to its records, and bundles export its newest epochs (default:
	// a ring of the tracker's own).
	Ring *metrics.EpochRing
}

// Tracker is one query's health state: the anomaly detector, the
// per-partition accumulators, the flight recorder, and the lineage view of
// the query's epoch ring. Safe for concurrent use.
type Tracker struct {
	cfg Config

	mu    sync.Mutex
	det   *detector
	parts map[string][]PartitionStat
	last  Sample

	captureMu  sync.Mutex // serializes bundle captures
	capturing  bool
	seq        int
	lastTrip   *Anomaly
	cooldownTo int64 // epoch until which captures are suppressed

	wg     sync.WaitGroup
	closed bool
}

// New builds a Tracker.
func New(cfg Config) *Tracker {
	if cfg.FS == nil {
		cfg.FS = fsx.Real()
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.MaxBundles <= 0 {
		cfg.MaxBundles = 8
	}
	if cfg.Window <= 0 {
		cfg.Window = 64
	}
	if cfg.MinSamples <= 0 {
		cfg.MinSamples = 8
	}
	if cfg.Mult <= 1 {
		cfg.Mult = 3
	}
	if cfg.ZScore <= 0 {
		cfg.ZScore = 4
	}
	if cfg.CooldownEpochs <= 0 {
		cfg.CooldownEpochs = 32
	}
	if cfg.CPUProfileDuration <= 0 {
		cfg.CPUProfileDuration = 250 * time.Millisecond
	}
	if cfg.Ring == nil {
		cfg.Ring = metrics.NewEpochRing()
	}
	t := &Tracker{cfg: cfg, parts: make(map[string][]PartitionStat)}
	t.det = newDetector(cfg.Window, cfg.MinSamples, cfg.Mult, cfg.ZScore)
	return t
}

// Close waits for any in-flight background capture to finish.
func (t *Tracker) Close() {
	t.mu.Lock()
	t.closed = true
	t.mu.Unlock()
	t.wg.Wait()
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

// --------------------------------------------------------- the detector

// ObserveEpoch feeds one committed epoch's signals to the anomaly
// detector; a trip captures a flight-recorder bundle (in the background,
// unless Config.SyncCapture).
func (t *Tracker) ObserveEpoch(s Sample) {
	now := t.cfg.Clock()
	t.mu.Lock()
	t.last = s

	var trip *Anomaly
	check := func(name string, v float64, dir direction) {
		a := t.det.observe(name, v, dir)
		if a != nil && trip == nil {
			trip = a
		}
	}
	check("epochLatencyUs", float64(s.LatencyUs), high)
	if s.InputRowsPerSec > 0 {
		check("inputRowsPerSec", s.InputRowsPerSec, low)
	}
	check("backlogRecords", float64(s.BacklogRecords), high)
	if s.WatermarkLagUs >= 0 {
		check("watermarkLagUs", float64(s.WatermarkLagUs), high)
	}

	capture := false
	if trip != nil {
		trip.Epoch = s.Epoch
		trip.AtMicros = now.UnixMicro()
		t.lastTrip = trip
		if s.Epoch >= t.cooldownTo && !t.capturing && !t.closed {
			t.cooldownTo = s.Epoch + t.cfg.CooldownEpochs
			t.capturing = true
			capture = true
		}
	}
	closed := t.closed
	t.mu.Unlock()

	if !capture || closed {
		return
	}
	if t.cfg.SyncCapture {
		t.runCapture(*trip)
		return
	}
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		t.runCapture(*trip)
	}()
}

func (t *Tracker) runCapture(a Anomaly) {
	defer func() {
		t.mu.Lock()
		t.capturing = false
		t.mu.Unlock()
	}()
	id, err := t.capture(a)
	t.mu.Lock()
	if t.lastTrip != nil && t.lastTrip.Signal == a.Signal && t.lastTrip.Epoch == a.Epoch {
		if err != nil {
			t.lastTrip.CaptureError = err.Error()
		} else {
			t.lastTrip.BundleID = id
		}
	}
	t.mu.Unlock()
}

// --------------------------------------------------------------- report

// SignalStatus is one detector signal's rolling state for the report.
type SignalStatus struct {
	Name    string  `json:"name"`
	Last    float64 `json:"last"`
	Mean    float64 `json:"mean"`
	Std     float64 `json:"std"`
	Samples int     `json:"samples"`
	Trips   int64   `json:"trips"`
}

// Anomaly describes one detector trip.
type Anomaly struct {
	Epoch        int64   `json:"epoch"`
	Signal       string  `json:"signal"`
	Value        float64 `json:"value"`
	Mean         float64 `json:"mean"`
	Std          float64 `json:"std"`
	AtMicros     int64   `json:"atMicros"`
	BundleID     string  `json:"bundleId,omitempty"`
	CaptureError string  `json:"captureError,omitempty"`
}

// Report is the answer to GET /queries/{name}/health and `ssql :health`.
type Report struct {
	Query       string          `json:"query"`
	Status      string          `json:"status"` // "ok" | "anomalous"
	Signals     []SignalStatus  `json:"signals"`
	LastAnomaly *Anomaly        `json:"lastAnomaly,omitempty"`
	Stamps      []Stamp         `json:"recentStamps,omitempty"`
	Partitions  []PartitionStat `json:"partitions,omitempty"`
	Bundles     []BundleInfo    `json:"bundles,omitempty"`
}

// Health assembles the current report. Bundle listing reads the on-disk
// ring, so the report reflects retention, not just memory.
func (t *Tracker) Health() Report {
	t.mu.Lock()
	r := Report{
		Query:   t.cfg.Query,
		Status:  "ok",
		Signals: t.det.statuses(),
	}
	if t.lastTrip != nil {
		a := *t.lastTrip
		r.LastAnomaly = &a
		if t.last.Epoch < t.cooldownTo {
			r.Status = "anomalous"
		}
	}
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
	if bs, err := t.Bundles(); err == nil {
		r.Bundles = bs
	}
	return r
}

// ---------------------------------------------------------------- names

// sanitizeName maps a query name to a filesystem-safe bundle prefix.
func sanitizeName(q string) string {
	if q == "" {
		return "query"
	}
	var b strings.Builder
	for _, r := range q {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			b.WriteRune(r)
		default:
			b.WriteRune('_')
		}
	}
	return b.String()
}

func (t *Tracker) bundleDir(seq int, atMicros int64) (id, dir string) {
	id = fmt.Sprintf("%s-%04d-%d", sanitizeName(t.cfg.Query), seq, atMicros)
	return id, filepath.Join(t.cfg.Dir, id)
}
