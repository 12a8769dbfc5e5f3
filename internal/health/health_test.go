package health

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"structream/internal/fsx"
	"structream/internal/metrics"
	"structream/internal/trace"
)

// fakeClock is a deterministic, manually-advanced time source.
type fakeClock struct{ now time.Time }

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)}
}
func (c *fakeClock) Now() time.Time                    { return c.now }
func (c *fakeClock) Advance(d time.Duration) time.Time { c.now = c.now.Add(d); return c.now }

func testTracker(t *testing.T, mutate func(*Config)) (*Tracker, *fakeClock, string) {
	t.Helper()
	dir := t.TempDir()
	clk := newFakeClock()
	reg := metrics.NewRegistry()
	ring := metrics.NewEpochRing()
	// Epoch 1 is over; epoch 2 has committed and published but not finished,
	// as the epoch whose sample trips the detector has when a capture starts.
	for e := int64(1); e <= 2; e++ {
		et := trace.StartEpoch("q1", e, "microbatch", clk.Now())
		et.SetAttr("rows", 10)
		ring.Begin(et)
		ring.Update(e, func(r *metrics.EpochRecord) {
			r.IngestMicros, r.CommitMicros, r.Progress = 1, 2, &metrics.QueryProgress{QueryName: "q1", Epoch: e}
		})
		if e == 1 {
			et.Finish()
		}
	}
	cfg := Config{
		Query:       "q1",
		Dir:         dir,
		Clock:       clk.Now,
		MinSamples:  4,
		SyncCapture: true,
		Registry:    reg,
		Ring:        ring,
		// Keep the capture window short: the test cares about bundle
		// completeness, not profile quality.
		CPUProfileDuration: 20 * time.Millisecond,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	return New(cfg), clk, dir
}

// steady feeds n unremarkable epochs to build a baseline.
func steady(tk *Tracker, from int64, n int) int64 {
	e := from
	for i := 0; i < n; i++ {
		tk.ObserveEpoch(Sample{
			Epoch:           e,
			LatencyUs:       1000 + int64(i%3), // tiny jitter
			InputRowsPerSec: 50000,
			BacklogRecords:  10,
			WatermarkLagUs:  2000,
		})
		e++
	}
	return e
}

// TestLatencySpikeTripsDetectorAndCapturesBundle is the acceptance test:
// a fake-clock latency spike trips the detector and produces a complete,
// CRC-clean bundle containing the trace window, profiles, and progress
// history.
func TestLatencySpikeTripsDetectorAndCapturesBundle(t *testing.T) {
	tk, _, dir := testTracker(t, nil)
	defer tk.Close()

	e := steady(tk, 1, 10)
	tk.ObserveEpoch(Sample{
		Epoch:           e,
		LatencyUs:       250_000, // 250× the baseline
		InputRowsPerSec: 50000,
		BacklogRecords:  10,
		WatermarkLagUs:  2000,
	})

	rep := tk.Health()
	if rep.Status != "anomalous" {
		t.Fatalf("status = %q, want anomalous", rep.Status)
	}
	if rep.LastAnomaly == nil || rep.LastAnomaly.Signal != "epochLatencyUs" {
		t.Fatalf("lastAnomaly = %+v, want epochLatencyUs trip", rep.LastAnomaly)
	}
	if rep.LastAnomaly.BundleID == "" {
		t.Fatalf("anomaly has no bundle: %+v", rep.LastAnomaly)
	}
	if rep.LastAnomaly.CaptureError != "" {
		t.Fatalf("capture error: %s", rep.LastAnomaly.CaptureError)
	}

	m, err := VerifyBundle(fsx.Real(), filepath.Join(dir, rep.LastAnomaly.BundleID))
	if err != nil {
		t.Fatalf("VerifyBundle: %v", err)
	}
	want := map[string]bool{
		"meta.json": false, "progress.jsonl": false, "trace.jsonl": false,
		"metrics.json": false, "goroutines.txt": false,
		"heap.pprof": false, "cpu.pprof": false,
	}
	for _, f := range m.Files {
		if _, ok := want[f.Name]; ok {
			want[f.Name] = true
		}
		if f.Bytes == 0 && f.Name != "progress.jsonl" {
			t.Errorf("bundle file %s is empty", f.Name)
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("bundle missing %s", name)
		}
	}

	// The three ring files are views of one read: the finished epoch is in
	// all of them, the unfinished one not among the traces.
	for name, lines := range map[string]int{"trace.jsonl": 1, "progress.jsonl": 2} {
		data, err := ReadBundleFile(fsx.Real(), filepath.Join(dir, rep.LastAnomaly.BundleID), name)
		if err != nil {
			t.Fatalf("ReadBundleFile(%s): %v", name, err)
		}
		if got := bytes.Count(data, []byte("\n")); got != lines || !bytes.Contains(data, []byte(`"epoch":1`)) {
			t.Errorf("%s holds %d lines, want %d from epoch 1 on:\n%s", name, got, lines, data)
		}
	}
	meta, err := ReadBundleFile(fsx.Real(), filepath.Join(dir, rep.LastAnomaly.BundleID), "meta.json")
	if err != nil || strings.Count(string(meta), `"ingestMicros"`) != 2 {
		t.Errorf("meta.json does not carry both epochs' lineage (%v):\n%s", err, meta)
	}
}

// TestBundleRingRetentionCap proves the on-disk ring prunes oldest-first
// down to MaxBundles.
func TestBundleRingRetentionCap(t *testing.T) {
	tk, _, dir := testTracker(t, func(c *Config) {
		c.MaxBundles = 2
		c.CooldownEpochs = 1
		c.Mult = 2
		c.ZScore = 2             // repeated spikes enter the baseline ring and widen it
		c.DisableProfiles = true // keep the loop fast
	})
	defer tk.Close()

	e := steady(tk, 1, 10)
	for i := 0; i < 4; i++ {
		tk.ObserveEpoch(Sample{Epoch: e, LatencyUs: 10_000_000, InputRowsPerSec: 50000, BacklogRecords: 10, WatermarkLagUs: 2000})
		e = steady(tk, e+1, 6) // re-settle so the next spike still trips
	}

	bundles, err := ListBundles(fsx.Real(), dir)
	if err != nil {
		t.Fatalf("ListBundles: %v", err)
	}
	if len(bundles) != 2 {
		t.Fatalf("ring holds %d bundles, want 2 (retention cap)", len(bundles))
	}
	for i := 1; i < len(bundles); i++ {
		if bundleSeq(bundles[i-1].ID) >= bundleSeq(bundles[i].ID) {
			t.Fatalf("bundles out of order: %s then %s", bundles[i-1].ID, bundles[i].ID)
		}
	}
	// The survivors are the NEWEST two: both verify clean.
	for _, b := range bundles {
		if _, err := VerifyBundle(fsx.Real(), filepath.Join(dir, b.ID)); err != nil {
			t.Errorf("surviving bundle %s: %v", b.ID, err)
		}
	}
}

// TestThroughputDropTripsLowDirection: the throughput signal is anomalous
// when LOW, not high.
func TestThroughputDropTripsLowDirection(t *testing.T) {
	// A throughput *burst* must not trip.
	burst, _, _ := testTracker(t, func(c *Config) { c.DisableProfiles = true })
	defer burst.Close()
	e := steady(burst, 1, 10)
	burst.ObserveEpoch(Sample{Epoch: e, LatencyUs: 1001, InputRowsPerSec: 900_000, BacklogRecords: 10, WatermarkLagUs: 2000})
	if rep := burst.Health(); rep.Status != "ok" {
		t.Fatalf("burst tripped: %+v", rep.LastAnomaly)
	}
	// A stall (collapse to ~nothing) must trip.
	stall, _, _ := testTracker(t, func(c *Config) { c.DisableProfiles = true })
	defer stall.Close()
	e = steady(stall, 1, 10)
	stall.ObserveEpoch(Sample{Epoch: e, LatencyUs: 1001, InputRowsPerSec: 5, BacklogRecords: 10, WatermarkLagUs: 2000})
	rep := stall.Health()
	if rep.LastAnomaly == nil || rep.LastAnomaly.Signal != "inputRowsPerSec" {
		t.Fatalf("lastAnomaly = %+v, want inputRowsPerSec", rep.LastAnomaly)
	}
}

// TestWatermarkSentinelSkipped: lag < 0 (no watermarked pipeline) never
// feeds the signal, so it cannot poison the baseline or trip.
func TestWatermarkSentinelSkipped(t *testing.T) {
	tk, _, _ := testTracker(t, func(c *Config) { c.DisableProfiles = true })
	defer tk.Close()
	for i := int64(1); i <= 20; i++ {
		tk.ObserveEpoch(Sample{Epoch: i, LatencyUs: 1000, InputRowsPerSec: 1000, WatermarkLagUs: -1})
	}
	for _, s := range tk.Health().Signals {
		if s.Name == "watermarkLagUs" {
			t.Fatalf("watermarkLagUs signal exists with %d samples despite sentinel", s.Samples)
		}
	}
}

// TestLineageStamps: the tracker's stamps are the ring records' lineage;
// end-to-end latency is deliver − ingest, the latest deliver wins, and each
// delivery lands in the registry histogram.
func TestLineageStamps(t *testing.T) {
	reg, ring := metrics.NewRegistry(), metrics.NewEpochRing()
	tk := New(Config{Query: "q", Registry: reg, Ring: ring})
	defer tk.Close()

	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	us := func(d time.Duration) int64 { return base.Add(d).UnixMicro() }
	ring.Begin(trace.StartEpoch("q", 5, "microbatch", base))
	if _, ok := tk.Stamp(5); ok || tk.Health().Stamps != nil {
		t.Error("an epoch with no lineage written yet has a stamp")
	}
	ring.Update(5, func(r *metrics.EpochRecord) {
		r.IngestMicros, r.AdmitMicros, r.ExecuteMicros, r.CommitMicros = us(0), us(time.Millisecond), us(2*time.Millisecond), us(5*time.Millisecond)
	})
	tk.StampDeliver(5, base.Add(20*time.Millisecond))
	tk.StampDeliver(5, base.Add(8*time.Millisecond)) // the slowest subscriber wins

	s, ok := tk.Stamp(5)
	want := Stamp{Epoch: 5, IngestMicros: us(0), AdmitMicros: us(time.Millisecond), ExecuteMicros: us(2 * time.Millisecond),
		CommitMicros: us(5 * time.Millisecond), DeliverMicros: us(20 * time.Millisecond)}
	if !ok || s != want {
		t.Fatalf("stamp 5 = %+v (%v), want %+v", s, ok, want)
	}
	if got, want := s.EndToEndMicros(), int64(20_000); got != want {
		t.Errorf("end-to-end = %dus, want %dus", got, want)
	}
	if recent := tk.Health().Stamps; len(recent) != 1 || recent[0] != want {
		t.Errorf("the report's stamps = %+v", recent)
	}
	h := reg.Histogram("endToEndLatency.us")
	if h.Count() != 2 {
		t.Errorf("endToEndLatency.us count = %d, want 2 (one per deliver)", h.Count())
	}
	if h.Max() < 18_000 { // log-bucket resolution, not exact
		t.Errorf("endToEndLatency.us max = %d, want ~20000", h.Max())
	}
	// A delivery for an epoch that has aged out lands nowhere.
	ring.Begin(trace.StartEpoch("q", 5+1024, "microbatch", base))
	tk.StampDeliver(5, base)
	if _, ok := tk.Stamp(5); ok {
		t.Error("aged-out epoch 5 still has a stamp")
	}
	if _, ok := tk.Stamp(5 + 1024); ok || h.Count() != 2 {
		t.Errorf("the stale delivery landed on the newer epoch, or was observed (count %d)", h.Count())
	}
}

// TestNilTrackerAnswers: a hub with no query attached holds a nil *Tracker;
// what it calls on it must answer.
func TestNilTrackerAnswers(t *testing.T) {
	var tk *Tracker
	tk.StampDeliver(1, time.Now())
	if _, ok := tk.Stamp(1); ok {
		t.Error("nil tracker returned a stamp")
	}
}

// TestPartitionHooks: per-partition accounting accumulates and reports.
func TestPartitionHooks(t *testing.T) {
	tk := New(Config{Query: "q"})
	defer tk.Close()
	tk.ObservePartition("map", 0, 100, 2*time.Millisecond)
	tk.ObservePartition("map", 0, 50, 1*time.Millisecond)
	tk.ObservePartition("map", 2, 10, time.Millisecond) // sparse partition ids fill gaps
	tk.ObservePartition("state", 0, 5, time.Millisecond)
	rep := tk.Health()
	if len(rep.Partitions) != 4 {
		t.Fatalf("partitions = %+v, want 4 cells", rep.Partitions)
	}
	if rep.Partitions[0].Stage != "map" || rep.Partitions[0].Rows != 150 || rep.Partitions[0].Micros != 3000 {
		t.Errorf("map[0] = %+v, want 150 rows / 3000us", rep.Partitions[0])
	}
}

// TestCorruptBundleDetected: flipping one byte in a bundle file fails
// verification.
func TestCorruptBundleDetected(t *testing.T) {
	tk, _, dir := testTracker(t, func(c *Config) { c.DisableProfiles = true })
	defer tk.Close()
	e := steady(tk, 1, 10)
	tk.ObserveEpoch(Sample{Epoch: e, LatencyUs: 500_000, InputRowsPerSec: 50000, BacklogRecords: 10, WatermarkLagUs: 2000})
	rep := tk.Health()
	if rep.LastAnomaly == nil || rep.LastAnomaly.BundleID == "" {
		t.Fatalf("no bundle captured: %+v", rep.LastAnomaly)
	}
	bdir := filepath.Join(dir, rep.LastAnomaly.BundleID)
	path := filepath.Join(bdir, "meta.json")
	data, err := fsx.Real().ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := fsx.Real().WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyBundle(fsx.Real(), bdir); err == nil {
		t.Fatal("VerifyBundle accepted a corrupted bundle")
	} else if !fsx.IsCorrupt(err) {
		t.Fatalf("corruption error not marked fsx.ErrCorrupt: %v", err)
	}
}

// TestCaptureCooldown: a sustained anomaly yields one bundle per cooldown
// window, not one per epoch.
func TestCaptureCooldown(t *testing.T) {
	tk, _, dir := testTracker(t, func(c *Config) {
		c.DisableProfiles = true
		c.CooldownEpochs = 100
	})
	defer tk.Close()
	e := steady(tk, 1, 10)
	for i := 0; i < 20; i++ { // 20 anomalous epochs inside one cooldown window
		tk.ObserveEpoch(Sample{Epoch: e, LatencyUs: 500_000, InputRowsPerSec: 50000, BacklogRecords: 10, WatermarkLagUs: 2000})
		e++
	}
	bundles, err := ListBundles(fsx.Real(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(bundles) != 1 {
		t.Fatalf("captured %d bundles inside one cooldown window, want 1", len(bundles))
	}
}
