package health

import (
	"testing"
	"time"

	"structream/internal/metrics"
	"structream/internal/trace"
)

// TestLineageStamps: the tracker's stamps are the ring records' lineage;
// end-to-end latency is deliver − ingest, the latest deliver wins, and each
// delivery lands in the registry histogram.
func TestLineageStamps(t *testing.T) {
	reg, ring := metrics.NewRegistry(), metrics.NewEpochRing()
	tk := New(Config{Query: "q", Registry: reg, Ring: ring})

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
