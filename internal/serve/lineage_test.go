package serve

import (
	"testing"
	"time"

	"structream/internal/health"
	"structream/internal/metrics"
)

// TestFramesCarryLineageStamps: epoch and snapshot frames expose the
// source-read instant of their epoch, and a transport acknowledging
// delivery closes the lineage — DeliverMicros is stamped and the
// end-to-end freshness histogram observes deliver − ingest.
func TestFramesCarryLineageStamps(t *testing.T) {
	ms := seededSink(t, 2, 1)
	clk := newFakeClock()
	reg, ring := metrics.NewRegistry(), metrics.NewEpochRing()
	tr := health.New(health.Config{Query: "q", Registry: reg, Ring: ring})
	base := clk.Now()
	// What the engine's commit leaves on the two epochs' records.
	ring.Update(0, func(r *metrics.EpochRecord) { r.IngestMicros = base.Add(-50 * time.Millisecond).UnixMicro() })
	ring.Update(1, func(r *metrics.EpochRecord) { r.IngestMicros = base.Add(-20 * time.Millisecond).UnixMicro() })

	h := NewHub("q", ms, HubOptions{Clock: clk.Now})
	defer h.Close()
	h.mu.Lock()
	h.health = tr // what Attach would wire from a live query
	h.mu.Unlock()

	sub, err := h.Subscribe(SubscribeOptions{Cursor: -1, From: "start"})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if f := nextFrame(t, sub); f.Kind != FrameHello {
		t.Fatalf("first frame = %s, want hello", f.Kind)
	}
	for want := int64(0); want < 2; want++ {
		f := nextFrame(t, sub)
		if f.Kind != FrameEpoch || f.Epoch != want {
			t.Fatalf("frame = %s epoch %d, want epoch %d", f.Kind, f.Epoch, want)
		}
		wantIngest := base.Add(time.Duration(-50+30*want) * time.Millisecond).UnixMicro()
		if f.IngestMicros != wantIngest {
			t.Errorf("epoch %d IngestMicros = %d, want %d", want, f.IngestMicros, wantIngest)
		}
		if f.EmitMicros < f.IngestMicros {
			t.Errorf("epoch %d emitted before ingest: %+v", want, f)
		}
		h.Delivered(f)
	}

	st, ok := tr.Stamp(0)
	if !ok {
		t.Fatal("no stamp for epoch 0")
	}
	if st.DeliverMicros != base.UnixMicro() {
		t.Errorf("DeliverMicros = %d, want %d", st.DeliverMicros, base.UnixMicro())
	}
	if got := st.EndToEndMicros(); got != 50_000 {
		t.Errorf("EndToEndMicros = %d, want 50000", got)
	}
	hs := reg.Histograms()["endToEndLatency.us"]
	if hs.Count != 2 {
		t.Errorf("endToEndLatency.us count = %d, want 2", hs.Count)
	}

	// A hub with no attached query (nil tracker) serves frames unchanged.
	h2 := NewHub("bare", seededSink(t, 1, 1), HubOptions{})
	defer h2.Close()
	sub2, err := h2.Subscribe(SubscribeOptions{Cursor: -1, From: "start"})
	if err != nil {
		t.Fatal(err)
	}
	defer sub2.Close()
	nextFrame(t, sub2) // hello
	f := nextFrame(t, sub2)
	if f.IngestMicros != 0 {
		t.Errorf("bare hub frame IngestMicros = %d, want 0", f.IngestMicros)
	}
	h2.Delivered(f) // must be a safe no-op
}
