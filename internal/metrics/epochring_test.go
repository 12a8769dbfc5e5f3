package metrics

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"structream/internal/trace"
)

// fill runs one epoch's whole life through the ring the way the engine does:
// begin with the span tree, lineage at the commit, then the progress event.
func fill(g *EpochRing, epoch int64) *trace.EpochTrace {
	et := trace.StartEpoch("q", epoch, "microbatch", time.Now())
	g.Begin(et)
	g.Update(epoch, func(r *EpochRecord) { r.IngestMicros, r.CommitMicros = 1000+epoch, 2000+epoch })
	g.Update(epoch, func(r *EpochRecord) { r.Progress = &QueryProgress{Epoch: epoch} })
	et.Finish()
	return et
}

// TestEpochRingKeepsOneRecordPerEpoch: an epoch is in the ring from the
// moment it begins, its three parts land on one record, and the views over
// the ring — progress, finished traces — skip what an epoch does not have.
func TestEpochRingKeepsOneRecordPerEpoch(t *testing.T) {
	g := NewEpochRing()
	if _, ok := g.Record(0); ok || len(g.Recent(0, nil)) != 0 || len(g.Traces()) != 0 {
		t.Fatal("an empty ring holds a record")
	}
	for e := int64(0); e < 3; e++ {
		fill(g, e)
	}
	// Epoch 3 is in flight; epoch 4 failed before it committed.
	inFlight := trace.StartEpoch("q", 3, "microbatch", time.Now())
	g.Begin(inFlight)
	failed := trace.StartEpoch("q", 4, "microbatch", time.Now())
	g.Begin(failed)
	failed.Finish()

	rec, ok := g.Record(3)
	if !ok || rec.Trace != inFlight || rec.Progress != nil || rec.CommitMicros != 0 {
		t.Fatalf("in-flight epoch 3 = %+v, %v", rec, ok)
	}
	if rec, ok = g.Record(1); !ok || rec.Progress == nil || rec.Progress.Epoch != 1 || rec.IngestMicros != 1001 || rec.Trace == nil {
		t.Fatalf("epoch 1 = %+v, %v", rec, ok)
	}
	if all := g.Recent(0, nil); len(all) != 5 || all[0].Epoch != 0 || all[4].Epoch != 4 {
		t.Fatalf("Recent(0) = %+v", all)
	}
	if two := g.Recent(2, func(r *EpochRecord) bool { return r.Progress != nil }); len(two) != 2 || two[0].Epoch != 1 || two[1].Epoch != 2 {
		t.Fatalf("the two newest published epochs = %+v", two)
	}
	var traced []string
	for _, et := range g.Traces() {
		traced = append(traced, fmt.Sprint(et.Epoch))
	}
	if fmt.Sprint(traced) != "[0 1 2 4]" {
		t.Fatalf("finished traces = %v, want the committed epochs and the failed one, not the one in flight", traced)
	}
	// Beginning an epoch again (a replay) starts its record afresh.
	g.Begin(trace.StartEpoch("q", 2, "microbatch", time.Now()))
	if rec, _ := g.Record(2); rec.Progress != nil || rec.IngestMicros != 0 || g.Evicted() != 0 {
		t.Fatalf("re-begun epoch 2 = %+v, evicted %d", rec, g.Evicted())
	}
}

// TestEpochRingEvictsARecordWhole: at capacity the oldest epoch's progress,
// span tree and lineage go together — they used to age out of three rings at
// 1024, 256 and 256 epochs — and a late write for it cannot land on the
// epoch that took its slot.
func TestEpochRingEvictsARecordWhole(t *testing.T) {
	g := NewEpochRing()
	for e := int64(0); e < epochRingSlots; e++ {
		fill(g, e)
	}
	if rec, ok := g.Record(0); !ok || rec.Progress == nil || rec.Trace == nil || rec.IngestMicros == 0 || g.Evicted() != 0 {
		t.Fatalf("a full ring lost its oldest epoch: %+v, %v, evicted %d", rec, ok, g.Evicted())
	}
	fill(g, epochRingSlots)
	if _, ok := g.Record(0); ok {
		t.Fatal("epoch 0 outlived its slot")
	}
	if all := g.Recent(0, nil); len(all) != epochRingSlots || all[0].Epoch != 1 || len(g.Traces()) != epochRingSlots || g.Evicted() != 1 {
		t.Fatalf("%d records from epoch %d, %d traces, %d evicted", len(all), all[0].Epoch, len(g.Traces()), g.Evicted())
	}
	// A subscriber acknowledges the aged-out epoch late: nothing is written.
	g.Update(0, func(r *EpochRecord) { t.Error("a write for an aged-out epoch ran"); r.DeliverMicros = 1 })
	if rec, _ := g.Record(epochRingSlots); rec.DeliverMicros != 0 || rec.Epoch != epochRingSlots {
		t.Fatalf("the stale write landed on the newer epoch: %+v", rec)
	}
	// A write for an epoch the ring has not seen begin opens its record.
	g.Update(epochRingSlots+5, func(r *EpochRecord) { r.DeliverMicros = 7 })
	if rec, ok := g.Record(epochRingSlots + 5); !ok || rec.DeliverMicros != 7 || rec.Trace != nil {
		t.Fatalf("opened by a write: %+v, %v", rec, ok)
	}
}

// TestEpochRingUnderConcurrentUse: the engine begins, stamps and publishes
// epochs while a serving hub acknowledges deliveries and HTTP readers list
// the ring; run with -race.
func TestEpochRingUnderConcurrentUse(t *testing.T) {
	g := NewEpochRing()
	const epochs = 3 * epochRingSlots
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // the engine
		defer wg.Done()
		for e := int64(0); e < epochs; e++ {
			fill(g, e)
		}
	}()
	go func() { // the hub, a little behind
		defer wg.Done()
		for e := int64(0); e < epochs; e++ {
			g.Update(e, func(r *EpochRecord) { r.DeliverMicros = max(r.DeliverMicros, 3000+e) })
		}
	}()
	go func() { // a reader
		defer wg.Done()
		for i := 0; i < 200; i++ {
			recs := g.Recent(8, func(r *EpochRecord) bool { return r.Progress != nil })
			for j := 1; j < len(recs); j++ {
				if recs[j].Epoch <= recs[j-1].Epoch {
					t.Errorf("Recent out of order: %d after %d", recs[j].Epoch, recs[j-1].Epoch)
				}
			}
			g.Traces()
		}
	}()
	wg.Wait()
	if rec, ok := g.Record(epochs - 1); !ok || rec.Progress == nil || rec.Trace == nil || !rec.Trace.Finished() {
		t.Fatalf("newest epoch = %+v, %v", rec, ok)
	}
}
