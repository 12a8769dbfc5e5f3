package metrics

import (
	"slices"
	"sync"

	"structream/internal/trace"
)

// EpochRecord is everything a query retains about one epoch: its span tree,
// its progress event and its latency lineage. Progress, the trace's views
// (/trace) and the health report's stamps are reads of this one record, so
// they agree on which epochs exist and age out together.
type EpochRecord struct {
	Epoch int64
	// Trace is the epoch's span tree, open while the epoch runs. A failed or
	// watchdog-abandoned epoch keeps its partial tree.
	Trace *trace.EpochTrace
	// Progress is the epoch's progress event: nil until the epoch has
	// committed and been published, and for good if it never does.
	Progress *QueryProgress
	// The lineage: the wall-clock instants (Unix µs, 0 = not reached) at which
	// the epoch's data was read from the source, admitted for planning,
	// entered execution, was durably committed, and was last flushed to a
	// subscriber. The engine writes the first four once, at the commit;
	// DeliverMicros advances as more subscribers flush the epoch's frame.
	IngestMicros, AdmitMicros, ExecuteMicros, CommitMicros, DeliverMicros int64

	live bool // the slot holds a record
}

// epochRingSlots bounds what a query remembers about its past: the newest
// 1024 epochs, the depth internal/experiments reads progress back to.
const epochRingSlots = 1024

// EpochRing is a query's one bounded store of per-epoch telemetry: the record
// of epoch e lives in slot e mod the capacity, so a lookup by epoch is O(1),
// an epoch is reachable from the moment it begins — the serving hub reads an
// epoch's ingest instant while the engine is still publishing it — and a
// write for an epoch that has aged out cannot land on the newer epoch that
// owns its slot. One lock guards every record's fields; readers get copies.
type EpochRing struct {
	mu      sync.Mutex
	slots   []EpochRecord
	newest  int64 // highest epoch ever recorded, -1 before any
	evicted int64
}

// NewEpochRing returns an empty ring.
func NewEpochRing() *EpochRing {
	return &EpochRing{slots: make([]EpochRecord, epochRingSlots), newest: -1}
}

// slot returns epoch's record, claiming its slot from an older epoch (or a
// fresh record of the same epoch, on begin) if it has none; nil when a newer
// epoch owns the slot. Caller holds g.mu.
func (g *EpochRing) slot(epoch int64, begin bool) *EpochRecord {
	if epoch < 0 {
		return nil
	}
	s := &g.slots[epoch%int64(len(g.slots))]
	switch {
	case s.live && s.Epoch == epoch && !begin:
		return s
	case s.live && s.Epoch > epoch:
		return nil
	case s.live && s.Epoch < epoch:
		g.evicted++
	}
	*s = EpochRecord{Epoch: epoch, live: true}
	g.newest = max(g.newest, epoch)
	return s
}

// Begin opens the record of the epoch t traces, replacing any earlier record
// of that epoch: from here on the epoch is in the ring, in flight.
func (g *EpochRing) Begin(t *trace.EpochTrace) {
	g.mu.Lock()
	if s := g.slot(t.Epoch, true); s != nil {
		s.Trace = t
	}
	g.mu.Unlock()
}

// Update runs fn on epoch's record under the ring's lock, opening the record
// if the epoch has none yet; it does nothing when the epoch has aged out of
// the ring.
func (g *EpochRing) Update(epoch int64, fn func(*EpochRecord)) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if s := g.slot(epoch, false); s != nil {
		fn(s)
	}
}

// Record returns a copy of epoch's record, if the ring still holds it.
func (g *EpochRing) Record(epoch int64) (EpochRecord, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if epoch < 0 {
		return EpochRecord{}, false
	}
	s := g.slots[epoch%int64(len(g.slots))]
	return s, s.live && s.Epoch == epoch
}

// Recent returns copies of up to n of the newest records keep accepts (every
// retained one when n <= 0; every record when keep is nil), oldest first.
// keep runs under the ring's lock and must not call back into the ring.
func (g *EpochRing) Recent(n int, keep func(*EpochRecord) bool) []EpochRecord {
	g.mu.Lock()
	defer g.mu.Unlock()
	var out []EpochRecord
	size := int64(len(g.slots))
	for e := g.newest; e >= 0 && e > g.newest-size && (n <= 0 || len(out) < n); e-- {
		if s := &g.slots[e%size]; s.live && s.Epoch == e && (keep == nil || keep(s)) {
			out = append(out, *s)
		}
	}
	slices.Reverse(out)
	return out
}

// Traces returns the span trees of the retained epochs that have finished —
// committed, failed or abandoned — oldest first: what /trace exports.
func (g *EpochRing) Traces() []*trace.EpochTrace {
	recs := g.Recent(0, func(r *EpochRecord) bool { return r.Trace != nil && r.Trace.Finished() })
	out := make([]*trace.EpochTrace, len(recs))
	for i, r := range recs {
		out[i] = r.Trace
	}
	return out
}

// Evicted counts the records — progress, span tree and lineage together —
// that aged out of the ring to make room for newer epochs.
func (g *EpochRing) Evicted() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.evicted
}
