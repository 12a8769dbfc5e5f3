package metrics

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
)

// TestEmitOrderingUnderConcurrency: with many concurrent emitters, every
// event reaches the writer as one whole JSON line, each emitter's lines in
// the order it emitted them, and each event lands on its own epoch's record.
func TestEmitOrderingUnderConcurrency(t *testing.T) {
	var lines bytes.Buffer // written under the emission lock only
	l := NewEventLog(&lines, NewEpochRing(), nil)
	var wg sync.WaitGroup
	const workers, per = 8, 100
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				l.Emit(QueryProgress{Epoch: int64(w*per + i)})
			}
		}()
	}
	wg.Wait()
	written := strings.Split(strings.TrimSpace(lines.String()), "\n")
	history := l.Recent(0)
	if len(written) != workers*per || len(history) != workers*per {
		t.Fatalf("written=%d history=%d, want %d", len(written), len(history), workers*per)
	}
	next := make([]int64, workers) // each emitter's next epoch, in its own order
	for i, line := range written {
		var p QueryProgress
		if err := json.Unmarshal([]byte(line), &p); err != nil {
			t.Fatalf("line %d is not one whole event: %s (%v)", i, line, err)
		}
		w := p.Epoch / per
		if p.Epoch != w*per+next[w] {
			t.Fatalf("line %d is epoch %d; emitter %d emitted epoch %d next", i, p.Epoch, w, w*per+next[w])
		}
		next[w]++
		if history[i].Epoch != int64(i) {
			t.Fatalf("history[%d] is epoch %d: the ring reads back in epoch order", i, history[i].Epoch)
		}
	}
}

// failingWriter fails every write after the first n.
type failingWriter struct {
	ok int
	n  int
}

func (w *failingWriter) Write(p []byte) (int, error) {
	w.n++
	if w.n > w.ok {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}

func TestEmitCountsWriterFailures(t *testing.T) {
	w := &failingWriter{ok: 2}
	reg := NewRegistry()
	l := NewEventLog(w, NewEpochRing(), reg)
	for i := 0; i < 5; i++ {
		l.Emit(QueryProgress{Epoch: int64(i)})
	}
	if got := reg.Counter("eventLogWriteFailures").Value(); got != 3 {
		t.Errorf("registry counter = %d, want 3", got)
	}
	// Failed writes must not lose the event for history.
	if got := len(l.Recent(0)); got != 5 {
		t.Errorf("history = %d events, want 5", got)
	}
}

// TestEvictionCounted: the registry counts the whole records — progress,
// span tree and lineage together — that aged out of the ring.
func TestEvictionCounted(t *testing.T) {
	reg := NewRegistry()
	l := NewEventLog(nil, NewEpochRing(), reg)
	for i := 0; i < epochRingSlots+7; i++ {
		l.Emit(QueryProgress{Epoch: int64(i)})
	}
	if got := reg.Gauge("eventLogEvicted").Value(); got != 7 {
		t.Errorf("eventLogEvicted = %d, want 7", got)
	}
	recent := l.Recent(0)
	if len(recent) != epochRingSlots || recent[0].Epoch != 7 {
		t.Errorf("recent = %d events from epoch %d", len(recent), recent[0].Epoch)
	}
}
