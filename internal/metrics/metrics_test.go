package metrics

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestCountersAndGauges(t *testing.T) {
	r := NewRegistry()
	r.Counter("rows").Add(5)
	r.Counter("rows").Add(3) // same counter instance
	r.Gauge("watermark").Set(42)
	r.Gauge("watermark").Set(99)
	snap := r.Snapshot()
	if snap["rows"] != 8 || snap["watermark"] != 99 {
		t.Errorf("snapshot = %v", snap)
	}
	if len(snap) != 2 {
		t.Errorf("snapshot holds %d names, want 2: %v", len(snap), snap)
	}
}

func TestCountersConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("n").Add(1)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("n").Value(); got != 8000 {
		t.Errorf("n = %d", got)
	}
}

func TestEventLogHistory(t *testing.T) {
	var buf bytes.Buffer
	l := NewEventLog(&buf, NewEpochRing(), nil)
	for i := 0; i < 5; i++ {
		l.Emit(QueryProgress{Epoch: int64(i), NumInputRows: int64(i * 10)})
	}
	if got := strings.Count(buf.String(), "\n"); got != 5 {
		t.Fatalf("writer got %d lines, want 5", got)
	}
	recent := l.Recent(2)
	if len(recent) != 2 || recent[0].Epoch != 3 || recent[1].Epoch != 4 {
		t.Errorf("recent = %v", recent)
	}
	all := l.Recent(0)
	if len(all) != 5 {
		t.Errorf("all = %d", len(all))
	}
}

func TestEventLogJSONOutput(t *testing.T) {
	var buf bytes.Buffer
	l := NewEventLog(&buf, NewEpochRing(), nil)
	l.Emit(QueryProgress{QueryName: "q", Epoch: 7, NumInputRows: 100, WatermarkMicros: 5})
	line := strings.TrimSpace(buf.String())
	var p QueryProgress
	if err := json.Unmarshal([]byte(line), &p); err != nil {
		t.Fatalf("bad JSON %q: %v", line, err)
	}
	if p.QueryName != "q" || p.Epoch != 7 || p.WatermarkMicros != 5 {
		t.Errorf("parsed = %+v", p)
	}
}
