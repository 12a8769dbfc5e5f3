package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// A span is one timed call across a layer boundary, recorded by the harness
// around a public entry point (nothing is recorded inside the engine).
// Times are nanoseconds since the recorder was created. Spans of one epoch
// share Epoch and have the epoch span as Parent; epoch spans hang off the
// run span of their repetition, and run spans are roots (Parent 0).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Epoch  int64  `json:"epoch"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Rows   int64  `json:"rows,omitempty"`
	Bytes  int64  `json:"bytes,omitempty"`
	SelfNs int64  `json:"self_ns,omitempty"`
}

// recorder keeps spans in memory; they are written once, at exit.
type recorder struct {
	t0 time.Time

	mu      sync.Mutex
	spans   []span
	nextID  int64
	run     int64 // current run span id (0 = none)
	runIdx  int   // its index in spans
	pending []int // indexes of call spans not yet adopted by an epoch
	lastCut int64 // end of the previous epoch span (or run start)
}

func newRecorder() *recorder { return &recorder{t0: time.Now(), nextID: 1} }

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// mark returns the id the next span will get: spans recorded before a mark
// have smaller ids.
func (r *recorder) mark() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.nextID
}

// beginRun opens a root span for one engine run (a repetition or a restart).
func (r *recorder) beginRun(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.now()
	r.spans = append(r.spans, span{ID: r.nextID, Name: name, Epoch: -1, Start: now})
	r.run, r.runIdx = r.nextID, len(r.spans)-1
	r.nextID++
	r.lastCut = now
	r.pending = r.pending[:0]
}

// endRun closes the run span; calls made after the last commit (shutdown,
// background maintenance draining) are adopted by the run span itself.
func (r *recorder) endRun() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.run == 0 {
		return
	}
	now := r.now()
	for _, i := range r.pending {
		r.spans[i].Parent = r.run
	}
	r.pending = r.pending[:0]
	r.spans[r.runIdx].End = now
	r.run = 0
}

// call records one layer call. Its parent is settled at the next commit.
func (r *recorder) call(name string, start, end, rows, bytes int64) {
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: r.nextID, Parent: r.run, Name: name, Epoch: -1, Start: start, End: end, Rows: rows, Bytes: bytes})
	r.nextID++
	r.pending = append(r.pending, len(r.spans)-1)
	r.mu.Unlock()
}

// commit closes the epoch span ending now: microbatch epochs run one at a
// time, so every call since the previous commit belongs to this epoch. The
// epoch starts with its planning poll — the last sources.latest call before
// the first call of any other kind. Earlier polls found nothing to do (a
// processing-time trigger polls every millisecond) and stay with the run.
func (r *recorder) commit(epoch int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.now()
	id := r.nextID
	r.nextID++
	first := 0
	for k, i := range r.pending {
		if r.spans[i].Name != "sources.latest" {
			break
		}
		first = k
	}
	start := r.lastCut
	if len(r.pending) > 0 && r.spans[r.pending[first]].Start > start {
		start = r.spans[r.pending[first]].Start
	}
	r.spans = append(r.spans, span{ID: id, Parent: r.run, Name: "engine.epoch", Epoch: epoch, Start: start, End: now})
	for _, i := range r.pending[first:] {
		r.spans[i].Parent = id
		r.spans[i].Epoch = epoch
	}
	r.pending = r.pending[:0]
	r.lastCut = now
}

// finish computes self times (span minus the union of its children).
func (r *recorder) finish() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := map[int64][][2]int64{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range r.spans {
		s := &r.spans[i]
		s.SelfNs = (s.End - s.Start) - unionWithin(children[s.ID], s.Start, s.End)
	}
	return r.spans
}

// unionWithin is the total length of the union of ivs clipped to [lo, hi].
func unionWithin(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	for _, iv := range ivs {
		a, b := iv[0], iv[1]
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b <= a {
			continue
		}
		if curHi < 0 || a > curHi {
			if curHi >= 0 {
				total += curHi - curLo
			}
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	if curHi >= 0 {
		total += curHi - curLo
	}
	return total
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanAgg sums spans by name.
type spanAgg struct {
	calls, rows, bytes, busyNs int64
}

func aggregate(spans []span) map[string]*spanAgg {
	out := map[string]*spanAgg{}
	for _, s := range spans {
		a := out[s.Name]
		if a == nil {
			a = &spanAgg{}
			out[s.Name] = a
		}
		a.calls++
		a.rows += s.Rows
		a.bytes += s.Bytes
		a.busyNs += s.End - s.Start
	}
	return out
}
