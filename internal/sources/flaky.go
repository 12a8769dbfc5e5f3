package sources

import (
	"sync"

	"structream/internal/sql"
)

// FlakySource wraps any Source with deterministic fault hooks for fault
// and restart tests: scheduled transient/fatal read errors and an
// on-demand stall that hangs a Read until released — the ingredients of
// the §6.2 recovery story (a flaky executor, a hung fetch). The wrapper
// preserves replayability: faults affect only whether a Read returns, not
// what it returns.
type FlakySource struct {
	Inner Source

	mu        sync.Mutex
	failErr   error
	failLeft  int
	stalled   bool
	stallCh   chan struct{}
	stallSeen chan struct{} // closed when a reader hits the stall
	seenFired bool
}

// NewFlakySource wraps inner with an empty fault schedule.
func NewFlakySource(inner Source) *FlakySource {
	return &FlakySource{Inner: inner}
}

// FailReads makes the next n Reads return err (transient errors exercise
// the engine's retry; anything else fails the epoch).
func (s *FlakySource) FailReads(err error, n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failErr, s.failLeft = err, n
}

// StallReads makes every subsequent Read block until ReleaseStall — a
// hung fetch for the epoch watchdog to catch. Stalled returns a channel
// closed when the first reader actually blocks.
func (s *FlakySource) StallReads() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.stalled {
		s.stalled = true
		s.stallCh = make(chan struct{})
		s.stallSeen = make(chan struct{})
		s.seenFired = false
	}
	return s.stallSeen
}

// ReleaseStall unblocks stalled and future Reads.
func (s *FlakySource) ReleaseStall() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stalled {
		s.stalled = false
		close(s.stallCh)
	}
}

// Name implements Source.
func (s *FlakySource) Name() string { return s.Inner.Name() }

// Schema implements Source.
func (s *FlakySource) Schema() sql.Schema { return s.Inner.Schema() }

// Partitions implements Source.
func (s *FlakySource) Partitions() int { return s.Inner.Partitions() }

// Latest implements Source.
func (s *FlakySource) Latest() (Offsets, error) { return s.Inner.Latest() }

// Earliest implements Source.
func (s *FlakySource) Earliest() (Offsets, error) { return s.Inner.Earliest() }

// NotifyArrival forwards ArrivalNotifier: faults affect reads, not the news
// that there is something to read.
func (s *FlakySource) NotifyArrival(ch chan<- struct{}) (stop func(), ok bool) {
	return forwardArrival(s.Inner, ch)
}

// Read implements Source, applying scheduled faults first.
func (s *FlakySource) Read(p int, from, to int64) ([]sql.Row, error) {
	s.mu.Lock()
	if s.failLeft > 0 {
		s.failLeft--
		err := s.failErr
		s.mu.Unlock()
		return nil, err
	}
	stalled, ch := s.stalled, s.stallCh
	if stalled && !s.seenFired {
		s.seenFired = true
		close(s.stallSeen)
	}
	s.mu.Unlock()
	if stalled {
		<-ch
	}
	return s.Inner.Read(p, from, to)
}
