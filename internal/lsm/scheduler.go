package lsm

import (
	"math/rand"
	"sync"
)

// MaintenanceScheduler decides where and how much LSM maintenance (memtable
// flush, size-tiered compaction, manifest publication) runs relative to
// commits. Production uses the supervised background goroutine; the crash
// torture harness swaps in a seeded scheduler so the exact same maintenance
// code path runs inline at commit boundaries, keeping the mutating-op
// schedule deterministic for fsx.FaultFS crash-point enumeration — the
// maintenance analogue of FaultFS itself.
type MaintenanceScheduler interface {
	// Async reports whether maintenance runs on a background goroutine
	// supervised by the tree. When false, maintenance runs inline on the
	// committing goroutine and StepsAfterCommit controls how much.
	Async() bool
	// StepsAfterCommit returns how many maintenance steps (one step = one
	// memtable flush or one compaction merge, each followed by a manifest
	// publication) to run inline after a commit, given the current flush
	// backlog. Negative means drain: run steps until none is pending.
	// Unused when Async is true.
	StepsAfterCommit(backlog int) int
}

// syncScheduler is the fully synchronous mode: every commit drains all
// pending maintenance before returning. This is the pre-background behavior
// and the golden reference the crash sweeps converge against.
type syncScheduler struct{}

// SyncScheduler returns the fully synchronous scheduler: every commit
// drains all pending maintenance before it returns.
func SyncScheduler() MaintenanceScheduler { return syncScheduler{} }

func (syncScheduler) Async() bool              { return false }
func (syncScheduler) StepsAfterCommit(int) int { return -1 }

// asyncScheduler hands all maintenance to the tree's background goroutine;
// commits wait only on their own delta's durability (plus the hard backlog
// ceiling as a last resort).
type asyncScheduler struct{}

func (asyncScheduler) Async() bool              { return true }
func (asyncScheduler) StepsAfterCommit(int) int { return 0 }

// SeededScheduler runs the background-maintenance code path inline at
// commit boundaries, choosing a pseudo-random (but seed-reproducible)
// number of steps after each commit. Two runs with the same seed and the
// same commit sequence produce the same interleaving of commits and
// maintenance steps — and therefore the same mutating-op schedule on the
// filesystem, which is what lets the torture harness crash at every op
// inside a "concurrent" flush or compaction and replay it exactly.
type SeededScheduler struct {
	mu  sync.Mutex
	rng *rand.Rand
}

// NewSeededScheduler returns a deterministic scheduler for the given seed.
// Each tree sharing the instance draws from one stream, so per-tree
// schedules stay reproducible only if the commit order across trees is
// itself deterministic (single-threaded harnesses; the torture suite runs
// one partition).
func NewSeededScheduler(seed int64) *SeededScheduler {
	return &SeededScheduler{rng: rand.New(rand.NewSource(seed))}
}

func (s *SeededScheduler) Async() bool { return false }

func (s *SeededScheduler) StepsAfterCommit(backlog int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Ranges over [0, backlog+1]: sometimes defer everything (backlog
	// grows, exercising the ceiling), sometimes overshoot into compaction.
	return s.rng.Intn(backlog + 2)
}
