package shard

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestPartitionPoolOrdering checks that Run returns results in task-index
// order regardless of completion order.
func TestPartitionPoolOrdering(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	res, err := p.Run(16, func(i int) (any, error) {
		// Reverse the natural completion order: high indexes finish first.
		time.Sleep(time.Duration(16-i) * time.Millisecond)
		return i * 10, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r != i*10 {
			t.Fatalf("slot %d = %v, want %d", i, r, i*10)
		}
	}
	st := p.Stats()
	if st.Workers != 4 || st.TasksRun != 16 || st.StagesRun != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BusyNanos <= 0 {
		t.Fatalf("busyNanos = %d, want > 0", st.BusyNanos)
	}
}

// TestPartitionPoolErrorLowestIndex checks that every task settles even
// when several fail, and the reported error is the lowest failed index.
func TestPartitionPoolErrorLowestIndex(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	var ran atomic.Int64
	boom := errors.New("boom")
	_, err := p.Run(9, func(i int) (any, error) {
		ran.Add(1)
		if i%3 == 1 { // tasks 1, 4, 7 fail
			return nil, fmt.Errorf("task %d: %w", i, boom)
		}
		return i, nil
	})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if !strings.Contains(err.Error(), "task 1") {
		t.Fatalf("err = %v, want the lowest failed index (1)", err)
	}
	if n := ran.Load(); n != 9 {
		t.Fatalf("ran %d tasks, want all 9 to settle despite failures", n)
	}
}

// TestPartitionPoolPanic checks that a panicking task surfaces as an error
// and leaves the pool usable.
func TestPartitionPoolPanic(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	_, err := p.Run(1, func(int) (any, error) { panic("kaboom") })
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v, want panic surfaced as error", err)
	}
	res, err := p.Run(1, func(int) (any, error) { return "ok", nil })
	if err != nil || res[0] != "ok" {
		t.Fatalf("pool unusable after panic: res=%v err=%v", res, err)
	}
}

// TestPartitionPoolClose checks close is idempotent and post-close Run fails.
func TestPartitionPoolClose(t *testing.T) {
	p := NewPool(2)
	p.Close()
	p.Close()
	if _, err := p.Run(1, func(int) (any, error) { return 1, nil }); err == nil {
		t.Fatal("Run on a closed pool should fail")
	}
}

// TestPartitionPoolCloseUnderRunningStage: an owner that has given up on a
// wedged task closes the pool while Run is still handing tasks out. The
// idle worker exits, the unstarted task fails instead of panicking on a
// closed queue, and Close returns once the wedged task does.
func TestPartitionPoolCloseUnderRunningStage(t *testing.T) {
	p := NewPool(1)
	started, release := make(chan struct{}), make(chan struct{})
	var ranSecond atomic.Bool
	runErr := make(chan error, 1)
	go func() {
		_, err := p.Run(2, func(i int) (any, error) {
			if i == 1 {
				ranSecond.Store(true)
				return nil, nil
			}
			close(started)
			<-release
			return nil, nil
		})
		runErr <- err
	}()
	<-started
	closed := make(chan struct{})
	go func() { p.Close(); close(closed) }()
	select {
	case err := <-runErr:
		t.Fatalf("Run returned %v with task 0 still running", err)
	case <-closed:
		t.Fatal("Close returned with task 0 still running")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if err := <-runErr; err == nil || !strings.Contains(err.Error(), "task 1: pool is closed") {
		t.Fatalf("err = %v, want task 1 refused by the closed pool", err)
	}
	<-closed
	if ranSecond.Load() {
		t.Fatal("a task started after Close")
	}
}

// TestPartitionRangeContiguity fuzzes Range: slices must be contiguous,
// ordered, cover [from, to) exactly, and differ in length by at most one
// with the longer slices first.
func TestPartitionRangeContiguity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		from := int64(rng.Intn(1000)) - 100
		total := int64(rng.Intn(2000))
		to := from + total
		of := 1 + rng.Intn(12)
		prevHi := from
		minLen, maxLen := int64(1<<62), int64(-1)
		seenShort := false
		for n := 0; n < of; n++ {
			lo, hi := Range(from, to, n, of)
			if lo != prevHi {
				t.Fatalf("[%d,%d) of=%d: slice %d starts at %d, want %d", from, to, of, n, lo, prevHi)
			}
			if hi < lo {
				t.Fatalf("[%d,%d) of=%d: slice %d inverted [%d,%d)", from, to, of, n, lo, hi)
			}
			ln := hi - lo
			if ln < minLen {
				minLen = ln
			}
			if ln > maxLen {
				maxLen = ln
			}
			if seenShort && ln == maxLen && maxLen > minLen {
				t.Fatalf("[%d,%d) of=%d: long slice %d after a short one", from, to, of, n)
			}
			if ln == minLen && maxLen > minLen {
				seenShort = true
			}
			prevHi = hi
		}
		if prevHi != to {
			t.Fatalf("[%d,%d) of=%d: slices end at %d", from, to, of, prevHi)
		}
		if maxLen-minLen > 1 {
			t.Fatalf("[%d,%d) of=%d: slice lengths differ by %d", from, to, of, maxLen-minLen)
		}
	}
}

// TestPartitionRangeDegenerate covers the clamping edges.
func TestPartitionRangeDegenerate(t *testing.T) {
	if lo, hi := Range(5, 5, 0, 4); lo != 5 || hi != 5 {
		t.Fatalf("empty range: [%d,%d)", lo, hi)
	}
	if lo, hi := Range(9, 3, 0, 2); lo != hi {
		t.Fatalf("inverted range must clamp empty: [%d,%d)", lo, hi)
	}
	if lo, hi := Range(0, 10, 0, 0); lo != 0 || hi != 10 {
		t.Fatalf("of<1 must clamp to 1: [%d,%d)", lo, hi)
	}
}

// TestPartitionSplit checks the minPerShard floor, determinism, and that
// Split agrees with Range slice for slice.
func TestPartitionSplit(t *testing.T) {
	// 100 records, 8 workers, min 30 per shard → ceil(100/30) = 4 shards.
	s := Split(0, 100, 8, 30)
	if len(s) != 4 {
		t.Fatalf("got %d shards, want 4: %v", len(s), s)
	}
	for i, sh := range s {
		lo, hi := Range(0, 100, i, len(s))
		if sh[0] != lo || sh[1] != hi {
			t.Fatalf("shard %d = %v, Range says [%d,%d)", i, sh, lo, hi)
		}
	}
	// Tiny ranges collapse to one shard; empty ranges to none.
	if s := Split(40, 45, 8, 256); len(s) != 1 || s[0] != [2]int64{40, 45} {
		t.Fatalf("tiny range: %v", s)
	}
	if s := Split(7, 7, 4, 1); s != nil {
		t.Fatalf("empty range: %v", s)
	}
	// Pure function: same inputs, same plan.
	a, b := Split(123, 9876, 6, 64), Split(123, 9876, 6, 64)
	if len(a) != len(b) {
		t.Fatalf("nondeterministic split: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic shard %d: %v vs %v", i, a[i], b[i])
		}
	}
}
