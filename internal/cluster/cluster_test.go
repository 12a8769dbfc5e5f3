package cluster

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunStageBasic(t *testing.T) {
	c := New(Config{Nodes: 2, SlotsPerNode: 2})
	tasks := make([]Task, 10)
	for i := range tasks {
		i := i
		tasks[i] = Task{Index: i, Fn: func() (any, error) { return i * i, nil }}
	}
	results, err := c.RunStage(tasks)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r != i*i {
			t.Errorf("result %d = %v", i, r)
		}
	}
	run, failed, _ := c.Stats()
	if run != 10 || failed != 0 {
		t.Errorf("run=%d failed=%d", run, failed)
	}
}

func TestTaskRetryOnFailure(t *testing.T) {
	c := New(Config{Nodes: 2, SlotsPerNode: 1})
	// Task 3 fails on its first two attempts, succeeds on the third.
	c.InjectTaskFailure(func(taskIndex, attempt, nodeID int) error {
		if taskIndex == 3 && attempt < 2 {
			return errors.New("injected fault")
		}
		return nil
	})
	tasks := make([]Task, 5)
	for i := range tasks {
		i := i
		tasks[i] = Task{Index: i, Fn: func() (any, error) { return i, nil }}
	}
	results, err := c.RunStage(tasks)
	if err != nil {
		t.Fatal(err)
	}
	if results[3] != 3 {
		t.Errorf("result = %v", results[3])
	}
	_, failed, _ := c.Stats()
	if failed != 2 {
		t.Errorf("failed = %d, want 2", failed)
	}
}

func TestTaskExhaustsAttempts(t *testing.T) {
	c := New(Config{Nodes: 1, SlotsPerNode: 1, MaxAttempts: 3})
	c.InjectTaskFailure(func(taskIndex, attempt, nodeID int) error {
		if taskIndex == 0 {
			return errors.New("always fails")
		}
		return nil
	})
	_, err := c.RunStage([]Task{{Index: 0, Fn: func() (any, error) { return nil, nil }}})
	if err == nil {
		t.Fatal("expected stage failure")
	}
}

func TestTaskFnErrorRetries(t *testing.T) {
	var calls int32
	c := New(Config{Nodes: 1, SlotsPerNode: 1})
	task := Task{Index: 0, Fn: func() (any, error) {
		if atomic.AddInt32(&calls, 1) < 3 {
			return nil, errors.New("transient")
		}
		return "ok", nil
	}}
	results, err := c.RunStage([]Task{task})
	if err != nil || results[0] != "ok" {
		t.Fatalf("results=%v err=%v", results, err)
	}
}

func TestRescaling(t *testing.T) {
	c := New(Config{Nodes: 1, SlotsPerNode: 1})
	id := c.AddNode()
	if c.NumNodes() != 2 {
		t.Errorf("nodes = %d", c.NumNodes())
	}
	c.RemoveNode(id)
	if c.NumNodes() != 1 {
		t.Errorf("nodes = %d", c.NumNodes())
	}
	// Work still completes after scale-down.
	results, err := c.RunStage([]Task{{Index: 0, Fn: func() (any, error) { return 1, nil }}})
	if err != nil || results[0] != 1 {
		t.Fatalf("results=%v err=%v", results, err)
	}
}

func TestSpeculativeExecution(t *testing.T) {
	c := New(Config{Nodes: 2, SlotsPerNode: 2, SpeculationMultiplier: 1.5,
		SpeculationMinRuntime: 10 * time.Millisecond})
	var slowRuns int32
	tasks := make([]Task, 8)
	for i := range tasks {
		i := i
		tasks[i] = Task{Index: i, Fn: func() (any, error) {
			if i == 7 {
				// Straggling attempt: the first run is very slow, a backup
				// copy returns quickly.
				if atomic.AddInt32(&slowRuns, 1) == 1 {
					time.Sleep(300 * time.Millisecond)
				}
				return "done", nil
			}
			time.Sleep(time.Millisecond)
			return "done", nil
		}}
	}
	start := time.Now()
	results, err := c.RunStage(tasks)
	if err != nil {
		t.Fatal(err)
	}
	if results[7] != "done" {
		t.Errorf("result = %v", results[7])
	}
	_, _, speculated := c.Stats()
	if speculated == 0 {
		t.Error("no speculative copies launched for the straggler")
	}
	if elapsed := time.Since(start); elapsed > 250*time.Millisecond {
		t.Errorf("stage took %v; speculation should beat the 300ms straggler", elapsed)
	}
}

// TestSpeculationRespectsMedianMultiplier is the regression test for the
// monitor ignoring SpeculationMultiplier: a task moderately slower than
// the rest — past SpeculationMinRuntime but well under multiplier×median —
// must NOT get a backup copy.
func TestSpeculationRespectsMedianMultiplier(t *testing.T) {
	c := New(Config{Nodes: 2, SlotsPerNode: 2,
		SpeculationMultiplier: 3.0,
		SpeculationMinRuntime: time.Millisecond})
	tasks := make([]Task, 8)
	for i := range tasks {
		i := i
		tasks[i] = Task{Index: i, Fn: func() (any, error) {
			d := 40 * time.Millisecond
			if i == 7 {
				d = 60 * time.Millisecond // 1.5× median: not a straggler at 3×
			}
			time.Sleep(d)
			return i, nil
		}}
	}
	if _, err := c.RunStage(tasks); err != nil {
		t.Fatal(err)
	}
	if _, _, speculated := c.Stats(); speculated != 0 {
		t.Errorf("speculated %d backups for a task under multiplier×median", speculated)
	}
}

// TestSpeculationTriggersBeyondMedianMultiplier: the same shape of stage,
// but with the slow task well past multiplier×median, does get a backup.
func TestSpeculationTriggersBeyondMedianMultiplier(t *testing.T) {
	c := New(Config{Nodes: 2, SlotsPerNode: 2,
		SpeculationMultiplier: 1.5,
		SpeculationMinRuntime: time.Millisecond})
	var slowRuns int32
	tasks := make([]Task, 8)
	for i := range tasks {
		i := i
		tasks[i] = Task{Index: i, Fn: func() (any, error) {
			if i == 7 && atomic.AddInt32(&slowRuns, 1) == 1 {
				time.Sleep(400 * time.Millisecond) // ≫ 1.5 × ~10ms median
			} else {
				time.Sleep(10 * time.Millisecond)
			}
			return i, nil
		}}
	}
	start := time.Now()
	if _, err := c.RunStage(tasks); err != nil {
		t.Fatal(err)
	}
	if _, _, speculated := c.Stats(); speculated == 0 {
		t.Error("no backup launched for a task far beyond multiplier×median")
	}
	if elapsed := time.Since(start); elapsed > 350*time.Millisecond {
		t.Errorf("stage took %v; the backup copy should beat the straggler", elapsed)
	}
}

// TestRemoveNodeWakesWaiters: tasks queued beyond remaining capacity still
// complete when a node is removed mid-stage, and the blocked acquirers are
// woken rather than left polling a vanished node's slots.
func TestRemoveNodeWakesWaiters(t *testing.T) {
	c := New(Config{Nodes: 2, SlotsPerNode: 1})
	release := make(chan struct{})
	var once sync.Once
	tasks := make([]Task, 6)
	for i := range tasks {
		i := i
		tasks[i] = Task{Index: i, Fn: func() (any, error) {
			once.Do(func() {
				c.RemoveNode(1)
				close(release)
			})
			<-release
			time.Sleep(time.Millisecond)
			return i, nil
		}}
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.RunStage(tasks)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stage hung after RemoveNode: waiters were not woken")
	}
	if c.NumNodes() != 1 {
		t.Errorf("nodes = %d", c.NumNodes())
	}
}

func TestInjectSlowdownStillCorrect(t *testing.T) {
	c := New(Config{Nodes: 2, SlotsPerNode: 1})
	c.InjectSlowdown(0, 3.0)
	tasks := make([]Task, 6)
	for i := range tasks {
		i := i
		tasks[i] = Task{Index: i, Fn: func() (any, error) {
			time.Sleep(time.Millisecond)
			return i, nil
		}}
	}
	results, err := c.RunStage(tasks)
	if err != nil {
		t.Fatal(err)
	}
	for i := range results {
		if results[i] != i {
			t.Errorf("result %d = %v", i, results[i])
		}
	}
}

func TestMedianDuration(t *testing.T) {
	ds := []time.Duration{3, 1, 2}
	if MedianDuration(ds) != 2 {
		t.Error("median")
	}
	if MedianDuration(nil) != 0 {
		t.Error("empty median")
	}
}

func BenchmarkRunStageOverhead(b *testing.B) {
	c := New(Config{Nodes: 1, SlotsPerNode: 1})
	task := []Task{{Index: 0, Fn: func() (any, error) { return nil, nil }}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.RunStage(task); err != nil {
			b.Fatal(err)
		}
	}
}
