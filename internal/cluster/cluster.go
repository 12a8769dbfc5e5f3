// Package cluster implements the task-based execution substrate that the
// paper's microbatch mode inherits from Spark (§6.2): stages of small
// independent tasks scheduled over worker nodes, with retry on task
// failure, speculative backup copies for stragglers, and dynamic rescaling.
// Fault and straggler injection hooks make the §6.2 recovery claims
// testable.
package cluster

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Task is one unit of work in a stage. Fn must be safe to execute more than
// once (attempts may race with a speculative copy); the first completion
// wins, exactly as in Spark.
type Task struct {
	// Index identifies the task within its stage (its partition).
	Index int
	// Fn performs the work and returns the task result.
	Fn func() (any, error)
	// NoSpeculate excludes the task from straggler backup copies. Set it
	// when Fn mutates shared structures (a state store) and a concurrent
	// duplicate would race the winning attempt rather than merely waste a
	// slot. Sequential retry after failure is still allowed — only the
	// concurrent speculative copy is suppressed.
	NoSpeculate bool
}

// Config describes the simulated cluster.
type Config struct {
	// Nodes is the initial number of worker nodes.
	Nodes int
	// SlotsPerNode is the task slots (cores) per node.
	SlotsPerNode int
	// MaxAttempts bounds retries per task (default 4, like Spark).
	MaxAttempts int
	// SpeculationMultiplier launches a backup copy of a task running longer
	// than this multiple of the median completed task duration (0 disables
	// speculation). 1.5 matches Spark's default quantile behaviour roughly.
	SpeculationMultiplier float64
	// SpeculationMinRuntime avoids speculating on very short tasks.
	SpeculationMinRuntime time.Duration
}

func (c Config) withDefaults() Config {
	if c.Nodes <= 0 {
		c.Nodes = 1
	}
	if c.SlotsPerNode <= 0 {
		c.SlotsPerNode = 1
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.SpeculationMinRuntime <= 0 {
		c.SpeculationMinRuntime = 20 * time.Millisecond
	}
	return c
}

// Cluster executes stages of tasks over simulated nodes.
type Cluster struct {
	cfg Config

	mu        sync.Mutex
	slotFree  *sync.Cond // signaled when a slot frees up or topology changes
	nodes     []*node
	nextNode  int64
	taskFail  func(taskIndex, attempt, nodeID int) error
	slowdowns map[int]float64

	// Metrics.
	tasksRun    int64
	tasksFailed int64
	speculated  int64
	stagesRun   int64
	taskNanos   int64 // summed attempt wall time — CPU-time-ish occupancy
}

type node struct {
	id      int
	free    int // free task slots, guarded by Cluster.mu
	removed bool
}

// New creates a cluster.
func New(cfg Config) *Cluster {
	cfg = cfg.withDefaults()
	c := &Cluster{cfg: cfg, slowdowns: map[int]float64{}}
	c.slotFree = sync.NewCond(&c.mu)
	for i := 0; i < cfg.Nodes; i++ {
		c.addNodeLocked()
	}
	return c
}

func (c *Cluster) addNodeLocked() *node {
	n := &node{id: int(c.nextNode), free: c.cfg.SlotsPerNode}
	c.nextNode++
	c.nodes = append(c.nodes, n)
	return n
}

// AddNode scales the cluster up by one node and returns its id.
func (c *Cluster) AddNode() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.addNodeLocked()
	c.slotFree.Broadcast()
	return n.id
}

// RemoveNode scales the cluster down. Running tasks finish; new tasks skip
// the node. Waiters are woken so nobody keeps waiting on capacity that no
// longer exists.
func (c *Cluster) RemoveNode(id int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, n := range c.nodes {
		if n.id == id {
			n.removed = true
			c.nodes = append(c.nodes[:i], c.nodes[i+1:]...)
			c.slotFree.Broadcast()
			return
		}
	}
}

// NumNodes reports the current node count.
func (c *Cluster) NumNodes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.nodes)
}

// InjectTaskFailure installs a fault hook: when it returns non-nil, that
// task attempt fails with the returned error instead of running.
func (c *Cluster) InjectTaskFailure(fn func(taskIndex, attempt, nodeID int) error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.taskFail = fn
}

// InjectSlowdown makes a node run tasks slower by the given factor (>1),
// simulating a straggler.
func (c *Cluster) InjectSlowdown(nodeID int, factor float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.slowdowns[nodeID] = factor
}

// Stats reports counters for monitoring and tests.
func (c *Cluster) Stats() (run, failed, speculated int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tasksRun, c.tasksFailed, c.speculated
}

// DetailedStats is the full counter snapshot for the monitoring surface.
type DetailedStats struct {
	TasksRun    int64
	TasksFailed int64
	Speculated  int64
	StagesRun   int64
	// TaskTime is the summed wall time of every task attempt — together
	// with stage wall time it shows how well the slots were utilized.
	TaskTime time.Duration
}

// DetailedStats reports every scheduler counter at once.
func (c *Cluster) DetailedStats() DetailedStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return DetailedStats{
		TasksRun:    c.tasksRun,
		TasksFailed: c.tasksFailed,
		Speculated:  c.speculated,
		StagesRun:   c.stagesRun,
		TaskTime:    time.Duration(c.taskNanos),
	}
}

// acquireSlot blocks until a live node has a free slot and claims it.
// Waiting is a condition-variable park, not a poll: a slot release, an
// added node, or a removed node wakes waiters exactly once, so draining a
// removed node cannot spin-burn CPU the way the old channel loop could.
func (c *Cluster) acquireSlot() *node {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		for _, n := range c.nodes {
			if n.free > 0 {
				n.free--
				return n
			}
		}
		c.slotFree.Wait()
	}
}

// releaseSlot returns a claimed slot. A node observed removed after
// acquisition still gets its token back — the count is simply never
// handed out again because removed nodes leave c.nodes — so no capacity
// leaks if the node were ever re-added.
func (c *Cluster) releaseSlot(n *node) {
	c.mu.Lock()
	if n.free < c.cfg.SlotsPerNode {
		n.free++
	}
	c.slotFree.Broadcast()
	c.mu.Unlock()
}

// taskState tracks one logical task across attempts.
type taskState struct {
	mu       sync.Mutex
	done     bool
	result   any
	err      error
	attempts int
	started  time.Time
	running  int
	duration time.Duration // runtime of the attempt that completed the task
}

// RunStage executes all tasks, blocking until every one has a result (or a
// task exhausts its attempts). Results are ordered by task index. This is
// the fine-grained recovery path of §6.2: a failed task is retried alone,
// in parallel, with no whole-topology rollback.
func (c *Cluster) RunStage(tasks []Task) ([]any, error) {
	c.mu.Lock()
	c.stagesRun++
	c.mu.Unlock()
	states := make([]*taskState, len(tasks))
	for i := range states {
		states[i] = &taskState{}
	}
	errCh := make(chan error, len(tasks)+8)
	doneCh := make(chan struct{}, len(tasks))

	var launch func(i int, speculative bool)
	launch = func(i int, speculative bool) {
		st := states[i]
		for {
			st.mu.Lock()
			if st.done || st.attempts >= c.cfg.MaxAttempts {
				st.mu.Unlock()
				return
			}
			attempt := st.attempts
			st.attempts++
			st.running++
			if st.running == 1 {
				st.started = time.Now()
			}
			st.mu.Unlock()

			n := c.acquireSlot()
			attStart := time.Now()
			result, err := c.runAttempt(tasks[i], attempt, n)
			attElapsed := time.Since(attStart)
			c.releaseSlot(n)

			st.mu.Lock()
			st.running--
			if st.done {
				st.mu.Unlock()
				return // another attempt won
			}
			if err == nil {
				st.done = true
				st.result = result
				st.duration = attElapsed
				st.mu.Unlock()
				doneCh <- struct{}{}
				return
			}
			exhausted := st.attempts >= c.cfg.MaxAttempts && st.running == 0
			st.mu.Unlock()
			c.mu.Lock()
			c.tasksFailed++
			c.mu.Unlock()
			if exhausted {
				errCh <- fmt.Errorf("cluster: task %d failed after %d attempts: %w", i, c.cfg.MaxAttempts, err)
				return
			}
			if speculative {
				return // backups do not retry; the original owns retries
			}
		}
	}

	for i := range tasks {
		go launch(i, false)
	}

	// Speculation monitor: while tasks run, launch backup copies of
	// laggards (straggler mitigation, §6.2).
	stop := make(chan struct{})
	var monWG sync.WaitGroup
	if c.cfg.SpeculationMultiplier > 0 {
		monWG.Add(1)
		go func() {
			defer monWG.Done()
			ticker := time.NewTicker(5 * time.Millisecond)
			defer ticker.Stop()
			for {
				select {
				case <-stop:
					return
				case <-ticker.C:
				}
				var durations []time.Duration
				now := time.Now()
				for _, st := range states {
					st.mu.Lock()
					if st.done {
						durations = append(durations, st.duration)
					}
					st.mu.Unlock()
				}
				if len(durations)*2 < len(states) {
					continue // need half the stage done to judge the median
				}
				// A task is a straggler only past multiplier × the median
				// completed runtime, and never below the minimum runtime —
				// without the median test, any task slower than the minimum
				// would get a pointless backup copy.
				threshold := c.cfg.SpeculationMinRuntime
				if t := time.Duration(float64(MedianDuration(durations)) * c.cfg.SpeculationMultiplier); t > threshold {
					threshold = t
				}
				for i, st := range states {
					if tasks[i].NoSpeculate {
						continue
					}
					st.mu.Lock()
					runningLong := !st.done && st.running == 1 &&
						now.Sub(st.started) > threshold &&
						st.attempts < c.cfg.MaxAttempts
					st.mu.Unlock()
					if runningLong {
						c.mu.Lock()
						c.speculated++
						c.mu.Unlock()
						go launch(i, true)
					}
				}
			}
		}()
	}

	// Wait for every task to complete once (a zombie straggler attempt may
	// keep running after its backup copy won; it releases its slot on its
	// own, exactly as Spark lets superseded attempts finish).
	var stageErr error
	for completed := 0; completed < len(tasks) && stageErr == nil; {
		select {
		case <-doneCh:
			completed++
		case err := <-errCh:
			stageErr = err
		}
	}
	close(stop)
	monWG.Wait()
	if stageErr != nil {
		return nil, stageErr
	}
	out := make([]any, len(tasks))
	for i, st := range states {
		st.mu.Lock()
		if !st.done {
			st.mu.Unlock()
			return nil, fmt.Errorf("cluster: task %d did not complete", i)
		}
		out[i] = st.result
		st.mu.Unlock()
	}
	return out, nil
}

func (c *Cluster) runAttempt(t Task, attempt int, n *node) (any, error) {
	c.mu.Lock()
	c.tasksRun++
	failHook := c.taskFail
	slowdown := c.slowdowns[n.id]
	c.mu.Unlock()
	if failHook != nil {
		if err := failHook(t.Index, attempt, n.id); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	result, err := t.Fn()
	if err != nil {
		c.mu.Lock()
		c.taskNanos += time.Since(start).Nanoseconds()
		c.mu.Unlock()
		return nil, err
	}
	if slowdown > 1 {
		time.Sleep(time.Duration(float64(time.Since(start)) * (slowdown - 1)))
	}
	c.mu.Lock()
	c.taskNanos += time.Since(start).Nanoseconds()
	c.mu.Unlock()
	return result, nil
}

// MedianDuration is a small helper exported for tests and the bench
// harness.
func MedianDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[len(sorted)/2]
}
