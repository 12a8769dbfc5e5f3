package experiments

import (
	"fmt"
	"sort"
)

// VirtualCluster is a discrete-event scheduler over simulated nodes. It
// exists because this reproduction runs on one physical core: the Fig 6b
// scaling experiment replays *measured* per-task costs (calibrated from a
// real single-core run of the same operators) through a simulated 1–20
// node cluster and reports virtual-time throughput. The model captures the
// three costs that shape Spark's microbatch scaling: per-task work,
// per-task scheduling overhead, and the per-stage barrier (a stage ends
// when its slowest slot finishes).
type VirtualCluster struct {
	// Nodes and SlotsPerNode define the simulated topology.
	Nodes        int
	SlotsPerNode int
	// TaskOverheadSec is the fixed scheduling/launch cost charged per task,
	// the source of microbatch mode's minimum-latency floor (§6.2).
	TaskOverheadSec float64
	// NodeSpeed optionally scales per-node execution (index = node id,
	// value 1.0 = nominal; 0.5 = half speed straggler). Missing = 1.0.
	NodeSpeed map[int]float64

	clock float64
}

// Clock returns the current virtual time in seconds.
func (v *VirtualCluster) Clock() float64 { return v.clock }

// VirtualTask is one task's cost in virtual seconds at nominal node speed.
type VirtualTask struct {
	Index   int
	CostSec float64
}

// ScheduleStage schedules the tasks over the simulated slots (greedy list
// scheduling: each task goes to the earliest-available slot, matching a
// work-stealing scheduler's behaviour for independent tasks) and advances
// the clock by the stage makespan, which it returns.
func (v *VirtualCluster) ScheduleStage(tasks []VirtualTask) (float64, error) {
	if v.Nodes <= 0 || v.SlotsPerNode <= 0 {
		return 0, fmt.Errorf("experiments: virtual cluster needs nodes and slots")
	}
	nslots := v.Nodes * v.SlotsPerNode
	// slotFree[i] = virtual time when slot i is next free (relative to
	// stage start); slot i belongs to node i / SlotsPerNode.
	slotFree := make([]float64, nslots)
	// Longest-processing-time-first improves balance, as real schedulers
	// approximate by launching large partitions early.
	order := append([]VirtualTask(nil), tasks...)
	sort.Slice(order, func(i, j int) bool { return order[i].CostSec > order[j].CostSec })
	for _, t := range order {
		// Earliest available slot.
		best := 0
		for s := 1; s < nslots; s++ {
			if slotFree[s] < slotFree[best] {
				best = s
			}
		}
		speed := 1.0
		if v.NodeSpeed != nil {
			if f, ok := v.NodeSpeed[best/v.SlotsPerNode]; ok && f > 0 {
				speed = f
			}
		}
		slotFree[best] += v.TaskOverheadSec + t.CostSec/speed
	}
	makespan := 0.0
	for _, f := range slotFree {
		if f > makespan {
			makespan = f
		}
	}
	v.clock += makespan
	return makespan, nil
}

// UniformStage builds n equal-cost tasks totalling totalCostSec.
func UniformStage(n int, totalCostSec float64) []VirtualTask {
	tasks := make([]VirtualTask, n)
	for i := range tasks {
		tasks[i] = VirtualTask{Index: i, CostSec: totalCostSec / float64(n)}
	}
	return tasks
}

// EpochModel bundles the calibrated costs of one microbatch epoch of a
// two-stage (map + reduce) job, in seconds of single-core work.
// CalibrateYahoo measures these on the real engine; RunFig6b sweeps cluster
// sizes.
type EpochModel struct {
	// MapCostPerRecord is single-core seconds of map-side work per input
	// record (read, decode, filter, project, window, partial aggregation).
	MapCostPerRecord float64
	// ReduceCostPerGroup is single-core seconds per distinct group merged
	// into state on the reduce side.
	ReduceCostPerGroup float64
	// ShuffleCostPerRecord is serialization+transfer cost per shuffled
	// record (map-side partial-aggregate outputs).
	ShuffleCostPerRecord float64
	// EpochOverheadSec is the fixed per-epoch coordination cost (offset
	// logging, commit, barrier) charged once per epoch on the driver.
	EpochOverheadSec float64
}

// SimulateEpoch runs one epoch of the model over the virtual cluster:
// a map stage over inputPartitions, then a reduce stage over
// reducePartitions, plus the fixed driver overhead. It returns the epoch's
// virtual duration in seconds.
func (v *VirtualCluster) SimulateEpoch(m EpochModel, records int64, shuffled int64, groups int64, inputPartitions, reducePartitions int) (float64, error) {
	mapTasks := UniformStage(inputPartitions, float64(records)*m.MapCostPerRecord+float64(shuffled)*m.ShuffleCostPerRecord)
	mapSpan, err := v.ScheduleStage(mapTasks)
	if err != nil {
		return 0, err
	}
	reduceTasks := UniformStage(reducePartitions, float64(groups)*m.ReduceCostPerGroup+float64(shuffled)*m.ShuffleCostPerRecord)
	reduceSpan, err := v.ScheduleStage(reduceTasks)
	if err != nil {
		return 0, err
	}
	v.clock += m.EpochOverheadSec
	return mapSpan + reduceSpan + m.EpochOverheadSec, nil
}
