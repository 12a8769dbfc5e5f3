package experiments

import (
	"fmt"
	"math"
	"testing"
)

func TestVirtualStageMakespan(t *testing.T) {
	v := &VirtualCluster{Nodes: 2, SlotsPerNode: 2}
	// 8 tasks of 1s on 4 slots = 2s makespan.
	span, err := v.ScheduleStage(UniformStage(8, 8.0))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(span-2.0) > 1e-9 {
		t.Errorf("makespan = %v", span)
	}
	if v.Clock() != span {
		t.Errorf("clock = %v", v.Clock())
	}
}

func TestVirtualTaskOverhead(t *testing.T) {
	v := &VirtualCluster{Nodes: 1, SlotsPerNode: 1, TaskOverheadSec: 0.1}
	span, _ := v.ScheduleStage(UniformStage(5, 5.0))
	if math.Abs(span-5.5) > 1e-9 {
		t.Errorf("makespan = %v", span)
	}
}

func TestVirtualStragglerNode(t *testing.T) {
	v := &VirtualCluster{Nodes: 2, SlotsPerNode: 1, NodeSpeed: map[int]float64{1: 0.5}}
	// 2 tasks of 1s: fast node does one in 1s, slow node takes 2s.
	span, _ := v.ScheduleStage(UniformStage(2, 2.0))
	if math.Abs(span-2.0) > 1e-9 {
		t.Errorf("makespan = %v", span)
	}
}

func TestVirtualScalingIsNearLinear(t *testing.T) {
	// The property behind Fig 6b: with per-task overhead small relative to
	// work, doubling nodes roughly halves the makespan.
	model := EpochModel{
		MapCostPerRecord:     100e-9,
		ReduceCostPerGroup:   1e-6,
		ShuffleCostPerRecord: 50e-9,
		EpochOverheadSec:     0.01,
	}
	// Large epochs amortize the fixed per-epoch overhead, as sustained
	// throughput measurement does.
	const records, shuffled, groups = 100_000_000, 10_000, 100
	spanFor := func(nodes int) float64 {
		v := &VirtualCluster{Nodes: nodes, SlotsPerNode: 8, TaskOverheadSec: 0.001}
		span, err := v.SimulateEpoch(model, records, shuffled, groups, nodes*8, nodes*8)
		if err != nil {
			t.Fatal(err)
		}
		return span
	}
	t1, t20 := spanFor(1), spanFor(20)
	speedup := t1 / t20
	if speedup < 14 || speedup > 20.5 {
		t.Errorf("1→20 node speedup = %.1f, want near-linear (14–20)", speedup)
	}
}

func TestVirtualErrors(t *testing.T) {
	v := &VirtualCluster{}
	if _, err := v.ScheduleStage(UniformStage(1, 1)); err == nil {
		t.Error("zero-node virtual cluster should error")
	}
}

func ExampleVirtualCluster() {
	v := &VirtualCluster{Nodes: 4, SlotsPerNode: 2}
	span, _ := v.ScheduleStage(UniformStage(16, 16))
	fmt.Printf("%.1fs\n", span)
	// Output: 2.0s
}
