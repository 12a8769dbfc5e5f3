package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// cpuChooser confines every thread of the process, and so every thread it
// starts later, to one CPU: whichever of the CPUs it may run on is fastest
// when asked. GOMAXPROCS is left alone: a two-worker workload still runs two
// workers, which then share the CPU.
//
// Why one CPU: the sandbox's second CPU is worth between half a core and a
// whole one depending on the minute (the two behave like hyper-threads of one
// core, or like two CPUs capped together). Ten alternating ysb-bulk runs
// spread 29 % free and 2.9 % confined. Wall-clock scaling over two such CPUs
// is not a measurement; on one CPU the two-worker workloads measure what the
// sharded path costs in all, the switches between its workers included.
//
// Why the fastest: each CPU on its own also loses half its speed for minutes
// at a time, presumably to another tenant on the other thread of its core. In
// one set of runs four consecutive agg-spill runs took twice as long in every
// phase, set-up included, on CPU 0, while a probe on CPU 1 read full speed.
// A nil chooser (the smoke test) does nothing.
type cpuChooser struct {
	allowed  []int
	current  int
	switches int
}

// cpuMask is a sched_setaffinity mask of 8192 CPUs.
type cpuMask [128]uint64

// maxProbed bounds how many CPUs are probed each time.
const maxProbed = 4

func newCPUChooser() (*cpuChooser, error) {
	var mask cpuMask
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return nil, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	c := &cpuChooser{current: -1}
	for cpu := 0; cpu < len(mask)*64 && len(c.allowed) < maxProbed; cpu++ {
		if mask[cpu/64]&(1<<(cpu%64)) != 0 {
			c.allowed = append(c.allowed, cpu)
		}
	}
	if len(c.allowed) == 0 {
		return nil, fmt.Errorf("sched_getaffinity: empty CPU mask")
	}
	return c, c.choose()
}

// choose probes the allowed CPUs and moves the process to the fastest. It
// stays where it is unless another CPU is at least a tenth faster: a move
// costs the caches. Call it between measurements, never inside one.
func (c *cpuChooser) choose() error {
	if c == nil {
		return nil
	}
	best, bestTime := c.current, time.Duration(0)
	for _, cpu := range c.allowed {
		d, err := probeCPU(cpu)
		if err != nil {
			return err
		}
		if cpu == c.current {
			d = d * 9 / 10
		}
		if best < 0 || bestTime == 0 || d < bestTime {
			best, bestTime = cpu, d
		}
	}
	if best != c.current && c.current >= 0 {
		c.switches++
	}
	c.current = best
	return confine(best)
}

var probeSink uint64

// probeCPU times a fixed compute loop on cpu (the best of three, a third of a
// millisecond each).
func probeCPU(cpu int) (time.Duration, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var one cpuMask
	one[cpu/64] = 1 << (cpu % 64)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(one), uintptr(unsafe.Pointer(&one))); errno != 0 {
		return 0, fmt.Errorf("sched_setaffinity(cpu %d): %w", cpu, errno)
	}
	var best time.Duration
	for round := 0; round < 3; round++ {
		t0 := time.Now()
		x := uint64(round + 1)
		for i := 0; i < 1_000_000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		probeSink += x
		if d := time.Since(t0); round == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// confine sets the affinity of every thread of the process to cpu. A thread
// started while the others are being confined inherits the mask its creator
// had at that instant, so the threads are listed and confined until a pass
// finds nothing new.
func confine(cpu int) error {
	var one cpuMask
	one[cpu/64] = 1 << (cpu % 64)
	done := map[int]bool{}
	for pass := 0; pass < 8; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		fresh := 0
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil || done[tid] {
				continue
			}
			if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(one), uintptr(unsafe.Pointer(&one))); errno != 0 && errno != syscall.ESRCH {
				return fmt.Errorf("sched_setaffinity(thread %d, cpu %d): %w", tid, cpu, errno)
			}
			done[tid] = true
			fresh++
		}
		if fresh == 0 {
			break
		}
	}
	return nil
}

// describe is what a result file says about where the run ran.
func (c *cpuChooser) describe() map[string]any {
	if c == nil {
		return map[string]any{"confined": false}
	}
	return map[string]any{"confined": true, "allowed": c.allowed, "last": c.current, "moves": c.switches}
}
