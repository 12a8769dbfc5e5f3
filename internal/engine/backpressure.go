package engine

import (
	"errors"
	"fmt"
	"time"

	"structream/internal/metrics"
)

// ErrEpochTimeout marks an epoch that exceeded Options.EpochTimeout: a
// source, task, or sink hung rather than failed. The epoch watchdog fails
// the query with this error, and the caller restarts it from the
// checkpoint — a hung epoch is indistinguishable from a dead executor, and
// the remedy is the same (§6.2).
var ErrEpochTimeout = errors.New("engine: epoch exceeded EpochTimeout")

// minAdaptiveCap is the floor the adaptive limiter will never shrink the
// per-epoch record cap below, so a struggling query still makes progress.
const minAdaptiveCap = 16

// aimdLimiter adapts the per-epoch record cap with the classic
// additive-increase / multiplicative-decrease rule used by admission
// controllers: when an epoch takes longer than the target latency, the cap
// collapses to half the observed intake (multiplicative decrease), and
// while the query keeps up it regrows by cap/8 per epoch (additive-ish
// increase). Recovery from a backlog therefore degrades into several
// bounded epochs instead of one giant epoch that blows the trigger
// interval — the failure mode §7.3's adaptive batching alone does not
// prevent.
//
// The limiter reads the per-stage latency histograms the engine maintains
// so every cap change carries an explanation naming the bottleneck stage
// and its p95 — visible in QueryProgress.BackpressureDecision.
//
// cap == 0 means "not engaged": intake is unlimited (or limited only by
// the static MaxRecordsPerTrigger) until the first overrun is observed.
type aimdLimiter struct {
	target time.Duration // per-epoch latency budget
	floor  int64         // never shrink below this
	ceil   int64         // never grow beyond this (0 = unbounded)
	cap    int64         // current cap (0 = not engaged)

	reg      *metrics.Registry // per-stage histograms for explanations
	decision string            // latest human-readable verdict
}

// newAIMDLimiter builds a limiter honoring the static cap as ceiling. The
// registry supplies the per-stage latency histograms quoted in decisions;
// it may be nil (decisions then omit the percentile evidence).
func newAIMDLimiter(target time.Duration, staticCap int64, reg *metrics.Registry) *aimdLimiter {
	floor := int64(minAdaptiveCap)
	if staticCap > 0 && floor > staticCap {
		floor = staticCap
	}
	return &aimdLimiter{target: target, floor: floor, ceil: staticCap, reg: reg}
}

// Cap returns the current adaptive cap (0 = not engaged / unlimited).
func (l *aimdLimiter) Cap() int64 { return l.cap }

// Decision returns the limiter's latest human-readable verdict: what it
// did to the cap and which stage's latency drove the call. Empty until the
// limiter first engages.
func (l *aimdLimiter) Decision() string { return l.decision }

// blame names the dominant DurationBreakdown stage together with its
// histogram p95 — the evidence a cap change is justified by.
func (l *aimdLimiter) blame(breakdown map[string]int64) string {
	stage := metrics.BottleneckStage(breakdown)
	if stage == "" {
		return "no stage breakdown"
	}
	if l.reg != nil {
		if h := l.reg.Histogram("stage." + stage + ".us"); h.Count() > 0 {
			p95 := time.Duration(h.Snapshot().P95) * time.Microsecond
			return fmt.Sprintf("bottleneck %s (p95 %v)", stage, p95.Round(time.Microsecond))
		}
	}
	return fmt.Sprintf("bottleneck %s", stage)
}

// Observe feeds one completed epoch's latency, intake, and per-stage
// duration breakdown into the rule.
func (l *aimdLimiter) Observe(elapsed time.Duration, inputRows int64, breakdown map[string]int64) {
	if l.target <= 0 || inputRows <= 0 {
		return
	}
	if elapsed > l.target {
		l.shed(inputRows, func() string {
			return fmt.Sprintf("epoch took %v > target %v; %s", elapsed.Round(time.Microsecond), l.target, l.blame(breakdown))
		})
		return
	}
	if l.cap == 0 {
		return // keeping up while unlimited: nothing to regrow
	}
	if elapsed*2 <= l.target || inputRows < l.cap {
		// Caught up (latency headroom, or the backlog is drained and
		// epochs run under the cap): additive increase.
		step := l.cap / 8
		if step < 1 {
			step = 1
		}
		l.cap += step
		if l.ceil > 0 && l.cap > l.ceil {
			l.cap = l.ceil
		}
		l.decision = fmt.Sprintf("cap →%d: keeping up (epoch %v ≤ target %v)",
			l.cap, elapsed.Round(time.Microsecond), l.target)
	}
}

// ObserveBacklog feeds the LSM flush backlog into the rule. Sealed
// memtables piling up faster than background maintenance drains them is
// latency debt the epoch timer has not seen yet: left alone it ends in the
// hard synchronous-fallback stall and, eventually, the watchdog. Once the
// backlog exceeds one sealed memtable per store, intake halves — with a
// decision naming the backlog rather than a stage, so the operator sees
// why the engine is shedding while epochs still look fast.
func (l *aimdLimiter) ObserveBacklog(backlog, stores, inputRows int64) {
	if l.target <= 0 || inputRows <= 0 || stores <= 0 || backlog <= stores {
		return
	}
	l.shed(inputRows, func() string {
		return fmt.Sprintf("lsm flush backlog %d sealed memtables across %d stores; shedding intake so maintenance can drain", backlog, stores)
	})
}

// shed is the multiplicative decrease, from what was actually attempted
// and not from the stale cap: the first overrun of an uncapped epoch must
// engage the limiter at half the intake that hurt. why is rendered only
// when the cap does change.
func (l *aimdLimiter) shed(inputRows int64, why func() string) {
	next := max(inputRows/2, l.floor)
	if l.cap != 0 && next >= l.cap {
		return
	}
	prev := "∞"
	if l.cap > 0 {
		prev = fmt.Sprintf("%d", l.cap)
	}
	l.cap = next
	l.decision = fmt.Sprintf("cap %s→%d: %s", prev, next, why())
}
