package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// percentile returns the p-quantile (0..1) of xs by linear interpolation
// between closest ranks; 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	return percentileSorted(s, p)
}

func percentileSorted(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	if len(s) == 1 {
		return s[0]
	}
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s[lo] + (s[hi]-s[lo])*frac
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// quiet is the figure a run reports for a measurement it repeated (over the
// repetitions of a workload, the restarts of a recovery, the segments of
// live-serve): the decile on the good side, the 90th percentile of
// throughputs and the 10th of times. Whatever else the sandbox's two cores are
// doing only ever slows a repetition, in bursts that last from a fraction of
// a second to minutes, so a run's median moves with the machine (by 10 % on
// the two-worker workloads) while its good decile is what the code does when
// left alone; a regression in the code slows every repetition and moves
// both. A single measurement is returned as it is.
func quiet(xs []float64, better string) float64 {
	if better == "higher" {
		return percentile(xs, 0.90)
	}
	return percentile(xs, 0.10)
}

// quartiles mirrors Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), which is what the acceptance rule is written against.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(i int) float64 { // i in 1..3
		pos := float64(i) * float64(n+1) / 4 // 1-based rank
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*delta
	}
	return at(1), at(2), at(3)
}

// ratio is a/b, or 0 when b is 0 (layers a workload never touches report 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
