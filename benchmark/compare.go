package main

import (
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// runCompare prints, per workload × end-to-end metric, each set's median and
// quartiles and a verdict:
//
//	agree       the medians are within the metric's bound of each other
//	differ      set B's median is better or worse than set A's by more than the bound
//	unresolved  a set's own spread (Q3−Q1 over the median) is wider than the bound,
//	            so the comparison cannot tell a change from noise
//
// It returns 0 only when every pairing agrees. A set is a directory searched
// recursively for *.result.json files (or a glob of such files).
func runCompare(w io.Writer, setA, setB string) int {
	a, err := loadSet(setA)
	if err == nil && len(a) == 0 {
		err = fmt.Errorf("no *.result.json under %s", setA)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: -compare:", err)
		return 2
	}
	b, err := loadSet(setB)
	if err == nil && len(b) == 0 {
		err = fmt.Errorf("no *.result.json under %s", setB)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: -compare:", err)
		return 2
	}
	names := map[string]bool{}
	for k := range a {
		names[k] = true
	}
	for k := range b {
		names[k] = true
	}
	var wls []string
	for k := range names {
		wls = append(wls, k)
	}
	sort.Strings(wls)

	bad := 0
	fmt.Fprintf(w, "%-11s %-18s %4s %12s %12s %12s %7s   %4s %12s %12s %12s %7s   %8s  %s\n",
		"workload", "metric", "nA", "q1", "median", "q3", "spread", "nB", "q1", "median", "q3", "spread", "B vs A", "verdict")
	for _, wl := range wls {
		sa, sb := a[wl], b[wl]
		if sa == nil || sb == nil {
			fmt.Fprintf(w, "%-11s missing from one set\n", wl)
			bad++
			continue
		}
		for _, m := range endToEndMetrics {
			va, vb := sa.values[m.name], sb.values[m.name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-11s %-18s missing from one set\n", wl, m.name)
				bad++
				continue
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			spreadA, spreadB := ratio(a3-a1, a2), ratio(b3-b1, b2)
			delta := ratio(b2-a2, a2)
			verdict := "agree"
			switch {
			case spreadA > m.bound || spreadB > m.bound:
				verdict = "unresolved"
			case delta > m.bound || delta < -m.bound:
				worse := (delta > 0) == (m.better == "lower")
				verdict = "differ (better)"
				if worse {
					verdict = "differ (worse)"
				}
			}
			if verdict != "agree" {
				bad++
			}
			fmt.Fprintf(w, "%-11s %-18s %4d %12.5g %12.5g %12.5g %6.1f%%   %4d %12.5g %12.5g %12.5g %6.1f%%   %+7.1f%%  %s\n",
				wl, m.name, len(va), a1, a2, a3, 100*spreadA, len(vb), b1, b2, b3, 100*spreadB, 100*delta, verdict)
		}
		if f := sa.failed + sb.failed; f > 0 {
			fmt.Fprintf(w, "%-11s %d failed operations across the two sets\n", wl, f)
			bad++
		}
	}
	if bad > 0 {
		fmt.Fprintf(w, "%d pairing(s) do not agree\n", bad)
		return 1
	}
	return 0
}

type resultSet struct {
	values map[string][]float64
	failed int64
}

// loadSet groups the untraced results under path by workload.
func loadSet(path string) (map[string]*resultSet, error) {
	var files []string
	if fi, err := os.Stat(path); err == nil && fi.IsDir() {
		err := filepath.WalkDir(path, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() && strings.HasSuffix(p, ".result.json") {
				files = append(files, p)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	} else {
		var err error
		if files, err = filepath.Glob(path); err != nil {
			return nil, err
		}
	}
	sets := map[string]*resultSet{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r resultFile
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if r.Trace {
			continue
		}
		s := sets[r.Workload]
		if s == nil {
			s = &resultSet{values: map[string][]float64{}}
			sets[r.Workload] = s
		}
		s.failed += r.Failed
		for name, m := range r.Metrics {
			s.values[name] = append(s.values[name], m.Value)
		}
	}
	return sets, nil
}
