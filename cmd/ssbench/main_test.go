package main

import (
	"bytes"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestExperimentsRunByName runs every experiment ssbench still offers, at
// sizes small enough for the race detector, and checks each renders its
// own header.
func TestExperimentsRunByName(t *testing.T) {
	tiny := sizes{
		events:    50_000,
		rounds:    1,
		perRate:   300 * time.Millisecond,
		fig7Rates: []int64{20_000},
		ops:       50_000,
		backlog:   2_000,
	}
	headers := map[string]string{
		"fig6a":    "Fig 6a",
		"fig7":     "Fig 7",
		"recovery": "recovery",
		"adaptive": "adaptive batching",
	}
	if len(headers) != len(experimentNames) {
		t.Fatalf("test covers %d experiments, ssbench offers %v", len(headers), experimentNames)
	}
	for _, name := range experimentNames {
		t.Run(name, func(t *testing.T) {
			base, n := t.TempDir(), 0
			r, err := runExperiment(name, tiny, func() string {
				n++
				return filepath.Join(base, strconv.Itoa(n))
			})
			if err != nil {
				t.Fatal(err)
			}
			if out := r.String(); !strings.Contains(out, headers[name]) {
				t.Errorf("output lacks %q:\n%s", headers[name], out)
			}
		})
	}
}

// TestUnknownExperimentIsRejected: a name that matches nothing must not
// exit 0 in silence — and a retired name, which scripts may still pass, is
// told why it is gone and where to look.
func TestUnknownExperimentIsRejected(t *testing.T) {
	for _, tc := range []struct{ name, want string }{
		{"nosuch", `unknown experiment "nosuch" (valid: fig6a, fig7, recovery, adaptive or all)`},
		{"bench", "bash benchmark/run.sh"},
		{"fig6b", `EXPERIMENTS.md, "Fig 6b — scaling, 1 → 20 nodes"`},
		{"runonce", `EXPERIMENTS.md, "§7.3 — run-once trigger cost savings"`},
	} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-experiment", tc.name}, &stdout, &stderr); code != 2 {
			t.Errorf("%s: exit code %d, want 2", tc.name, code)
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%s: stderr %q lacks %q", tc.name, stderr.String(), tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: printed %q to stdout", tc.name, stdout.String())
		}
	}
}

// TestRunPrintsMachineContextFirst: the numbers a run prints carry the
// toolchain and the parallelism they were taken with, on the first line.
func TestRunPrintsMachineContextFirst(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-experiment", "fig6a", "-events", "2000", "-rounds", "1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d: %s", code, stderr.String())
	}
	first, rest, _ := strings.Cut(stdout.String(), "\n")
	for _, want := range []string{runtime.Version(), "GOMAXPROCS " + strconv.Itoa(runtime.GOMAXPROCS(0))} {
		if !strings.Contains(first, want) {
			t.Errorf("first line %q lacks %q", first, want)
		}
	}
	if !strings.HasPrefix(rest, "Fig 6a") {
		t.Errorf("the figure does not follow the context line:\n%s", stdout.String())
	}
}
