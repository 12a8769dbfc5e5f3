// Command ssbench regenerates the paper's evaluation figures (§9) that this
// repository reproduces, plus the operational ablations, printing the same
// rows/series the paper reports after one line of machine context:
//
//	ssbench -experiment fig6a     Yahoo! benchmark vs the two baselines
//	ssbench -experiment fig7      continuous-mode latency vs input rate
//	ssbench -experiment recovery  §6.2 one-epoch recovery vs topology rollback
//	ssbench -experiment adaptive  §7.3 adaptive batching after downtime
//	ssbench -experiment all       everything, in order
//
// Fig 6b and the §7.3 run-once cost model are not reproduced; EXPERIMENTS.md
// says why. The repository's benchmark (throughput, latency, recovery and
// per-layer metrics of the five fixed workloads) is `bash benchmark/run.sh`.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"structream/internal/experiments"
)

// sizes are the workload sizes of one ssbench run.
type sizes struct {
	events    int           // fig6a workload
	rounds    int           // fig6a rounds per engine (median and quartiles reported)
	perRate   time.Duration // fig7 time per rate point
	fig7Rates []int64       // fig7 sweep; nil = the figure's own rates
	ops       int           // recovery workload
	backlog   int64         // adaptive: rows accumulated during downtime
}

// experimentNames lists the experiments in the order `all` runs them.
var experimentNames = []string{"fig6a", "fig7", "recovery", "adaptive"}

// retired names experiments ssbench no longer runs, with where to look.
var retired = map[string]string{
	"bench":   "the bench experiment is gone; the repository benchmark is `bash benchmark/run.sh`",
	"fig6b":   "Fig 6b is not reproduced: it was a cost model, not a measurement; see EXPERIMENTS.md, \"Fig 6b — scaling, 1 → 20 nodes\"",
	"runonce": "the run-once cost model is gone; see EXPERIMENTS.md, \"§7.3 — run-once trigger cost savings\"",
}

// runExperiment runs one named experiment and returns its printable result.
func runExperiment(name string, sz sizes, tempDir func() string) (fmt.Stringer, error) {
	switch name {
	case "fig6a":
		return experiments.RunFig6a(sz.events, sz.rounds, tempDir)
	case "fig7":
		return experiments.RunFig7(sz.fig7Rates, sz.perRate, tempDir)
	case "recovery":
		return experiments.RunRecovery(sz.ops, tempDir)
	case "adaptive":
		return experiments.RunAdaptive(sz.backlog, 3, tempDir)
	}
	return nil, fmt.Errorf("unknown experiment %q", name)
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main without the process exit: 0 on success, 1 when an experiment
// fails, 2 on a bad command line.
func run(args []string, stdout, stderr io.Writer) int {
	valid := strings.Join(experimentNames, ", ") + " or all"
	fs := flag.NewFlagSet("ssbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	experiment := fs.String("experiment", "all", valid)
	events := fs.Int("events", 4_000_000, "workload size for fig6a")
	rounds := fs.Int("rounds", 10, "fig6a rounds per engine (median and quartiles reported)")
	rateSecs := fs.Float64("rate-seconds", 1.5, "seconds per rate point in fig7")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := experimentNames
	if *experiment != "all" {
		names = []string{*experiment}
		if !slices.Contains(experimentNames, *experiment) {
			if why, ok := retired[*experiment]; ok {
				fmt.Fprintln(stderr, "ssbench:", why)
			}
			fmt.Fprintf(stderr, "ssbench: unknown experiment %q (valid: %s)\n", *experiment, valid)
			return 2
		}
	}
	sz := sizes{
		events:  *events,
		rounds:  *rounds,
		perRate: time.Duration(*rateSecs * float64(time.Second)),
		ops:     2_000_000,
		backlog: 100_000,
	}
	base, err := os.MkdirTemp("", "ssbench-*")
	if err != nil {
		fmt.Fprintln(stderr, "ssbench:", err)
		return 1
	}
	defer os.RemoveAll(base)
	n := 0
	tempDir := func() string {
		// Checkpoint directories are created by whoever opens them.
		n++
		return filepath.Join(base, strconv.Itoa(n))
	}
	// Machine context first: when, and on what, the numbers below were taken.
	fmt.Fprintf(stdout, "ssbench: %s, %s %s/%s, NumCPU %d, GOMAXPROCS %d\n",
		time.Now().UTC().Format("2006-01-02 15:04 UTC"), runtime.Version(),
		runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	for _, name := range names {
		r, err := runExperiment(name, sz, tempDir)
		if err != nil {
			fmt.Fprintf(stderr, "ssbench: %s: %v\n", name, err)
			return 1
		}
		fmt.Fprintln(stdout, r)
	}
	return 0
}
