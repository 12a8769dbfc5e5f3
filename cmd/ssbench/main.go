// Command ssbench regenerates every figure in the paper's evaluation (§9)
// plus the operational ablations, printing the same rows/series the paper
// reports:
//
//	ssbench -experiment fig6a     Yahoo! benchmark vs the two baselines
//	ssbench -experiment fig6b     scaling sweep over the virtual cluster
//	ssbench -experiment fig7      continuous-mode latency vs input rate
//	ssbench -experiment runonce   §7.3 run-once trigger cost savings
//	ssbench -experiment recovery  §6.2 one-epoch recovery vs topology rollback
//	ssbench -experiment adaptive  §7.3 adaptive batching after downtime
//	ssbench -experiment all       everything, in order
//
// The repository's benchmark (throughput, latency, recovery and per-layer
// metrics of the five fixed workloads) is `bash benchmark/run.sh`.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"structream/internal/experiments"
)

// sizes are the workload sizes of one ssbench run.
type sizes struct {
	events    int           // fig6a workload, fig6b calibration
	rounds    int           // fig6a measurement rounds per engine (best kept)
	perRate   time.Duration // fig7 time per rate point
	fig7Rates []int64       // fig7 sweep; nil = the figure's own rates
	ops       int           // runonce hourly volume, recovery workload
	backlog   int64         // adaptive: rows accumulated during downtime
}

// experimentNames lists the experiments in the order `all` runs them.
var experimentNames = []string{"fig6a", "fig6b", "fig7", "runonce", "recovery", "adaptive"}

// runExperiment runs one named experiment and returns its printable result.
func runExperiment(name string, sz sizes, tempDir func() string) (fmt.Stringer, error) {
	switch name {
	case "fig6a":
		return experiments.RunFig6a(sz.events, sz.rounds, tempDir)
	case "fig6b":
		model, err := experiments.CalibrateYahoo(sz.events, tempDir)
		if err != nil {
			return nil, err
		}
		return experiments.RunFig6b(model, []int{1, 5, 10, 20}, 1_000_000_000, 1000)
	case "fig7":
		return experiments.RunFig7(sz.fig7Rates, sz.perRate, tempDir)
	case "runonce":
		return experiments.RunRunOnce(int64(sz.ops), tempDir)
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
	var (
		experiment = fs.String("experiment", "all", valid)
		events     = fs.Int("events", 4_000_000, "workload size for fig6a/fig6b calibration")
		rounds     = fs.Int("rounds", 3, "measurement rounds per engine (best kept)")
		rateSecs   = fs.Float64("rate-seconds", 1.5, "seconds per rate point in fig7")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := experimentNames
	if *experiment != "all" {
		names = []string{*experiment}
		if !slices.Contains(experimentNames, *experiment) {
			if *experiment == "bench" {
				fmt.Fprintln(stderr, "ssbench: the bench experiment is gone; the repository benchmark is `bash benchmark/run.sh`")
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
