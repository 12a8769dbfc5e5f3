// Command benchmark is the repository's benchmark: five workloads, five
// end-to-end metrics from an untraced run, per-layer metrics from a traced
// run. See README.md in this directory; BENCHMARK.json at the repository
// root is the machine-readable contract.
//
//	go run . --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	go run . -compare <setA> <setB>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// scale shrinks every frozen size (the smoke test runs at 0.01).
	scale float64
	// cpus keeps the process on one CPU (see pin.go); nil leaves it alone
	// (the smoke test).
	cpus *cpuChooser
	// outDir receives the trace file, the full result file and scratch
	// checkpoints; relative to the working directory.
	outDir string
}

// shrink shortens a time budget on scaled-down runs: a 1/100-size smoke run
// gets a tenth of every duration.
func (c config) shrink(d time.Duration) time.Duration {
	if f := c.scale * 10; f < 1 {
		return time.Duration(float64(d) * f)
	}
	return d
}

// reps is how many times a repeated workload runs its frozen input. The
// frozen count belongs to run_seconds; another --seconds changes it in
// proportion, never the size of one repetition. The count is settled before
// the first repetition starts: no clock is consulted while measuring.
func (c config) reps(frozen int) int {
	n := (frozen*c.seconds + defaultSeconds/2) / defaultSeconds
	if c.scale < 1 || n < 2 {
		return 2
	}
	return n
}

// scaled applies cfg.scale to a frozen size, keeping it at least min.
func (c config) scaled(n, min int64) int64 {
	v := int64(float64(n) * c.scale)
	if v < min {
		v = min
	}
	return v
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output: exactly these keys.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// resultFile is the full record of a run, with its context.
type resultFile struct {
	Workload  string               `json:"workload"`
	Trace     bool                 `json:"trace"`
	Seed      int64                `json:"seed"`
	Seconds   int                  `json:"seconds"`
	Scale     float64              `json:"scale"`
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
	Context   map[string]any       `json:"context"`
	Notes     map[string]any       `json:"notes,omitempty"`
}

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	fl := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var cfg config
	var trace int
	var compare bool
	fl.StringVar(&cfg.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fl.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fl.IntVar(&cfg.seconds, "seconds", defaultSeconds, "how long the timed section measures; the frozen sizes are calibrated for the default")
	fl.IntVar(&trace, "trace", 0, "1 = traced run (per-layer metrics), 0 = untraced (end-to-end metrics)")
	fl.Float64Var(&cfg.scale, "scale", 1, "shrink every frozen size by this factor (smoke tests)")
	fl.StringVar(&cfg.outDir, "out", filepath.Join("benchmark", "out"), "directory for trace, result and scratch files")
	fl.BoolVar(&compare, "compare", false, "compare two sets of result files: -compare <setA> <setB>")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if compare {
		if fl.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare <setA> <setB>  (directories or globs of *.result.json)")
			return 2
		}
		return runCompare(os.Stdout, fl.Arg(0), fl.Arg(1))
	}
	cfg.trace = trace != 0
	cpus, err := newCPUChooser()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	cfg.cpus = cpus
	res, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	line, err := json.Marshal(resultLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: res.Metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runWorkload runs one workload and writes its result (and trace) files.
func runWorkload(cfg config) (*resultFile, error) {
	def, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if cfg.seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1")
	}
	if cfg.scale <= 0 || cfg.scale > 1 {
		return nil, fmt.Errorf("--scale must be in (0, 1]")
	}
	if p := runtime.GOMAXPROCS(0); p < def.workers {
		return nil, fmt.Errorf("workload %s needs GOMAXPROCS >= %d workers, have %d", cfg.workload, def.workers, p)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	// The engine's flight recorder (health is on, as by default) writes its
	// diagnostic bundles to the real filesystem whatever Options.FS is.
	healthDir, err := os.MkdirTemp(cfg.outDir, "health-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(healthDir)

	e := &env{cfg: cfg, fs: newMemFS(), healthDir: healthDir}
	if cfg.trace {
		e.rec = newRecorder()
	}
	started := time.Now()
	out, err := def.run(e)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}

	res := &resultFile{
		Workload: cfg.workload, Trace: cfg.trace, Seed: cfg.seed, Seconds: cfg.seconds, Scale: cfg.scale,
		Attempted: out.attempted, Failed: out.failed, Correct: out.failed == 0 && out.attempted > 0,
		Metrics: map[string]metricOut{}, Notes: out.notes,
		Context: runContext(cfg, def, time.Since(started)),
	}
	if cfg.trace {
		for _, m := range perLayerMetrics {
			res.Metrics[m.name] = metricOut{Value: out.perLayer[m.name], Unit: m.unit}
		}
		for name := range out.perLayer {
			if _, ok := res.Metrics[name]; !ok {
				return nil, fmt.Errorf("internal: per-layer metric %q is not declared", name)
			}
		}
		spans := e.rec.finish()
		if err := writeSpans(filepath.Join(cfg.outDir, cfg.workload+".trace.jsonl"), spans); err != nil {
			return nil, err
		}
		res.Context["trace.spans"] = len(spans)
	} else {
		for _, m := range endToEndMetrics {
			v, ok := out.endToEnd[m.name]
			if !ok {
				return nil, fmt.Errorf("internal: end-to-end metric %q was not measured", m.name)
			}
			res.Metrics[m.name] = metricOut{Value: v, Unit: m.unit}
		}
	}
	if v, ok := out.perLayer["gen.late_ms_p99"]; ok {
		res.Context["gen.late_ms_p99"] = v
	} else if v, ok := out.notes["gen.late_ms_p99"]; ok {
		res.Context["gen.late_ms_p99"] = v
	}
	kind := "result"
	if cfg.trace {
		kind = "traced"
	}
	name := fmt.Sprintf("%s.seed%d.%s.json", cfg.workload, cfg.seed, kind)
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(cfg.outDir, name), append(data, '\n'), 0o644); err != nil {
		return nil, err
	}
	return res, nil
}

// runContext is the machine and configuration context every result carries.
func runContext(cfg config, def workloadDef, took time.Duration) map[string]any {
	return map[string]any{
		"nproc":        runtime.NumCPU(),
		"pinned_cpu":   cfg.cpus.describe(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"go":           runtime.Version(),
		"commit":       gitCommit(),
		"workers":      def.workers,
		"sizes":        def.sizes(cfg),
		"flush_policy": "none: every checkpoint is written to the benchmark's in-memory fsx.FS (memfs.go); file-system and fsync time in a sandbox are not device measurements, so WAL and state write cost is reported as counts and bytes",
		"gogc":         envOr("GOGC", "default"),
		"wall_s":       took.Seconds(),
	}
}

func envOr(k, def string) string {
	if v := os.Getenv(k); v != "" {
		return v
	}
	return def
}

// gitCommit is the checked-out commit, or "unknown" outside a git checkout
// (the acceptance driver runs from an exported tree).
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	if sha, err := os.ReadFile(filepath.Join(".git", strings.TrimPrefix(ref, "ref: "))); err == nil {
		return strings.TrimSpace(string(sha))
	}
	return ref
}
