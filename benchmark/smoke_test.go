package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestContract holds BENCHMARK.json and the program's declarations together.
func TestContract(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", b.RunSeconds, defaultSeconds)
	}
	seen := map[string]bool{}
	once := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %s", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the program registers %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		once(w.Name)
		def, ok := workloads[w.Name]
		if !ok {
			t.Errorf("workload %q is not registered", w.Name)
		}
		if !strings.HasSuffix(w.Why, "Frozen: "+def.frozen+".") {
			t.Errorf("workload %q: why must end with the frozen sizes %q", w.Name, "Frozen: "+def.frozen+".")
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json names %d end-to-end metrics, the program %d", len(b.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range b.EndToEnd {
		once(m.Name)
		d := endToEndMetrics[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, program declares %+v", i, m, d)
		}
	}
	if len(b.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json names %d per-layer metrics, the program %d", len(b.PerLayer), len(perLayerMetrics))
	}
	for i, m := range b.PerLayer {
		once(m.Name)
		if d := perLayerMetrics[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("per_layer[%d] = %+v, program declares %+v", i, m, d)
		}
	}
}

// TestSmoke runs every workload at 1/100 size, untraced and traced.
func TestSmoke(t *testing.T) {
	b := loadBenchmarkJSON(t)
	for _, w := range b.Workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			out := t.TempDir()
			cfg := config{workload: w.Name, seed: 7, seconds: 1, scale: 0.01, outDir: out}

			res, err := runWorkload(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("untraced: correct=%v attempted=%d failed=%d notes=%v", res.Correct, res.Attempted, res.Failed, res.Notes)
			}
			if len(res.Metrics) != len(b.EndToEnd) {
				t.Errorf("untraced run printed %d metrics, want %d", len(res.Metrics), len(b.EndToEnd))
			}
			for _, m := range b.EndToEnd {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || got.Value <= 0 {
					t.Errorf("end-to-end metric %s: got %+v (present=%v), want a positive value in %s", m.Name, got, ok, m.Unit)
				}
			}
			for _, key := range []string{"nproc", "gomaxprocs", "go", "commit", "sizes", "flush_policy"} {
				if _, ok := res.Context[key]; !ok {
					t.Errorf("result context lacks %q", key)
				}
			}

			cfg.trace = true
			res, err = runWorkload(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("traced: correct=%v attempted=%d failed=%d notes=%v", res.Correct, res.Attempted, res.Failed, res.Notes)
			}
			if len(res.Metrics) != len(b.PerLayer) {
				t.Errorf("traced run printed %d metrics, want %d", len(res.Metrics), len(b.PerLayer))
			}
			for _, m := range b.PerLayer {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("per-layer metric %s: got %+v (present=%v)", m.Name, got, ok)
				}
				stateless := w.Name == "map-bulk" || w.Name == "live-serve"
				if stateless && (strings.HasPrefix(m.Name, "state.") || strings.HasPrefix(m.Name, "lsm.")) && got.Value != 0 {
					t.Errorf("%s must read 0 on %s, got %v", m.Name, w.Name, got.Value)
				}
				if w.Name != "live-serve" && strings.HasPrefix(m.Name, "serve.") && got.Value != 0 {
					t.Errorf("%s must read 0 on %s, got %v", m.Name, w.Name, got.Value)
				}
			}
			for _, must := range []string{"sources.read_rows", "engine.epochs", "wal.files_epoch", "sinks.add_calls"} {
				if res.Metrics[must].Value <= 0 {
					t.Errorf("%s should be positive on every workload, got %v", must, res.Metrics[must].Value)
				}
			}
			checkTrace(t, filepath.Join(out, w.Name+".trace.jsonl"))
		})
	}
}

// checkTrace parses the span file: ids are unique, every span ends after it
// starts, and every span but the run roots has a parent that exists.
func checkTrace(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatalf("%s holds no spans", path)
	}
	ids := map[int64]string{}
	for _, s := range spans {
		if _, dup := ids[s.ID]; dup {
			t.Errorf("span id %d is used twice", s.ID)
		}
		ids[s.ID] = s.Name
		if s.End < s.Start {
			t.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
	}
	epochs := 0
	for _, s := range spans {
		switch {
		case s.Parent == 0:
			if s.Name != "run" && s.Name != "restart" {
				t.Errorf("span %d (%s) has no parent", s.ID, s.Name)
			}
		case ids[s.Parent] == "":
			t.Errorf("span %d (%s) names parent %d, which does not exist", s.ID, s.Name, s.Parent)
		}
		if s.Name == "engine.epoch" {
			epochs++
		}
	}
	if epochs == 0 {
		t.Errorf("%s holds no epoch span", path)
	}
}
