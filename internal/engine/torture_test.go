package engine

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"structream/internal/fsx"
	"structream/internal/incremental"
	"structream/internal/lsm"
	"structream/internal/sinks"
	"structream/internal/sources"
	"structream/internal/sql"
	"structream/internal/sql/logical"
)

// The torture workload: a stateful sliding-window aggregation in Update
// mode over a deterministic preloaded source, split into several epochs by
// MaxRecordsPerTrigger, writing to a JSON file sink. Update mode is used
// deliberately: its output depends only on the epochs' offset ranges (which
// the WAL pins exactly), not on the watermark, whose restored value is one
// epoch stale after a restart — so every recovery path must converge to
// byte-identical sink files.

func tortureSource(rows int) *sources.MemorySource {
	src := sources.NewMemorySource("events", eventsSchema)
	for i := 0; i < rows; i++ {
		src.AddData(sql.Row{fmt.Sprintf("k%d", i%3), 1.0, int64(i) * sec})
	}
	return src
}

func torturePlan(t *testing.T) *incremental.Query {
	t.Helper()
	plan := &logical.Aggregate{
		Child: streamScan("events"),
		Keys: []sql.Expr{
			sql.NewWindow(sql.Col("ts"), 10*time.Second, 5*time.Second),
			sql.Col("k"),
		},
		Aggs: []logical.NamedAgg{{Agg: sql.CountAll(), Name: "cnt"}},
	}
	return compile(t, plan, logical.Update, nil)
}

// launchTorture starts the torture query over ckpt/sinkDir on fsys, with
// tune applied to its options, and drives it to completion (or to the
// injected fault). One source partition and one shuffle partition keep the
// filesystem op schedule fully deterministic, which is what makes
// crash-at-op-N reproducible.
func launchTorture(t *testing.T, ckpt, sinkDir string, fsys fsx.FS, rows int, tune ...func(*Options)) (*StreamingQuery, error) {
	t.Helper()
	sink := &sinks.JSONFileSink{Dir: sinkDir, FS: fsys}
	opts := Options{
		Checkpoint:           ckpt,
		FS:                   fsys,
		NumPartitions:        1,
		MaxRecordsPerTrigger: 8,
		Trigger:              ProcessingTimeTrigger{Interval: time.Hour}, // driven manually
		RetryBackoff:         time.Microsecond,
	}
	for _, fn := range tune {
		fn(&opts)
	}
	sq, err := Start(torturePlan(t), map[string]sources.Source{"events": tortureSource(rows)}, sink, opts)
	if err != nil {
		return nil, err
	}
	t.Cleanup(func() { sq.Stop() })
	return sq, sq.ProcessAllAvailable()
}

func runTorture(t *testing.T, ckpt, sinkDir string, fsys fsx.FS, rows int, tune ...func(*Options)) error {
	t.Helper()
	_, err := launchTorture(t, ckpt, sinkDir, fsys, rows, tune...)
	return err
}

// spillEveryCommit is the torture runs' 1-byte memtable: every state commit
// flushes an SSTable and the tier fills up enough to compact inside the
// workload, so crash points land between flush, compaction output, and
// manifest writes.
func spillEveryCommit(o *Options) { o.StateMemtableBytes = 1 }

// dirContents reads every file in dir into a name→bytes map.
func dirContents(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return out
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = data
	}
	return out
}

// dirNames lists dir's entries, files and directories, in name order.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	for i, de := range entries {
		names[i] = de.Name()
	}
	return names
}

func sinkDiff(golden, got map[string][]byte) string {
	var diffs []string
	for name, want := range golden {
		if g, ok := got[name]; !ok {
			diffs = append(diffs, fmt.Sprintf("missing %s", name))
		} else if !bytes.Equal(want, g) {
			diffs = append(diffs, fmt.Sprintf("%s differs:\n--- golden\n%s--- got\n%s", name, want, g))
		}
	}
	for name := range got {
		if _, ok := golden[name]; !ok {
			diffs = append(diffs, fmt.Sprintf("extra %s", name))
		}
	}
	return strings.Join(diffs, "\n")
}

// opCategory maps a traced filesystem op onto the protocol step it belongs
// to: offsets-write, state-commit, state-structure (LSM flush/compaction
// outputs and manifests), sink-write, or commit-marker (§6.1).
func opCategory(t *testing.T, op fsx.Op) string {
	t.Helper()
	p := filepath.ToSlash(op.Path)
	switch {
	case strings.Contains(p, "/offsets/"):
		return "offsets-write"
	case strings.Contains(p, "/commits/"):
		return "commit-marker"
	case strings.Contains(p, ".delta"):
		return "state-commit"
	case strings.Contains(p, ".sst") || strings.Contains(p, ".manifest"):
		return "state-structure"
	case strings.Contains(p, "part-") || strings.Contains(p, "result.json"):
		return "sink-write"
	default:
		t.Fatalf("op touches an unexpected path: %+v", op)
		return ""
	}
}

// TestCrashRecoveryTorture crashes the query at EVERY mutating filesystem
// operation of the workload — before the op, mid-write (torn), and after
// the op but before the acknowledgement, rotating per crash point — then
// restarts from the checkpoint and asserts the sink converges to output
// byte-identical to a crash-free run. This is the paper's exactly-once
// claim (§6.1) tested against the failure model it actually depends on.
func TestCrashRecoveryTorture(t *testing.T) {
	crashSweepTorture(t)
}

// TestCrashRecoveryTortureLSM repeats the full crash sweep with a memtable
// that spills at every commit, which adds SSTable flushes, compaction
// outputs, and manifest writes to the op schedule — so the sweep crashes
// mid-flush and mid-compaction too. Maintenance is pinned to synchronous
// drain so every commit's op schedule includes its flush and any compaction
// it triggers, keeping crash points maximally adversarial (a crash can land
// between a delta and the flush it feeds).
func TestCrashRecoveryTortureLSM(t *testing.T) {
	crashSweepTorture(t, spillEveryCommit, func(o *Options) { o.StateSyncMaintenance = true })
}

// TestCrashRecoveryTortureLSMBackground sweeps the engine's DEFAULT mode:
// background maintenance, with the seeded scheduler standing in for the
// goroutine so the op schedule stays deterministic (the scheduler runs the
// same flush/compaction steps inline at commit boundaries, in an order
// drawn from a fixed seed — exactly what the async goroutine would do,
// minus the nondeterministic interleaving). The tune closure builds a
// FRESH scheduler per run, so every run replays the identical schedule
// and crash point N lands inside the same maintenance step every time.
// RetainEpochs=2 forces GC of retired deltas, SSTables, and manifests
// inside the sweep, adding remove ops to the crash surface.
func TestCrashRecoveryTortureLSMBackground(t *testing.T) {
	crashSweepTorture(t, spillEveryCommit, func(o *Options) {
		o.StateMaintenanceScheduler = lsm.NewSeededScheduler(0x5EED)
		o.RetainEpochs = 2
	})
}

// crashSweepTorture crashes the torture run, under the options tune gives,
// at every mutating op; every restart must converge to the crash-free run
// of the same options.
func crashSweepTorture(t *testing.T, tune ...func(*Options)) {
	if testing.Short() {
		t.Skip("crash sweep skipped with -short")
	}
	const rows = 48
	var tuned Options
	for _, fn := range tune {
		fn(&tuned)
	}
	spills := tuned.StateMemtableBytes > 0

	// Golden run: clean filesystem, no faults.
	goldenSink := t.TempDir()
	if err := runTorture(t, t.TempDir(), goldenSink, fsx.NoSync(), rows, tune...); err != nil {
		t.Fatalf("golden run: %v", err)
	}
	golden := dirContents(t, goldenSink)
	if len(golden) < 2 {
		t.Fatalf("golden run produced too little output: %v", golden)
	}

	// Probe run: identical workload on a fault-free FaultFS to learn the
	// deterministic op schedule.
	probe := fsx.NewFaultFS(fsx.NoSync())
	probeSink := t.TempDir()
	if err := runTorture(t, t.TempDir(), probeSink, probe, rows, tune...); err != nil {
		t.Fatalf("probe run: %v", err)
	}
	if d := sinkDiff(golden, dirContents(t, probeSink)); d != "" {
		t.Fatalf("probe run diverged from golden:\n%s", d)
	}
	trace := probe.Trace()
	total := probe.Ops()
	if total < 25 {
		t.Fatalf("workload has only %d mutating ops; need ≥25 crash points", total)
	}
	if spills {
		var ssts, deltas, maint int
		for _, op := range trace {
			if strings.Contains(op.Path, ".sst") || strings.Contains(op.Path, ".manifest") ||
				(op.Kind == fsx.OpRemove && strings.Contains(op.Path, ".delta")) {
				maint++
			}
			switch {
			case op.Kind == fsx.OpWrite && strings.Contains(op.Path, ".sst"):
				ssts++
			case op.Kind == fsx.OpWrite && strings.Contains(op.Path, ".delta"):
				deltas++
			}
		}
		if tuned.StateSyncMaintenance {
			// With synchronous drain the schedule must include more SSTable
			// writes than delta writes: every commit flushes (1-byte
			// memtable), so any surplus is compaction output — proof the
			// sweep crosses a compaction.
			if ssts <= deltas {
				t.Fatalf("schedule has %d SSTable writes vs %d deltas; no compaction inside the sweep", ssts, deltas)
			}
		} else {
			// With the seeded scheduler the drain is partial by design; what
			// matters is that the sweep plants enough crash points INSIDE
			// maintenance — SSTable/manifest writes plus retired-delta GC.
			if maint < 10 {
				t.Fatalf("schedule has only %d maintenance ops (ssts=%d deltas=%d); need ≥10 crash points inside background maintenance", maint, ssts, deltas)
			}
		}
	}

	modes := []fsx.CrashMode{fsx.CrashBefore, fsx.CrashTorn, fsx.CrashAfter}
	modeNames := map[fsx.CrashMode]string{
		fsx.CrashBefore: "before", fsx.CrashTorn: "torn", fsx.CrashAfter: "after",
	}
	categories := map[string]int{}
	for n := int64(1); n <= total; n++ {
		mode := modes[int(n)%len(modes)]
		label := fmt.Sprintf("crash point %d/%d (%s, %s %s)",
			n, total, modeNames[mode], trace[n-1].Kind, filepath.Base(trace[n-1].Path))

		ckpt, sinkDir := t.TempDir(), t.TempDir()
		ffs := fsx.NewFaultFS(fsx.NoSync())
		ffs.CrashAt, ffs.Mode = n, mode
		err := runTorture(t, ckpt, sinkDir, ffs, rows, tune...)
		if !ffs.Crashed() {
			t.Fatalf("%s: crash never fired (err=%v)", label, err)
		}
		if err == nil {
			t.Fatalf("%s: crashed run reported success", label)
		}
		categories[opCategory(t, trace[n-1])]++

		// Restart over the surviving checkpoint on a healthy filesystem.
		if err := runTorture(t, ckpt, sinkDir, fsx.NoSync(), rows, tune...); err != nil {
			t.Fatalf("%s: restart failed: %v", label, err)
		}
		if d := sinkDiff(golden, dirContents(t, sinkDir)); d != "" {
			t.Fatalf("%s: sink did not converge to the crash-free output:\n%s", label, d)
		}
	}
	required := []string{"offsets-write", "state-commit", "sink-write", "commit-marker"}
	if spills {
		required = append(required, "state-structure")
	}
	for _, cat := range required {
		if categories[cat] == 0 {
			t.Errorf("no crash point exercised the %s step (categories: %v)", cat, categories)
		}
	}
	t.Logf("swept %d crash points × {before,torn,after rotation}: %v", total, categories)
}

// TestBitFlipInStateDetectedOnRestart injects silent bit rot into the last
// state delta the run writes, lets the run finish (nothing re-reads the
// flipped file while the store is cached in memory), then restarts with
// more data. Reloading state must fail with a corruption error naming the
// damaged file — never silently produce wrong aggregates.
func TestBitFlipInStateDetectedOnRestart(t *testing.T) {
	const rows = 48
	// Probe for the op schedule: pick the LAST delta write, which the
	// restart's state reload re-reads.
	probe := fsx.NewFaultFS(fsx.NoSync())
	if err := runTorture(t, t.TempDir(), t.TempDir(), probe, rows); err != nil {
		t.Fatalf("probe run: %v", err)
	}
	var flipAt int64
	var victim string
	for _, op := range probe.Trace() {
		if op.Kind == fsx.OpWrite && strings.HasSuffix(op.Path, ".delta"+fsx.TmpSuffix) {
			flipAt, victim = op.N, strings.TrimSuffix(filepath.Base(op.Path), fsx.TmpSuffix)
		}
	}
	if flipAt == 0 {
		t.Fatal("probe trace has no state writes")
	}

	ckpt, sinkDir := t.TempDir(), t.TempDir()
	ffs := fsx.NewFaultFS(fsx.NoSync())
	ffs.FlipBitAt = flipAt
	if err := runTorture(t, ckpt, sinkDir, ffs, rows); err != nil {
		t.Fatalf("bit rot is silent; the run itself must succeed: %v", err)
	}

	// Restart with one more record: the next epoch reloads state from disk
	// and must detect the flip.
	err := runTorture(t, ckpt, sinkDir, fsx.NoSync(), rows+1)
	if err == nil {
		t.Fatal("bit-flipped state delta loaded without error")
	}
	if !fsx.IsCorrupt(err) {
		t.Errorf("error should be a corruption: %v", err)
	}
	if !strings.Contains(err.Error(), victim) {
		t.Errorf("error should name the damaged file %s: %v", victim, err)
	}
}

// TestTransientSinkErrorRetried injects a one-shot EIO into a sink write
// and asserts the retry loop absorbs it: the query succeeds, the output
// matches a clean run, and the retry is visible in metrics and progress.
func TestTransientSinkErrorRetried(t *testing.T) {
	const rows = 48
	goldenSink := t.TempDir()
	if err := runTorture(t, t.TempDir(), goldenSink, fsx.NoSync(), rows); err != nil {
		t.Fatalf("golden run: %v", err)
	}
	probe := fsx.NewFaultFS(fsx.NoSync())
	if err := runTorture(t, t.TempDir(), t.TempDir(), probe, rows); err != nil {
		t.Fatalf("probe run: %v", err)
	}
	var sinkOp int64
	for _, op := range probe.Trace() {
		if op.Kind == fsx.OpWrite && strings.Contains(op.Path, "part-") {
			sinkOp = op.N
			break
		}
	}
	if sinkOp == 0 {
		t.Fatal("probe trace has no sink writes")
	}

	sinkDir := t.TempDir()
	ffs := fsx.NewFaultFS(fsx.NoSync())
	ffs.FailAt[sinkOp] = fsx.Transient("EIO")
	sq, err := launchTorture(t, t.TempDir(), sinkDir, ffs, rows)
	if err != nil {
		t.Fatalf("transient sink error not absorbed: %v", err)
	}
	if d := sinkDiff(dirContents(t, goldenSink), dirContents(t, sinkDir)); d != "" {
		t.Fatalf("output diverged after retried sink write:\n%s", d)
	}
	if got := sq.Metrics().Counter("ioRetries").Value(); got < 1 {
		t.Errorf("ioRetries = %d, want ≥1", got)
	}
	if p, ok := sq.LastProgress(); !ok || p.IORetries < 1 {
		t.Errorf("progress.IORetries = %+v ok=%v", p, ok)
	}
}

// flakySource fails its first N reads with a real transient errno.
type flakySource struct {
	sources.Source
	mu       sync.Mutex
	failures int
}

func (f *flakySource) Read(p int, from, to int64) ([]sql.Row, error) {
	f.mu.Lock()
	fail := f.failures > 0
	if fail {
		f.failures--
	}
	f.mu.Unlock()
	if fail {
		return nil, fmt.Errorf("flaky read: %w", syscall.EIO)
	}
	return f.Source.Read(p, from, to)
}

// TestTransientSourceErrorRetried covers the read side: EIO from the
// source is retried with backoff instead of failing the epoch.
func TestTransientSourceErrorRetried(t *testing.T) {
	src := &flakySource{Source: tortureSource(8), failures: 2}
	sink := sinks.NewMemorySink()
	sq, err := Start(torturePlan(t), map[string]sources.Source{"events": src}, sink, Options{
		Checkpoint:    t.TempDir(),
		NumPartitions: 1,
		Trigger:       ProcessingTimeTrigger{Interval: time.Hour},
		RetryBackoff:  time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sq.Stop() })
	if err := sq.ProcessAllAvailable(); err != nil {
		t.Fatalf("transient source error not absorbed: %v", err)
	}
	if len(sink.Rows()) == 0 {
		t.Error("no output rows")
	}
	if got := sq.Metrics().Counter("ioRetries").Value(); got != 2 {
		t.Errorf("ioRetries = %d, want 2", got)
	}
}

// TestCorruptWALTailCountedOnRestart checks the recovery-side corruption
// metric: a torn uncommitted offsets entry is dropped, counted, and the
// query still converges.
func TestCorruptWALTailCountedOnRestart(t *testing.T) {
	const rows = 48
	goldenSink := t.TempDir()
	if err := runTorture(t, t.TempDir(), goldenSink, fsx.NoSync(), rows); err != nil {
		t.Fatalf("golden run: %v", err)
	}

	ckpt, sinkDir := t.TempDir(), t.TempDir()
	if err := runTorture(t, ckpt, sinkDir, fsx.NoSync(), rows-8); err != nil {
		t.Fatal(err)
	}
	// A crash tears the next epoch's offsets entry after the atomic rename
	// made it visible but before any of its effects committed.
	offsets, err := filepath.Glob(filepath.Join(ckpt, "offsets", "*.json"))
	if err != nil || len(offsets) == 0 {
		t.Fatalf("offsets = %v err=%v", offsets, err)
	}
	last := offsets[len(offsets)-1]
	nextEpoch := strings.TrimSuffix(filepath.Base(last), ".json")
	torn := filepath.Join(ckpt, "offsets", fmt.Sprintf("%012d.json", mustAtoi(t, nextEpoch)+1))
	if err := os.WriteFile(torn, []byte(`{"epoch": 6, "time`), 0o644); err != nil {
		t.Fatal(err)
	}

	sq, err := launchTorture(t, ckpt, sinkDir, fsx.NoSync(), rows)
	if err != nil {
		t.Fatalf("restart over torn WAL tail: %v", err)
	}
	if got := sq.Metrics().Counter("corruptionsDetected").Value(); got != 1 {
		t.Errorf("corruptionsDetected = %d, want 1", got)
	}
	if p, ok := sq.LastProgress(); !ok || p.CorruptionsDetected != 1 {
		t.Errorf("progress.CorruptionsDetected = %+v ok=%v", p, ok)
	}
	if d := sinkDiff(dirContents(t, goldenSink), dirContents(t, sinkDir)); d != "" {
		t.Fatalf("sink did not converge after dropping the torn tail:\n%s", d)
	}
}

func mustAtoi(t *testing.T, s string) int64 {
	t.Helper()
	var n int64
	if _, err := fmt.Sscanf(s, "%d", &n); err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return n
}
