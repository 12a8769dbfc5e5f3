package engine

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"structream/internal/fsx"
	"structream/internal/msgbus"
	"structream/internal/sinks"
	"structream/internal/sources"
	"structream/internal/sql"
	"structream/internal/sql/codec"
	"structream/internal/sql/logical"
)

// The tests below restart a query the way its caller does (DESIGN §7,
// "Restart contract"): when an instance terminates with an error worth a
// restart, Start another over the same checkpoint. Each schedules a fault
// into an early instance, checks that the fault fired, and checks that the
// output converges to what a fault-free run writes.

// maxInstances bounds a restart loop: a schedule that is still killing
// instances past it is a failure, not something to retry forever.
const maxInstances = 20

// restartByHand runs start(1), and while the newest instance terminates —
// or fails to start — with an error other than detected corruption, starts
// the next over the same checkpoint, up to maxInstances. stop ends the live
// instance and the loop, and returns the instances started and, in order,
// the errors that ended the others. Calling stop twice is harmless.
func restartByHand(start func(n int) (*StreamingQuery, error)) (stop func() ([]*StreamingQuery, []error)) {
	var mu sync.Mutex
	var started []*StreamingQuery
	var errs []error // written by the loop alone, read after done
	stopped, done := false, make(chan struct{})
	go func() {
		defer close(done)
		for n := 1; n <= maxInstances; n++ {
			sq, err := start(n)
			if err == nil {
				mu.Lock()
				started = append(started, sq)
				halt := stopped
				mu.Unlock()
				if halt {
					sq.Stop() // stop came while sq was starting
				}
				<-sq.Done()
				err = sq.Err()
			}
			if err == nil {
				return
			}
			if errs = append(errs, err); fsx.IsCorrupt(err) {
				return
			}
		}
	}()
	return func() ([]*StreamingQuery, []error) {
		mu.Lock()
		stopped = true
		var live *StreamingQuery
		if n := len(started); n > 0 {
			live = started[n-1]
		}
		mu.Unlock()
		if live != nil {
			live.Stop()
		}
		<-done
		return started, errs
	}
}

// doubled is the map-only restart workload: (k, v*2), one output row per
// input row.
func doubled() logical.Plan {
	return &logical.Project{
		Child: streamScan("events"),
		Exprs: []sql.Expr{sql.Col("k"), sql.As(sql.Mul(sql.Col("v"), sql.Lit(2.0)), "v2")},
	}
}

// restartOptions are shared by a fault-free run and its faulted twin: the
// same admission cap gives both the same epoch boundaries, so their
// per-epoch sink files can be compared byte for byte.
func restartOptions(ckpt string, fs fsx.FS) Options {
	return Options{
		Checkpoint:           ckpt,
		FS:                   fs,
		Trigger:              ProcessingTimeTrigger{Interval: 2 * time.Millisecond},
		MaxRecordsPerTrigger: 16,
		EpochTimeout:         250 * time.Millisecond,
	}
}

// crashingFS is a checkpoint filesystem that dies after its op-th mutating
// operation: a process crash.
func crashingFS(op int64) fsx.FS {
	ffs := fsx.NewFaultFS(fsx.Real())
	ffs.CrashAt = op
	ffs.Mode = fsx.CrashAfter
	return ffs
}

func uniqueRows(prefix string, n int) []sql.Row {
	rows := make([]sql.Row, n)
	for i := range rows {
		rows[i] = sql.Row{fmt.Sprintf("%s%04d", prefix, i), float64(i), int64(0)}
	}
	return rows
}

// jsonFiles reads the epoch files a JSON file sink has renamed into place,
// and none of the temporary files it renames them from.
func jsonFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	entries, err := os.ReadDir(dir)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".json") {
			if files[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
				t.Fatal(err)
			}
		}
	}
	return files
}

// awaitLines waits until dir's epoch files hold n lines in all.
func awaitLines(t *testing.T, dir string, n int) {
	t.Helper()
	waitFor(t, func() bool {
		lines := 0
		for _, b := range jsonFiles(t, dir) {
			lines += bytes.Count(b, []byte("\n"))
		}
		return lines == n
	})
}

// faultFree runs plan over batches with no fault and returns its sink files.
func faultFree(t *testing.T, plan logical.Plan, mode logical.OutputMode, opts Options, batches ...[]sql.Row) map[string][]byte {
	t.Helper()
	src := sources.NewMemorySource("events", eventsSchema)
	dir := t.TempDir()
	sq := startQuery(t, compile(t, plan, mode, nil), map[string]sources.Source{"events": src}, sinks.NewJSONFileSink(dir), opts)
	lines := 0
	for _, b := range batches {
		src.AddData(b...)
		lines += len(b)
		awaitLines(t, dir, lines)
	}
	if err := sq.Stop(); err != nil {
		t.Fatal(err)
	}
	return jsonFiles(t, dir)
}

// firedFaults reports which scheduled faults the terminal errors show, and
// fails on any error no schedule here causes.
func firedFaults(t *testing.T, errs []error) (crash, timeout, transient bool) {
	t.Helper()
	for _, err := range errs {
		switch {
		case errors.Is(err, fsx.ErrCrash):
			crash = true
		case errors.Is(err, ErrEpochTimeout):
			timeout = true
		case fsx.IsTransient(err):
			transient = true
		default:
			t.Errorf("an instance died of an unscheduled error: %v", err)
		}
	}
	return crash, timeout, transient
}

// TestRestartConvergesUnderChaos: a query restarted by hand survives a
// simulated process crash mid-WAL-write, a burst of transient source faults
// and one epoch stall caught by the watchdog, and its sink files are
// byte-identical to those of a run that saw no fault at all.
func TestRestartConvergesUnderChaos(t *testing.T) {
	batch1, batch2 := uniqueRows("a", 100), uniqueRows("b", 60)
	baseline := faultFree(t, doubled(), logical.Append, restartOptions(t.TempDir(), nil), batch1, batch2)

	inner := sources.NewMemorySource("events", eventsSchema)
	inner.AddData(batch1...)
	flaky := sources.NewFlakySource(inner)
	dir, ckpt := t.TempDir(), t.TempDir()
	stop := restartByHand(func(n int) (*StreamingQuery, error) {
		flaky.ReleaseStall() // a restarted process frees the hung fetch
		var fs fsx.FS
		switch n {
		case 1:
			fs = crashingFS(10) // dies inside an epoch's WAL writes
		case 2:
			// One failure more than the engine's I/O retry absorbs
			// (maxIORetries + 1 reads): the epoch fails.
			flaky.FailReads(fsx.Transient("flaky network"), maxIORetries+1)
		case 3:
			flaky.StallReads()
		}
		return Start(compile(t, doubled(), logical.Append, nil), map[string]sources.Source{"events": flaky},
			sinks.NewJSONFileSink(dir), restartOptions(ckpt, fs))
	})
	t.Cleanup(func() { stop() })

	awaitLines(t, dir, 100)
	inner.AddData(batch2...)
	awaitLines(t, dir, 160)
	_, errs := stop()
	// A fault may strike while Start replays the in-flight epoch: that
	// Start fails, and its error counts like a dead instance's.
	if crash, timeout, transient := firedFaults(t, errs); !crash || !timeout || !transient {
		t.Errorf("faults fired: crash %v, watchdog timeout %v, transient burst %v; want all three (errors %v)", crash, timeout, transient, errs)
	}
	if diff := sinkDiff(baseline, jsonFiles(t, dir)); diff != "" {
		t.Errorf("restarted run differs from the fault-free run:\n%s", diff)
	}
}

// TestRestartStatefulLSMConvergesUnderChaos is the same for a stateful
// aggregation whose memtable is small enough that every restart recovers
// memtable contents, SSTables and manifests: across a crash amid the state
// machinery and a fault burst, the sink files stay byte-identical to a
// fault-free run's.
func TestRestartStatefulLSMConvergesUnderChaos(t *testing.T) {
	rows := uniqueRows("s", 120) // unique keys: one update line per input row
	lsmOptions := func(ckpt string, fs fsx.FS) Options {
		o := restartOptions(ckpt, fs)
		o.StateMemtableBytes = 512 // state is many times this: it spills inside the run
		return o
	}
	plan := countByKey(streamScan("events"))
	baseline := faultFree(t, plan, logical.Update, lsmOptions(t.TempDir(), nil), rows)

	inner := sources.NewMemorySource("events", eventsSchema)
	inner.AddData(rows...)
	flaky := sources.NewFlakySource(inner)
	dir, ckpt := t.TempDir(), t.TempDir()
	stop := restartByHand(func(n int) (*StreamingQuery, error) {
		var fs fsx.FS
		switch n {
		case 1:
			// With a spilling memtable the checkpoint's ops include
			// SSTable flushes and manifest writes: op 14 lands amid them.
			fs = crashingFS(14)
		case 2:
			flaky.FailReads(fsx.Transient("flaky network"), 9)
		}
		return Start(compile(t, plan, logical.Update, nil), map[string]sources.Source{"events": flaky},
			sinks.NewJSONFileSink(dir), lsmOptions(ckpt, fs))
	})
	t.Cleanup(func() { stop() })

	awaitLines(t, dir, 120)
	_, errs := stop()
	if crash, _, _ := firedFaults(t, errs); !crash {
		t.Errorf("no instance died of the scheduled crash (errors %v)", errs)
	}
	if diff := sinkDiff(baseline, jsonFiles(t, dir)); diff != "" {
		t.Errorf("restarted run differs from the fault-free run:\n%s", diff)
	}
}

// TestRestartSurvivesFlakyBroker drives the query off the message bus and
// injects a burst of fetch faults at the broker. The first instance dies
// once its retry budget is spent; the next, started over the checkpoint
// with the fault hook cleared, drains the topic from the checkpointed
// offsets, every record exactly once.
func TestRestartSurvivesFlakyBroker(t *testing.T) {
	topic, err := msgbus.NewBroker().CreateTopic("events", 1)
	if err != nil {
		t.Fatal(err)
	}
	const total = 30
	for i := 0; i < total; i++ {
		topic.Append(0, msgbus.Record{Value: codec.EncodeRow(sql.Row{fmt.Sprintf("k%d", i), float64(i), int64(0)})})
	}
	sink := sinks.NewMemorySink()
	ckpt := t.TempDir()
	stop := restartByHand(func(n int) (*StreamingQuery, error) {
		topic.InjectFetchFault(nil)
		if n == 1 {
			// One fault more than the engine's I/O retry absorbs
			// (maxIORetries + 1 fetches): the task fails, and with it the
			// epoch — a task runs once.
			var left atomic.Int64
			left.Store(maxIORetries + 1)
			topic.InjectFetchFault(func(part int, from int64) error {
				if left.Add(-1) >= 0 {
					return fsx.Transient("broker connection reset")
				}
				return nil
			})
		}
		src := sources.NewCodecBusSource("events", topic, eventsSchema)
		return Start(compile(t, doubled(), logical.Append, nil), map[string]sources.Source{"events": src}, sink, Options{
			Checkpoint: ckpt,
			Trigger:    ProcessingTimeTrigger{Interval: 2 * time.Millisecond},
		})
	})
	t.Cleanup(func() { stop() })

	waitFor(t, func() bool { return len(sink.Rows()) == total })
	started, errs := stop()
	if _, _, transient := firedFaults(t, errs); !transient || len(started) < 2 {
		t.Errorf("%d instances, errors %v: want the fetch faults to kill the first", len(started), errs)
	}
	seen := map[string]bool{}
	for _, r := range sink.Rows() {
		if k := r[0].(string); seen[k] {
			t.Fatalf("key %q twice in the sink after the restart", k)
		} else {
			seen[k] = true
		}
	}
}

// TestArrivalRestartLeavesOneRegistration: an arrival-driven query over the
// bus dies on fetch faults, is restarted on the same topic, and goes on
// being woken by appends; the dead instance's wake channel is gone from the
// topic, the replacement's is the only one, and Stop removes that too.
func TestArrivalRestartLeavesOneRegistration(t *testing.T) {
	topic, err := msgbus.NewBroker().CreateTopic("events", 1)
	if err != nil {
		t.Fatal(err)
	}
	produce := func(i int) {
		topic.Append(0, msgbus.Record{Value: codec.EncodeRow(sql.Row{fmt.Sprintf("k%d", i), float64(i), int64(0)})})
	}
	sink := sinks.NewMemorySink()
	ckpt := t.TempDir()
	var faults atomic.Int64
	topic.InjectFetchFault(func(part int, from int64) error {
		if faults.Add(-1) >= 0 {
			return fsx.Transient("broker connection reset")
		}
		return nil
	})
	stop := restartByHand(func(int) (*StreamingQuery, error) {
		src := sources.NewCodecBusSource("events", topic, eventsSchema)
		return Start(compile(t, doubled(), logical.Append, nil), map[string]sources.Source{"events": src}, sink, Options{
			Checkpoint: ckpt,
			Trigger:    ProcessingTimeTrigger{},
		})
	})
	t.Cleanup(func() { stop() })

	produce(0)
	waitFor(t, func() bool { return len(sink.Rows()) == 1 })
	faults.Store(maxIORetries + 1) // one fetch more than the retry absorbs: the next epoch fails
	produce(1)
	waitFor(t, func() bool { return len(sink.Rows()) == 2 })
	produce(2)
	waitFor(t, func() bool { return len(sink.Rows()) == 3 })
	if n := topic.ArrivalListeners(); n != 1 {
		t.Errorf("%d wake channels on the topic with one instance running, want 1", n)
	}
	started, errs := stop()
	if _, _, transient := firedFaults(t, errs); !transient || len(started) != 2 {
		t.Errorf("%d instances, errors %v: want the fetch faults to kill the first, once", len(started), errs)
	}
	for i, sq := range started {
		if n := wakeups(sq, "Timer"); n != 0 {
			t.Errorf("instance %d: %d timer wake-ups", i+1, n)
		}
	}
	if n := topic.ArrivalListeners(); n != 0 {
		t.Errorf("%d wake channels left on the topic after Stop", n)
	}
}

// TestRestartConvergesUnderSeededFaults draws, per seed, a fault for each
// of the first instances — a crash at a random checkpoint op, a fault burst
// of random length, or (once) a stall — and checks that the first fired and
// that the restarted query writes every input row exactly once.
func TestRestartConvergesUnderSeededFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("seeded fault schedules run in the long tier")
	}
	for _, seed := range []int64{2, 3, 4} {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			rows := uniqueRows("r", 40+rng.Intn(160))
			type fault struct {
				kind int // 0 none, 1 crash, 2 fault burst, 3 stall
				arg  int // the crash's op, the burst's length
			}
			schedule := make([]fault, 6)
			stalled := false
			for i := range schedule {
				f := fault{kind: 1 + rng.Intn(3)}
				switch {
				case f.kind == 1:
					f.arg = 4 + rng.Intn(30)
				case f.kind == 2:
					f.arg = maxIORetries + 1 + rng.Intn(11) // more than the I/O retry absorbs
				case stalled:
					f.kind = 0 // one stall a schedule keeps it quick
				}
				stalled = stalled || f.kind == 3
				schedule[i] = f
			}

			inner := sources.NewMemorySource("events", eventsSchema)
			inner.AddData(rows...)
			flaky := sources.NewFlakySource(inner)
			dir, ckpt := t.TempDir(), t.TempDir()
			stop := restartByHand(func(n int) (*StreamingQuery, error) {
				flaky.ReleaseStall()
				var fs fsx.FS
				if n <= len(schedule) {
					switch f := schedule[n-1]; f.kind {
					case 1:
						fs = crashingFS(int64(f.arg))
					case 2:
						flaky.FailReads(fsx.Transient("fault burst"), f.arg)
					case 3:
						flaky.StallReads()
					}
				}
				return Start(compile(t, doubled(), logical.Append, nil), map[string]sources.Source{"events": flaky},
					sinks.NewJSONFileSink(dir), restartOptions(ckpt, fs))
			})
			t.Cleanup(func() { stop() })

			awaitLines(t, dir, len(rows))
			_, errs := stop()
			crash, timeout, transient := firedFaults(t, errs[:min(len(errs), 1)])
			if fired := []bool{false, crash, transient, timeout}; !fired[schedule[0].kind] {
				t.Errorf("the first instance's fault %+v did not fire (errors %v)", schedule[0], errs)
			}
			var got []string
			for _, b := range jsonFiles(t, dir) {
				got = append(got, strings.Split(strings.TrimSpace(string(b)), "\n")...)
			}
			want := make([]string, len(rows))
			for i, r := range rows {
				want[i] = fmt.Sprintf(`{"k":"%s","v2":%g}`, r[0], 2*r[1].(float64))
			}
			sort.Strings(got)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("output lines differ from the input doubled:\n got %v\nwant %v", got, want)
			}
		})
	}
}
