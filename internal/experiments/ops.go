package experiments

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"structream/internal/engine"
	"structream/internal/fsx"
	"structream/internal/incremental"
	"structream/internal/sinks"
	"structream/internal/sources"
	"structream/internal/sql"
	"structream/internal/sql/analysis"
	"structream/internal/sql/logical"
	"structream/internal/sql/optimizer"
	"structream/internal/sql/physical"
	"structream/internal/yahoo"

	structream "structream"
)

// ---------------------------------------------------------------- recovery

// RecoveryResult is the §6.2 ablation: Structured Streaming recovers from a
// crash by re-running the tasks of the one epoch its WAL says was in flight,
// while a topology-of-long-lived-operators engine rolls the whole pipeline
// back to its last aligned checkpoint and reprocesses the stream since.
type RecoveryResult struct {
	Records           int64
	Epochs            int     // epochs the stream was cut into
	SSEpochSecs       float64 // mean wall time of the epochs committed before the crash
	SSReplayedRecs    int64   // records of the one epoch recovery re-ran
	SSRecoverSecs     float64 // restart from the checkpoint until that epoch is committed again
	DFReprocessedRecs int64   // records re-run after whole-topology rollback
	DFReprocessSecs   float64
}

// String renders the recovery comparison.
func (r RecoveryResult) String() string {
	var b strings.Builder
	b.WriteString("§6.2 ablation — recovery by re-running one epoch's tasks vs whole-topology rollback\n")
	fmt.Fprintf(&b, "  workload: %d records in %d epochs, one crash injected mid-run\n", r.Records, r.Epochs)
	fmt.Fprintf(&b, "  structured streaming: restarted from the checkpoint, re-ran %d records (one epoch) in %.3fs; an epoch without a failure takes %.3fs\n",
		r.SSReplayedRecs, r.SSRecoverSecs, r.SSEpochSecs)
	fmt.Fprintf(&b, "  dataflow baseline:    rolled back to last checkpoint, reprocessed %d records in %.3fs\n",
		r.DFReprocessedRecs, r.DFReprocessSecs)
	return b.String()
}

// recoveryEpochs is how many epochs RunRecovery cuts the stream into; the
// crash strikes the state commit of epoch 6, as the dataflow baseline fails
// 60% of the way through.
const recoveryEpochs = 10

// RunRecovery crashes a Structured Streaming query in the middle of an
// epoch (the process dies at the epoch's first state-delta write), restarts
// it from the checkpoint and measures the time until that epoch is
// committed again; the dataflow baseline gets a mid-stream failure (restore
// + replay since the last barrier).
func RunRecovery(events int, tempDir func() string) (RecoveryResult, error) {
	w := yahoo.Generate(events, 50, 1_000_000, 9)
	out := RecoveryResult{Records: int64(len(w.Events)), Epochs: recoveryEpochs}
	// One replayable source for both runs: partitioning the workload is
	// set-up, not recovery.
	df, src, err := yahoo.Query(w, 4)
	if err != nil {
		return out, err
	}
	ckpt, sink := tempDir(), sinks.NewMemorySink()

	// Every file operation after the crash point fails, as for a dead process.
	ffs, epochsLogged := fsx.NewFaultFS(fsx.Real()), 0
	ffs.CrashWhen = func(kind fsx.OpKind, path string) bool {
		if kind == fsx.OpWrite && strings.Contains(filepath.ToSlash(path), "/offsets/") {
			epochsLogged++
		}
		return epochsLogged == recoveryEpochs*6/10 && strings.HasSuffix(path, ".delta")
	}
	q, err := startRecoveryQuery(w, df, src, ckpt, ffs, sink)
	if err != nil {
		return out, err
	}
	err = q.ProcessAllAvailable()
	q.Stop()
	if !ffs.Crashed() {
		return out, fmt.Errorf("recovery: the injected crash never fired (run ended with %v)", err)
	}
	committed := q.EventLog().Recent(0)
	for _, p := range committed {
		out.SSEpochSecs += float64(p.ProcessingMicros) / 1e6 / float64(len(committed))
	}

	// Restart: Start returns once the epoch the WAL had logged but not
	// committed has been re-run from its offsets and committed. Collect
	// first: a cycle over the preloaded workload landing inside a 20 ms
	// restart would triple it.
	runtime.GC()
	start := time.Now()
	if q, err = startRecoveryQuery(w, df, src, ckpt, fsx.Real(), sink); err != nil {
		return out, err
	}
	defer q.Stop()
	out.SSRecoverSecs = time.Since(start).Seconds()
	if p, ok := q.LastProgress(); ok {
		out.SSReplayedRecs = p.NumInputRows
	}
	// The rest of the stream, to show the recovered run converges.
	if err := q.ProcessAllAvailable(); err != nil {
		return out, err
	}
	if _, err := yahoo.VerifySink(w, sink); err != nil {
		return out, fmt.Errorf("after recovery: %w", err)
	}

	// Dataflow baseline: process 60% of the stream, checkpoint every 100k
	// records, then "fail" — restore the last checkpoint and reprocess
	// everything after it.
	out.DFReprocessedRecs, out.DFReprocessSecs, err = runDataflowWithRollback(w)
	return out, err
}

// startRecoveryQuery starts the Yahoo! query, cut into recoveryEpochs
// epochs, straight on the engine: the checkpoint file system is an engine
// option the public writer does not expose.
func startRecoveryQuery(w *yahoo.Workload, df *structream.DataFrame, src sources.Source, ckpt string, fsys fsx.FS, sink sinks.Sink) (*engine.StreamingQuery, error) {
	analyzed, err := analysis.Analyze(df.Plan())
	if err != nil {
		return nil, err
	}
	if err := analysis.CheckStreaming(analyzed, logical.Update); err != nil {
		return nil, err
	}
	static := func(*logical.Scan) (physical.RowSource, error) {
		return physical.NewSliceSource(yahoo.CampaignSchema, w.Campaigns), nil
	}
	q, err := incremental.Compile(optimizer.Optimize(analyzed), logical.Update, static)
	if err != nil {
		return nil, err
	}
	return engine.Start(q, map[string]sources.Source{src.Name(): src}, sink, engine.Options{
		Checkpoint:           ckpt,
		FS:                   fsys,
		NumPartitions:        src.Partitions(),
		MaxRecordsPerTrigger: int64(len(w.Events)+recoveryEpochs-1) / recoveryEpochs,
		Trigger:              engine.ProcessingTimeTrigger{Interval: time.Hour}, // driven manually
	})
}

func runDataflowWithRollback(w *yahoo.Workload) (reprocessed int64, secs float64, err error) {
	// Build the same topology RunDataflow uses, but drive it manually so we
	// can fail mid-stream.
	topo := yahoo.BuildDataflowTopology(w)
	failAt := len(w.Events) * 6 / 10
	if err := topo.Run(w.Events[:failAt]); err != nil {
		return 0, 0, err
	}
	// Failure: roll the whole topology back to the last aligned checkpoint
	// and reprocess everything after it.
	ckptEvery := int(topo.CheckpointEvery)
	lastCkptRecord := (failAt / ckptEvery) * ckptEvery
	if err := topo.RestoreLastCheckpoint(); err != nil {
		return 0, 0, err
	}
	start := time.Now()
	if err := topo.Run(w.Events[lastCkptRecord:]); err != nil {
		return 0, 0, err
	}
	return int64(len(w.Events) - lastCkptRecord), time.Since(start).Seconds(), nil
}

// ---------------------------------------------------------------- adaptive

// AdaptiveEpoch is one epoch in the catch-up trace.
type AdaptiveEpoch struct {
	Epoch     int64
	InputRows int64
	ProcessMs int64
}

// AdaptiveResult is the §7.3 adaptive batching experiment: after downtime,
// the first epoch absorbs the whole backlog, then epoch sizes return to
// the steady trickle.
type AdaptiveResult struct {
	BacklogRows int64
	Trace       []AdaptiveEpoch
}

// String renders the catch-up trace.
func (r AdaptiveResult) String() string {
	var b strings.Builder
	b.WriteString("§7.3 — adaptive batching after downtime (epoch input sizes)\n")
	fmt.Fprintf(&b, "  backlog accumulated while stopped: %d rows\n", r.BacklogRows)
	for _, e := range r.Trace {
		marker := ""
		if e.InputRows >= r.BacklogRows {
			marker = "   <- catch-up epoch absorbs the backlog"
		}
		fmt.Fprintf(&b, "  epoch %2d: %8d rows in %4d ms%s\n", e.Epoch, e.InputRows, e.ProcessMs, marker)
	}
	return b.String()
}

// RunAdaptive stops a query, accumulates a backlog, restarts it, and
// records per-epoch input sizes from the progress log.
func RunAdaptive(backlog int64, trickleEpochs int, tempDir func() string) (AdaptiveResult, error) {
	schema := sql.NewSchema(
		sql.Field{Name: "k", Type: sql.TypeString},
		sql.Field{Name: "v", Type: sql.TypeFloat64},
	)
	s := structream.NewSession()
	df, feed := s.MemoryStream("ev", schema)
	ckpt := tempDir()
	counts := df.GroupBy(structream.Col("k")).Count()

	startQuery := func() (*structream.StreamingQuery, error) {
		return counts.WriteStream().OutputMode(structream.Complete).
			Format("memory").QueryName("adaptive").
			Trigger(structream.ProcessingTime(time.Hour)).
			Checkpoint(ckpt).Start("")
	}

	// Phase 1: steady trickle.
	q, err := startQuery()
	if err != nil {
		return AdaptiveResult{}, err
	}
	for i := 0; i < 3; i++ {
		feed.AddData(structream.Row{"a", 1.0})
		if err := q.ProcessAllAvailable(); err != nil {
			return AdaptiveResult{}, err
		}
	}
	if err := q.Stop(); err != nil {
		return AdaptiveResult{}, err
	}

	// Phase 2: downtime — the backlog accumulates while the query is off.
	for i := int64(0); i < backlog; i++ {
		feed.AddData(structream.Row{"b", 1.0})
	}

	// Phase 3: restart; the first epoch absorbs the backlog, then steady
	// trickle epochs resume at small sizes.
	q2, err := startQuery()
	if err != nil {
		return AdaptiveResult{}, err
	}
	defer q2.Stop()
	if err := q2.ProcessAllAvailable(); err != nil {
		return AdaptiveResult{}, err
	}
	for i := 0; i < trickleEpochs; i++ {
		feed.AddData(structream.Row{"c", 1.0})
		if err := q2.ProcessAllAvailable(); err != nil {
			return AdaptiveResult{}, err
		}
	}
	out := AdaptiveResult{BacklogRows: backlog}
	for _, p := range q2.EventLog().Recent(0) {
		out.Trace = append(out.Trace, AdaptiveEpoch{
			Epoch: p.Epoch, InputRows: p.NumInputRows, ProcessMs: p.ProcessingMillis,
		})
	}
	return out, nil
}
