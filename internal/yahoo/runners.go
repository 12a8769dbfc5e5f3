package yahoo

import (
	"fmt"
	"strconv"
	"time"

	structream "structream"
	"structream/internal/baselines/busstream"
	"structream/internal/baselines/dataflow"
	"structream/internal/msgbus"
	"structream/internal/sinks"
	"structream/internal/sources"
	"structream/internal/sql"
)

// windowStart floors an event time to its 10-second window.
func windowStart(ts int64) int64 {
	win := WindowSize.Microseconds()
	return ts - ts%win
}

// Query builds the benchmark query through the public API — filter →
// project → stream-static join → event-time window → count — over w's
// events split into partitions source partitions, and returns it with that
// source.
func Query(w *Workload, partitions int) (*structream.DataFrame, sources.Source, error) {
	s := structream.NewSession()
	src := sources.NewPartitionedSource("ad_events", EventSchema, w.Partition(partitions))
	events := s.RegisterStream("ad_events", src)
	s.RegisterTable("campaigns", CampaignSchema, w.Campaigns)
	campaigns, err := s.Table("campaigns")
	if err != nil {
		return nil, nil, err
	}
	return events.
		Where(structream.Eq(structream.Col("event_type"), structream.Lit("view"))).
		SelectNames("ad_id", "event_time").
		Join(campaigns, structream.Eq(structream.Col("ad_id"), structream.Col("c_ad_id")), structream.InnerJoin).
		GroupBy(structream.WindowOf(structream.Col("event_time"), WindowSize, 0), structream.Col("campaign_id")).
		Count(), src, nil
}

// VerifySink cross-checks the query's update-mode output, as a memory sink
// holds it, against the reference result and returns the group count.
func VerifySink(w *Workload, sink *sinks.MemorySink) (int, error) {
	got := map[string]int64{}
	for _, r := range sink.Rows() {
		win := r[0].(sql.Window)
		got[fmt.Sprintf("%d/%d", r[1], win.Start)] = r[2].(int64)
	}
	if err := verify(w, got); err != nil {
		return 0, fmt.Errorf("structured streaming: %w", err)
	}
	return len(got), nil
}

// RunStructuredStreaming executes the benchmark query on this repository's
// engine through its public API, in update mode, processing the whole
// preloaded workload and reporting bulk throughput (the "maximum stable
// throughput" proxy on a single core). checkpoint must be a fresh
// directory; partitions controls source and shuffle parallelism and the
// worker count.
func RunStructuredStreaming(w *Workload, checkpoint string, partitions int) (Result, error) {
	if partitions <= 0 {
		partitions = 1
	}
	query, _, err := Query(w, partitions)
	if err != nil {
		return Result{}, err
	}
	sink := sinks.NewMemorySink()
	writer := query.WriteStream().
		OutputMode(structream.Update).
		Sink(sink).
		Option("workers", strconv.Itoa(partitions)).
		Partitions(partitions).
		Trigger(structream.ProcessingTime(time.Hour)). // driven manually below
		Checkpoint(checkpoint)

	start := time.Now()
	q, err := writer.Start("")
	if err != nil {
		return Result{}, err
	}
	defer q.Stop()
	if err := q.ProcessAllAvailable(); err != nil {
		return Result{}, err
	}
	elapsed := time.Since(start)

	groups, err := VerifySink(w, sink)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Engine:        "structured-streaming",
		Records:       int64(len(w.Events)),
		Elapsed:       elapsed,
		RecordsPerSec: float64(len(w.Events)) / elapsed.Seconds(),
		Groups:        groups,
	}, nil
}

// BuildDataflowTopology constructs the benchmark pipeline for the
// Flink-like engine: a map stage (filter, project, hash-join against the
// in-memory campaign table) keyed into a windowed count, with aligned
// checkpoints every 100k records. Exposed so the recovery ablation can
// drive the same topology manually.
func BuildDataflowTopology(w *Workload) *dataflow.Topology {
	adTable := w.AdToCampaign
	topo := dataflow.NewTopology()
	topo.CheckpointEvery = 100_000
	// Filter, project and join, chained to the source.
	topo.AddStage(false, &dataflow.MapOperator{Fn: func(row sql.Row) sql.Row {
		if row[4] != "view" {
			return nil
		}
		campaign, ok := adTable[row[2].(int64)]
		if !ok {
			return nil
		}
		return sql.Row{campaign, windowStart(row[5].(int64))}
	}})
	// The windowed count, behind a keyed exchange.
	topo.AddStage(true, &dataflow.KeyedReduceOperator{
		KeyFn: func(row sql.Row) string {
			return fmt.Sprintf("%d/%d", row[0], row[1])
		},
		UpdateFn: func(state any, row sql.Row) (any, sql.Row) {
			var n int64
			if state != nil {
				n = state.(int64)
			}
			return n + 1, nil
		},
	})
	return topo
}

// DrainDataflowCounts reads the (campaign/window → count) result out of
// the topology's keyed stage.
func DrainDataflowCounts(topo *dataflow.Topology) map[string]int64 {
	got := map[string]int64{}
	for key, v := range topo.Stage(1).(*dataflow.KeyedReduceOperator).State() {
		got[key] = v.(int64)
	}
	return got
}

// RunDataflow executes the benchmark on the Flink-like record-at-a-time
// engine.
func RunDataflow(w *Workload) (Result, error) {
	topo := BuildDataflowTopology(w)

	start := time.Now()
	if err := topo.Run(w.Events); err != nil {
		return Result{}, err
	}
	elapsed := time.Since(start)

	got := DrainDataflowCounts(topo)
	if err := verify(w, got); err != nil {
		return Result{}, fmt.Errorf("dataflow: %w", err)
	}
	return Result{
		Engine:        "dataflow (Flink-like)",
		Records:       int64(len(w.Events)),
		Elapsed:       elapsed,
		RecordsPerSec: float64(len(w.Events)) / elapsed.Seconds(),
		Groups:        len(got),
	}, nil
}

// RunBusStream executes the benchmark on the Kafka-Streams-like engine:
// every intermediate record is produced to a repartition topic and read
// back, and every count update appends to a changelog topic.
func RunBusStream(w *Workload) (Result, error) {
	broker := msgbus.NewBroker()
	adTable := w.AdToCampaign
	topo, err := busstream.NewTopology(broker, "yahoo",
		&busstream.MapProcessor{Fn: func(row sql.Row) sql.Row {
			if row[4] != "view" {
				return nil
			}
			campaign, ok := adTable[row[2].(int64)]
			if !ok {
				return nil
			}
			return sql.Row{campaign, windowStart(row[5].(int64))}
		}},
		func(row sql.Row) string { return fmt.Sprintf("%d/%d", row[0], row[1]) },
		func(prev, row sql.Row) sql.Row {
			var n int64
			if prev != nil {
				n = prev[0].(int64)
			}
			return sql.Row{n + 1}
		})
	if err != nil {
		return Result{}, err
	}
	start := time.Now()
	if err := topo.Run(w.Events); err != nil {
		return Result{}, err
	}
	elapsed := time.Since(start)

	got := map[string]int64{}
	for key, row := range topo.Table().View() {
		got[key] = row[0].(int64)
	}
	if err := verify(w, got); err != nil {
		return Result{}, fmt.Errorf("busstream: %w", err)
	}
	return Result{
		Engine:        "busstream (KStreams-like)",
		Records:       int64(len(w.Events)),
		Elapsed:       elapsed,
		RecordsPerSec: float64(len(w.Events)) / elapsed.Seconds(),
		Groups:        len(got),
	}, nil
}

// verify cross-checks an engine's (campaign/window → count) output against
// the reference result. Every engine must produce identical counts before
// its throughput number means anything.
func verify(w *Workload, got map[string]int64) error {
	want := w.ExpectedWindows()
	if len(got) != len(want) {
		return fmt.Errorf("group count mismatch: got %d, want %d", len(got), len(want))
	}
	for key, n := range want {
		if got[key] != n {
			return fmt.Errorf("group %s: got %d, want %d", key, got[key], n)
		}
	}
	return nil
}
