package engine

import (
	"runtime"
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

// BenchmarkSmallEpochs measures what an epoch costs beyond its rows: a
// map-only query over a codec bus source, 250 records an epoch (one
// live-serve tick) on two workers, into the columnar memory sink, over a
// checkpoint that does not fsync. Every record is on the bus before the
// timer starts and each b.N iteration is one epoch, so ns/epoch and
// allocs/epoch are the engine's per-epoch work: planning, the task pool,
// the WAL, the sink and the telemetry.
func BenchmarkSmallEpochs(b *testing.B) {
	const perEpoch = 250
	topic, err := msgbus.NewBroker().CreateTopic("in", 1)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N*perEpoch; i++ {
		topic.Append(0, msgbus.Record{Value: codec.EncodeRow(sql.Row{"k", float64(i % 100), int64(i)})})
	}
	q := compile(b, &logical.Project{
		Child: &logical.Filter{Child: streamScan("in"), Cond: sql.Gt(sql.Col("v"), sql.Lit(10.0))},
		Exprs: []sql.Expr{sql.Col("k"), sql.As(sql.Mul(sql.Col("v"), sql.Lit(2.0)), "v2")},
	}, logical.Append, nil)
	sink := sinks.NewMemorySink()
	sink.SetRetention(256)
	sq, err := Start(q, map[string]sources.Source{"in": sources.NewCodecBusSource("in", topic, eventsSchema)}, sink, Options{
		Checkpoint:           b.TempDir(),
		FS:                   fsx.NoSync(),
		Workers:              2,
		MaxRecordsPerTrigger: perEpoch,
		Trigger:              ProcessingTimeTrigger{Interval: time.Hour}, // driven by ProcessAllAvailable
	})
	if err != nil {
		b.Fatal(err)
	}
	defer sq.Stop()

	first := sq.LastCommittedEpoch()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	if err := sq.ProcessAllAvailable(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	epochs := sq.LastCommittedEpoch() - first
	if epochs != int64(b.N) {
		b.Fatalf("ran %d epochs for %d iterations", epochs, b.N)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(epochs), "ns/epoch")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(epochs), "allocs/epoch")
}
