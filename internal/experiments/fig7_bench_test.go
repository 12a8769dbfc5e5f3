package experiments

import (
	"sync/atomic"
	"testing"
	"time"

	"structream/internal/engine"
	"structream/internal/fsx"
	"structream/internal/msgbus"
	"structream/internal/sinks"
	"structream/internal/sources"
	"structream/internal/sql"
	"structream/internal/sql/codec"
)

// rowCounter is a sink that only counts the rows it is handed.
type rowCounter struct{ n atomic.Int64 }

func (s *rowCounter) AddBatch(b sinks.Batch) error {
	s.n.Add(int64(len(b.Rows)))
	return nil
}

// BenchmarkContinuousDrain measures the continuous engine's own capacity on
// Fig 7's query: the workers drain a backlog loaded before the query starts,
// so no producer shares the CPUs with them. Fig 7's paced runs cannot show
// this once the in-process producer is the slower side. One op is one
// drain of the backlog; records/s is the metric to read.
//
//	go test -run - -bench ContinuousDrain -benchtime 5x ./internal/experiments
func BenchmarkContinuousDrain(b *testing.B) {
	const partitions, backlog = 4, 1_000_000
	q, err := fig7Query()
	if err != nil {
		b.Fatal(err)
	}
	enc := codec.NewEncoder(32)
	var elapsed time.Duration
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		topic, err := msgbus.NewBroker().CreateTopic("in", partitions)
		if err != nil {
			b.Fatal(err)
		}
		for v := int64(0); v < backlog; v++ {
			enc.Reset()
			enc.PutRow(sql.Row{v, int64(0)})
			if _, err := topic.Append(int(v)%partitions, msgbus.Record{Value: enc.Bytes()}); err != nil {
				b.Fatal(err)
			}
		}
		sink := &rowCounter{}
		b.StartTimer()
		start := time.Now()
		sq, err := engine.Start(q, map[string]sources.Source{"in": sources.NewCodecBusSource("in", topic, fig7Schema)}, sink, engine.Options{
			Checkpoint: b.TempDir(),
			Trigger:    engine.ContinuousTrigger{EpochInterval: 50 * time.Millisecond},
			FS:         fsx.NoSync(),
		})
		if err != nil {
			b.Fatal(err)
		}
		for sink.n.Load() < backlog && sq.Err() == nil {
			time.Sleep(100 * time.Microsecond)
		}
		elapsed += time.Since(start)
		if err := sq.Stop(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(backlog)*float64(b.N)/elapsed.Seconds(), "records/s")
}
