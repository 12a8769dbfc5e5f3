package sources

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"structream/internal/sql"
	"structream/internal/sql/vec"
)

// Instrumented wraps a Source with read-side observability counters: how
// many Read calls ran, how many rows they returned, and how long they
// took. The engine wraps every bound source so the per-source section of
// QueryProgress and the getBatch span can attribute fetch cost without the
// source implementations knowing about metrics.
type Instrumented struct {
	Inner Source

	reads     atomic.Int64
	rows      atomic.Int64
	readNanos atomic.Int64
	errors    atomic.Int64
	lastErrAt atomic.Int64 // UnixMicro of the most recent read error
	lastErr   atomic.Value // string: the most recent read error's text
}

// noteError records a failed read for the per-source health section.
func (s *Instrumented) noteError(err error) {
	s.errors.Add(1)
	s.lastErrAt.Store(time.Now().UnixMicro())
	s.lastErr.Store(err.Error())
}

// Instrument wraps src; wrapping an already-instrumented source returns it
// unchanged so stats are never double-counted.
func Instrument(src Source) *Instrumented {
	if in, ok := src.(*Instrumented); ok {
		return in
	}
	return &Instrumented{Inner: src}
}

// SourceStats is a point-in-time snapshot of a source's read activity.
// Errors counts failed Read/ReadVec calls (each retry attempt counts);
// LastErrorAtMicros/LastError describe the most recent failure.
type SourceStats struct {
	Reads             int64
	Rows              int64
	ReadNanos         int64
	Errors            int64
	LastErrorAtMicros int64
	LastError         string
}

// Stats reports the cumulative read counters.
func (s *Instrumented) Stats() SourceStats {
	st := SourceStats{
		Reads:             s.reads.Load(),
		Rows:              s.rows.Load(),
		ReadNanos:         s.readNanos.Load(),
		Errors:            s.errors.Load(),
		LastErrorAtMicros: s.lastErrAt.Load(),
	}
	if v, ok := s.lastErr.Load().(string); ok {
		st.LastError = v
	}
	return st
}

// Name implements Source.
func (s *Instrumented) Name() string { return s.Inner.Name() }

// Schema implements Source.
func (s *Instrumented) Schema() sql.Schema { return s.Inner.Schema() }

// Partitions implements Source.
func (s *Instrumented) Partitions() int { return s.Inner.Partitions() }

// Latest implements Source.
func (s *Instrumented) Latest() (Offsets, error) { return s.Inner.Latest() }

// Earliest implements Source.
func (s *Instrumented) Earliest() (Offsets, error) { return s.Inner.Earliest() }

// Read implements Source, timing and counting the inner read.
func (s *Instrumented) Read(p int, from, to int64) ([]sql.Row, error) {
	start := time.Now()
	rows, err := s.Inner.Read(p, from, to)
	s.readNanos.Add(time.Since(start).Nanoseconds())
	s.reads.Add(1)
	if err == nil {
		err = checkArity(s.Inner, p, from, rows)
	}
	if err != nil {
		s.noteError(err)
		return nil, err
	}
	s.rows.Add(int64(len(rows)))
	return rows, nil
}

// ErrRowArity refuses a row whose value count differs from its source
// schema's: no column of it can be placed.
var ErrRowArity = errors.New("sources: row arity differs from the schema")

// checkArity refuses rows read from src's partition p at offset from on
// whose arity differs from src's schema.
func checkArity(src Source, p int, from int64, rows []sql.Row) error {
	want := src.Schema().Len()
	for i, r := range rows {
		if len(r) != want {
			return fmt.Errorf("%w: %s partition %d offset %d has %d values, the schema %d", ErrRowArity, src.Name(), p, from+int64(i), len(r), want)
		}
	}
	return nil
}

// ReadVec forwards the columnar fast path with the same timing and
// counting as Read. A fallback outcome (ok=false, no error) charges
// only time, not a read: the caller's follow-up Read supplies the rows
// and the counters, so fetches are never double-counted.
func (s *Instrumented) ReadVec(p int, from, to int64) (*vec.Batch, bool, error) {
	vr, vok := s.Inner.(VectorReader)
	if !vok {
		return nil, false, nil
	}
	start := time.Now()
	b, ok, err := vr.ReadVec(p, from, to)
	s.readNanos.Add(time.Since(start).Nanoseconds())
	if err != nil {
		s.noteError(err)
		return nil, false, err
	}
	if !ok {
		return nil, false, nil
	}
	s.reads.Add(1)
	s.rows.Add(int64(b.Len))
	return b, true, nil
}

// NotifyArrival forwards ArrivalNotifier.
func (s *Instrumented) NotifyArrival(ch chan<- struct{}) (stop func(), ok bool) {
	return forwardArrival(s.Inner, ch)
}

// forwardArrival is a wrapper's NotifyArrival: the inner source's, or
// ok=false when that one cannot signal.
func forwardArrival(inner Source, ch chan<- struct{}) (stop func(), ok bool) {
	if an, ok := inner.(ArrivalNotifier); ok {
		return an.NotifyArrival(ch)
	}
	return nil, false
}
