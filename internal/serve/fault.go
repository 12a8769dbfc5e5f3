package serve

import (
	"errors"
	"io"
	"sync"
	"time"
)

// FlushWriter is the transport's connection surface: a writer whose
// output can be flushed to the client between frames. http.ResponseWriter
// plus http.Flusher satisfies it via the transport's adapter; tests wrap
// it with FaultWriter.
type FlushWriter interface {
	io.Writer
	Flush()
}

// ErrInjectedFault is the error injected connection faults return.
var ErrInjectedFault = errors.New("serve: injected connection fault")

// FaultKind selects a deterministic connection failure, mirroring
// fsx.FaultFS's crash styles at the transport layer.
type FaultKind int

const (
	// FaultDrop fails the write before any bytes reach the client — a
	// connection reset between frames.
	FaultDrop FaultKind = iota
	// FaultTorn writes roughly half the payload, then fails — a frame
	// torn mid-write, the worst case for a framed protocol.
	FaultTorn
	// FaultStall blocks the write for Stall before succeeding — a
	// consumer stuck in TCP backpressure. The transport's write deadline
	// (or the hub's stall eviction) must absorb it.
	FaultStall
)

// FaultSpec schedules one fault at the Nth write (0-based) through a
// FaultWriter.
type FaultSpec struct {
	Op    int64
	Kind  FaultKind
	Stall time.Duration
}

// FaultWriter wraps a connection writer with a deterministic fault
// schedule keyed by write count — the serve-layer analogue of
// fsx.FaultFS: tests declare "tear the 3rd frame, stall the 10th" and the
// chaos suite replays identical connection failures every run.
type FaultWriter struct {
	mu     sync.Mutex
	w      FlushWriter
	n      int64
	faults map[int64]FaultSpec
	// tripped latches the first injected failure; later writes keep
	// failing, like a real half-closed connection.
	tripped bool
}

// NewFaultWriter schedules faults over w by write index.
func NewFaultWriter(w FlushWriter, faults ...FaultSpec) *FaultWriter {
	fw := &FaultWriter{w: w, faults: map[int64]FaultSpec{}}
	for _, f := range faults {
		fw.faults[f.Op] = f
	}
	return fw
}

// Write implements io.Writer with the scheduled faults.
func (fw *FaultWriter) Write(p []byte) (int, error) {
	fw.mu.Lock()
	if fw.tripped {
		fw.mu.Unlock()
		return 0, ErrInjectedFault
	}
	op := fw.n
	fw.n++
	spec, hit := fw.faults[op]
	fw.mu.Unlock()
	if !hit {
		return fw.w.Write(p)
	}
	switch spec.Kind {
	case FaultTorn:
		n, _ := fw.w.Write(p[:len(p)/2])
		fw.w.Flush()
		fw.trip()
		return n, ErrInjectedFault
	case FaultStall:
		time.Sleep(spec.Stall)
		return fw.w.Write(p)
	default: // FaultDrop
		fw.trip()
		return 0, ErrInjectedFault
	}
}

// Flush implements FlushWriter.
func (fw *FaultWriter) Flush() {
	fw.mu.Lock()
	tripped := fw.tripped
	fw.mu.Unlock()
	if !tripped {
		fw.w.Flush()
	}
}

func (fw *FaultWriter) trip() {
	fw.mu.Lock()
	fw.tripped = true
	fw.mu.Unlock()
}
