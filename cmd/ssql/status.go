package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"structream/internal/health"
	"structream/internal/metrics"
	"structream/internal/serve"
)

// statusStages is the display order of the duration breakdown — the
// epoch's stages in execution order.
var statusStages = []string{"planning", "getBatch", "execution", "stateCommit", "walCommit", "sinkCommit"}

// formatStatus renders a query's live status for the :status REPL
// command: the last epoch's throughput, its duration breakdown with the
// bottleneck stage flagged, and the per-source/sink/state sections.
func formatStatus(name, status string, p metrics.QueryProgress, ok bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "query %q: %s\n", name, status)
	if !ok {
		b.WriteString("  no epochs committed yet\n")
		return b.String()
	}
	fmt.Fprintf(&b, "  epoch %d: %d rows in, %d rows out (%.0f in/s, %.0f out/s)\n",
		p.Epoch, p.NumInputRows, p.NumOutputRows, p.InputRowsPerSec, p.OutputRowsPerSec)
	fmt.Fprintf(&b, "  processing time: %v\n", time.Duration(p.ProcessingMicros)*time.Microsecond)
	if len(p.DurationBreakdown) > 0 {
		b.WriteString("  duration breakdown:\n")
		for _, stage := range statusStages {
			v, present := p.DurationBreakdown[stage]
			if !present {
				continue
			}
			pct := 0.0
			if p.ProcessingMicros > 0 {
				pct = 100 * float64(v) / float64(p.ProcessingMicros)
			}
			marker := ""
			if stage == p.BottleneckStage {
				marker = "  <- bottleneck"
			}
			fmt.Fprintf(&b, "    %-12s %12v %5.1f%%%s\n",
				stage, time.Duration(v)*time.Microsecond, pct, marker)
		}
	}
	if p.BackpressureDecision != "" {
		fmt.Fprintf(&b, "  backpressure: %s\n", p.BackpressureDecision)
	}
	for _, src := range p.Sources {
		fmt.Fprintf(&b, "  source %q: %d rows, offsets %v -> %v (read %v)\n",
			src.Name, src.NumInputRows, src.StartOffsets, src.EndOffsets,
			time.Duration(src.ReadMicros)*time.Microsecond)
	}
	if p.Sink != nil {
		fmt.Fprintf(&b, "  sink %s: %d rows (write %v)\n",
			p.Sink.Description, p.Sink.NumOutputRows, time.Duration(p.Sink.WriteMicros)*time.Microsecond)
	}
	for _, so := range p.StateOperators {
		fmt.Fprintf(&b, "  state %q: %d keys, %d bytes, cache %d/%d hit, %d deltas\n",
			so.Operator, so.NumRowsTotal, so.StateBytes,
			so.CacheHits, so.CacheHits+so.CacheMisses, so.DeltasWritten)
	}
	if p.WatermarkMicros > 0 {
		fmt.Fprintf(&b, "  watermark: %dµs\n", p.WatermarkMicros)
	}
	return b.String()
}

// formatFrame renders one serving-hub frame for the :subscribe REPL
// command — a compact one-line summary per delivery.
func formatFrame(f serve.Frame) string {
	switch f.Kind {
	case serve.FrameHello:
		return fmt.Sprintf("[serve] hello: mode=%s cursor=%d schema=%v\n", f.Mode, f.Cursor, f.Schema)
	case serve.FrameEpoch:
		return fmt.Sprintf("[serve] epoch %d: %d rows (cursor %d)\n", f.Epoch, len(f.Rows), f.Cursor)
	case serve.FrameSnapshot:
		suffix := ""
		if f.Reset {
			suffix = " [reset: " + f.Reason + "]"
		}
		return fmt.Sprintf("[serve] snapshot: %d rows (cursor %d)%s\n", len(f.Rows), f.Cursor, suffix)
	case serve.FrameHeartbeat:
		return fmt.Sprintf("[serve] heartbeat (cursor %d)\n", f.Cursor)
	default: // evicted, shutdown
		return fmt.Sprintf("[serve] %s: %s (reconnect in ~%dms, resume with cursor=%d)\n",
			f.Kind, f.Reason, f.RetryMillis, f.Cursor)
	}
}

// formatHealth renders the health report for the :health REPL command:
// detector signal baselines, end-to-end lineage of the latest epochs, the
// slowest partitions, and any captured flight-recorder bundles.
func formatHealth(rep health.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "health for %q: %s\n", rep.Query, rep.Status)
	if len(rep.Signals) > 0 {
		b.WriteString("  signals (last / mean ± std, samples, trips):\n")
		for _, s := range rep.Signals {
			fmt.Fprintf(&b, "    %-18s %12.1f / %.1f ± %.1f  n=%d trips=%d\n",
				s.Name, s.Last, s.Mean, s.Std, s.Samples, s.Trips)
		}
	}
	if a := rep.LastAnomaly; a != nil {
		fmt.Fprintf(&b, "  last anomaly: epoch %d %s=%.1f (baseline %.1f ± %.1f)",
			a.Epoch, a.Signal, a.Value, a.Mean, a.Std)
		if a.BundleID != "" {
			fmt.Fprintf(&b, " -> bundle %s", a.BundleID)
		}
		if a.CaptureError != "" {
			fmt.Fprintf(&b, " (capture failed: %s)", a.CaptureError)
		}
		b.WriteString("\n")
	}
	if len(rep.Stamps) > 0 {
		b.WriteString("  lineage (epoch: ingest->commit, end-to-end):\n")
		for _, s := range rep.Stamps {
			span := time.Duration(s.CommitMicros-s.IngestMicros) * time.Microsecond
			e2e := "not yet delivered"
			if v := s.EndToEndMicros(); v > 0 {
				e2e = (time.Duration(v) * time.Microsecond).String()
			}
			fmt.Fprintf(&b, "    epoch %d: %v, %s\n", s.Epoch, span, e2e)
		}
	}
	for _, p := range rep.Partitions {
		fmt.Fprintf(&b, "  partition %s/%d: %d rows in %v\n",
			p.Stage, p.Partition, p.Rows, time.Duration(p.Micros)*time.Microsecond)
	}
	for _, bu := range rep.Bundles {
		fmt.Fprintf(&b, "  bundle %s: %s at epoch %d (%d files, %d bytes)\n",
			bu.ID, bu.Signal, bu.Epoch, bu.Files, bu.Bytes)
	}
	return b.String()
}

// formatMetrics renders a metric registry snapshot for the :metrics REPL
// command, one sorted `name value` line per metric (histograms appear as
// their derived .count/.p50/.p95/.p99/.max entries).
func formatMetrics(name string, snap map[string]int64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "metrics for %q:\n", name)
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "  %-28s %d\n", k, snap[k])
	}
	return b.String()
}
