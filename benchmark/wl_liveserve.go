package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"structream/internal/engine"
	"structream/internal/incremental"
	"structream/internal/msgbus"
	"structream/internal/serve"
	"structream/internal/sinks"
	"structream/internal/sources"
	"structream/internal/sql/codec"
)

// live-serve: the map-bulk query under an event-time watermark and the
// default processing-time trigger, published through a serve.Hub to two
// in-process subscribers. Open loop: one generator thread appends events on
// a schedule fixed before the run starts and never slows when the engine
// does. Each event is stamped with the instant it was due, and latency runs
// from that stamp to receipt by a subscriber.
//
// A run is liveSegments independent segments, each with its own events,
// topic, engine, checkpoint, hub and subscribers, and reports the median of
// the segments' figures: the level of a segment's latency is partly settled
// when its engine starts (how the runtime's timers and threads happen to
// line up), and differs by ±5 % between starts of the same code. Frozen
// sizes:
const (
	liveRate = 50_000 // offered events per second
	// One batch of events per tick, due at a seeded random instant inside
	// it, so epochs carry a few hundred rows. On a 1 ms schedule of 50 events
	// the engine, whose trigger polls once a millisecond and whose epoch
	// costs a good part of one, would run back-to-back epochs of a few dozen
	// rows at the edge of what one worker sustains, and a periodic schedule
	// would sit at one fixed phase of the trigger's period for a whole run.
	liveTick        = 5 * time.Millisecond
	liveSegments    = 5
	liveWarmup      = time.Second // per segment, excluded from every metric
	liveLimit       = time.Second // an event not delivered within this counts as failed
	liveSubscribers = 2
	liveRetention   = 256 // epochs the memory sink keeps for hub replay: about a second of them, so the heap is level before the warm-up ends
	liveSeqStride   = 8   // value = filter threshold + seq×stride + noise
	liveRestarts    = 20  // liveRestarts / liveSegments after every segment
	liveSetupRounds = 8   // set-up is repeated this often ...
	liveSetupWarm   = 3   // ... and the first rounds are left out of the median
)

type liveRun struct {
	offered    int64 // events due inside the measured window
	rate       float64
	delivered  [liveSubscribers]int64
	latencyMs  [liveSubscribers][]float64
	failed     int64
	lateMs     []float64 // generator lateness per tick
	backlogP95 float64
	frames     int64
	deliverMs  []float64     // hub broadcast → subscriber receipt
	notifyUs   []float64     // commit listener → subscriber receipt of that epoch
	span       time.Duration // first measured event due → last measured event received, subscriber 0
	st         *runStats
	ckpt       string
	in         *liveInput
}

// liveValue is event seq's value column: it passes the filter and carries
// the sequence number, with seeded noise below the stride.
func liveValue(rng *rand.Rand, seq int64) int64 {
	return mapFilterAtLeast + seq*liveSeqStride + rng.Int63n(liveSeqStride)
}

// liveSeqOf inverts liveValue on a delivered row's v1 (= value + 1).
func liveSeqOf(v1 int64) int64 { return (v1 - 1 - mapFilterAtLeast) / liveSeqStride }

// liveInput is one generated live-serve segment: every event of it, encoded
// back to back in one slab, in schedule order. An event's produced column is the instant it is due, as
// microseconds after liveOriginUs; the schedule's wall-clock origin is
// chosen when the run starts. The slab keeps the harness's own heap small
// and pointer-free, so its garbage collection does not show up in the
// latencies it measures.
type liveInput struct {
	rate             float64
	perTick          int
	ticks, warmTicks int
	events           int64           // events of the segment (warm-up included)
	due              []time.Duration // when each tick is due, after the schedule origin
	slab             []byte
	off              []uint32 // event i is slab[off[i]:off[i+1]]
	rng              *rand.Rand
	enc              *codec.Encoder
	seq              int64 // events generated so far
	topic            *msgbus.Topic
	query            *incremental.Query
	sink             *sinks.MemorySink
	hub              *serve.Hub
}

// appendEvents appends events [from, to) to the topic, event i to partition
// i % partitions, through bufs (one reusable buffer per partition).
func (in *liveInput) appendEvents(from, to int64, bufs [][]msgbus.Record) error {
	for p := range bufs {
		bufs[p] = bufs[p][:0]
	}
	for i := from; i < to; i++ {
		p := int(i % int64(len(bufs)))
		bufs[p] = append(bufs[p], msgbus.Record{Value: in.slab[in.off[i]:in.off[i+1]:in.off[i+1]]})
	}
	for p, recs := range bufs {
		if len(recs) == 0 {
			continue
		}
		if _, err := in.topic.Append(p, recs...); err != nil {
			return err
		}
	}
	return nil
}

// eventBufs allocates appendEvents' per-partition buffers for bursts of n.
func eventBufs(n int64) [][]msgbus.Record {
	bufs := make([][]msgbus.Record, topicPartitions)
	for p := range bufs {
		bufs[p] = make([]msgbus.Record, 0, n/topicPartitions+1)
	}
	return bufs
}

// sleepUntil blocks the calling thread in nanosleep(2) until t.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) //nolint:errcheck // an interrupted sleep is resumed by the loop
	}
}

const liveOriginUs = 1_600_000_000_000_000

// put encodes the next event, due at dueUs, onto the slab.
func (in *liveInput) put(dueUs int64) {
	in.enc.Reset()
	in.enc.PutInt64(liveValue(in.rng, in.seq))
	in.enc.PutInt64(dueUs)
	in.slab = append(in.slab, 2) // the codec's row framing: arity, then the tagged values
	in.slab = append(in.slab, in.enc.Bytes()...)
	in.off = append(in.off, uint32(len(in.slab)))
	in.seq++
}

// burst generates n fresh events and appends them to the topic at once:
// what a restart finds.
func (in *liveInput) burst(n int64) error {
	from := in.seq
	dueUs := liveOriginUs + int64(in.ticks)*liveTick.Microseconds() + from
	for i := int64(0); i < n; i++ {
		in.put(dueUs)
	}
	return in.appendEvents(from, in.seq, eventBufs(n))
}

// setupLive generates a segment's events from the seed and the segment's
// number, and builds the topic, query, sink and hub.
func setupLive(cfg config, measure time.Duration, segment int) (*liveInput, error) {
	in := &liveInput{enc: codec.NewEncoder(32)}
	in.perTick = int(float64(cfg.scaled(liveRate, 1000)) * liveTick.Seconds())
	if in.perTick < 1 {
		in.perTick = 1
	}
	in.rate = float64(in.perTick) / liveTick.Seconds()
	warm := cfg.shrink(liveWarmup)
	in.ticks = int((warm + measure) / liveTick)
	in.warmTicks = int(warm / liveTick)
	in.rng = rand.New(rand.NewSource(cfg.seed*liveSegments + int64(segment)))
	in.events = int64(in.ticks * in.perTick)
	in.slab = make([]byte, 0, in.events*20)
	in.off = make([]uint32, 1, in.events+1)
	in.due = make([]time.Duration, in.ticks)
	for k := range in.due {
		in.due[k] = time.Duration(k)*liveTick + time.Duration(in.rng.Int63n(int64(liveTick)))
		for i := 0; i < in.perTick; i++ {
			in.put(liveOriginUs + in.due[k].Microseconds())
		}
	}
	var err error
	if in.topic, err = newTopic("in", topicPartitions); err != nil {
		return nil, err
	}
	if in.query, err = mapQuery(true); err != nil {
		return nil, err
	}
	in.sink = sinks.NewMemorySink()
	in.sink.SetRetention(liveRetention)
	in.hub = serve.NewHub("live-serve", in.sink, serve.HubOptions{})
	return in, nil
}

// runLive offers in's load and returns what the subscribers saw.
func runLive(e *env, in *liveInput, traced bool) (*liveRun, error) {
	perTick, ticks, warmTicks, rate := in.perTick, in.ticks, in.warmTicks, in.rate
	warm := time.Duration(warmTicks) * liveTick
	total := int64(ticks * perTick)
	lr := &liveRun{rate: rate, offered: int64((ticks - warmTicks) * perTick), in: in}
	topic, q, ms, hub := in.topic, in.query, in.sink, in.hub
	defer hub.Close()

	opts := engine.Options{Workers: 1} // default trigger: ProcessingTimeTrigger{}
	ckpt, err := e.newCheckpoint()
	if err != nil {
		return nil, err
	}
	lr.ckpt = ckpt
	opts.Checkpoint = ckpt
	opts.HealthDir = e.healthDir
	st := &runStats{}
	lr.st = st
	srcs, sink, fsys, probe := e.plumb(map[string]sources.Source{"in": sources.NewCodecBusSource("in", topic, mapSchema)}, ms, traced, "run", st)
	defer probe.stop(st)
	opts.FS = fsys

	// Subscribers.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	var commitMu sync.Mutex
	commitAt := map[int64]time.Time{}
	type subState struct {
		seen    []uint8
		lat     []float64
		deliver []float64
		notify  []float64
		frames  int64
		dup     int64
		bad     int64
		// firstDue is when the first measured event was due; lastAt when the
		// last measured event arrived.
		firstDue, lastAt time.Time
	}
	subs := make([]*subState, liveSubscribers)
	var t0 time.Time // schedule origin, set before the generator starts
	ready := make(chan struct{})
	for i := range subs {
		s := &subState{seen: make([]uint8, total), lat: make([]float64, 0, lr.offered)}
		subs[i] = s
		sub, err := hub.Subscribe(serve.SubscribeOptions{Cursor: -1, From: "live", SkipHello: true})
		if err != nil {
			return nil, err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer sub.Close()
			<-ready
			warmEndUs := liveOriginUs + warm.Microseconds()
			for {
				f, err := sub.Next(ctx)
				if err != nil {
					return
				}
				if f.Kind != serve.FrameEpoch && f.Kind != serve.FrameSnapshot {
					continue
				}
				now := time.Now()
				nowUs := now.UnixMicro()
				s.frames++
				if f.EmitMicros > 0 {
					s.deliver = append(s.deliver, float64(nowUs-f.EmitMicros)/1e3)
				}
				commitMu.Lock()
				if at, ok := commitAt[f.Epoch]; ok {
					s.notify = append(s.notify, float64(now.Sub(at))/1e3)
				}
				commitMu.Unlock()
				for _, r := range f.Rows {
					if len(r) != 2 {
						s.bad++
						continue
					}
					v1, ok1 := r[0].(int64)
					produced, ok2 := r[1].(int64)
					if !ok1 || !ok2 {
						s.bad++
						continue
					}
					seq := liveSeqOf(v1)
					if seq < 0 || seq >= total {
						s.bad++
						continue
					}
					if s.seen[seq] != 0 {
						s.dup++
						continue
					}
					s.seen[seq] = 1
					if produced >= warmEndUs {
						// Due instant = schedule origin + the event's stamp.
						s.lat = append(s.lat, float64(now.Sub(t0)-time.Duration(produced-liveOriginUs)*time.Microsecond)/1e6)
						if s.firstDue.IsZero() {
							s.firstDue = t0.Add(time.Duration(produced-liveOriginUs) * time.Microsecond)
						}
						s.lastAt = now
					}
				}
				hub.Delivered(f)
			}
		}()
	}

	startAt := time.Now()
	sq, err := engine.Start(q, srcs, sink, opts)
	if err != nil {
		close(ready)
		return nil, fmt.Errorf("engine.Start: %w", err)
	}
	e.startMs = append(e.startMs, float64(time.Since(startAt))/1e6)
	hub.Attach(sq)
	var commits []time.Time
	var backlog []float64
	backlogGauge := sq.Metrics().Gauge("backlogRecords")
	remove := sq.AddEpochListener(func(epoch int64) {
		now := time.Now()
		probe.commit(epoch)
		commitMu.Lock()
		commitAt[epoch] = now
		commits = append(commits, now)
		backlog = append(backlog, float64(backlogGauge.Value()))
		commitMu.Unlock()
	})

	// Generator: open loop on an absolute schedule. A late wake-up is not
	// forgiven: the events keep their due stamps.
	late := make([]float64, 0, ticks)
	bufs := eventBufs(int64(perTick))
	t0 = time.Now().Add(10 * time.Millisecond)
	close(ready)
	var genErr error
	// The Go runtime wakes a sleeping goroutine through its network poller,
	// whose time-out counts whole milliseconds: time.Sleep returns about
	// half a millisecond late, in step with the engine's own 1 ms trigger.
	// The generator sleeps in the kernel, on a thread of its own, instead.
	runtime.LockOSThread()
	for k := 0; k < ticks && genErr == nil; k++ {
		due := t0.Add(in.due[k])
		sleepUntil(due)
		late = append(late, float64(time.Since(due))/1e6)
		genErr = in.appendEvents(int64(k*perTick), int64((k+1)*perTick), bufs)
	}
	runtime.UnlockOSThread()
	lr.lateMs = late[warmTicks:]

	// Drain: every event has liveLimit to arrive.
	deadline := time.Now().Add(liveLimit + 500*time.Millisecond)
	for time.Now().Before(deadline) {
		commitMu.Lock()
		n := len(commits)
		commitMu.Unlock()
		if n > 0 && sq.Metrics().Counter("inputRows").Value() >= total {
			// Consumed everything; give the hub a moment to deliver.
			time.Sleep(50 * time.Millisecond)
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	stopErr := sq.Stop()
	remove()
	cancel()
	wg.Wait()
	probe.stop(st)
	if genErr != nil {
		return nil, genErr
	}
	if stopErr != nil {
		return nil, stopErr
	}

	st.snap = sq.Metrics().Snapshot()
	st.hists = sq.Metrics().Histograms()
	st.rows = st.snap["inputRows"]
	st.outRows = st.snap["outputRows"]
	prev := startAt
	for _, c := range commits {
		st.epochMs = append(st.epochMs, float64(c.Sub(prev))/1e6)
		prev = c
	}
	lr.backlogP95 = percentile(backlog, 0.95)

	// One operation is one offered event of the measured window, per
	// subscriber: it fails when it is missing, duplicated, malformed or
	// later than the limit.
	firstMeasured := int64(warmTicks * perTick)
	for i, s := range subs {
		lr.latencyMs[i] = s.lat
		lr.delivered[i] = int64(len(s.lat))
		lr.frames += s.frames
		lr.deliverMs = append(lr.deliverMs, s.deliver...)
		lr.notifyUs = append(lr.notifyUs, s.notify...)
		lr.failed += s.dup + s.bad
		for seq := firstMeasured; seq < total; seq++ {
			if s.seen[seq] == 0 {
				lr.failed++
			}
		}
		for _, l := range s.lat {
			if l > float64(liveLimit/time.Millisecond) {
				lr.failed++
			}
		}
		if i == 0 {
			lr.span = s.lastAt.Sub(s.firstDue)
		}
	}
	if st.outRows != total {
		lr.failed++
	}
	return lr, nil
}

// throughput is rows delivered to the first subscriber per second, from
// the first measured event's due instant to the last one's receipt: it
// equals the offered rate when the system keeps up.
func (lr *liveRun) throughput() float64 {
	return ratio(float64(lr.delivered[0]), lr.span.Seconds())
}

func runLiveServe(e *env) (*outcome, error) {
	cfg := e.cfg
	out := &outcome{endToEnd: map[string]float64{}, perLayer: map[string]float64{}, notes: map[string]any{}}
	measure := cfg.shrink(time.Duration(cfg.seconds) * time.Second)

	// Set-up generates every event of the run's segments and builds each
	// segment's topic, query, sink and hub.
	var setupS []float64
	build := func(measure []time.Duration) ([]*liveInput, error) {
		if err := cfg.cpus.choose(); err != nil {
			return nil, err
		}
		runtime.GC()
		t0 := time.Now()
		ins := make([]*liveInput, len(measure))
		for seg, m := range measure {
			var err error
			if ins[seg], err = setupLive(cfg, m, seg); err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		return ins, nil
	}
	// An untraced run measures liveSegments equal segments. A traced one
	// measures one untraced segment, for the tracing overhead, and a traced
	// one twice as long.
	segments := make([]time.Duration, liveSegments)
	for i := range segments {
		segments[i] = measure / liveSegments
	}
	rounds := liveSetupRounds
	if cfg.trace {
		segments = []time.Duration{measure / 3, measure * 2 / 3}
		rounds = 1
	}
	// Set-up takes tens of milliseconds and gets faster over the first
	// rounds as the allocator warms up, so it is repeated more often than
	// the bulk workloads' set-up and the first rounds are left out of the
	// median. The last round's segments are the ones run.
	var ins []*liveInput
	for i := 0; i < rounds; i++ {
		for _, in := range ins {
			in.hub.Close()
		}
		var err error
		if ins, err = build(segments); err != nil {
			return nil, err
		}
	}
	if rounds > liveSetupWarm {
		setupS = setupS[liveSetupWarm:]
	}

	// runs holds the untraced segments, then the traced one if there is one.
	// Each untraced segment is followed by its share of the restarts, on its
	// own checkpoint, so that the restarts sample the whole length of the run
	// as the segments do; a traced invocation keeps them all for the end,
	// where its spans are told from the main runs' by position.
	var runs []*liveRun
	var tracedRun *liveRun
	var recS []float64
	for i, in := range ins {
		traced := cfg.trace && i == len(ins)-1
		if err := cfg.cpus.choose(); err != nil {
			return nil, err
		}
		runtime.GC() // also drops the previous segment's restart ballast
		lr, err := runLive(e, in, traced)
		if err != nil {
			return nil, err
		}
		runs = append(runs, lr)
		restarts := liveRestarts / liveSegments
		if traced {
			tracedRun = lr
			e.mainCut = e.rec.mark()
			restarts = liveRestarts
		} else if cfg.trace {
			restarts = 0
		}
		rec, err := e.liveRestart(out, lr, restarts)
		if err != nil {
			return nil, err
		}
		recS = append(recS, rec...)
	}
	out.endToEnd["setup_s"] = median(setupS)
	out.notes["setup_s.rounds"] = setupS
	var thr, p50, p95, lateP99, backlog []float64
	var samples int
	for _, lr := range runs {
		out.attempted += lr.offered * liveSubscribers
		out.failed += lr.failed
		// A backlog beyond one second of input means the engine is not
		// sustaining the offered rate, whatever the latency says.
		if lr.backlogP95 > lr.rate {
			out.failed++
			out.notes["backlog"] = fmt.Sprintf("p95 backlog %.0f rows exceeds one second of input (%.0f)", lr.backlogP95, lr.rate)
		}
		if lr == tracedRun {
			continue
		}
		var lat []float64
		for i := range lr.latencyMs {
			lat = append(lat, lr.latencyMs[i]...)
		}
		samples += len(lat)
		thr = append(thr, lr.throughput())
		p50 = append(p50, percentile(lat, 0.50))
		p95 = append(p95, percentile(lat, 0.95))
		lateP99 = append(lateP99, percentile(lr.lateMs, 0.99))
		backlog = append(backlog, lr.backlogP95)
	}
	untraced := runs[0]
	out.endToEnd["throughput_rows_s"] = median(thr) // the offered rate, unless the engine falls behind
	out.endToEnd["latency_ms_p50"] = quiet(p50, "lower")
	out.endToEnd["latency_ms_p95"] = quiet(p95, "lower")
	out.notes["latency.samples"] = samples
	out.notes["segments.throughput_rows_s"] = thr
	out.notes["segments.latency_ms_p50"] = p50
	out.notes["segments.latency_ms_p95"] = p95
	out.notes["offered_rate"] = untraced.rate
	out.notes["gen.late_ms_p99"] = slices.Max(lateP99)
	out.notes["backlog_rows_p95"] = slices.Max(backlog)
	out.notes["engine.epochs"] = untraced.st.snap["epochs"]

	out.endToEnd["recovery_s"] = quiet(recS, "lower")
	out.notes["recovery_s.restarts"] = recS

	if cfg.trace {
		e.livePerLayer(out, untraced, tracedRun)
	}
	return out, nil
}

// liveRestart restarts lr's stopped query on its checkpoint n times, each
// after a burst of fresh events, and returns engine.Start → first newly
// committed epoch of each.
func (e *env) liveRestart(out *outcome, lr *liveRun, n int) ([]float64, error) {
	cfg := e.cfg
	chunk := cfg.scaled(recoveryChunk, 512)
	defer e.holdBallast()()
	var recS []float64
	for i := 0; i < n; i++ {
		if err := lr.in.burst(chunk); err != nil {
			return nil, err
		}
		seq := lr.in.seq
		t0 := time.Now()
		q, err := mapQuery(true)
		if err != nil {
			return nil, err
		}
		e.compileUs = append(e.compileUs, float64(time.Since(t0))/1e3)
		j := &job{
			query: q,
			srcs:  map[string]sources.Source{"in": sources.NewCodecBusSource("in", lr.in.topic, mapSchema)},
			sink:  sinks.NewMemorySink(),
			opts:  engine.Options{Workers: 1},
		}
		if err := cfg.cpus.choose(); err != nil {
			return nil, err
		}
		runtime.GC()
		st, err := e.runEngine(j, lr.ckpt, untilNewCommit, cfg.trace, "restart")
		if err != nil {
			return nil, fmt.Errorf("restart %d: %w", i, err)
		}
		// The restarted query must deliver exactly the burst, once.
		seen := map[int64]bool{}
		var bad int64
		for _, r := range j.sink.Rows() {
			if len(r) != 2 {
				bad++
				continue
			}
			v1, ok := r[0].(int64)
			s := liveSeqOf(v1)
			if !ok || s < seq-chunk || s >= seq || seen[s] {
				bad++
				continue
			}
			seen[s] = true
		}
		out.attempted += chunk
		out.failed += bad + (chunk - int64(len(seen)))
		recS = append(recS, st.first.Seconds())
	}
	return recS, nil
}

func init() {
	register(workloadDef{
		name:    "live-serve",
		workers: 1,
		frozen:  fmt.Sprintf("%d events/s, %d per %d ms tick, %d segments", liveRate, liveRate*int(liveTick/time.Millisecond)/1000, liveTick/time.Millisecond, liveSegments),
		sizes: func(cfg config) map[string]any {
			return map[string]any{
				"offered_events_per_second": cfg.scaled(liveRate, 1000),
				"tick_ms":                   liveTick.Seconds() * 1e3,
				"segments":                  liveSegments,
				"segment_measured_s":        cfg.shrink(time.Duration(cfg.seconds)*time.Second).Seconds() / liveSegments,
				"segment_warmup_s":          cfg.shrink(liveWarmup).Seconds(),
				"latency_limit_s":           liveLimit.Seconds(),
				"subscribers":               liveSubscribers,
				"sink_retention_epochs":     liveRetention,
				"recovery_chunk":            cfg.scaled(recoveryChunk, 512),
				"restarts":                  liveRestarts,
			}
		},
		run: runLiveServe,
	})
}
