package msgbus

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

func newTopic(t *testing.T, parts int) *Topic {
	t.Helper()
	b := NewBroker()
	topic, err := b.CreateTopic("test", parts)
	if err != nil {
		t.Fatal(err)
	}
	return topic
}

func TestAppendFetch(t *testing.T) {
	topic := newTopic(t, 1)
	first, err := topic.Append(0,
		Record{Value: []byte("a"), Timestamp: 1},
		Record{Value: []byte("b"), Timestamp: 2},
	)
	if err != nil || first != 0 {
		t.Fatalf("first=%d err=%v", first, err)
	}
	recs, err := topic.FetchRange(0, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("recs=%v", recs)
	}
	if recs[0].Offset != 0 || recs[1].Offset != 1 {
		t.Errorf("offsets = %d, %d", recs[0].Offset, recs[1].Offset)
	}
	if string(recs[0].Value) != "a" {
		t.Errorf("value = %q", recs[0].Value)
	}
}

func TestFetchAtHeadReturnsEmpty(t *testing.T) {
	topic := newTopic(t, 1)
	recs, err := topic.FetchRange(0, 0, 10)
	if err != nil || len(recs) != 0 {
		t.Fatalf("recs=%v err=%v", recs, err)
	}
}

func TestFetchMaxRecords(t *testing.T) {
	topic := newTopic(t, 1)
	for i := 0; i < 10; i++ {
		topic.Append(0, Record{Value: []byte{byte(i)}})
	}
	recs, err := topic.FetchRange(0, 0, 3)
	if err != nil || len(recs) != 3 {
		t.Fatalf("recs=%d err=%v", len(recs), err)
	}
	// A range past the head is clipped to it.
	recs, _ = topic.FetchRange(0, 3, 100)
	if len(recs) != 7 || recs[6].Offset != 9 {
		t.Fatalf("second fetch: %d records", len(recs))
	}
}

func TestReplayability(t *testing.T) {
	// The core property the engine relies on: the same offset range always
	// returns the same records.
	topic := newTopic(t, 1)
	for i := 0; i < 100; i++ {
		topic.Append(0, Record{Value: []byte(fmt.Sprint(i))})
	}
	a, _ := topic.FetchRange(0, 10, 20)
	b, _ := topic.FetchRange(0, 10, 20)
	if len(a) != 10 || len(b) != 10 {
		t.Fatalf("lens %d %d", len(a), len(b))
	}
	for i := range a {
		if string(a[i].Value) != string(b[i].Value) || a[i].Offset != b[i].Offset {
			t.Fatalf("replay mismatch at %d", i)
		}
	}
}

func TestProduceKeyRouting(t *testing.T) {
	topic := newTopic(t, 4)
	// The same key always lands in the same partition.
	p1, _, _ := topic.Produce([]byte("user-1"), []byte("x"), 0)
	p2, _, _ := topic.Produce([]byte("user-1"), []byte("y"), 0)
	if p1 != p2 {
		t.Errorf("same key routed to %d then %d", p1, p2)
	}
	// Keyless produce round-robins over all partitions.
	seen := map[int]bool{}
	for i := 0; i < 8; i++ {
		p, _, _ := topic.Produce(nil, []byte("z"), 0)
		seen[p] = true
	}
	if len(seen) != 4 {
		t.Errorf("round robin covered %d of 4 partitions", len(seen))
	}
}

func TestRetentionTrim(t *testing.T) {
	topic := newTopic(t, 1)
	for i := 0; i < 10; i++ {
		topic.Append(0, Record{Value: []byte{byte(i)}})
	}
	if err := topic.TrimBefore(0, 4); err != nil {
		t.Fatal(err)
	}
	if got := topic.EarliestOffsets()[0]; got != 4 {
		t.Errorf("earliest = %d", got)
	}
	// Reading below the earliest offset errors like Kafka.
	_, err := topic.FetchRange(0, 2, 10)
	var oor *ErrOffsetOutOfRange
	if err == nil {
		t.Fatal("expected offset-out-of-range error")
	}
	if ok := asOOR(err, &oor); !ok || oor.Earliest != 4 {
		t.Errorf("err = %v", err)
	}
	// Offsets are stable across trims.
	recs, err := topic.FetchRange(0, 4, 5)
	if err != nil || recs[0].Value[0] != 4 {
		t.Errorf("record at 4 = %v err=%v", recs, err)
	}
	// Trimming past the head clamps.
	if err := topic.TrimBefore(0, 99); err != nil {
		t.Fatal(err)
	}
	if got := topic.EarliestOffsets()[0]; got != 10 {
		t.Errorf("earliest after over-trim = %d", got)
	}
}

func asOOR(err error, out **ErrOffsetOutOfRange) bool {
	e, ok := err.(*ErrOffsetOutOfRange)
	if ok {
		*out = e
	}
	return ok
}

func TestLatestOffsets(t *testing.T) {
	topic := newTopic(t, 2)
	topic.Append(0, Record{}, Record{})
	topic.Append(1, Record{})
	latest := topic.LatestOffsets()
	if latest[0] != 2 || latest[1] != 1 {
		t.Errorf("latest = %v", latest)
	}
}

// TestArrivalSignal pins the signal's contract: any partition's append
// offers one token, appends between two receives coalesce, a stopped channel
// hears nothing more, and an append with nobody registered costs nothing.
func TestArrivalSignal(t *testing.T) {
	topic := newTopic(t, 2)
	topic.Append(0, Record{}) // nobody listening
	a, b := make(chan struct{}, 1), make(chan struct{}, 1)
	stopA, stopB := topic.NotifyArrival(a), topic.NotifyArrival(b)
	if n := topic.ArrivalListeners(); n != 2 {
		t.Fatalf("listeners = %d, want 2", n)
	}
	topic.Append(0, Record{})
	topic.Append(1, Record{}, Record{})
	for name, ch := range map[string]chan struct{}{"a": a, "b": b} {
		select {
		case <-ch:
		default:
			t.Errorf("%s: no token after two appends", name)
		}
		select {
		case <-ch:
			t.Errorf("%s: two appends left two tokens, want them coalesced", name)
		default:
		}
	}
	stopA()
	stopA() // idempotent
	topic.Append(1, Record{})
	select {
	case <-a:
		t.Error("a stopped channel was signalled")
	default:
	}
	select {
	case <-b:
	default:
		t.Error("b lost its signal when a stopped")
	}
	stopB()
	if n := topic.ArrivalListeners(); n != 0 {
		t.Errorf("listeners = %d after both stopped, want 0", n)
	}
	if allocs := testing.AllocsPerRun(100, topic.arrival.Fire); allocs != 0 {
		t.Errorf("Fire allocates %.0f times per call", allocs)
	}
}

// TestArrivalNoLostWakeup is the waiter's protocol under contention: a
// consumer that registers, looks, then blocks on the channel alone — no
// timer — sees every record of producers appending one at a time. A lost
// wake-up hangs the test.
func TestArrivalNoLostWakeup(t *testing.T) {
	topic := newTopic(t, 4)
	const producers, each = 4, 2000
	wake := make(chan struct{}, 1)
	defer topic.NotifyArrival(wake)()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				topic.Append(p, Record{})
				if i%64 == 0 {
					runtime.Gosched()
				}
			}
		}(p)
	}
	var seen int64
	for seen < producers*each {
		var total int64
		for _, off := range topic.LatestOffsets() {
			total += off
		}
		if total > seen {
			seen = total
			continue
		}
		<-wake
	}
	wg.Wait()
}

func TestConcurrentProducers(t *testing.T) {
	topic := newTopic(t, 4)
	const producers, each = 8, 500
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, _, err := topic.Produce([]byte(fmt.Sprint(id)), []byte("v"), int64(i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	if got := topic.TotalRecords(); got != producers*each {
		t.Errorf("total = %d, want %d", got, producers*each)
	}
	// Offsets within each partition must be dense and unique.
	for part := 0; part < 4; part++ {
		recs, err := topic.FetchRange(part, 0, producers*each)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range recs {
			if r.Offset != int64(i) {
				t.Fatalf("partition %d offset %d at index %d", part, r.Offset, i)
			}
		}
	}
}

func TestTopicErrors(t *testing.T) {
	b := NewBroker()
	if _, err := b.CreateTopic("bad", 0); err == nil {
		t.Error("zero partitions should error")
	}
	topic, _ := b.CreateTopic("t", 2)
	if _, err := b.CreateTopic("t", 2); err != nil {
		t.Errorf("idempotent create failed: %v", err)
	}
	if _, err := b.CreateTopic("t", 3); err == nil {
		t.Error("repartition should error")
	}
	if _, err := topic.Append(5, Record{}); err == nil {
		t.Error("bad partition append should error")
	}
	if _, err := topic.FetchRange(5, 0, 1); err == nil {
		t.Error("bad partition fetch should error")
	}
	if _, err := topic.FetchRange(0, 5, 2); err == nil {
		t.Error("inverted range should error")
	}
	if _, ok := b.Topic("missing"); ok {
		t.Error("missing topic lookup should fail")
	}
}

func BenchmarkProduceFetch(b *testing.B) {
	broker := NewBroker()
	topic, _ := broker.CreateTopic("bench", 4)
	payload := make([]byte, 64)
	b.ReportAllocs()
	b.SetBytes(64)
	var off int64
	for i := 0; i < b.N; i++ {
		if _, _, err := topic.Produce(nil, payload, 0); err != nil {
			b.Fatal(err)
		}
		if i%1024 == 0 {
			for p := 0; p < 4; p++ {
				if _, err := topic.FetchRange(p, off/4, off/4+1024); err != nil {
					b.Fatal(err)
				}
			}
			off += 1024
		}
	}
}

func TestInjectFetchFault(t *testing.T) {
	topic := newTopic(t, 1)
	if _, err := topic.Append(0, Record{Value: []byte("a")}); err != nil {
		t.Fatal(err)
	}
	injected := fmt.Errorf("flaky broker connection")
	var calls int
	topic.InjectFetchFault(func(part int, from int64) error {
		calls++
		if calls <= 2 {
			return injected
		}
		return nil
	})
	for i := 0; i < 2; i++ {
		if _, err := topic.FetchRange(0, 0, 10); err != injected {
			t.Fatalf("fetch %d err = %v, want injected fault", i, err)
		}
	}
	recs, err := topic.FetchRange(0, 0, 10)
	if err != nil || len(recs) != 1 {
		t.Fatalf("after fault budget: recs=%v err=%v", recs, err)
	}
	// nil removes the hook.
	topic.InjectFetchFault(nil)
	if _, err := topic.FetchRange(0, 0, 10); err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Errorf("hook consulted %d times, want 3", calls)
	}
}

// TestFetchViewStableAcrossAppendAndTrim holds a FetchRange result and a run
// view over a range spanning three segments while producers append and
// retention trims the first two segments away underneath them: both must
// keep reading the same records (run under -race, the concurrent reads also
// prove no writer touches bytes a view can see).
func TestFetchViewStableAcrossAppendAndTrim(t *testing.T) {
	topic := newTopic(t, 1)
	const n = 64
	for i := 0; i < n; i++ {
		topic.Append(0, Record{Timestamp: int64(i), Key: []byte{byte(i), 1}, Value: []byte{byte(i)}})
	}
	view, err := topic.FetchRange(0, 8, 56)
	if err != nil || len(view) != 48 {
		t.Fatalf("fetch: len=%d err=%v", len(view), err)
	}
	runs, err := topic.Runs(0, 8, 56, nil)
	if err != nil || len(runs) != 3 {
		t.Fatalf("runs: %d runs, err=%v; want the range to span 3 segments", len(runs), err)
	}
	want := func(rec Record, off int64) bool {
		return rec.Offset == off && rec.Timestamp == off && string(rec.Key) == string([]byte{byte(off), 1}) &&
			string(rec.Value) == string([]byte{byte(off)})
	}
	check := func() {
		for i, rec := range view {
			if !want(rec, int64(8+i)) {
				t.Errorf("view[%d] = %+v, want offset %d", i, rec, 8+i)
				return
			}
		}
		off := int64(8)
		for _, r := range runs {
			for i := 0; i < r.Len(); i++ {
				if rec := r.Record(i); !want(rec, off) {
					t.Errorf("run record %+v, want offset %d", rec, off)
					return
				}
				off++
			}
		}
		if off != 56 {
			t.Errorf("runs end at %d, want 56", off)
		}
	}
	// Appends through a record's bytes or a run's slices land in the
	// caller's own arrays, not on record 56.
	last := view[len(view)-1]
	r := runs[len(runs)-1]
	_, _ = append(last.Value, 0xee), append(last.Key, 0xee)
	_, _, _ = append(r.Vals, 0xee), append(r.Ends, 1<<30), append(r.Times, -7)
	if recs, err := topic.FetchRange(0, 56, 57); err != nil || len(recs) != 1 || !want(recs[0], 56) {
		t.Fatalf("append through a view reached the log: %+v err=%v", recs, err)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // appends fill the tail segment and open new ones
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			topic.Append(0, Record{Timestamp: -1, Key: []byte{0xff}, Value: []byte{0xff}})
		}
	}()
	go func() { // trims release the segments the views read
		defer wg.Done()
		for keep := int64(1); keep <= 60; keep++ {
			if err := topic.TrimBefore(0, keep); err != nil {
				t.Error(err)
			}
		}
	}()
	for i := 0; i < 200; i++ {
		check()
	}
	wg.Wait()
	check()
}

// TestEmptyRangeAndAppend: an empty range reads no records, from FetchRange
// and from Runs alike, and an Append of no records changes nothing and
// signals no arrival.
func TestEmptyRangeAndAppend(t *testing.T) {
	topic := newTopic(t, 1)
	for i := 0; i < 10; i++ {
		topic.Append(0, Record{Value: []byte{byte(i)}})
	}
	if recs, err := topic.FetchRange(0, 5, 5); err != nil || len(recs) != 0 {
		t.Errorf("FetchRange(0, 5, 5) = %d records, err %v; want none", len(recs), err)
	}
	if runs, err := topic.Runs(0, 5, 5, nil); err != nil || len(runs) != 0 {
		t.Errorf("Runs(0, 5, 5) = %d runs, err %v; want none", len(runs), err)
	}
	empty := newTopic(t, 1)
	wake := make(chan struct{}, 1)
	defer empty.NotifyArrival(wake)()
	if off, err := empty.Append(0); err != nil || off != 0 {
		t.Fatalf("empty append: offset %d err %v", off, err)
	}
	select {
	case <-wake:
		t.Error("an append of no records signalled an arrival")
	default:
	}
	if segs := len(empty.parts[0].segs); segs != 0 {
		t.Errorf("an append of no records opened %d segments", segs)
	}
}

// TestAppendCopies: the log keeps its own copy of what Append was given,
// so a caller reusing its buffers afterwards, or appending to a fetched
// value, leaves the log as it was.
func TestAppendCopies(t *testing.T) {
	topic := newTopic(t, 1)
	key, val := []byte("key-0"), make([]byte, 4, 64)
	copy(val, "abcd")
	topic.Append(0, Record{Key: key, Value: val}, Record{Key: key, Value: val[:2]})
	copy(key, "XXXXX")
	copy(val[:cap(val)], "YYYYYYYY")
	recs, _ := topic.FetchRange(0, 0, 2)
	_ = append(recs[0].Value, 'Z')
	_ = append(recs[0].Key, 'Z')
	recs, _ = topic.FetchRange(0, 0, 2)
	if len(recs) != 2 || string(recs[0].Key) != "key-0" || string(recs[0].Value) != "abcd" ||
		string(recs[1].Key) != "key-0" || string(recs[1].Value) != "ab" {
		t.Errorf("log changed under its caller: %q", recs)
	}
}

// TestSmallTopicIsSmall: a topic of one 10-byte record per partition costs
// a small first segment, not a full one — tests, file sinks' control
// topics and per-segment topics hold a handful of records.
func TestSmallTopicIsSmall(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	topic, _ := NewBroker().CreateTopic("small", 4)
	for p := 0; p < 4; p++ {
		topic.Append(p, Record{Key: []byte("k"), Value: []byte("0123456789")})
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Errorf("a 4-record topic allocated %d bytes, want under 64 KiB", got)
	}
}

// TestProduceHashIsFNV holds Produce's inlined key hash to hash/fnv over a
// key corpus, so every key keeps its partition, and checks that routing a
// keyed record does not allocate (segment opens amortize below one
// allocation per record).
func TestProduceHashIsFNV(t *testing.T) {
	topic := newTopic(t, 7)
	rng := rand.New(rand.NewSource(1))
	var keys [][]byte
	for i := 0; i < 256; i++ {
		keys = append(keys, []byte{byte(i)}, []byte(fmt.Sprintf("user-%d", i)))
		k := make([]byte, 1+rng.Intn(64))
		rng.Read(k)
		keys = append(keys, k)
	}
	for _, k := range keys {
		h := fnv.New32a()
		h.Write(k)
		if got, _, err := topic.Produce(k, []byte("v"), 0); err != nil || got != int(h.Sum32()%7) {
			t.Fatalf("key %q went to partition %d (err %v), hash/fnv says %d", k, got, err, h.Sum32()%7)
		}
	}
	key, val := []byte("user-1"), []byte("value")
	if allocs := testing.AllocsPerRun(1000, func() { topic.Produce(key, val, 0) }); allocs != 0 {
		t.Errorf("Produce allocates %.0f times per keyed record", allocs)
	}
}

// TestLogMatchesModel drives random appends, fetches, run reads and trims
// against a plain []Record model of the log and checks the topic against
// the model after every operation. Values and keys run from nil and empty
// to past the segment byte cap; a nil and an empty value read back alike.
func TestLogMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const parts = 2
		topic := newTopic(t, parts)
		model := make([][]Record, parts) // every record appended; index = offset
		base := make([]int64, parts)
		size := func() int {
			switch r := rng.Intn(2000); {
			case r == 0:
				return segBytes + 1 + rng.Intn(63)
			case r < 200:
				return rng.Intn(4096)
			default:
				return rng.Intn(24)
			}
		}
		// bytesOf returns n bytes, the first 64 at random, twice: the
		// model's copy and the one Append is given, which the test clears
		// once Append returns. n = 0 gives nil or empty.
		bytesOf := func(n int) (owned, passed []byte) {
			if n == 0 && rng.Intn(2) == 0 {
				return nil, nil
			}
			passed = make([]byte, n)
			rng.Read(passed[:min(n, 64)])
			return append([]byte{}, passed...), passed
		}
		same := func(what string, got []Record, want []Record) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("seed %d: %s: %d records, want %d", seed, what, len(got), len(want))
			}
			for i := range got {
				g, w := got[i], want[i]
				if g.Offset != w.Offset || g.Timestamp != w.Timestamp || !bytes.Equal(g.Key, w.Key) || !bytes.Equal(g.Value, w.Value) {
					t.Fatalf("seed %d: %s: record %d is %d/%d/%dB/%dB, want %d/%d/%dB/%dB", seed, what, i,
						g.Offset, g.Timestamp, len(g.Key), len(g.Value), w.Offset, w.Timestamp, len(w.Key), len(w.Value))
				}
			}
		}
		flatten := func(runs []Run) []Record {
			var out []Record
			for _, r := range runs {
				if len(r.Ends) != r.Len()+1 || cap(r.Vals) != len(r.Vals) || (r.KeyEnds != nil && len(r.KeyEnds) != r.Len()+1) {
					t.Fatalf("seed %d: malformed run %+v", seed, r)
				}
				if len(out) > 0 && r.Base != out[len(out)-1].Offset+1 {
					t.Fatalf("seed %d: run at %d does not follow %d", seed, r.Base, out[len(out)-1].Offset)
				}
				for i := 0; i < r.Len(); i++ {
					out = append(out, r.Record(i))
				}
			}
			return out
		}
		// want returns the model's records [from, to) clipped to the head,
		// or ok=false when from is below the earliest retained offset.
		want := func(p int, from, to int64) ([]Record, bool) {
			if from < base[p] {
				return nil, false
			}
			to = min(to, int64(len(model[p])))
			if from >= to {
				return nil, true
			}
			return model[p][from:to], true
		}
		for op := 0; op < 250; op++ {
			p := rng.Intn(parts)
			next := int64(len(model[p]))
			from := base[p] - 2 + rng.Int63n(next-base[p]+5)
			to := from - 1 + rng.Int63n(40)
			switch rng.Intn(7) {
			case 0, 1, 2:
				batch := make([]Record, rng.Intn(200))
				keyed := rng.Intn(2) == 0
				for i := range batch {
					var k, kp []byte
					if keyed && rng.Intn(4) > 0 {
						k, kp = bytesOf(size())
					}
					v, vp := bytesOf(size())
					ts := rng.Int63()
					model[p] = append(model[p], Record{Offset: int64(len(model[p])), Timestamp: ts, Key: k, Value: v})
					batch[i] = Record{Offset: -1, Timestamp: ts, Key: kp, Value: vp}
				}
				if first, err := topic.Append(p, batch...); err != nil || first != next {
					t.Fatalf("seed %d: Append: first offset %d, want %d, err %v", seed, first, next, err)
				}
				for _, r := range batch { // the caller reuses its buffers
					clear(r.Key)
					clear(r.Value)
				}
			case 3, 4, 5:
				recs, err := topic.FetchRange(p, from, to)
				runs, rerr := topic.Runs(p, from, to, nil)
				w, ok := want(p, from, to)
				if to < from || !ok {
					if err == nil || rerr == nil {
						t.Fatalf("seed %d: [%d, %d) below %d or inverted read without error", seed, from, to, base[p])
					}
					break
				}
				if err != nil || rerr != nil {
					t.Fatalf("seed %d: [%d, %d): %v, %v", seed, from, to, err, rerr)
				}
				same("FetchRange", recs, w)
				same("Runs", flatten(runs), w)
			case 6:
				keep := base[p] - 2 + rng.Int63n(next-base[p]+4)
				if err := topic.TrimBefore(p, keep); err != nil {
					t.Fatal(err)
				}
				if keep > base[p] {
					base[p] = min(keep, next)
				}
			}
			for q := 0; q < parts; q++ {
				head := int64(len(model[q]))
				if l, e := topic.LatestOffsets()[q], topic.EarliestOffsets()[q]; l != head || e != base[q] {
					t.Fatalf("seed %d: partition %d offsets [%d, %d), want [%d, %d)", seed, q, e, l, base[q], head)
				}
				recs, err := topic.FetchRange(q, base[q], head)
				if err != nil {
					t.Fatal(err)
				}
				same("retained log", recs, model[q][base[q]:])
				runs, err := topic.Runs(q, base[q], head, nil)
				if err != nil {
					t.Fatal(err)
				}
				same("retained runs", flatten(runs), model[q][base[q]:])
			}
			var total int64
			for q := range model {
				total += int64(len(model[q])) - base[q]
			}
			if got := topic.TotalRecords(); got != total {
				t.Fatalf("seed %d: TotalRecords %d, want %d", seed, got, total)
			}
		}
	}
}

// BenchmarkTopicFetch reads one epoch-sized range per iteration through
// FetchRange, which hands out []Record, and reports the cost per record.
func BenchmarkTopicFetch(b *testing.B) {
	topic, _ := NewBroker().CreateTopic("bench", 1)
	const n = 1 << 17
	recs := make([]Record, n)
	for i := range recs {
		recs[i].Value = []byte{byte(i)}
	}
	topic.Append(0, recs...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := topic.FetchRange(0, 0, n)
		if err != nil || len(out) != n {
			b.Fatalf("fetched %d records, err=%v", len(out), err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	rows := float64(b.N) * n
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/rows, "ns/row")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/rows, "allocs/row")
}

// BenchmarkTopicAppend is the benchmark's map-bulk preload: 4 partitions of
// 1 Mi records of 14 bytes each, appended in 8 192-record batches into a
// fresh topic per iteration. It reports the time and the bytes allocated
// per record appended.
func BenchmarkTopicAppend(b *testing.B) {
	const parts, perPart, batch, size = 4, 1 << 20, 8192, 14
	slab := make([]byte, parts*batch*size)
	for i := range slab {
		slab[i] = byte(i * 7)
	}
	bufs := make([][]Record, parts)
	for p := range bufs {
		bufs[p] = make([]Record, batch)
		for i := range bufs[p] {
			off := (p*batch + i) * size
			bufs[p][i] = Record{Timestamp: int64(i), Value: slab[off : off+size : off+size]}
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		topic, _ := NewBroker().CreateTopic("bench", parts)
		for n := 0; n < perPart; n += batch {
			for p, buf := range bufs {
				if _, err := topic.Append(p, buf...); err != nil {
					b.Fatal(err)
				}
			}
		}
		if got := topic.TotalRecords(); got != parts*perPart {
			b.Fatalf("topic holds %d records, want %d", got, parts*perPart)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	recs := float64(b.N) * parts * perPart
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/recs, "ns/record")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/recs, "B/record")
}

// BenchmarkTopicRuns reads one map-bulk epoch per partition (64 Ki
// records of 14 bytes, from the middle of a 1 Mi-record partition) per
// iteration through the run view, as the bus source does, and touches every
// value; it fails if a read allocates.
func BenchmarkTopicRuns(b *testing.B) {
	const n, epoch, size = 1 << 20, 1 << 16, 14
	topic, _ := NewBroker().CreateTopic("bench", 1)
	slab := make([]byte, n*size)
	recs := make([]Record, n)
	for i := range recs {
		slab[i*size] = byte(i)
		recs[i].Value = slab[i*size : (i+1)*size]
	}
	topic.Append(0, recs...)
	recs, slab = nil, nil
	var buf [4]Run
	var sum int
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runs, err := topic.Runs(0, n/2, n/2+epoch, buf[:0])
		if err != nil {
			b.Fatal(err)
		}
		read := 0
		for j := range runs {
			r := &runs[j]
			for k := 0; k < r.Len(); k++ {
				sum += int(r.Value(k)[0])
			}
			read += r.Len()
		}
		if read != epoch {
			b.Fatalf("read %d records, want %d", read, epoch)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	if allocs := after.Mallocs - before.Mallocs; allocs != 0 {
		b.Fatalf("%d reads allocated %d times", b.N, allocs)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*epoch), "ns/row")
	benchSink = sum
}

var benchSink int
