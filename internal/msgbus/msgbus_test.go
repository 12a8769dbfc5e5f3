package msgbus

import (
	"fmt"
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
	recs, next, err := topic.Fetch(0, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || next != 2 {
		t.Fatalf("recs=%v next=%d", recs, next)
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
	recs, next, err := topic.Fetch(0, 0, 10)
	if err != nil || len(recs) != 0 || next != 0 {
		t.Fatalf("recs=%v next=%d err=%v", recs, next, err)
	}
}

func TestFetchMaxRecords(t *testing.T) {
	topic := newTopic(t, 1)
	for i := 0; i < 10; i++ {
		topic.Append(0, Record{Value: []byte{byte(i)}})
	}
	recs, next, err := topic.Fetch(0, 0, 3)
	if err != nil || len(recs) != 3 || next != 3 {
		t.Fatalf("recs=%d next=%d err=%v", len(recs), next, err)
	}
	recs, next, _ = topic.Fetch(0, next, 100)
	if len(recs) != 7 || next != 10 {
		t.Fatalf("second fetch: %d next=%d", len(recs), next)
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
	_, _, err := topic.Fetch(0, 2, 10)
	var oor *ErrOffsetOutOfRange
	if err == nil {
		t.Fatal("expected offset-out-of-range error")
	}
	if ok := asOOR(err, &oor); !ok || oor.Earliest != 4 {
		t.Errorf("err = %v", err)
	}
	// Offsets are stable across trims.
	recs, _, err := topic.Fetch(0, 4, 1)
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
		recs, _, err := topic.Fetch(part, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		recs2, _, _ := topic.Fetch(part, 0, producers*each)
		if len(recs) != 0 && len(recs2) == 0 {
			t.Fatal("fetch inconsistency")
		}
		for i, r := range recs2 {
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
	if _, _, err := topic.Fetch(5, 0, 1); err == nil {
		t.Error("bad partition fetch should error")
	}
	if _, err := topic.FetchRange(0, 5, 2); err == nil {
		t.Error("inverted range should error")
	}
	if _, ok := b.Topic("missing"); ok {
		t.Error("missing topic lookup should fail")
	}
}

func TestDeleteTopic(t *testing.T) {
	b := NewBroker()
	b.CreateTopic("t", 1)
	b.DeleteTopic("t")
	if _, ok := b.Topic("t"); ok {
		t.Error("topic should be deleted")
	}
	if got := len(b.Topics()); got != 0 {
		t.Errorf("topics = %d", got)
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
				recs, next, err := topic.Fetch(p, off/4, 1024)
				if err != nil {
					b.Fatal(err)
				}
				_ = recs
				_ = next
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
		if _, _, err := topic.Fetch(0, 0, 10); err != injected {
			t.Fatalf("fetch %d err = %v, want injected fault", i, err)
		}
	}
	recs, _, err := topic.Fetch(0, 0, 10)
	if err != nil || len(recs) != 1 {
		t.Fatalf("after fault budget: recs=%v err=%v", recs, err)
	}
	// nil removes the hook.
	topic.InjectFetchFault(nil)
	if _, _, err := topic.Fetch(0, 0, 10); err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Errorf("hook consulted %d times, want 3", calls)
	}
}

// TestFetchViewStableAcrossAppendAndTrim holds one Fetch view while
// producers append and retention trims underneath it: the view must keep
// reading the same records (run under -race, the concurrent reads also
// prove no writer touches a slot a view can see).
func TestFetchViewStableAcrossAppendAndTrim(t *testing.T) {
	topic := newTopic(t, 1)
	const n = 64
	for i := 0; i < n; i++ {
		topic.Append(0, Record{Timestamp: int64(i), Value: []byte{byte(i)}})
	}
	view, next, err := topic.Fetch(0, 8, 40)
	if err != nil || len(view) != 40 || next != 48 {
		t.Fatalf("fetch: len=%d next=%d err=%v", len(view), next, err)
	}
	if cap(view) != len(view) {
		t.Fatalf("view capacity %d exceeds its length %d: a caller's append would reach the log", cap(view), len(view))
	}
	check := func() {
		for i, rec := range view {
			want := int64(8 + i)
			if rec.Offset != want || rec.Timestamp != want || len(rec.Value) != 1 || rec.Value[0] != byte(want) {
				t.Errorf("view[%d] = %+v, want offset %d", i, rec, want)
				return
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // appends grow (and reallocate) the log past the view
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			topic.Append(0, Record{Timestamp: -1, Value: []byte{0xff}})
		}
	}()
	go func() { // trims move the survivors to new arrays
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
	// An append through the view lands in the caller's own array.
	grown := append(view, Record{Offset: -7})
	recs, _, err := topic.Fetch(0, 60, 1)
	if err != nil || len(recs) != 1 || recs[0].Offset != 60 || grown[len(grown)-1].Offset != -7 {
		t.Fatalf("append through a view reached the log: %+v err=%v", recs, err)
	}
}

// BenchmarkTopicFetch reads one epoch-sized range per iteration and reports
// the cost per record: a view costs the same whatever the range length.
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
