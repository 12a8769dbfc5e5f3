// Package msgbus implements an in-process, partitioned, replayable message
// bus — the engine's stand-in for Apache Kafka or Amazon Kinesis. It
// provides exactly the properties Structured Streaming requires of an input
// source (§3, §6.1 of the paper): topics divided into ordered partitions,
// offset-addressed reads so any epoch can be re-read after a failure, and
// bounded retention with explicit earliest offsets so rollback limits are
// observable. Producers and the broker are safe for concurrent use.
package msgbus

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sync"
)

// Record is one message in a partition. Offset is assigned by the broker at
// append time; Timestamp is the event time in µs carried with the record.
type Record struct {
	Offset    int64
	Timestamp int64
	Key       []byte
	Value     []byte
}

// Broker holds a set of topics.
type Broker struct {
	mu     sync.RWMutex
	topics map[string]*Topic
}

// NewBroker creates an empty broker.
func NewBroker() *Broker {
	return &Broker{topics: map[string]*Topic{}}
}

// CreateTopic creates a topic with the given partition count. Creating an
// existing topic with the same partition count is a no-op; with a different
// count it errors (repartitioning is not supported, as in Kafka).
func (b *Broker) CreateTopic(name string, partitions int) (*Topic, error) {
	if partitions <= 0 {
		return nil, fmt.Errorf("msgbus: topic %q needs at least one partition", name)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if t, ok := b.topics[name]; ok {
		if len(t.parts) != partitions {
			return nil, fmt.Errorf("msgbus: topic %q already exists with %d partitions", name, len(t.parts))
		}
		return t, nil
	}
	t := &Topic{name: name, parts: make([]*partition, partitions)}
	for i := range t.parts {
		t.parts[i] = &partition{}
	}
	b.topics[name] = t
	return t, nil
}

// Topic returns a topic by name.
func (b *Broker) Topic(name string) (*Topic, bool) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	t, ok := b.topics[name]
	return t, ok
}

// DeleteTopic removes a topic entirely.
func (b *Broker) DeleteTopic(name string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.topics, name)
}

// Topics lists topic names.
func (b *Broker) Topics() []string {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make([]string, 0, len(b.topics))
	for name := range b.topics {
		out = append(out, name)
	}
	return out
}

// Arrival is a coalescing "new data" signal from whoever appends to
// whoever waits: Notify registers a channel, Fire offers each registered
// channel one token without blocking or allocating. A waiter registers a
// channel of capacity one, so any number of fires between two receives
// collapse into one pending token — a wake-up says "look again", not how
// much arrived. The zero value is ready to use.
//
// No wake-up is lost when the waiter registers first, then looks for data,
// then blocks on the channel, and the appender publishes its data before it
// fires: data the look missed was published after it, so its Fire came later
// still and found the channel registered.
type Arrival struct {
	mu    sync.RWMutex
	chans []chan<- struct{}
}

// Notify registers ch to be offered a token by every Fire until the
// returned stop is called. stop is idempotent.
func (a *Arrival) Notify(ch chan<- struct{}) (stop func()) {
	a.mu.Lock()
	a.chans = append(a.chans, ch)
	a.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			a.mu.Lock()
			defer a.mu.Unlock()
			i := slices.Index(a.chans, ch) // present: Notify added it and stop runs once
			a.chans = slices.Delete(a.chans, i, i+1)
		})
	}
}

// Fire offers every registered channel a token; a channel that already
// holds one is skipped.
func (a *Arrival) Fire() {
	a.mu.RLock()
	for _, ch := range a.chans {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	a.mu.RUnlock()
}

// Listeners reports how many channels are registered, for monitoring and
// leak tests.
func (a *Arrival) Listeners() int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return len(a.chans)
}

// Topic is a named, partitioned log.
type Topic struct {
	name    string
	parts   []*partition
	rr      int64 // round-robin counter for keyless produce
	rrMu    sync.Mutex
	arrival Arrival // fired by every Append, whatever the partition

	faultMu    sync.Mutex
	fetchFault func(part int, from int64) error
}

// partition is one ordered log segment. records[:len] is immutable once
// written (Fetch hands out views of it): every mutation either writes past
// len or replaces the slice with a new array.
type partition struct {
	mu      sync.Mutex
	records []Record
	base    int64 // offset of records[0]; earlier records were trimmed
	next    int64 // next offset to assign
}

// Name returns the topic name.
func (t *Topic) Name() string { return t.name }

// Partitions returns the partition count.
func (t *Topic) Partitions() int { return len(t.parts) }

// NotifyArrival registers ch for the topic's arrival signal: every Append,
// to any partition, offers it a token after the records are readable. See
// Arrival for the waiter's side of the protocol.
func (t *Topic) NotifyArrival(ch chan<- struct{}) (stop func()) { return t.arrival.Notify(ch) }

// ArrivalListeners reports how many channels are registered for the arrival
// signal.
func (t *Topic) ArrivalListeners() int { return t.arrival.Listeners() }

// Append appends records to a specific partition, assigning offsets. It
// returns the offset of the first appended record.
func (t *Topic) Append(part int, recs ...Record) (int64, error) {
	if part < 0 || part >= len(t.parts) {
		return 0, fmt.Errorf("msgbus: partition %d out of range for topic %q", part, t.name)
	}
	p := t.parts[part]
	p.mu.Lock()
	first := p.next
	for i := range recs {
		recs[i].Offset = p.next
		p.next++
	}
	p.records = append(p.records, recs...)
	p.mu.Unlock()
	t.arrival.Fire()
	return first, nil
}

// Produce routes one record to a partition — by key hash when a key is
// present, round-robin otherwise — and appends it.
func (t *Topic) Produce(key, value []byte, timestamp int64) (partIdx int, offset int64, err error) {
	if len(key) > 0 {
		h := fnv.New32a()
		h.Write(key)
		partIdx = int(h.Sum32() % uint32(len(t.parts)))
	} else {
		t.rrMu.Lock()
		partIdx = int(t.rr % int64(len(t.parts)))
		t.rr++
		t.rrMu.Unlock()
	}
	offset, err = t.Append(partIdx, Record{Timestamp: timestamp, Key: key, Value: value})
	return partIdx, offset, err
}

// ErrOffsetOutOfRange is returned when a fetch asks for data that was
// trimmed by retention — the situation that bounds manual rollback (§7.2).
type ErrOffsetOutOfRange struct {
	Topic     string
	Partition int
	Requested int64
	Earliest  int64
}

// Error implements error.
func (e *ErrOffsetOutOfRange) Error() string {
	return fmt.Sprintf("msgbus: offset %d out of range for %s[%d] (earliest retained %d)",
		e.Requested, e.Topic, e.Partition, e.Earliest)
}

// InjectFetchFault installs a hook consulted before every Fetch: when it
// returns non-nil, the fetch fails with that error instead of reading.
// Chaos tests use it to model a flaky broker connection; nil removes the
// hook. Fetches are retried by the engine's transient-I/O path when the
// injected error is transient.
func (t *Topic) InjectFetchFault(fn func(part int, from int64) error) {
	t.faultMu.Lock()
	defer t.faultMu.Unlock()
	t.fetchFault = fn
}

// Fetch reads up to maxRecords from a partition starting at offset. It
// returns the records and the offset to resume from. Reading at the head
// returns an empty slice. Reading below the earliest retained offset
// returns ErrOffsetOutOfRange.
//
// The returned slice is a read-only, capacity-clipped view of the
// partition's log, not a copy: callers must not write to its elements (or
// to the Key/Value bytes, as before). The view stays valid and unchanged
// for as long as it is held — the log is append-only, so slots below its
// length are never written again; Append writes only past it (or into a
// grown array) and TrimBefore moves the survivors to a new array — and the
// clipped capacity keeps a caller's own append from reaching the log.
func (t *Topic) Fetch(part int, offset int64, maxRecords int) ([]Record, int64, error) {
	if part < 0 || part >= len(t.parts) {
		return nil, 0, fmt.Errorf("msgbus: partition %d out of range for topic %q", part, t.name)
	}
	t.faultMu.Lock()
	fault := t.fetchFault
	t.faultMu.Unlock()
	if fault != nil {
		if err := fault(part, offset); err != nil {
			return nil, 0, err
		}
	}
	p := t.parts[part]
	p.mu.Lock()
	defer p.mu.Unlock()
	if offset < p.base {
		return nil, 0, &ErrOffsetOutOfRange{Topic: t.name, Partition: part, Requested: offset, Earliest: p.base}
	}
	if offset >= p.next {
		return nil, offset, nil
	}
	start := int(offset - p.base)
	end := len(p.records)
	if maxRecords > 0 && start+maxRecords < end {
		end = start + maxRecords
	}
	return p.records[start:end:end], p.base + int64(end), nil
}

// FetchRange reads records with offsets in [from, to).
func (t *Topic) FetchRange(part int, from, to int64) ([]Record, error) {
	if to < from {
		return nil, fmt.Errorf("msgbus: bad range [%d, %d)", from, to)
	}
	recs, _, err := t.Fetch(part, from, int(to-from))
	return recs, err
}

// LatestOffsets returns, per partition, the offset one past the last record
// (the offset the next produced record will get).
func (t *Topic) LatestOffsets() []int64 {
	out := make([]int64, len(t.parts))
	for i, p := range t.parts {
		p.mu.Lock()
		out[i] = p.next
		p.mu.Unlock()
	}
	return out
}

// EarliestOffsets returns, per partition, the earliest retained offset.
func (t *Topic) EarliestOffsets() []int64 {
	out := make([]int64, len(t.parts))
	for i, p := range t.parts {
		p.mu.Lock()
		out[i] = p.base
		p.mu.Unlock()
	}
	return out
}

// TrimBefore drops records with offsets below keep in one partition,
// simulating retention expiry.
func (t *Topic) TrimBefore(part int, keep int64) error {
	if part < 0 || part >= len(t.parts) {
		return fmt.Errorf("msgbus: partition %d out of range", part)
	}
	p := t.parts[part]
	p.mu.Lock()
	defer p.mu.Unlock()
	if keep <= p.base {
		return nil
	}
	if keep > p.next {
		keep = p.next
	}
	drop := int(keep - p.base)
	p.records = append([]Record(nil), p.records[drop:]...)
	p.base = keep
	return nil
}

// TotalRecords reports the number of retained records across partitions,
// for monitoring and tests.
func (t *Topic) TotalRecords() int64 {
	var n int64
	for _, p := range t.parts {
		p.mu.Lock()
		n += int64(len(p.records))
		p.mu.Unlock()
	}
	return n
}
