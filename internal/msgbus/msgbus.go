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
	"math"
	"slices"
	"sort"
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
		t.parts[i] = &partition{recs: segMinRecords, bytes: segMinBytes}
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

// Segment sizes. A partition's first segment holds segMinRecords records
// and segMinBytes value bytes; each segment that fills doubles the limit it
// hit for the next one, up to segRecords and segBytes. A record larger than
// segBytes gets a segment of its own.
const (
	segMinRecords = 16
	segMinBytes   = 256
	segRecords    = 64 << 10
	segBytes      = 1 << 20
)

// partition is one ordered log: segments of consecutive records, oldest
// first. The last segment takes appends; the others are full.
type partition struct {
	mu    sync.Mutex
	segs  []*segment
	base  int64 // earliest retained offset; earlier records were trimmed
	next  int64 // next offset to assign
	recs  int   // record capacity of the next normal segment
	bytes int   // value (and key) byte capacity of the next normal segment
}

// segment holds consecutive records in arrays that hold no per-record
// pointer and are never reallocated: Append copies into them up to their
// capacity, so bytes and ends below a segment's length are never written
// again, and a view of them stays valid and unchanged while it is held.
type segment struct {
	base  int64    // offset of the first record
	times []int64  // times[i] is the timestamp of record base+i
	vals  []byte   // value bytes, back to back
	ends  []uint32 // len(times)+1 entries: value i is vals[ends[i]:ends[i+1]]
	keys  []byte   // key bytes; nil until the segment's first keyed record
	kends []uint32 // like ends, over keys; nil with keys
}

func (s *segment) end() int64 { return s.base + int64(len(s.times)) }

// fits reports whether a record with k key and v value bytes fits in s (a
// key slab, once made, has the capacity of the value slab).
func (s *segment) fits(k, v int) bool {
	return len(s.times) < cap(s.times) && len(s.vals)+v <= cap(s.vals) && len(s.keys)+k <= cap(s.vals)
}

func (s *segment) add(r *Record) {
	if len(r.Key) > 0 && s.keys == nil {
		s.keys = make([]byte, 0, cap(s.vals))
		s.kends = make([]uint32, len(s.ends), cap(s.ends)) // earlier records: empty keys
	}
	s.times = append(s.times, r.Timestamp)
	s.vals = append(s.vals, r.Value...)
	s.ends = append(s.ends, uint32(len(s.vals)))
	if s.kends != nil {
		s.keys = append(s.keys, r.Key...)
		s.kends = append(s.kends, uint32(len(s.keys)))
	}
}

// open appends a new segment for a record with k key and v value bytes,
// first doubling the limit the full tail segment hit.
func (p *partition) open(k, v int) {
	if n := len(p.segs); n > 0 && cap(p.segs[n-1].times) == p.recs { // not a one-record segment
		if len(p.segs[n-1].times) == p.recs {
			p.recs = min(2*p.recs, segRecords)
		} else {
			p.bytes = min(2*p.bytes, segBytes)
		}
	}
	for max(k, v) > p.bytes && p.bytes < segBytes {
		p.bytes = min(2*p.bytes, segBytes)
	}
	recs, bytes := p.recs, p.bytes
	if max(k, v) > bytes {
		recs, bytes = 1, max(k, v)
	}
	p.segs = append(p.segs, &segment{
		base:  p.next,
		times: make([]int64, 0, recs),
		vals:  make([]byte, 0, bytes),
		ends:  make([]uint32, 1, recs+1),
	})
}

// runs appends to dst one run per segment holding offsets [from, to), which
// must be retained and at most the head.
func (p *partition) runs(from, to int64, dst []Run) []Run {
	i := sort.Search(len(p.segs), func(i int) bool { return p.segs[i].end() > from })
	for ; from < to; i++ {
		s := p.segs[i]
		a, b := int(from-s.base), int(min(to, s.end())-s.base)
		e := s.ends[b]
		r := Run{Base: from, Times: s.times[a:b:b], Vals: s.vals[:e:e], Ends: s.ends[a : b+1 : b+1]}
		if s.kends != nil {
			ke := s.kends[b]
			r.Keys, r.KeyEnds = s.keys[:ke:ke], s.kends[a:b+1:b+1]
		}
		dst = append(dst, r)
		from = s.base + int64(b)
	}
	return dst
}

// Run is a read-only view of consecutive records held in one segment:
// record i has offset Base+i, timestamp Times[i], value Value(i) and key
// Key(i). Its slices alias the log without copying and are capacity-clipped;
// they stay valid and unchanged for as long as they are held.
type Run struct {
	Base    int64
	Times   []int64
	Vals    []byte
	Ends    []uint32 // Len()+1 entries: value i is Vals[Ends[i]:Ends[i+1]]
	Keys    []byte
	KeyEnds []uint32 // like Ends, over Keys; nil when the segment holds no key
}

// Len returns the number of records in the run.
func (r *Run) Len() int { return len(r.Times) }

// Value returns record i's value bytes.
func (r *Run) Value(i int) []byte { return r.Vals[r.Ends[i]:r.Ends[i+1]:r.Ends[i+1]] }

// Key returns record i's key bytes, nil when its segment holds no key.
func (r *Run) Key(i int) []byte {
	if r.KeyEnds == nil {
		return nil
	}
	return r.Keys[r.KeyEnds[i]:r.KeyEnds[i+1]:r.KeyEnds[i+1]]
}

// Record returns record i as a Record over the run's bytes.
func (r *Run) Record(i int) Record {
	return Record{Offset: r.Base + int64(i), Timestamp: r.Times[i], Key: r.Key(i), Value: r.Value(i)}
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

// Append copies records into a specific partition, assigning offsets (the
// records' own Offset fields are ignored, and the caller keeps its buffers).
// It returns the offset of the first appended record. A key or value must
// be shorter than 4 GiB.
func (t *Topic) Append(part int, recs ...Record) (int64, error) {
	if part < 0 || part >= len(t.parts) {
		return 0, fmt.Errorf("msgbus: partition %d out of range for topic %q", part, t.name)
	}
	for i := range recs {
		if uint64(max(len(recs[i].Key), len(recs[i].Value))) > math.MaxUint32 {
			return 0, fmt.Errorf("msgbus: record of %d value and %d key bytes is too large", len(recs[i].Value), len(recs[i].Key))
		}
	}
	p := t.parts[part]
	p.mu.Lock()
	first := p.next
	for i := range recs {
		r := &recs[i]
		if n := len(p.segs); n == 0 || !p.segs[n-1].fits(len(r.Key), len(r.Value)) {
			p.open(len(r.Key), len(r.Value))
		}
		p.segs[len(p.segs)-1].add(r)
		p.next++
	}
	p.mu.Unlock()
	if len(recs) > 0 {
		t.arrival.Fire()
	}
	return first, nil
}

// Produce routes one record to a partition — by the FNV-1a hash of its key
// when a key is present, round-robin otherwise — and appends it.
func (t *Topic) Produce(key, value []byte, timestamp int64) (partIdx int, offset int64, err error) {
	if len(key) > 0 {
		h := uint32(2166136261) // FNV-1a, 32 bits, as hash/fnv's New32a
		for _, c := range key {
			h = (h ^ uint32(c)) * 16777619
		}
		partIdx = int(h % uint32(len(t.parts)))
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

// lock returns partition part locked, after the fault hook and the
// retention check for a read from offset.
func (t *Topic) lock(part int, offset int64) (*partition, error) {
	if part < 0 || part >= len(t.parts) {
		return nil, fmt.Errorf("msgbus: partition %d out of range for topic %q", part, t.name)
	}
	t.faultMu.Lock()
	fault := t.fetchFault
	t.faultMu.Unlock()
	if fault != nil {
		if err := fault(part, offset); err != nil {
			return nil, err
		}
	}
	p := t.parts[part]
	p.mu.Lock()
	if offset < p.base {
		p.mu.Unlock()
		return nil, &ErrOffsetOutOfRange{Topic: t.name, Partition: part, Requested: offset, Earliest: p.base}
	}
	return p, nil
}

// records copies the Record headers of offsets [from, to) out of p; the
// bytes stay in the log.
func (p *partition) records(from, to int64) []Record {
	if from >= to {
		return nil
	}
	out := make([]Record, 0, to-from)
	for _, r := range p.runs(from, to, nil) {
		for i := range r.Times {
			out = append(out, r.Record(i))
		}
	}
	return out
}

// FetchRange reads records with offsets in [from, to), clipped to the head.
// Reading at the head returns an empty slice. Reading below the earliest
// retained offset returns ErrOffsetOutOfRange.
//
// The slice is the caller's own, but each record's Key and Value are
// read-only, capacity-clipped views of the log's bytes: they stay valid and
// unchanged for as long as they are held, and a caller's append to them
// lands in a new array. Runs reads the same bytes without building records.
func (t *Topic) FetchRange(part int, from, to int64) ([]Record, error) {
	if to < from {
		return nil, fmt.Errorf("msgbus: bad range [%d, %d)", from, to)
	}
	p, err := t.lock(part, from)
	if err != nil {
		return nil, err
	}
	defer p.mu.Unlock()
	return p.records(from, min(to, p.next)), nil
}

// Runs appends to dst one Run per segment holding records with offsets in
// [from, to), clipped to the head, and returns it: the records of FetchRange
// without copying or allocating, given a dst with room. Errors are
// FetchRange's.
func (t *Topic) Runs(part int, from, to int64, dst []Run) ([]Run, error) {
	if to < from {
		return dst, fmt.Errorf("msgbus: bad range [%d, %d)", from, to)
	}
	p, err := t.lock(part, from)
	if err != nil {
		return dst, err
	}
	defer p.mu.Unlock()
	return p.runs(from, min(to, p.next), dst), nil
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
// simulating retention expiry. Segments wholly below keep are released.
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
	p.base = min(keep, p.next)
	n := 0
	for n < len(p.segs) && p.segs[n].end() <= p.base {
		n++
	}
	p.segs = slices.Delete(p.segs, 0, n)
	return nil
}

// TotalRecords reports the number of retained records across partitions,
// for monitoring and tests.
func (t *Topic) TotalRecords() int64 {
	var n int64
	for _, p := range t.parts {
		p.mu.Lock()
		n += p.next - p.base
		p.mu.Unlock()
	}
	return n
}
