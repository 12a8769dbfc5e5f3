package main

import (
	"math"
	"math/rand"

	"structream/internal/msgbus"
	"structream/internal/sql/codec"
)

// Inputs are generated from the seed alone; the engine receives only the
// generated records.

// aliasTable samples a fixed discrete distribution in O(1) (Vose's alias
// method) — the Zipf draws dominate set-up time otherwise.
type aliasTable struct {
	prob  []float64
	alias []int32
}

func newAlias(weights []float64) *aliasTable {
	n := len(weights)
	total := 0.0
	for _, w := range weights {
		total += w
	}
	t := &aliasTable{prob: make([]float64, n), alias: make([]int32, n)}
	scaled := make([]float64, n)
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i, w := range weights {
		scaled[i] = w * float64(n) / total
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		t.prob[s] = scaled[s]
		t.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			large = large[:len(large)-1]
			small = append(small, l)
		}
	}
	for _, l := range large {
		t.prob[l] = 1
	}
	for _, s := range small {
		t.prob[s] = 1
	}
	return t
}

func (t *aliasTable) sample(rng *rand.Rand) int {
	i := rng.Intn(len(t.prob))
	if rng.Float64() < t.prob[i] {
		return i
	}
	return int(t.alias[i])
}

// zipfWeights is P(k) ∝ (v + k)^-s for k = 0..n-1 (v = 1 is the textbook
// Zipf; a larger v flattens the head, as in math/rand's Zipf).
func zipfWeights(n int, s, v float64) []float64 {
	w := make([]float64, n)
	for k := range w {
		w[k] = math.Pow(v+float64(k), -s)
	}
	return w
}

// recordArena packs encoded records into large slabs so preloading millions
// of records costs a handful of allocations.
type recordArena struct {
	enc  *codec.Encoder
	slab []byte
}

func newRecordArena() *recordArena { return &recordArena{enc: codec.NewEncoder(128)} }

// seal frames the values put into the encoder since its Reset as one codec
// row (arity prefix, then the tagged values), copies it into the arena and
// returns a record over it. arity must be below 128 (a one-byte uvarint).
func (a *recordArena) seal(arity int) msgbus.Record {
	b := a.enc.Bytes()
	if len(a.slab)+len(b)+1 > cap(a.slab) {
		a.slab = make([]byte, 0, 4<<20)
	}
	off := len(a.slab)
	a.slab = append(a.slab, byte(arity))
	a.slab = append(a.slab, b...)
	return msgbus.Record{Value: a.slab[off:len(a.slab):len(a.slab)]}
}

// newTopic creates a topic on a private broker.
func newTopic(name string, partitions int) (*msgbus.Topic, error) {
	return msgbus.NewBroker().CreateTopic(name, partitions)
}

// preload appends count generated records to t, record i to partition
// i % partitions as appendRoundRobin does, through small per-partition
// buffers: materialising millions of records first would triple the memory
// the set-up touches, and page-faulting it in is most of what set-up costs.
func preload(t *msgbus.Topic, count int64, next func() msgbus.Record) error {
	const batch = 8192
	np := t.Partitions()
	per := make([][]msgbus.Record, np)
	for p := range per {
		per[p] = make([]msgbus.Record, 0, batch)
	}
	flush := func() error {
		for p, rs := range per {
			if len(rs) == 0 {
				continue
			}
			if _, err := t.Append(p, rs...); err != nil {
				return err
			}
			per[p] = rs[:0]
		}
		return nil
	}
	for i := int64(0); i < count; i++ {
		p := int(i % int64(np))
		per[p] = append(per[p], next())
		if p == np-1 && len(per[p]) == batch {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	return flush()
}

// generate returns count generated records (a recovery chunk).
func generate(count int64, next func() msgbus.Record) []msgbus.Record {
	recs := make([]msgbus.Record, count)
	for i := range recs {
		recs[i] = next()
	}
	return recs
}

// appendRoundRobin appends recs[i] to partition i % partitions, batched per
// partition.
func appendRoundRobin(t *msgbus.Topic, recs []msgbus.Record) error {
	np := t.Partitions()
	per := make([][]msgbus.Record, np)
	for i, r := range recs {
		p := i % np
		per[p] = append(per[p], r)
	}
	for p, rs := range per {
		if len(rs) == 0 {
			continue
		}
		if _, err := t.Append(p, rs...); err != nil {
			return err
		}
	}
	return nil
}

// mix64 is the splitmix64 finaliser: the per-row hash behind the
// order-independent output checksums.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
