package lsm

import (
	"sort"
	"strings"
)

// memSlot is one memtable entry: a key with its live value or the tombstone
// shadowing older tables.
type memSlot struct {
	key   string
	value []byte
	tomb  bool
}

// live is the slot's answer to a point read: its value, or absent when it
// records a deletion.
func (s *memSlot) live() ([]byte, bool) {
	if s.tomb {
		return nil, false
	}
	return s.value, true
}

// memtable is the mutable head of the tree: committed-but-unflushed state.
// Its entries sit in slots, in arrival order; a map from key to slot number
// serves point reads and nothing else. Order is not rebuilt at flush or scan
// time; it is kept from the commits, which arrive sorted: the slots a commit
// adds form one ascending run, runs are disjoint, and adjacent runs are
// merged as they pile up (addRun), so a flush or a scan merges a handful of
// runs — reading each entry straight from its slot — and a bounded scan
// binary-searches each for its start.
type memtable struct {
	slots []memSlot
	index map[string]int32
	bytes int64 // approximate payload footprint driving the flush decision
	// runs holds every slot number exactly once, oldest run first, each at
	// least twice the size of the next: O(log n) runs however small the
	// commits are.
	runs [][]int32
	// mergedKeys counts the slot numbers run merges have copied, probes the
	// index lookups; tests read both.
	mergedKeys, probes int64
	// keys is the chunk the slots' key strings are cut from (CutKey): the
	// memtable copies each key it takes, so it pins no caller's buffer and
	// the bytes its keys hold are the bytes it was charged for. The strings,
	// and the views memIter hands out, are immutable; the garbage collector
	// frees a chunk after the last slot (reset) and the last reader's view
	// are gone.
	keys strings.Builder
}

// memEntryOverhead charges each entry for its bookkeeping beyond raw
// key/value bytes, so a million tiny keys still counts as real memory.
const memEntryOverhead = 32

func newMemtable() *memtable {
	return &memtable{index: map[string]int32{}}
}

// reset empties a flushed memtable for reuse as the next active one: slots,
// index and runs keep their capacity, and every key and value reference is
// dropped so nothing the flush wrote stays pinned.
func (m *memtable) reset() {
	clear(m.slots)
	clear(m.index)
	clear(m.runs)
	m.slots, m.runs = m.slots[:0], m.runs[:0]
	m.bytes, m.mergedKeys = 0, 0
}

// get returns key's slot, nil when the memtable has no record of the key.
// The string conversion of a []byte key in the map index is allocation-elided
// by the compiler.
func (m *memtable) get(key string) *memSlot {
	m.probes++
	if i, ok := m.index[key]; ok {
		return &m.slots[i]
	}
	return nil
}

// put inserts a value or tombstone, keeping the byte estimate in step. A key
// new to this memtable takes the next slot — the caller owes addRun every
// such slot, and they ascend by key when its puts do.
func (m *memtable) put(key string, value []byte, tomb bool) {
	if s := m.get(key); s != nil {
		m.bytes += int64(len(value)) - int64(len(s.value))
		s.value, s.tomb = value, tomb
		return
	}
	m.bytes += int64(len(key)) + memEntryOverhead + int64(len(value))
	key = CutKey(&m.keys, keyBytes(key))
	m.index[key] = int32(len(m.slots))
	m.slots = append(m.slots, memSlot{key: key, value: value, tomb: tomb})
}

func (m *memtable) len() int { return len(m.slots) }

// addRun records the slots from first on — what one commit added, its keys
// ascending — as a run and restores the size-tiered shape: while the run
// before the last is less than twice its size the two are merged. A slot
// number is copied once per doubling of the run it sits in, O(log n) times
// amortized whatever the commit size.
func (m *memtable) addRun(first int) {
	if first == len(m.slots) {
		return
	}
	run := make([]int32, len(m.slots)-first)
	for i := range run {
		run[i] = int32(first + i)
	}
	m.runs = append(m.runs, run)
	for n := len(m.runs); n >= 2 && len(m.runs[n-2]) < 2*len(m.runs[n-1]); n-- {
		a, b := m.runs[n-2], m.runs[n-1]
		out := make([]int32, 0, len(a)+len(b))
		for len(a) > 0 && len(b) > 0 {
			ak, bk := m.slots[a[0]].key, m.slots[b[0]].key
			if ap, bp := keyPrefix(ak), keyPrefix(bk); ap < bp || (ap == bp && ak < bk) {
				out, a = append(out, a[0]), a[1:]
			} else {
				out, b = append(out, b[0]), b[1:]
			}
		}
		out = append(append(out, a...), b...)
		m.mergedKeys += int64(len(out))
		m.runs[n-2], m.runs[n-1] = out, nil
		m.runs = m.runs[:n-1]
	}
}

// iters returns one iterator per run, each starting at its first key >= from
// ("" = the start). The runs are disjoint, so among themselves the iterators
// need no priority order.
func (m *memtable) iters(from string) []kvIter {
	its := make([]kvIter, len(m.runs))
	for i, run := range m.runs {
		at := 0
		if from != "" {
			at = sort.Search(len(run), func(j int) bool { return m.slots[run[j]].key >= from })
		}
		its[i] = &memIter{slots: m.slots, run: run[at:]}
	}
	return its
}
