package lsm

import "slices"

// memEntry is one memtable slot: a live value or a tombstone shadowing
// older tables.
type memEntry struct {
	value []byte
	tomb  bool
}

// memtable is the mutable head of the tree: committed-but-unflushed state.
// Point reads go through a map. Order is not rebuilt at flush or scan time;
// it is kept from the commits, which arrive sorted: the keys a commit adds
// to the map form one ascending run, runs are disjoint, and adjacent runs
// are merged as they pile up (addRun), so a flush or a scan merges a handful
// of runs and a bounded scan binary-searches each for its start.
type memtable struct {
	entries map[string]memEntry
	bytes   int64 // approximate payload footprint driving the flush decision
	// runs holds every key of entries exactly once, oldest run first, each
	// at least twice the size of the next: O(log n) runs however small the
	// commits are.
	runs [][]string
	// mergedKeys counts the keys run merges have copied.
	mergedKeys int64
}

// memEntryOverhead charges each entry for its bookkeeping beyond raw
// key/value bytes, so a million tiny keys still counts as real memory.
const memEntryOverhead = 32

// newMemtable pre-sizes the entry map. Epoch batches are large and
// similar-sized, so seeding a fresh memtable with its predecessor's count
// avoids ~17 incremental map rehashes per epoch on the commit path.
func newMemtable(hint int) *memtable {
	return &memtable{entries: make(map[string]memEntry, hint)}
}

func (m *memtable) get(key string) (memEntry, bool) {
	e, ok := m.entries[key]
	return e, ok
}

// getBytes is get for a []byte key; the string conversion in the map index
// is allocation-elided by the compiler.
func (m *memtable) getBytes(key []byte) (memEntry, bool) {
	e, ok := m.entries[string(key)]
	return e, ok
}

// put inserts a value or tombstone, keeping the byte estimate in step, and
// reports whether the key is new to this memtable — the caller owes addRun
// every such key, in ascending order.
func (m *memtable) put(key string, value []byte, tomb bool) bool {
	old, ok := m.entries[key]
	if ok {
		m.bytes -= int64(len(old.value))
	} else {
		m.bytes += int64(len(key)) + memEntryOverhead
	}
	m.bytes += int64(len(value))
	m.entries[key] = memEntry{value: value, tomb: tomb}
	return !ok
}

func (m *memtable) len() int { return len(m.entries) }

// addRun records the keys one commit added, ascending, and restores the
// size-tiered shape: while the run before the last is less than twice its
// size the two are merged. A key is copied once per doubling of the run it
// sits in, O(log n) times amortized whatever the commit size.
func (m *memtable) addRun(keys []string) {
	if len(keys) == 0 {
		return
	}
	m.runs = append(m.runs, keys)
	for n := len(m.runs); n >= 2 && len(m.runs[n-2]) < 2*len(m.runs[n-1]); n-- {
		a, b := m.runs[n-2], m.runs[n-1]
		out := make([]string, 0, len(a)+len(b))
		for len(a) > 0 && len(b) > 0 {
			if a[0] < b[0] {
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
		at, _ := slices.BinarySearch(run, from)
		its[i] = &memIter{m: m, keys: run[at:]}
	}
	return its
}
