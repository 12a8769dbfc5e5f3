package lsm

import "sort"

// memEntry is one memtable slot: a live value or a tombstone shadowing
// older tables.
type memEntry struct {
	value []byte
	tomb  bool
}

// memtable is the mutable head of the tree: committed-but-unflushed state.
// It is a plain map with lazy sorting — writes are per-epoch batches and
// sorted order is only needed at flush/scan time, so a balanced structure
// would buy nothing here.
type memtable struct {
	entries map[string]memEntry
	bytes   int64 // approximate payload footprint driving the flush decision
}

// memEntryOverhead charges each entry for its bookkeeping beyond raw
// key/value bytes, so a million tiny keys still counts as real memory.
const memEntryOverhead = 32

func newMemtable() *memtable {
	return &memtable{entries: map[string]memEntry{}}
}

// newMemtableSized pre-sizes the entry map. Epoch batches are large and
// similar-sized, so seeding a fresh memtable with its predecessor's count
// avoids ~17 incremental map rehashes per epoch on the commit path.
func newMemtableSized(hint int) *memtable {
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

// put inserts a value or tombstone, keeping the byte estimate in step.
func (m *memtable) put(key string, value []byte, tomb bool) {
	if old, ok := m.entries[key]; ok {
		m.bytes -= int64(len(old.value))
	} else {
		m.bytes += int64(len(key)) + memEntryOverhead
	}
	m.bytes += int64(len(value))
	m.entries[key] = memEntry{value: value, tomb: tomb}
}

func (m *memtable) len() int { return len(m.entries) }

// sortedKeys returns the keys in [from, to] ascending — the flush and scan
// order. Empty bounds are open. Bounds are applied before the sort, so a
// narrow scan pays a pass over the map plus a sort of what it will visit.
func (m *memtable) sortedKeys(from, to string) []string {
	var keys []string
	if from == "" && to == "" {
		keys = make([]string, 0, len(m.entries))
	}
	for k := range m.entries {
		if k >= from && (to == "" || k <= to) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}
