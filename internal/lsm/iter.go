package lsm

import "bytes"

// kvIter is the common shape of memtable and SSTable iterators: a primed
// cursor advanced with next(), exposing the current entry until exhaustion.
// Keys and values are []byte views that are only guaranteed valid until the
// iterator's next call to next() — consumers that hold a key across an
// advance must copy it (mergeIter does exactly that for its winner).
type kvIter interface {
	// next advances to the following entry; false at exhaustion or error.
	next() bool
	entry() (key []byte, val []byte, tomb bool)
	error() error
}

// cmpStringBytes compares s with b lexicographically without allocating —
// the bridge between index/bound strings and the []byte keys the read path
// carries.
func cmpStringBytes(s string, b []byte) int {
	n := len(s)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if s[i] != b[i] {
			if s[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(s) < len(b):
		return -1
	case len(s) > len(b):
		return 1
	}
	return 0
}

// ----------------------------------------------------------- memtable iter

// memIter walks one run of a memtable (memtable.iters) in key order. The
// exposed key lives in a buffer reused across next() calls.
type memIter struct {
	m    *memtable
	keys []string // what is left of the run
	key  []byte
	val  []byte
	tomb bool
}

func (it *memIter) next() bool {
	if len(it.keys) == 0 {
		return false
	}
	k := it.keys[0]
	it.keys = it.keys[1:]
	it.key = append(it.key[:0], k...)
	e := it.m.entries[k]
	it.val, it.tomb = e.value, e.tomb
	return true
}

func (it *memIter) entry() ([]byte, []byte, bool) { return it.key, it.val, it.tomb }
func (it *memIter) error() error                  { return nil }

// tableIter adapts to kvIter.
func (it *tableIter) entry() ([]byte, []byte, bool) { return it.key, it.val, it.tomb }
func (it *tableIter) error() error                  { return it.err }

// ------------------------------------------------------------- merge iter

// mergeIter fuses sources in newest-first priority order into one sorted
// stream: at each key the newest source wins and older duplicates are
// consumed silently. Tombstones are surfaced (not elided) so compaction can
// decide whether dropping them is safe.
type mergeIter struct {
	srcs  []kvIter // index 0 = newest
	valid []bool
	ties  []int // scratch: the sources holding the current key

	key  []byte // owned copy: stays valid while sources advance past it
	val  []byte
	tomb bool
	err  error
}

func newMergeIter(srcs []kvIter) *mergeIter {
	m := &mergeIter{srcs: srcs, valid: make([]bool, len(srcs))}
	for i, s := range srcs {
		m.valid[i] = s.next()
		if err := s.error(); err != nil {
			m.err = err
		}
	}
	return m
}

func (m *mergeIter) next() bool {
	if m.err != nil {
		return false
	}
	// Find the smallest key across live sources, remembering every source
	// that holds it. The lowest index among them comes first, which is
	// exactly newest-wins.
	var winKey []byte
	m.ties = m.ties[:0]
	for i, ok := range m.valid {
		if !ok {
			continue
		}
		k, _, _ := m.srcs[i].entry()
		if c := bytes.Compare(k, winKey); len(m.ties) == 0 || c < 0 {
			winKey, m.ties = k, append(m.ties[:0], i)
		} else if c == 0 {
			m.ties = append(m.ties, i)
		}
	}
	if len(m.ties) == 0 {
		return false
	}
	// Copy the winner's key before advancing any source: a source's entry
	// buffer may be reused by its next().
	m.key = append(m.key[:0], winKey...)
	_, m.val, m.tomb = m.srcs[m.ties[0]].entry()
	// Consume this key everywhere so shadowed older versions never surface.
	for _, i := range m.ties {
		m.valid[i] = m.srcs[i].next()
		if err := m.srcs[i].error(); err != nil {
			m.err = err
			return false
		}
	}
	return true
}

func (m *mergeIter) entry() ([]byte, []byte, bool) { return m.key, m.val, m.tomb }
func (m *mergeIter) error() error                  { return m.err }
