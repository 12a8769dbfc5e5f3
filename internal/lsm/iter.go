package lsm

// kvIter is the common shape of memtable and SSTable iterators: a primed
// cursor advanced with next(), exposing the current entry until exhaustion.
// Keys and values are []byte views of storage that is immutable for as long
// as anything refers to it — a table block, a memtable slot's key string, a
// committed value — so a view stays readable after the iterator has moved
// on, and no consumer copies one to hold it. An implementation must never
// yield a view of a buffer it goes on to rewrite.
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

// memIter walks one run of a memtable (memtable.iters) in key order, reading
// each entry from its slot: no lookup, no copy.
type memIter struct {
	slots []memSlot
	run   []int32 // what is left of the run, the current entry first
	cur   *memSlot
}

func (it *memIter) next() bool {
	if len(it.run) == 0 {
		return false
	}
	it.cur = &it.slots[it.run[0]]
	it.run = it.run[1:]
	return true
}

func (it *memIter) entry() ([]byte, []byte, bool) {
	return keyBytes(it.cur.key), it.cur.value, it.cur.tomb
}
func (it *memIter) error() error { return nil }

// tableIter adapts to kvIter.
func (it *tableIter) entry() ([]byte, []byte, bool) { return it.key, it.val, it.tomb }
func (it *tableIter) error() error                  { return it.err }

// ------------------------------------------------------------- merge iter

// mergeSource is one input of a merge with its current entry, read from the
// source once per advance, and the key's prefix.
type mergeSource struct {
	it     kvIter
	live   bool
	prefix uint64
	key    []byte
	val    []byte
	tomb   bool
}

// advance moves the source to its next entry.
func (s *mergeSource) advance() error {
	if s.live = s.it.next(); s.live {
		s.key, s.val, s.tomb = s.it.entry()
		s.prefix = keyPrefix(s.key)
	}
	return s.it.error()
}

// mergeIter fuses sources in newest-first priority order into one sorted
// stream: at each key the newest source wins and older duplicates are
// consumed silently. Tombstones are surfaced (not elided) so compaction can
// decide whether dropping them is safe. The minimum is found by a scan of
// the sources' prefixes — eight bytes each, side by side — and key bytes are
// read only where two prefixes tie; what it yields are the winner's views.
type mergeIter struct {
	srcs []mergeSource // index 0 = newest
	ties []int         // scratch: the sources holding the current key

	key  []byte
	val  []byte
	tomb bool
	err  error
}

func newMergeIter(its []kvIter) *mergeIter {
	m := &mergeIter{srcs: make([]mergeSource, len(its))}
	for i, it := range its {
		m.srcs[i].it = it
		if err := m.srcs[i].advance(); err != nil {
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
	var win *mergeSource
	m.ties = m.ties[:0]
	for i := range m.srcs {
		s := &m.srcs[i]
		if !s.live {
			continue
		}
		if win != nil {
			c := compareKeys(s.prefix, s.key, win.prefix, win.key)
			if c > 0 {
				continue
			}
			if c == 0 {
				m.ties = append(m.ties, i)
				continue
			}
		}
		win, m.ties = s, append(m.ties[:0], i)
	}
	if win == nil {
		return false
	}
	m.key, m.val, m.tomb = win.key, win.val, win.tomb
	// Consume this key everywhere so shadowed older versions never surface.
	for _, i := range m.ties {
		if err := m.srcs[i].advance(); err != nil {
			m.err = err
			return false
		}
	}
	return true
}

func (m *mergeIter) entry() ([]byte, []byte, bool) { return m.key, m.val, m.tomb }
func (m *mergeIter) error() error                  { return m.err }
