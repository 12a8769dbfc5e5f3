package sinks

import (
	"bytes"
	"hash/maphash"

	"structream/internal/sql"
	"structream/internal/sql/codec"
)

// The memory sink stores rows the way the state store does: in the row
// codec, inside byte slabs the collector never scans. A reader decodes fresh
// boxed rows; nothing boxed is retained.

// rowBlob is a row set back to back: each row a uvarint cell count and its
// values (codec.Encoder.PutRow's layout).
type rowBlob struct {
	n   int
	buf []byte
}

func (b rowBlob) appendRows(dst []sql.Row) []sql.Row {
	d := codec.NewDecoder(b.buf)
	for i := 0; i < b.n; i++ {
		r, err := d.Row()
		if err != nil {
			panic("sinks: result table: " + err.Error()) // the sink wrote these bytes itself
		}
		dst = append(dst, r)
	}
	return dst
}

const (
	// recordSlack is the room a record gets beyond its first size: a count or
	// a sum that grows by a varint byte or two is overwritten where it lies.
	recordSlack = 4
	minSlab     = 4 << 10
	maxSlab     = 1 << 20
)

// keyedTable is Update mode's result table: one record per key, upserted by
// the key's encoded bytes. A record is the row's encoding — key cells, then
// the rest — so decoding it is decoding the row.
type keyedTable struct {
	seed maphash.Seed
	// index is open-addressed with linear probing: the high half of a slot is
	// the high half of the key's hash, the low half the entry's number + 1
	// (0 = empty). Entry numbers, not slab offsets: a record that moves — one
	// that outgrew its room, all of them at a rewrite — changes only its entry.
	index []uint64
	// ents is in first-seen order, the order readers get.
	ents  []tableEntry
	slabs [][]byte
	// used counts the slab bytes handed to records, dead those of them left
	// behind by records that moved.
	used, dead int
}

// tableEntry locates one record: slabs[slab][off:off+klen+vlen], with room
// to grow to size bytes.
type tableEntry struct {
	slab, off, klen, vlen, size uint32
}

const tagMask uint64 = 0xFFFFFFFF << 32

func (t *keyedTable) record(e tableEntry) []byte {
	return t.slabs[e.slab][e.off : e.off+e.klen+e.vlen]
}

func (t *keyedTable) hash(key []byte) uint64 { return maphash.Bytes(t.seed, key) }

// upsert stores rec, whose first klen bytes are the key and hash to h.
func (t *keyedTable) upsert(rec []byte, klen int, h uint64) {
	if len(t.ents) >= len(t.index)/4*3 {
		t.grow()
	}
	key := rec[:klen]
	mask := uint64(len(t.index) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		slot := t.index[i]
		if slot == 0 {
			t.index[i] = h&tagMask | uint64(len(t.ents)+1)
			t.ents = append(t.ents, t.place(rec, klen))
			return
		}
		if slot&tagMask != h&tagMask {
			continue
		}
		e := &t.ents[uint32(slot)-1]
		if !bytes.Equal(t.slabs[e.slab][e.off:e.off+e.klen], key) {
			continue
		}
		if len(rec) <= int(e.size) {
			copy(t.slabs[e.slab][e.off:], rec)
			e.vlen = uint32(len(rec) - klen)
			return
		}
		t.dead += int(e.size)
		*e = t.place(rec, klen)
		if t.dead > t.used/2 {
			t.rewrite()
		}
		return
	}
}

// place copies rec to the end of the last slab, or of a new one — as large
// as everything stored so far, within [minSlab, maxSlab] — when it does not
// fit.
func (t *keyedTable) place(rec []byte, klen int) tableEntry {
	size := len(rec) + recordSlack
	last := len(t.slabs) - 1
	if last < 0 || cap(t.slabs[last])-len(t.slabs[last]) < size {
		t.slabs = append(t.slabs, make([]byte, 0, max(size, min(maxSlab, max(minSlab, t.used)))))
		last++
	}
	off := len(t.slabs[last])
	t.slabs[last] = t.slabs[last][:off+size]
	copy(t.slabs[last][off:], rec)
	t.used += size
	return tableEntry{uint32(last), uint32(off), uint32(klen), uint32(len(rec) - klen), uint32(size)}
}

// rewrite copies every live record into new slabs, in entry order, once the
// moved records' old places are more than half of what the slabs hold.
func (t *keyedTable) rewrite() {
	old := *t
	t.slabs, t.used, t.dead = nil, 0, 0
	for i, e := range t.ents {
		t.ents[i] = t.place(old.record(e), int(e.klen))
	}
}

// grow doubles the index and re-enters every entry by its key's hash.
func (t *keyedTable) grow() {
	t.index = make([]uint64, max(16, 2*len(t.index)))
	mask := uint64(len(t.index) - 1)
	for n, e := range t.ents {
		h := t.hash(t.slabs[e.slab][e.off : e.off+e.klen])
		i := h & mask
		for t.index[i] != 0 {
			i = (i + 1) & mask
		}
		t.index[i] = h&tagMask | uint64(n+1)
	}
}

// appendRows decodes every record, in first-seen order; cells sizes each row.
func (t *keyedTable) appendRows(dst []sql.Row, cells int) []sql.Row {
	for _, e := range t.ents {
		r, err := codec.AppendValues(make(sql.Row, 0, cells), t.record(e))
		if err != nil {
			panic("sinks: result table: " + err.Error()) // the sink wrote these bytes itself
		}
		dst = append(dst, r)
	}
	return dst
}
