// Package lsm is an embedded log-structured merge tree built on the fsx
// durability layer — the storage engine behind the state store's "lsm"
// backend (§6.1). State no longer has to fit in one Go map: committed
// mutations land in per-epoch delta logs and a sorted in-memory memtable;
// when the memtable exceeds its threshold it is sealed into an immutable
// SSTable with a block-level layout, a per-table bloom filter, and
// block-granular reads through a shared LRU cache; size-tiered compaction
// folds similar-sized tables together; and a tiny CRC-framed manifest per
// committed version pins exactly which tables and which delta-log suffix
// reconstruct that version — which is what keeps epoch rollback (§7.2)
// working on top of a compacting store.
package lsm

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"strings"
)

// Record batch framing, shared with the memory state backend's delta and
// snapshot files: op byte (1=put, 2=del), uvarint key length, key bytes,
// and for puts a uvarint value length plus value bytes.
const (
	// OpPut marks a key/value insertion record.
	OpPut byte = 1
	// OpDel marks a deletion record.
	OpDel byte = 2
)

// Entry is one record of a commit batch: a put, or a tombstone when Tomb is
// set. Known says the committer has read the key's committed state at the
// version the batch applies to, and Live is what it saw there; a backend may
// use the pair to skip a lookup and may ignore it. A wrong pair can skew a
// live-key count, never stored data.
type Entry struct {
	Key         string
	Value       []byte
	Tomb        bool
	Known, Live bool
}

// Batch is one version's mutations in ascending key order, no key twice: the
// epoch's delta, ordered once (SortBatch) and read in that order by the delta
// encoder, the memtable and the memory backend alike.
type Batch []Entry

// SortBatch orders b ascending by key, in place; its keys must be distinct.
// It is the one key sort of the state store and the tree. State keys share
// long prefixes (operator tag, side, bucket), so the sort runs over a
// 16-byte handle per entry — the first eight key bytes as a big-endian
// integer, zero-padded, which orders exactly as the bytes do — and touches
// the strings only where two handles tie.
func SortBatch(b Batch) {
	type handle struct {
		prefix uint64
		at     int32
	}
	if len(b) < 2 {
		return
	}
	hs := make([]handle, len(b))
	for i := range b {
		var head [8]byte
		copy(head[:], b[i].Key)
		hs[i] = handle{binary.BigEndian.Uint64(head[:]), int32(i)}
	}
	slices.SortFunc(hs, func(x, y handle) int {
		if x.prefix != y.prefix {
			if x.prefix < y.prefix {
				return -1
			}
			return 1
		}
		return strings.Compare(b[x.at].Key, b[y.at].Key)
	})
	// Move every entry to its place by walking the permutation's cycles; a
	// handle whose entry has been placed is marked with at = -1.
	for i := range hs {
		if hs[i].at < 0 {
			continue
		}
		first := b[i]
		for j := i; ; {
			from := int(hs[j].at)
			hs[j].at = -1
			if from == i {
				b[j] = first
				break
			}
			b[j] = b[from]
			j = from
		}
	}
}

// BatchOf is the map-taking form of a batch: a key in both maps is a delete.
func BatchOf(puts map[string][]byte, dels map[string]bool) Batch {
	b := make(Batch, 0, len(puts)+len(dels))
	for k, v := range puts {
		if !dels[k] {
			b = append(b, Entry{Key: k, Value: v})
		}
	}
	for k := range dels {
		b = append(b, Entry{Key: k, Tomb: true})
	}
	SortBatch(b)
	return b
}

// EncodeBatch renders b as a record batch. The ascending order is part of the
// format: identical logical commits produce byte-identical files, whatever
// order the operator staged them in.
func EncodeBatch(b Batch) []byte {
	size := 0
	for i := range b {
		e := &b[i]
		size += 1 + uvarintLen(len(e.Key)) + len(e.Key)
		if !e.Tomb {
			size += uvarintLen(len(e.Value)) + len(e.Value)
		}
	}
	buf := make([]byte, 0, size)
	for i := range b {
		e := &b[i]
		if e.Tomb {
			buf = append(buf, OpDel)
		} else {
			buf = append(buf, OpPut)
		}
		buf = binary.AppendUvarint(buf, uint64(len(e.Key)))
		buf = append(buf, e.Key...)
		if !e.Tomb {
			buf = binary.AppendUvarint(buf, uint64(len(e.Value)))
			buf = append(buf, e.Value...)
		}
	}
	return buf
}

// uvarintLen is the number of bytes binary.AppendUvarint writes for n.
func uvarintLen(n int) int {
	return (bits.Len64(uint64(n)|1) + 6) / 7
}

// DecodeBatch parses a record batch into the form EncodeBatch was given. It
// never panics on corrupt input: any framing violation stops decoding with an
// error naming the offset. The order on disk is checked, not trusted: records
// that are not strictly ascending — corruption behind a valid checksum, or a
// hand-made file — are read as a log, the last record of a key winning, and
// sorted. Values are copies; the batch does not alias data.
func DecodeBatch(data []byte) (Batch, error) {
	var b Batch
	ascending := true
	pos := 0
	for pos < len(data) {
		op := data[pos]
		pos++
		klen, n := binary.Uvarint(data[pos:])
		if n <= 0 || uint64(len(data)-pos-n) < klen {
			return nil, fmt.Errorf("lsm: corrupt record batch at offset %d: bad key length", pos)
		}
		pos += n
		e := Entry{Key: string(data[pos : pos+int(klen)])}
		pos += int(klen)
		switch op {
		case OpPut:
			vlen, n := binary.Uvarint(data[pos:])
			if n <= 0 || uint64(len(data)-pos-n) < vlen {
				return nil, fmt.Errorf("lsm: corrupt record batch at offset %d: bad value length", pos)
			}
			pos += n
			e.Value = append([]byte(nil), data[pos:pos+int(vlen)]...)
			pos += int(vlen)
		case OpDel:
			e.Tomb = true
		default:
			return nil, fmt.Errorf("lsm: corrupt record batch at offset %d: bad op %d", pos-1-n-int(klen), op)
		}
		ascending = ascending && (len(b) == 0 || b[len(b)-1].Key < e.Key)
		b = append(b, e)
	}
	if ascending {
		return b, nil
	}
	at := make(map[string]int, len(b))
	kept := b[:0]
	for _, e := range b {
		if i, ok := at[e.Key]; ok {
			kept[i] = e
			continue
		}
		at[e.Key] = len(kept)
		kept = append(kept, e)
	}
	SortBatch(kept)
	return kept, nil
}
