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
	"sort"
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

// EncodeBatch renders puts and dels as a record batch in ascending key
// order, so identical logical commits produce byte-identical files.
func EncodeBatch(puts map[string][]byte, dels map[string]bool) []byte {
	keys := make([]string, 0, len(puts)+len(dels))
	size := 0 // exact unless a key is in both maps, then an overestimate
	for k, v := range puts {
		keys = append(keys, k)
		size += 1 + uvarintLen(len(k)) + len(k) + uvarintLen(len(v)) + len(v)
	}
	for k := range dels {
		keys = append(keys, k)
		size += 1 + uvarintLen(len(k)) + len(k)
	}
	sort.Strings(keys)
	buf := make([]byte, 0, size)
	for _, k := range keys {
		if dels[k] {
			buf = append(buf, OpDel)
			buf = binary.AppendUvarint(buf, uint64(len(k)))
			buf = append(buf, k...)
			continue
		}
		v := puts[k]
		buf = append(buf, OpPut)
		buf = binary.AppendUvarint(buf, uint64(len(k)))
		buf = append(buf, k...)
		buf = binary.AppendUvarint(buf, uint64(len(v)))
		buf = append(buf, v...)
	}
	return buf
}

// uvarintLen is the number of bytes binary.AppendUvarint writes for n.
func uvarintLen(n int) int {
	return (bits.Len64(uint64(n)|1) + 6) / 7
}

// DecodeBatch parses a record batch, invoking put/del per record. It never
// panics on corrupt input: any framing violation stops decoding with an
// error naming the offset. The value slice passed to put aliases data.
func DecodeBatch(data []byte, put func(key string, value []byte) error, del func(key string) error) error {
	pos := 0
	for pos < len(data) {
		op := data[pos]
		pos++
		klen, n := binary.Uvarint(data[pos:])
		if n <= 0 || uint64(len(data)-pos-n) < klen {
			return fmt.Errorf("lsm: corrupt record batch at offset %d: bad key length", pos)
		}
		pos += n
		key := string(data[pos : pos+int(klen)])
		pos += int(klen)
		switch op {
		case OpPut:
			vlen, n := binary.Uvarint(data[pos:])
			if n <= 0 || uint64(len(data)-pos-n) < vlen {
				return fmt.Errorf("lsm: corrupt record batch at offset %d: bad value length", pos)
			}
			pos += n
			if err := put(key, data[pos:pos+int(vlen)]); err != nil {
				return err
			}
			pos += int(vlen)
		case OpDel:
			if err := del(key); err != nil {
				return err
			}
		default:
			return fmt.Errorf("lsm: corrupt record batch at offset %d: bad op %d", pos-1-n-int(klen), op)
		}
	}
	return nil
}
