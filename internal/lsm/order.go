package lsm

import (
	"bytes"
	"unsafe"
)

// One comparison rule orders keys everywhere the tree compares two of them —
// the batch sort, the memtable's run merges, the merge iterator and a
// table's point lookup: a key's first eight bytes as a big-endian integer,
// zero-padded (keyPrefix), decide wherever they differ, and the bytes
// themselves are compared only where two prefixes tie. The padding makes
// "ab" and "ab\x00" tie; the byte comparison behind the tie tells them
// apart, so the rule orders exactly as bytes.Compare does.

// keyPrefix is key's first eight bytes as a big-endian integer, zero-padded.
func keyPrefix[K string | []byte](key K) uint64 {
	if len(key) >= 8 {
		return uint64(key[0])<<56 | uint64(key[1])<<48 | uint64(key[2])<<40 | uint64(key[3])<<32 |
			uint64(key[4])<<24 | uint64(key[5])<<16 | uint64(key[6])<<8 | uint64(key[7])
	}
	var p uint64
	for i := 0; i < len(key); i++ {
		p |= uint64(key[i]) << (56 - 8*i)
	}
	return p
}

// compareKeys orders a against b given their prefixes.
func compareKeys(ap uint64, a []byte, bp uint64, b []byte) int {
	if ap != bp {
		if ap < bp {
			return -1
		}
		return 1
	}
	return bytes.Compare(a, b)
}

// keyBytes views a key string as bytes without copying it. Strings are
// immutable: nothing may write through the view.
func keyBytes(s string) []byte {
	return unsafe.Slice(unsafe.StringData(s), len(s))
}
