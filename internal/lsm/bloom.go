package lsm

import "fmt"

// Bloom filters give each SSTable an O(1) "definitely not here" answer so a
// point lookup usually touches only the one table that owns the key, not
// every table on disk. The filter is built once at table-write time from
// the sorted key set and stored in the table's meta section.
//
// Layout: byte 0 is the header, the rest is the bit array. The header's low
// bits are the probe count k; its high bit (bloomFinalized) says which hash
// the probe positions were derived from:
//
//	0x80|k  keyHash: 64-bit FNV-1a passed through a 64-bit finalizer — what
//	        this code writes.
//	k       raw FNV-1a — what the code before the finalizer wrote. That is
//	        also the function the engine routes keys to state partitions
//	        with (codec.HashBytes(key) % partitions), so every key one tree
//	        ever holds or is asked about agrees in its hash's low bits; the
//	        bit array is a multiple of 8 long, `h % bits` then reaches a
//	        fraction of it, and the filter leaks: 4.8 % false positives on
//	        four partitions at a density designed for 0.84 %. Such a table
//	        is still probed with the hash that built it (legacy), never with
//	        the new one — that would be a silent false negative.
//
// Any other header is refused when the table is opened. (A reader from
// before the marker sees k > bloomMaxProbes and answers "maybe" for every
// key: slow, never wrong.) Probes use double hashing (h + i*delta); both
// hashes are deterministic across processes — a requirement, since filters
// are written on one run and read on the next.

const (
	// bloomBitsPerKey is the default filter density: 10 bits/key with k = 6
	// is a 0.84 % false-positive rate.
	bloomBitsPerKey = 10
	// bloomMaxProbes caps k; more probes than this stops helping.
	bloomMaxProbes = 12
	// bloomFinalized marks a filter whose positions derive from keyHash.
	bloomFinalized = 0x80
)

// fnv64a is a zero-allocation FNV-1a hash over key.
func fnv64a[K string | []byte](key K) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return h
}

// keyHash is the hash every filter written by this code is built from and
// probed with: FNV-1a, then the splitmix64 finalizer — a bijection under
// which every input bit reaches every output bit, so keys that agree in
// their FNV-1a hash's low bits (one partition's keys) agree in nothing
// afterwards. A reader computes it once per key and hands it to each table
// it probes.
func keyHash[K string | []byte](key K) uint64 {
	h := fnv64a(key)
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// appendBloom appends to dst a filter built from pre-computed keyHash values
// — the table builder hashes each key as it streams in, so building the
// filter never needs the key set resident, and the filter's bits are set
// where they will be written from: in the table image.
func appendBloom(dst []byte, hashes []uint64, bitsPerKey int) []byte {
	if bitsPerKey <= 0 {
		bitsPerKey = bloomBitsPerKey
	}
	// k ≈ bitsPerKey * ln(2); the usual integer approximation.
	k := bitsPerKey * 69 / 100
	if k < 1 {
		k = 1
	}
	if k > bloomMaxProbes {
		k = bloomMaxProbes
	}
	nBits := len(hashes) * bitsPerKey
	if nBits < 64 {
		nBits = 64
	}
	dst = append(dst, bloomFinalized|byte(k))
	at := len(dst)
	dst = append(dst, make([]byte, (nBits+7)/8)...) // grown and zeroed in place
	bitmap := dst[at:]
	bits := uint64(len(bitmap)) * 8
	for _, h := range hashes {
		delta := h>>33 | h<<31
		for i := 0; i < k; i++ {
			pos := h % bits
			bitmap[pos/8] |= 1 << (pos % 8)
			h += delta
		}
	}
	return dst
}

// bloom is a filter opened for probing.
type bloom struct {
	bitmap []byte
	k      int
	// legacy filters were built from raw FNV-1a: the probe must re-hash the
	// key with that function instead of using the caller's keyHash.
	legacy bool
}

// openBloom parses a stored filter, refusing a header it does not know: a
// filter probed with the wrong function would turn present keys absent.
func openBloom(filter []byte) (bloom, error) {
	if len(filter) < 2 {
		return bloom{}, fmt.Errorf("bloom filter of %d bytes", len(filter))
	}
	k := int(filter[0] &^ bloomFinalized)
	if k < 1 || k > bloomMaxProbes {
		return bloom{}, fmt.Errorf("unknown bloom filter format 0x%02x", filter[0])
	}
	return bloom{bitmap: filter[1:], k: k, legacy: filter[0]&bloomFinalized == 0}, nil
}

// mayContain reports whether the key with hash h (keyHash, or raw fnv64a
// for a legacy filter) might be in the set the filter was built from. False
// positives are possible; false negatives are not.
func (b bloom) mayContain(h uint64) bool {
	bits := uint64(len(b.bitmap)) * 8
	delta := h>>33 | h<<31
	for i := 0; i < b.k; i++ {
		pos := h % bits
		if b.bitmap[pos/8]&(1<<(pos%8)) == 0 {
			return false
		}
		h += delta
	}
	return true
}
