package lsm

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// bloomKeyShapes are the key populations the filter is held to its design
// rate on. Each maps an index to a key; distinct indices give distinct keys.
var bloomKeyShapes = []struct {
	name string
	key  func(i int) []byte
}{
	// The benchmark's agg-spill keys: a letter and seven zero-padded digits.
	{"sequential", func(i int) []byte { return []byte(fmt.Sprintf("k%07d", i)) }},
	{"random", func(i int) []byte {
		sum := sha256.Sum256(binary.LittleEndian.AppendUint64(nil, uint64(i)))
		return sum[:16]
	}},
	{"shared-prefix", func(i int) []byte {
		return []byte(strings.Repeat("tenant-0001/window-2026-09-26T00:00:00Z/", 3) + fmt.Sprint(i))
	}},
}

// TestBloomFalsePositiveRate is the filter's property test: no member is
// ever denied, and absent keys pass at no more than twice the rate the
// filter's own geometry predicts — (1 − e^(−kn/m))^k, 0.84 % at 10 bits per
// key.
//
// Members and probes are a random third and the other two thirds of one
// population, and the population is what one state partition sees: with
// parts = 4, only keys whose FNV-1a hash is 3 mod 4 — the engine routes a
// key to partition codec.HashBytes(key) % partitions, and HashBytes is this
// same FNV-1a. That is the condition under which a filter built from raw
// FNV-1a leaked 4.8 % on the benchmark (and 4.4–5.9 % here): every key a table
// ever holds or is asked about agrees in its hash's low bits, the bit array
// is a multiple of 8 long, so `h % bits` reaches a quarter of it. Unrouted
// keys (parts = 1) hide the defect entirely.
func TestBloomFalsePositiveRate(t *testing.T) {
	for _, shape := range bloomKeyShapes {
		for _, n := range []int{1_000, 3_000, 100_000} {
			for _, parts := range []uint64{1, 4} {
				t.Run(fmt.Sprintf("%s/%d/1-of-%d", shape.name, n, parts), func(t *testing.T) {
					// Small tables are repeated so every case probes ≥ 200k keys.
					var fp, probes int
					var theory float64
					for round := 0; probes < 200_000; round++ {
						var pop [][]byte
						for idx := round * 16 * n; len(pop) < 3*n; idx++ {
							if k := shape.key(idx); fnv64a(k)%parts == parts-1 {
								pop = append(pop, k)
							}
						}
						rand.New(rand.NewSource(int64(n+round))).Shuffle(len(pop), func(i, j int) { pop[i], pop[j] = pop[j], pop[i] })
						members, absent := pop[:n], pop[n:]
						hashes := make([]uint64, n)
						for i, k := range members {
							hashes[i] = keyHash(k)
						}
						f, err := openBloom(appendBloom(nil, hashes, bloomBitsPerKey))
						if err != nil {
							t.Fatal(err)
						}
						if f.legacy {
							t.Fatal("a filter built now reads as the legacy format")
						}
						for i, h := range hashes {
							if !f.mayContain(h) {
								t.Fatalf("false negative for member %q", members[i])
							}
						}
						for _, k := range absent {
							if f.mayContain(keyHash(k)) {
								fp++
							}
						}
						probes += len(absent)
						m := float64(len(f.bitmap) * 8)
						theory = math.Pow(1-math.Exp(-float64(f.k)*float64(n)/m), float64(f.k))
					}
					got := float64(fp) / float64(probes)
					t.Logf("false positives %d/%d = %.3f %% (theory %.3f %%)", fp, probes, 100*got, 100*theory)
					if got > 2*theory {
						t.Fatalf("false-positive rate %.3f %% exceeds twice the design rate %.3f %%", 100*got, 100*theory)
					}
				})
			}
		}
	}
}

// TestBloomFormatMarker pins the compatibility rule: a filter written before
// the finalizer (bare probe count in byte 0) opens as legacy and is probed
// with raw FNV-1a, a filter written now carries the marker, and any other
// header is refused rather than probed with a guess.
func TestBloomFormatMarker(t *testing.T) {
	keys := make([][]byte, 500)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("bloom-key-%d", i*7))
	}
	// The parent commit's builder, byte for byte: raw FNV-1a, header = k.
	legacy := make([]byte, 1+(len(keys)*bloomBitsPerKey+7)/8)
	legacy[0] = 6
	bits := uint64(len(legacy)-1) * 8
	for _, k := range keys {
		h := fnv64a(k)
		delta := h>>33 | h<<31
		for i := 0; i < 6; i++ {
			pos := h % bits
			legacy[1+pos/8] |= 1 << (pos % 8)
			h += delta
		}
	}
	f, err := openBloom(legacy)
	if err != nil || !f.legacy || f.k != 6 {
		t.Fatalf("openBloom(legacy) = %+v, %v; want legacy, k=6", f, err)
	}
	for _, k := range keys {
		if !f.mayContain(fnv64a(k)) {
			t.Fatalf("legacy filter denies its member %q", k)
		}
	}
	for _, bad := range [][]byte{nil, {6}, {0, 0xff}, {13, 0xff}, {bloomFinalized, 0xff}, {bloomFinalized | 13, 0xff}, {0x46, 0xff}} {
		if _, err := openBloom(bad); err == nil {
			t.Errorf("openBloom(% x) accepted an unknown filter", bad)
		}
	}
}
