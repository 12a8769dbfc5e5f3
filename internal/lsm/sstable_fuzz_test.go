package lsm

import (
	"encoding/binary"
	"errors"
	"io/fs"
	"testing"
	"time"

	"structream/internal/fsx"
)

// imageFS serves one table image from memory: the three calls the table
// reader makes, and nothing else of fsx.FS.
type imageFS struct {
	fsx.FS
	image []byte
}

type imageInfo struct {
	fs.FileInfo
	size int64
}

func (i imageInfo) Size() int64 { return i.size }

func (m imageFS) Stat(string) (fs.FileInfo, error) { return imageInfo{size: int64(len(m.image))}, nil }
func (m imageFS) ReadFile(string) ([]byte, error)  { return m.image, nil }
func (m imageFS) ReadFileRange(_ string, off int64, n int) ([]byte, error) {
	if off < 0 || n < 0 || off > int64(len(m.image)) || int64(n) > int64(len(m.image))-off {
		return nil, errors.New("range outside the image")
	}
	return m.image[off : off+int64(n)], nil
}

// sealTable lays data, filter and index out as a table image with a footer
// whose geometry and meta checksum are right, so a fuzzed section is reached
// by the decoder behind the checksum instead of being stopped by it.
func sealTable(data, filter, index []byte) []byte {
	img := append(append(append([]byte(nil), data...), filter...), index...)
	crc := fsx.Checksum(img[len(data):])
	img = binary.LittleEndian.AppendUint64(img, uint64(len(data)))
	img = binary.LittleEndian.AppendUint64(img, uint64(len(filter)))
	img = binary.LittleEndian.AppendUint64(img, uint64(len(data)+len(filter)))
	img = binary.LittleEndian.AppendUint64(img, uint64(len(index)))
	img = binary.LittleEndian.AppendUint32(img, crc)
	return binary.LittleEndian.AppendUint32(img, tableMagic)
}

// splitTable cuts a well-formed image back into its three sections.
func splitTable(img []byte) (data, filter, index []byte) {
	foot := img[len(img)-tableFooterSize:]
	bloomOff := binary.LittleEndian.Uint64(foot[0:])
	indexOff := binary.LittleEndian.Uint64(foot[16:])
	return img[:bloomOff], img[bloomOff:indexOff], img[indexOff : len(img)-tableFooterSize]
}

// FuzzOpenTable feeds the SSTable reader bytes a disk could hand it. What
// is fuzzed depends on mode, because every section sits behind a checksum
// that random bytes never satisfy:
//
//	0  the whole image is a — footer geometry, magic, checksums.
//	1  a is the filter and b the block index, sealed under a valid footer
//	   over a real data section — the filter header and index decoders.
//	2  a is one data block, indexed and checksummed correctly, and b a key
//	   to look up in it — the entry decoder and the in-block search.
//
// Whatever comes in, opening, point reads and a full scan must not panic,
// and the only error they may return is fsx.ErrCorrupt.
func FuzzOpenTable(f *testing.F) {
	tb := newTableBuilder(64, bloomBitsPerKey)
	for _, k := range []string{"a", "b", "bb", "c", "d", "e"} {
		tb.add([]byte(k), []byte("value-"+k), k == "c")
	}
	valid := tb.finish()
	data, filter, index := splitTable(valid)
	f.Add(uint8(0), valid, []byte(nil))
	f.Add(uint8(0), valid[:len(valid)-1], []byte(nil))
	f.Add(uint8(0), valid[len(valid)-tableFooterSize:], []byte(nil))
	f.Add(uint8(1), filter, index)
	f.Add(uint8(1), []byte{6, 0xff, 0xff}, index) // a filter from before the format marker
	f.Add(uint8(1), []byte{0x46, 0xff}, index)    // unknown filter header
	f.Add(uint8(1), filter, []byte{1, 'a', 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0, 1})
	f.Add(uint8(2), data[:tb.index[0].length], []byte("bb"))
	f.Add(uint8(2), []byte{1, 'k', 0}, []byte("k"))
	f.Add(uint8(2), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 'k'}, []byte("k"))

	f.Fuzz(func(t *testing.T, mode uint8, a, b []byte) {
		var img []byte
		keys := [][]byte{[]byte("a"), []byte("bb"), []byte("c"), []byte("zz"), {}}
		switch mode % 3 {
		case 0:
			img = a
		case 1:
			img = sealTable(data, a, b)
		case 2:
			// One block holding a, first key "" so every lookup lands in it,
			// and a filter with every bit set so none is turned away.
			var idx []byte
			idx = binary.AppendUvarint(idx, 0)
			idx = binary.AppendUvarint(idx, 0)
			idx = binary.AppendUvarint(idx, uint64(len(a)))
			idx = binary.LittleEndian.AppendUint32(idx, fsx.Checksum(a))
			idx = binary.AppendUvarint(idx, 1)
			img = sealTable(a, []byte{bloomFinalized | 1, 0xff}, idx)
			keys = append(keys, b)
		}
		check := func(what string, err error) {
			if err != nil && !errors.Is(err, fsx.ErrCorrupt) {
				t.Fatalf("%s: error is not fsx.ErrCorrupt: %v", what, err)
			}
		}
		tbl, err := openTable(imageFS{image: img}, "fuzz.sst", 0, NewBlockCache(1<<20))
		check("openTable", err)
		if err != nil {
			return
		}
		for _, k := range keys {
			_, _, _, err := tbl.get(k, keyHash(k))
			check("get", err)
		}
		deadline := time.Now().Add(time.Second)
		for _, it := range []*tableIter{tbl.iter(""), tbl.iter("b"), tbl.mergeInput()} {
			for n := 0; it.next(); n++ {
				if n&1023 == 0 && time.Now().After(deadline) {
					t.Fatal("scan of a fuzzed table does not end")
				}
			}
			check("scan", it.err)
		}
	})
}
