//go:build linux

package codec

import (
	"syscall"
	"testing"

	"structream/internal/sql"
	"structream/internal/sql/vec"
)

// TestDecodeRunStaysInSlab runs the program over a run whose slab ends where
// an unreadable page begins, so a load past the slab's end faults. The last
// records end inside the slab's last runMargin bytes, and their last cell is
// a one-byte int64 whose word load would reach past them: only the general
// decoder may read those records.
func TestDecodeRunStaysInSlab(t *testing.T) {
	page := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	defer syscall.Munmap(mem)
	if err := syscall.Mprotect(mem[page:], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	schema := sql.NewSchema(
		sql.Field{Name: "a", Type: sql.TypeInt64},
		sql.Field{Name: "t", Type: sql.TypeTimestamp},
		sql.Field{Name: "b", Type: sql.TypeInt64},
	)
	var recs []byte
	ends := []uint32{0}
	for k := 0; len(recs) < page-64; k++ {
		recs = append(recs, EncodeRow(sql.Row{int64(k * 1000003), int64(1_600_000_000_000_000 + k), int64(k % 50)})...)
		ends = append(ends, uint32(len(recs)))
	}
	slab := mem[page-len(recs) : page : page]
	copy(slab, recs)
	nrec := len(ends) - 1
	for _, keep := range [][]bool{{true, true, true}, {true, true, false}} {
		cols := make([]*vec.Vector, 3)
		for c, k := range keep {
			if k {
				cols[c] = vec.NewVector(vec.KindInt64, nrec)
			}
		}
		n, ok := CompileDecode(schema, keep).DecodeRun(slab, ends, cols, 0, nrec)
		if !ok || n != nrec {
			t.Fatalf("keep %v: landed %d of %d records, compat=%v", keep, n, nrec, ok)
		}
		for k := 0; k < nrec; k++ {
			want := []int64{int64(k * 1000003), int64(1_600_000_000_000_000 + k), int64(k % 50)}
			for c, col := range cols {
				if col != nil && col.Int64s[k] != want[c] {
					t.Fatalf("keep %v, record %d, col %d: %d, want %d", keep, k, c, col.Int64s[k], want[c])
				}
			}
		}
	}
}
