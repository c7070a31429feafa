package jvm

import (
	"bytes"
	"errors"
	"testing"
)

func TestSizeClass(t *testing.T) {
	for _, c := range []struct{ n, class int }{
		{1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {3 << 20, 22}, {16 << 20, 24}, {16<<20 + 1, 25},
	} {
		if got := sizeClass(c.n); got != c.class {
			t.Errorf("sizeClass(%d) = %d, want %d", c.n, got, c.class)
		}
	}
}

// TestReleaseRecyclesStorage: a machine of the same size class takes the
// storage a released machine gave back, keeps its own logical sizes, and
// every object it allocates reads zero although the previous owner
// filled the storage with 0x5A.
func TestReleaseRecyclesStorage(t *testing.T) {
	old := newTestMachine(t, 3000, 4096)
	heap := old.MustArray(Byte, 3000)
	heap.Fill(0x5A)
	arena := old.MustAllocateDirect(4096)
	arena.PutBytes(bytes.Repeat([]byte{0x5A}, 4096))
	given := map[*byte]bool{&old.heap[0]: true, &old.arena.buf[0]: true}
	old.Release()

	m := newTestMachine(t, 4096, 2100)
	if !given[&m.heap[0]] || !given[&m.arena.buf[0]] {
		t.Fatal("the new machine did not take the released storage")
	}
	if len(m.heap) != 4096 || len(m.arena.buf) != 2100 {
		t.Fatalf("recycled storage has len %d/%d, want the logical sizes 4096/2100", len(m.heap), len(m.arena.buf))
	}
	a := m.MustArray(Byte, 2000)
	assertZero(t, a.Len(), a.Int)
	hb, err := m.Allocate(2000)
	if err != nil {
		t.Fatal(err)
	}
	assertZero(t, hb.Capacity(), func(i int) int64 { return int64(hb.ByteAt(i)) })
	db := m.MustAllocateDirect(2100)
	assertZero(t, db.Capacity(), func(i int) int64 { return int64(db.ByteAt(i)) })
}

// TestReleasedMachine covers what a released machine still answers:
// its final statistics, an empty arena, and ErrStale from a collection.
func TestReleasedMachine(t *testing.T) {
	m := newTestMachine(t, 1<<12, 1<<12)
	m.MustArray(Int, 4)
	m.MustAllocateDirect(64)
	want := m.Stats()
	m.Release()
	if got := m.Stats(); got != want {
		t.Errorf("Stats after Release = %+v, want %+v", got, want)
	}
	if m.HeapUsed() != 16 || m.DirectUsed() != 0 {
		t.Errorf("HeapUsed/DirectUsed after Release = %d/%d, want 16/0", m.HeapUsed(), m.DirectUsed())
	}
	if err := m.GC(); !errors.Is(err, ErrStale) {
		t.Errorf("GC after Release: %v, want ErrStale", err)
	}
}
