package jvm

import "fmt"

// arena is the off-heap region backing direct ByteBuffers. Unlike the
// managed heap it never compacts: blocks keep their address for their
// whole lifetime, which is precisely why direct buffers can be handed
// to native code. A first-fit free list with coalescing keeps
// fragmentation bounded for the pool-style usage mpjbuf makes of it.
type arena struct {
	buf  []byte
	free []arenaBlock // sorted by offset, non-adjacent
	used int
}

type arenaBlock struct {
	off, size int
}

func newArena(size int) *arena {
	return &arena{buf: takeStorage(size), free: []arenaBlock{{0, size}}}
}

// alloc reserves size bytes and returns the stable offset.
func (a *arena) alloc(size int) (int, error) {
	if size <= 0 {
		return 0, fmt.Errorf("jvm: invalid direct allocation %d", size)
	}
	for i := range a.free {
		b := &a.free[i]
		if b.size >= size {
			off := b.off
			b.off += size
			b.size -= size
			if b.size == 0 {
				a.free = append(a.free[:i], a.free[i+1:]...)
			}
			a.used += size
			return off, nil
		}
	}
	return 0, fmt.Errorf("%w: direct arena cannot fit %d bytes (used %d of %d)",
		ErrOutOfMemory, size, a.used, len(a.buf))
}

// release returns a block to the free list, coalescing neighbours.
func (a *arena) release(off, size int) {
	if size <= 0 {
		return
	}
	a.used -= size
	// Insert keeping offset order.
	i := 0
	for i < len(a.free) && a.free[i].off < off {
		i++
	}
	a.free = append(a.free, arenaBlock{})
	copy(a.free[i+1:], a.free[i:])
	a.free[i] = arenaBlock{off, size}
	// Coalesce with successor, then predecessor.
	if i+1 < len(a.free) && a.free[i].off+a.free[i].size == a.free[i+1].off {
		a.free[i].size += a.free[i+1].size
		a.free = append(a.free[:i+1], a.free[i+2:]...)
	}
	if i > 0 && a.free[i-1].off+a.free[i-1].size == a.free[i].off {
		a.free[i-1].size += a.free[i].size
		a.free = append(a.free[:i], a.free[i+1:]...)
	}
}

// bytes returns the storage for a block. Stable across the block's
// lifetime.
func (a *arena) bytes(off, size int) []byte {
	return a.buf[off : off+size : off+size]
}

// DirectUsed reports bytes currently allocated in the direct arena; a
// released machine has none.
func (m *Machine) DirectUsed() int {
	if m.released() {
		return 0
	}
	return m.arena.used
}
