package jvm

import (
	"fmt"
	"math/bits"
	"sync"
)

// storage recycles the byte slices behind machine heaps and direct
// arenas across machines, the way mpjbuf recycles direct buffers across
// messages: a job of many short worlds would otherwise allocate (and
// the Go runtime zero) every rank's heap and arena afresh per world.
//
// The lists are keyed by power-of-two capacity class and a slice is
// made only when its class's list is empty, so no list ever holds more
// slices than its class's peak concurrent use, and nothing needs
// tuning. Each slice has exactly one owner between takeStorage and
// giveStorage, which is what makes concurrent worlds in one process
// safe. Reuse never depends on Go GC timing: the lists hold their
// slices strongly (no sync.Pool, no finalizers).
var storage struct {
	mu   sync.Mutex
	free [bits.UintSize][][]byte // free[c] holds slices of capacity 1<<c
}

// errReleased is what every use of a released machine reports.
var errReleased = fmt.Errorf("%w: machine released", ErrStale)

// sizeClass is the smallest c with 1<<c >= n, for n > 0.
func sizeClass(n int) int { return bits.Len(uint(n - 1)) }

// takeStorage returns a slice of length n > 0 from the free list, or a
// new one when n's class has none. A recycled slice keeps its last
// owner's bytes: the heap and the arena clear every object they hand
// out (allocHeap, AllocateDirect), so no Java code can read them.
func takeStorage(n int) []byte {
	c := sizeClass(n)
	storage.mu.Lock()
	free := storage.free[c]
	if k := len(free) - 1; k >= 0 {
		b := free[k]
		free[k] = nil
		storage.free[c] = free[:k]
		storage.mu.Unlock()
		return b[:n]
	}
	storage.mu.Unlock()
	return make([]byte, n, 1<<c)
}

// giveStorage returns a slice obtained from takeStorage to its class's
// list. The caller must not touch it afterwards.
func giveStorage(b []byte) {
	c := sizeClass(cap(b))
	storage.mu.Lock()
	storage.free[c] = append(storage.free[c], b)
	storage.mu.Unlock()
}

// Release ends the machine's life and returns its heap and arena
// storage to the process-wide free list, where the next machine of the
// same size class picks it up. Afterwards every Array and ByteBuffer of
// m, and every allocation on m, fails with ErrStale — as a returned
// error or as the panic value, following each method's contract. Stats,
// HeapUsed and LiveBytes keep reporting the final state. A second
// Release is a no-op.
//
// Release must run only once nothing can read or write m's objects any
// more; core.Run releases every rank's machine after the world has
// joined and its statistics have been scraped. A machine that is never
// released keeps working and is garbage collected as before.
func (m *Machine) Release() {
	if m.released() {
		return
	}
	giveStorage(m.heap)
	giveStorage(m.arena.buf)
	m.heap, m.arena = nil, nil
	// Every Ref now falls outside the slot table, so slot() reports it
	// stale; no generation can match again.
	m.slots, m.freeSlots = nil, nil
}

func (m *Machine) released() bool { return m.arena == nil }
