package jvm

import (
	"errors"
	"fmt"

	"mv2j/internal/vtime"
)

// Errors reported by the simulated JVM.
var (
	// ErrOutOfMemory is the analogue of java.lang.OutOfMemoryError: the
	// heap (or the direct-buffer arena) cannot satisfy an allocation
	// even after collection.
	ErrOutOfMemory = errors.New("jvm: out of memory")
	// ErrStale reports use of a reference whose object was discarded.
	ErrStale = errors.New("jvm: stale reference")
	// ErrGCDisabled reports that a collection was required while a
	// GetPrimitiveArrayCritical region was open. Real JVMs either
	// block the allocating thread or throw; the simulation surfaces
	// the hazard explicitly.
	ErrGCDisabled = errors.New("jvm: allocation requires GC but GC is disabled by a critical region")
)

// Ref is a handle to a heap object. It stays valid across collections
// even though the object's storage moves; a generation counter detects
// use-after-discard.
type Ref int64

const nilRef Ref = 0

func makeRef(idx int, gen uint32) Ref { return Ref(int64(idx+1)<<32 | int64(gen)) }

func (r Ref) split() (idx int, gen uint32) {
	return int(int64(r)>>32) - 1, uint32(int64(r) & 0xffffffff)
}

type objSlot struct {
	off   int // current payload offset in the heap; changes on compaction
	size  int
	gen   uint32
	live  bool
	kind  Kind
	elems int
}

// Stats aggregates allocator and collector activity for one machine.
type Stats struct {
	HeapAllocs     int64
	HeapAllocBytes int64
	DirectAllocs   int64
	DirectBytes    int64
	Collections    int64
	BytesMoved     int64
	GCPause        vtime.Duration
}

// Options configures a Machine.
type Options struct {
	// HeapSize is the managed-heap capacity in bytes (the -Xmx of the
	// simulated JVM). Zero selects the 16 MiB default (simulated jobs
	// are many-rank, so per-rank footprints stay small; size up for
	// large-message benchmarks).
	HeapSize int
	// ArenaSize is the off-heap direct-buffer arena capacity. Zero
	// selects the 16 MiB default.
	ArenaSize int
}

// Machine is one simulated JVM instance. Each MPI rank owns exactly
// one Machine; like the Clock it embeds, it is confined to its rank's
// goroutine and is not safe for concurrent use.
type Machine struct {
	clock     *vtime.Clock
	heap      []byte
	used      int
	slots     []objSlot
	freeSlots []int
	liveBytes int
	critical  int
	pendingGC bool
	arena     *arena
	stats     Stats
	gcObs     func(liveBytes int, start, end vtime.Time)
}

// SetGCObserver registers a callback invoked after every completed
// collection with the live-set size and the pause's virtual extent.
// The observability layer uses it to emit GC spans; the callback must
// not advance any clock.
func (m *Machine) SetGCObserver(fn func(liveBytes int, start, end vtime.Time)) { m.gcObs = fn }

// NewMachine builds a simulated JVM charging costs to clock. Its heap
// and arena storage come from the free list Release returns them to.
func NewMachine(clock *vtime.Clock, opts Options) *Machine {
	if clock == nil {
		panic("jvm: nil clock")
	}
	heapSize := opts.HeapSize
	if heapSize == 0 {
		heapSize = 16 << 20
	}
	arenaSize := opts.ArenaSize
	if arenaSize == 0 {
		arenaSize = 16 << 20
	}
	if heapSize < 0 || arenaSize < 0 {
		panic(fmt.Sprintf("jvm: negative sizes heap=%d arena=%d", heapSize, arenaSize))
	}
	return &Machine{
		clock: clock,
		heap:  takeStorage(heapSize),
		arena: newArena(arenaSize),
	}
}

// Clock returns the rank clock this machine charges.
func (m *Machine) Clock() *vtime.Clock { return m.clock }

// Stats returns a snapshot of allocator/collector counters.
func (m *Machine) Stats() Stats { return m.stats }

// HeapUsed returns the bytes currently occupied in the managed heap
// (including dead objects not yet collected).
func (m *Machine) HeapUsed() int { return m.used }

// LiveBytes returns the bytes occupied by live heap objects.
func (m *Machine) LiveBytes() int { return m.liveBytes }

// allocHeap carves size bytes out of the managed heap, collecting if
// needed, and returns the slot index.
func (m *Machine) allocHeap(kind Kind, elems, size int) (Ref, error) {
	if size < 0 {
		return nilRef, fmt.Errorf("jvm: negative allocation %d", size)
	}
	if m.released() {
		return nilRef, errReleased
	}
	if m.used+size > len(m.heap) {
		if m.liveBytes+size > len(m.heap) {
			return nilRef, fmt.Errorf("%w: need %d bytes, heap %d, live %d",
				ErrOutOfMemory, size, len(m.heap), m.liveBytes)
		}
		if err := m.GC(); err != nil {
			return nilRef, err
		}
		if m.used+size > len(m.heap) {
			return nilRef, fmt.Errorf("%w: need %d bytes after GC", ErrOutOfMemory, size)
		}
	}
	off := m.used
	// A Java allocation reads as zero. Past the bump pointer lie dead
	// objects' bytes after a compaction, or a previous machine's bytes in
	// recycled storage, so the object is cleared here; the clearing is
	// host work inside AllocPerByte's charge.
	clear(m.heap[off : off+size])
	m.used += size
	m.liveBytes += size
	var idx int
	if n := len(m.freeSlots); n > 0 {
		idx = m.freeSlots[n-1]
		m.freeSlots = m.freeSlots[:n-1]
	} else {
		m.slots = append(m.slots, objSlot{})
		idx = len(m.slots) - 1
	}
	s := &m.slots[idx]
	s.off, s.size, s.live, s.kind, s.elems = off, size, true, kind, elems
	s.gen++
	m.stats.HeapAllocs++
	m.stats.HeapAllocBytes += int64(size)
	m.clock.Advance(costs.AllocHeap + vtime.PerElement(size, costs.AllocPerByte))
	return makeRef(idx, s.gen), nil
}

// slot resolves a ref, failing on stale handles.
func (m *Machine) slot(r Ref) (*objSlot, error) {
	idx, gen := r.split()
	if idx < 0 || idx >= len(m.slots) {
		if m.released() {
			return nil, errReleased
		}
		return nil, fmt.Errorf("%w: ref %#x out of range", ErrStale, int64(r))
	}
	s := &m.slots[idx]
	if !s.live || s.gen != gen {
		return nil, fmt.Errorf("%w: ref %#x generation mismatch", ErrStale, int64(r))
	}
	return s, nil
}

// payload returns the current backing bytes of r. The slice aliases
// the heap and is invalidated by the next collection — exactly the
// property that forces JNI to copy Java arrays.
func (m *Machine) payload(r Ref) ([]byte, error) {
	s, err := m.slot(r)
	if err != nil {
		return nil, err
	}
	return m.heap[s.off : s.off+s.size : s.off+s.size], nil
}

// discard marks r dead; its storage is reclaimed by the next GC.
func (m *Machine) discard(r Ref) error {
	s, err := m.slot(r)
	if err != nil {
		return err
	}
	s.live = false
	m.liveBytes -= s.size
	idx, _ := r.split()
	m.freeSlots = append(m.freeSlots, idx)
	return nil
}

// GC runs a stop-the-world mark-compact collection: live objects are
// slid toward the bottom of the heap (moving their payloads and
// updating their offsets) and the bump pointer is reset past them. The
// pause is charged to the rank's virtual clock in proportion to the
// live set.
//
// If a JNI critical region is open, collection is deferred: the call
// records the request and returns ErrGCDisabled.
func (m *Machine) GC() error {
	if m.released() {
		return errReleased
	}
	if m.critical > 0 {
		m.pendingGC = true
		return ErrGCDisabled
	}
	// Collect slot indices of live objects in address order. Slots are
	// appended in allocation order but frees recycle entries, so sort
	// by offset.
	order := make([]int, 0, len(m.slots))
	for i := range m.slots {
		if m.slots[i].live {
			order = append(order, i)
		}
	}
	// Insertion sort by offset: the live list is nearly sorted because
	// compaction preserves address order.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && m.slots[order[j-1]].off > m.slots[order[j]].off; j-- {
			order[j-1], order[j] = order[j], order[j-1]
		}
	}
	dst := 0
	moved := int64(0)
	for _, i := range order {
		s := &m.slots[i]
		if s.off != dst {
			copy(m.heap[dst:dst+s.size], m.heap[s.off:s.off+s.size])
			moved += int64(s.size)
			s.off = dst
		}
		dst += s.size
	}
	m.used = dst
	m.stats.Collections++
	m.stats.BytesMoved += moved
	pause := costs.GCFixed + vtime.PerByte(m.liveBytes, costs.GCBandwidth)
	m.stats.GCPause += pause
	start := m.clock.Now()
	m.clock.Advance(pause)
	m.pendingGC = false
	if m.gcObs != nil {
		m.gcObs(m.liveBytes, start, m.clock.Now())
	}
	return nil
}

// EnterCritical opens a JNI critical region: collections are blocked
// until the matching ExitCritical. Regions nest.
func (m *Machine) EnterCritical() { m.critical++ }

// ExitCritical closes a critical region. If a collection was requested
// while the region was open, it runs now — this is the "detrimental
// performance" hazard the paper describes for
// GetPrimitiveArrayCritical.
func (m *Machine) ExitCritical() {
	if m.critical == 0 {
		panic("jvm: ExitCritical without EnterCritical")
	}
	m.critical--
	if m.critical == 0 && m.pendingGC {
		_ = m.GC()
	}
}

// InCritical reports whether a critical region is open.
func (m *Machine) InCritical() bool { return m.critical > 0 }

// ChargeBulk charges the memcpy-rate cost of moving n bytes. Exposed
// for the JNI and buffering layers, which move data on behalf of the
// Java program.
func (m *Machine) ChargeBulk(n int) { m.clock.Advance(costs.bulk(n)) }

// Charge advances the machine's clock by d. The JNI layer uses it for
// call-crossing overheads.
func (m *Machine) Charge(d vtime.Duration) { m.clock.Advance(d) }
