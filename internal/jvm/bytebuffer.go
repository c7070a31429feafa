package jvm

import (
	"fmt"

	"mv2j/internal/vtime"
)

// ByteOrder mirrors java.nio.ByteOrder.
type ByteOrder int

const (
	// BigEndian is the default order of a fresh java.nio.ByteBuffer.
	BigEndian ByteOrder = iota
	LittleEndian
)

func (o ByteOrder) String() string {
	if o == BigEndian {
		return "BIG_ENDIAN"
	}
	return "LITTLE_ENDIAN"
}

// ByteBuffer simulates java.nio.ByteBuffer with both allocation
// flavours the paper contrasts:
//
//   - direct (allocateDirect): storage lives in the off-heap arena at a
//     stable address, expensive to create, invisible to the collector —
//     the buffer kind Java MPI libraries want, because JNI can take its
//     address without copying;
//   - heap (allocate): storage is an ordinary heap object, movable by
//     GC, so JNI must copy it like an array.
//
// Position/limit/mark follow java.nio.Buffer semantics. Per-element
// get/put charge the (slower) buffer access costs; bulk transfers run
// at memcpy rate.
type ByteBuffer struct {
	m      *Machine
	direct bool
	ref    Ref // heap storage handle
	off    int // direct: stable arena offset
	base   int // view offset into the backing storage (Slice)
	cap    int
	pos    int
	limit  int
	mark   int // -1 when unset
	order  ByteOrder
	// derived marks Duplicate/Slice views, which share storage with
	// their parent and therefore cannot Free it.
	derived bool
}

// AllocateDirect creates a direct ByteBuffer of n bytes. Matching the
// paper's observation that direct buffers are "costly to create", it
// charges AllocDirect plus the zeroing cost.
func (m *Machine) AllocateDirect(n int) (*ByteBuffer, error) {
	if n <= 0 {
		return nil, fmt.Errorf("jvm: invalid direct buffer capacity %d", n)
	}
	if m.released() {
		return nil, errReleased
	}
	off, err := m.arena.alloc(n)
	if err != nil {
		return nil, err
	}
	clear(m.arena.bytes(off, n))
	m.stats.DirectAllocs++
	m.stats.DirectBytes += int64(n)
	m.clock.Advance(costs.AllocDirect + vtime.PerElement(n, costs.AllocPerByte))
	return &ByteBuffer{m: m, direct: true, off: off, cap: n, limit: n, mark: -1}, nil
}

// Allocate creates a heap (non-direct) ByteBuffer of n bytes.
func (m *Machine) Allocate(n int) (*ByteBuffer, error) {
	if n < 0 {
		return nil, fmt.Errorf("jvm: invalid buffer capacity %d", n)
	}
	ref, err := m.allocHeap(Byte, n, n)
	if err != nil {
		return nil, err
	}
	return &ByteBuffer{m: m, ref: ref, cap: n, limit: n, mark: -1}, nil
}

// MustAllocateDirect panics on failure; for examples and benchmarks.
func (m *Machine) MustAllocateDirect(n int) *ByteBuffer {
	b, err := m.AllocateDirect(n)
	if err != nil {
		panic(err)
	}
	return b
}

// Free releases the buffer's storage. For direct buffers this is the
// explicit-cleaner path (sun.misc.Cleaner); for heap buffers it marks
// the object collectable.
func (b *ByteBuffer) Free() {
	if b.derived {
		panic("jvm: Free on a Duplicate/Slice view; free the original buffer")
	}
	if b.direct {
		if b.m.released() {
			panic(errReleased)
		}
		b.m.arena.release(b.off, b.cap)
		b.m.clock.Advance(costs.FreeDirect)
		b.cap, b.limit, b.pos = 0, 0, 0
		return
	}
	if err := b.m.discard(b.ref); err != nil {
		panic(err)
	}
}

// IsDirect reports the allocation flavour.
func (b *ByteBuffer) IsDirect() bool { return b.direct }

// Machine returns the owning JVM.
func (b *ByteBuffer) Machine() *Machine { return b.m }

// storage returns the current backing bytes of this view.
func (b *ByteBuffer) storage() []byte {
	if b.direct {
		if b.m.released() {
			panic(errReleased)
		}
		return b.m.arena.bytes(b.off+b.base, b.cap)
	}
	p, err := b.m.payload(b.ref)
	if err != nil {
		panic(err)
	}
	return p[b.base : b.base+b.cap : b.base+b.cap]
}

// Duplicate creates a view sharing this buffer's storage with
// independent position, limit, and mark (java.nio duplicate()). The
// byte order resets to big-endian, as in Java.
func (b *ByteBuffer) Duplicate() *ByteBuffer {
	d := *b
	d.derived = true
	d.mark = -1
	d.order = BigEndian
	return &d
}

// Slice creates a view of the [position, limit) region: element 0 of
// the slice is the current position (java.nio slice()).
func (b *ByteBuffer) Slice() *ByteBuffer {
	n := b.Remaining()
	return &ByteBuffer{
		m:       b.m,
		direct:  b.direct,
		ref:     b.ref,
		off:     b.off,
		base:    b.base + b.pos,
		cap:     n,
		limit:   n,
		mark:    -1,
		derived: true,
	}
}

// Capacity, Position, Limit, Remaining follow java.nio.Buffer.
func (b *ByteBuffer) Capacity() int  { return b.cap }
func (b *ByteBuffer) Position() int  { return b.pos }
func (b *ByteBuffer) Limit() int     { return b.limit }
func (b *ByteBuffer) Remaining() int { return b.limit - b.pos }

// SetPosition moves the cursor; panics outside [0, limit].
func (b *ByteBuffer) SetPosition(p int) {
	if p < 0 || p > b.limit {
		panic(fmt.Sprintf("jvm: position %d outside [0,%d]", p, b.limit))
	}
	b.pos = p
	if b.mark > p {
		b.mark = -1
	}
}

// SetLimit adjusts the limit; panics outside [0, capacity].
func (b *ByteBuffer) SetLimit(l int) {
	if l < 0 || l > b.cap {
		panic(fmt.Sprintf("jvm: limit %d outside [0,%d]", l, b.cap))
	}
	b.limit = l
	if b.pos > l {
		b.pos = l
	}
	if b.mark > l {
		b.mark = -1
	}
}

// Flip makes the buffer readable: limit=position, position=0.
func (b *ByteBuffer) Flip() { b.limit, b.pos, b.mark = b.pos, 0, -1 }

// Clear resets for writing: position=0, limit=capacity.
func (b *ByteBuffer) Clear() { b.pos, b.limit, b.mark = 0, b.cap, -1 }

// Rewind resets position to 0 keeping the limit.
func (b *ByteBuffer) Rewind() { b.pos, b.mark = 0, -1 }

// Mark records the position for ResetToMark.
func (b *ByteBuffer) Mark() { b.mark = b.pos }

// ResetToMark rewinds to the marked position; panics if unset.
func (b *ByteBuffer) ResetToMark() {
	if b.mark < 0 {
		panic("jvm: reset without mark")
	}
	b.pos = b.mark
}

// Order returns the byte order (BigEndian unless changed).
func (b *ByteBuffer) Order() ByteOrder { return b.order }

// SetOrder changes the byte order used by multi-byte accessors.
func (b *ByteBuffer) SetOrder(o ByteOrder) { b.order = o }

func (b *ByteBuffer) checkIndex(i, width int) {
	if i < 0 || i+width > b.limit {
		panic(fmt.Sprintf("jvm: buffer index %d(+%d) outside limit %d", i, width, b.limit))
	}
}

// PutIntKind writes an integral value of kind k at the current
// position (relative put), advancing it. Charges one buffer write.
func (b *ByteBuffer) PutIntKind(k Kind, v int64) {
	b.PutIntKindAt(k, b.pos, v)
	b.pos += k.Size()
}

// PutIntKindAt is the absolute variant.
func (b *ByteBuffer) PutIntKindAt(k Kind, i int, v int64) {
	b.checkIndex(i, k.Size())
	putBits(b.storage(), i, k.Size(), intToBits(k, v), b.order == BigEndian)
	b.m.clock.Advance(costs.BufferWrite)
}

// IntKind reads an integral value of kind k at the position, advancing.
func (b *ByteBuffer) IntKind(k Kind) int64 {
	v := b.IntKindAt(k, b.pos)
	b.pos += k.Size()
	return v
}

// IntKindAt is the absolute variant.
func (b *ByteBuffer) IntKindAt(k Kind, i int) int64 {
	b.checkIndex(i, k.Size())
	bits := getBits(b.storage(), i, k.Size(), b.order == BigEndian)
	b.m.clock.Advance(costs.BufferRead)
	return bitsToInt(k, bits)
}

// PutFloatKind / FloatKind mirror the integral accessors for
// float/double.
func (b *ByteBuffer) PutFloatKind(k Kind, v float64) {
	b.PutFloatKindAt(k, b.pos, v)
	b.pos += k.Size()
}

func (b *ByteBuffer) PutFloatKindAt(k Kind, i int, v float64) {
	b.checkIndex(i, k.Size())
	putBits(b.storage(), i, k.Size(), floatToBits(k, v), b.order == BigEndian)
	b.m.clock.Advance(costs.BufferWrite)
}

func (b *ByteBuffer) FloatKind(k Kind) float64 {
	v := b.FloatKindAt(k, b.pos)
	b.pos += k.Size()
	return v
}

func (b *ByteBuffer) FloatKindAt(k Kind, i int) float64 {
	b.checkIndex(i, k.Size())
	bits := getBits(b.storage(), i, k.Size(), b.order == BigEndian)
	b.m.clock.Advance(costs.BufferRead)
	return bitsToFloat(k, bits)
}

// PutByte / GetByte are the common single-byte relative accessors.
func (b *ByteBuffer) PutByte(v byte) { b.PutIntKind(Byte, int64(v)) }
func (b *ByteBuffer) GetByte() byte  { return byte(b.IntKind(Byte)) }

// PutByteAt / ByteAt are absolute single-byte accessors.
func (b *ByteBuffer) PutByteAt(i int, v byte) { b.PutIntKindAt(Byte, i, int64(v)) }
func (b *ByteBuffer) ByteAt(i int) byte       { return byte(b.IntKindAt(Byte, i)) }

// PutBytes bulk-writes src at the position (ByteBuffer.put(byte[])),
// advancing it, at memcpy rate.
func (b *ByteBuffer) PutBytes(src []byte) {
	b.checkIndex(b.pos, len(src))
	copy(b.storage()[b.pos:], src)
	b.pos += len(src)
	b.m.ChargeBulk(len(src))
}

// GetBytes bulk-reads into dst, advancing the position.
func (b *ByteBuffer) GetBytes(dst []byte) {
	b.checkIndex(b.pos, len(dst))
	copy(dst, b.storage()[b.pos:])
	b.pos += len(dst)
	b.m.ChargeBulk(len(dst))
}

// PutArray bulk-copies n elements of a (starting at element srcOff)
// into the buffer at the current position, advancing it. This is the
// typed-view put(array) path the buffering layer uses: one bulk charge,
// not n element charges.
func (b *ByteBuffer) PutArray(a Array, srcOff, n int) {
	a.checkRange(srcOff, n)
	sz := a.kind.Size()
	nb := n * sz
	b.checkIndex(b.pos, nb)
	copy(b.storage()[b.pos:], a.payload()[srcOff*sz:(srcOff+n)*sz])
	b.pos += nb
	b.m.ChargeBulk(nb)
}

// GetArray bulk-copies n elements from the buffer at the current
// position into a at element dstOff, advancing the position.
func (b *ByteBuffer) GetArray(a Array, dstOff, n int) {
	a.checkRange(dstOff, n)
	sz := a.kind.Size()
	nb := n * sz
	b.checkIndex(b.pos, nb)
	copy(a.payload()[dstOff*sz:(dstOff+n)*sz], b.storage()[b.pos:b.pos+nb])
	b.pos += nb
	b.m.ChargeBulk(nb)
}

// Address returns the stable native address (arena offset) of a direct
// buffer, or -1 for heap buffers — matching GetDirectBufferAddress
// returning NULL for non-direct buffers. Views report the address of
// their element 0.
func (b *ByteBuffer) Address() int {
	if !b.direct {
		return -1
	}
	return b.off + b.base
}

// RawBytes exposes the backing store without copying or cost. For
// direct buffers the slice is stable; for heap buffers it is
// invalidated by the next GC. Only the jni package should call this.
func (b *ByteBuffer) RawBytes() []byte { return b.storage() }
