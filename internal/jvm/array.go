package jvm

import "fmt"

// Array is a handle to a Java primitive array living in the managed
// heap. Element access goes through accessors that charge the array
// cost model; the raw payload is reachable only via RawBytes, whose
// validity ends at the next collection — the property that forces the
// JNI layer to copy, or to hold off the collector in a critical region.
//
// Index errors panic, mirroring Java's ArrayIndexOutOfBoundsException
// being an unchecked throw.
type Array struct {
	m    *Machine
	ref  Ref
	kind Kind
	n    int
}

// NewArray allocates a primitive array of n elements.
func (m *Machine) NewArray(kind Kind, n int) (Array, error) {
	if n < 0 {
		return Array{}, fmt.Errorf("jvm: negative array length %d", n)
	}
	ref, err := m.allocHeap(kind, n, n*kind.Size())
	if err != nil {
		return Array{}, err
	}
	return Array{m: m, ref: ref, kind: kind, n: n}, nil
}

// MustArray is NewArray for contexts where allocation failure is a
// programming error (examples, benchmarks with sized heaps).
func (m *Machine) MustArray(kind Kind, n int) Array {
	a, err := m.NewArray(kind, n)
	if err != nil {
		panic(err)
	}
	return a
}

// IsNil reports whether a is the zero Array (Java null).
func (a Array) IsNil() bool { return a.m == nil }

// Len returns the element count.
func (a Array) Len() int { return a.n }

// Kind returns the component type.
func (a Array) Kind() Kind { return a.kind }

// SizeBytes returns the payload size in bytes.
func (a Array) SizeBytes() int { return a.n * a.kind.Size() }

// Machine returns the owning JVM.
func (a Array) Machine() *Machine { return a.m }

// Discard marks the array unreachable; the next GC reclaims it.
func (a Array) Discard() {
	if err := a.m.discard(a.ref); err != nil {
		panic(err)
	}
}

func (a Array) payload() []byte {
	p, err := a.m.payload(a.ref)
	if err != nil {
		panic(err) // stale handle: a simulation bug, not a user condition
	}
	return p
}

func (a Array) check(i int) {
	if i < 0 || i >= a.n {
		panic(fmt.Sprintf("jvm: array index %d out of bounds [0,%d)", i, a.n))
	}
}

func (a Array) checkRange(off, n int) {
	if off < 0 || n < 0 || off+n > a.n {
		panic(fmt.Sprintf("jvm: array range [%d,%d) out of bounds [0,%d)", off, off+n, a.n))
	}
}

// SetInt stores v at index i for integral kinds, narrowing with Java
// semantics. It charges one array-write access.
func (a Array) SetInt(i int, v int64) {
	a.check(i)
	if a.kind.IsFloating() {
		panic("jvm: SetInt on " + a.kind.String() + " array")
	}
	sz := a.kind.Size()
	putBits(a.payload(), i*sz, sz, intToBits(a.kind, v), false)
	a.m.clock.Advance(costs.ArrayWrite)
}

// Int loads index i of an integral array, charging one array read.
func (a Array) Int(i int) int64 {
	a.check(i)
	if a.kind.IsFloating() {
		panic("jvm: Int on " + a.kind.String() + " array")
	}
	sz := a.kind.Size()
	bits := getBits(a.payload(), i*sz, sz, false)
	a.m.clock.Advance(costs.ArrayRead)
	return bitsToInt(a.kind, bits)
}

// SetFloat stores v at index i for float/double arrays.
func (a Array) SetFloat(i int, v float64) {
	a.check(i)
	if !a.kind.IsFloating() {
		panic("jvm: SetFloat on " + a.kind.String() + " array")
	}
	sz := a.kind.Size()
	putBits(a.payload(), i*sz, sz, floatToBits(a.kind, v), false)
	a.m.clock.Advance(costs.ArrayWrite)
}

// Float loads index i of a float/double array.
func (a Array) Float(i int) float64 {
	a.check(i)
	if !a.kind.IsFloating() {
		panic("jvm: Float on " + a.kind.String() + " array")
	}
	sz := a.kind.Size()
	bits := getBits(a.payload(), i*sz, sz, false)
	a.m.clock.Advance(costs.ArrayRead)
	return bitsToFloat(a.kind, bits)
}

// Fill sets every element of an integral array to v at bulk rate
// (java.util.Arrays.fill compiles to a vectorised loop).
func (a Array) Fill(v int64) {
	sz := a.kind.Size()
	p := a.payload()
	bits := intToBits(a.kind, v)
	for i := 0; i < a.n; i++ {
		putBits(p, i*sz, sz, bits, false)
	}
	a.m.ChargeBulk(a.SizeBytes())
}

// CopyInBytes copies len(src) raw bytes into the payload starting at
// byte offset boff, at bulk (System.arraycopy) rate.
func (a Array) CopyInBytes(boff int, src []byte) {
	p := a.payload()
	if boff < 0 || boff+len(src) > len(p) {
		panic(fmt.Sprintf("jvm: CopyInBytes range [%d,%d) out of bounds [0,%d)", boff, boff+len(src), len(p)))
	}
	copy(p[boff:], src)
	a.m.ChargeBulk(len(src))
}

// CopyOutBytes copies raw payload bytes [boff, boff+len(dst)) into dst
// at bulk rate.
func (a Array) CopyOutBytes(boff int, dst []byte) {
	p := a.payload()
	if boff < 0 || boff+len(dst) > len(p) {
		panic(fmt.Sprintf("jvm: CopyOutBytes range [%d,%d) out of bounds [0,%d)", boff, boff+len(dst), len(p)))
	}
	copy(dst, p[boff:])
	a.m.ChargeBulk(len(dst))
}

// RawBytes exposes the array's current backing store without copying
// and without charging access costs. It models the pointer obtained by
// GetPrimitiveArrayCritical: the slice is invalidated by the next
// collection, so callers must hold a critical region (or accept the
// hazard). Only the jni package should call this.
func (a Array) RawBytes() []byte { return a.payload() }

// Ref exposes the handle, for diagnostics and GC-movement tests.
func (a Array) Ref() Ref { return a.ref }

// Offset returns the payload's current heap offset. It exists so tests
// can demonstrate that compaction moves objects.
func (a Array) Offset() int {
	s, err := a.m.slot(a.ref)
	if err != nil {
		panic(err)
	}
	return s.off
}
