// Package jni models the Java Native Interface boundary between the
// simulated JVM and the "native" MPI library. It implements exactly the
// three data paths the paper's Section IV discusses, with their cost
// and correctness contracts:
//
//   - Get<Type>ArrayElements / Release<Type>ArrayElements: the
//     JVM-documentation-recommended way to reach a Java array from C.
//     It COPIES the array out and back (isCopy=true, as on every JVM
//     the paper measures), costing two memcpys plus the call crossings.
//   - GetPrimitiveArrayCritical / ReleasePrimitiveArrayCritical: a
//     zero-copy view, but garbage collection is disabled while the
//     region is open — the hazard that makes it "not recommended".
//   - GetDirectBufferAddress: a free, stable pointer to a direct
//     ByteBuffer's off-heap storage; returns nil for heap buffers just
//     as the real call returns NULL.
//
// Every crossing charges virtual time, which is how the ~1 µs Java
// layer overhead of the paper's Fig. 11 arises.
package jni

import (
	"fmt"

	"mv2j/internal/jvm"
	"mv2j/internal/vtime"
)

// Costs parameterises the boundary overheads.
type Costs struct {
	// Crossing is charged on every JNI call (argument marshalling,
	// handle table lookup, state transition).
	Crossing vtime.Duration
	// GetElements/ReleaseElements add fixed costs on the copying array
	// path beyond the bulk copy itself.
	GetElementsFixed     vtime.Duration
	ReleaseElementsFixed vtime.Duration
}

// costs holds the crossing costs every Env charges: one package-level
// value, since nothing varies it per instance. They are in the range
// measured for real JNI downcalls on OpenJDK (a few hundred
// nanoseconds per call pair).
var costs = Costs{
	Crossing:             vtime.Nanos(140),
	GetElementsFixed:     vtime.Nanos(80),
	ReleaseElementsFixed: vtime.Nanos(80),
}

// ReleaseMode selects Release<Type>ArrayElements behaviour.
type ReleaseMode int

const (
	// CopyBack writes the native copy back and frees it (mode 0).
	CopyBack ReleaseMode = iota
	// Commit writes back but keeps the native copy valid (JNI_COMMIT).
	Commit
	// Abort frees the native copy without writing back (JNI_ABORT).
	Abort
)

// Stats counts boundary activity for one Env. Every counter is part of
// the deterministic artifact surface: core/observe scrapes them into
// the metrics registry.
type Stats struct {
	Calls          int64
	ArrayCopyOut   int64
	ArrayCopyBack  int64
	CopiedBytes    int64
	CriticalEnters int64
}

// Env is one rank's JNI environment.
type Env struct {
	m     *jvm.Machine
	stats Stats
}

// New builds an Env over machine m.
func New(m *jvm.Machine) *Env {
	if m == nil {
		panic("jni: nil machine")
	}
	return &Env{m: m}
}

// Machine returns the JVM this environment belongs to.
func (e *Env) Machine() *jvm.Machine { return e.m }

// Stats returns a snapshot of the boundary counters.
func (e *Env) Stats() Stats { return e.stats }

func (e *Env) cross() {
	e.stats.Calls++
	e.m.Charge(costs.Crossing)
}

// CallNative models invoking a native function through JNI: one
// crossing charge. The bindings call it once per MPI primitive.
func (e *Env) CallNative() { e.cross() }

// GetArrayElements returns a fresh native copy of the array's contents
// (isCopy=true), charging the crossing, the fixed get cost, and a bulk
// copy of the whole payload — the full-array copy the paper points out
// is paid even when only a subset is needed.
func (e *Env) GetArrayElements(a jvm.Array) []byte {
	e.cross()
	e.m.Charge(costs.GetElementsFixed)
	n := a.SizeBytes()
	e.m.ChargeBulk(n)
	e.stats.ArrayCopyOut++
	e.stats.CopiedBytes += int64(n)
	out := make([]byte, n)
	copy(out, a.RawBytes())
	return out
}

// ReleaseArrayElements completes the array-elements pair: unless mode
// is Abort, the native copy is committed back into the array, charging
// another bulk copy.
func (e *Env) ReleaseArrayElements(a jvm.Array, elems []byte, mode ReleaseMode) {
	if len(elems) != a.SizeBytes() {
		panic(fmt.Sprintf("jni: ReleaseArrayElements length %d != array %d bytes",
			len(elems), a.SizeBytes()))
	}
	e.cross()
	e.m.Charge(costs.ReleaseElementsFixed)
	if mode != Abort {
		copy(a.RawBytes(), elems)
		e.m.ChargeBulk(len(elems))
		e.stats.ArrayCopyBack++
		e.stats.CopiedBytes += int64(len(elems))
	}
}

// GetArrayRegion copies elements [elemOff, elemOff+n) into dst without
// materialising the whole array — the subset path that an offset
// argument in the bindings API would enable (paper §IV-B).
func (e *Env) GetArrayRegion(a jvm.Array, elemOff, n int, dst []byte) {
	sz := a.Kind().Size()
	if len(dst) != n*sz {
		panic(fmt.Sprintf("jni: GetArrayRegion dst %d bytes != %d elements of %v", len(dst), n, a.Kind()))
	}
	e.cross()
	a.CopyOutBytes(elemOff*sz, dst) // charges bulk for just the region
	e.stats.CopiedBytes += int64(len(dst))
}

// SetArrayRegion copies src into elements [elemOff, ...) of a.
func (e *Env) SetArrayRegion(a jvm.Array, elemOff int, src []byte) {
	e.cross()
	a.CopyInBytes(elemOff*a.Kind().Size(), src)
	e.stats.CopiedBytes += int64(len(src))
}

// GetPrimitiveArrayCritical returns a zero-copy view of the array and
// disables garbage collection until the matching release. The returned
// slice aliases the heap: it is valid precisely because the collector
// cannot run.
func (e *Env) GetPrimitiveArrayCritical(a jvm.Array) []byte {
	e.cross()
	e.m.EnterCritical()
	e.stats.CriticalEnters++
	return a.RawBytes()
}

// ReleasePrimitiveArrayCritical closes the critical region; a deferred
// collection, if any, runs now (and its pause lands on this rank).
func (e *Env) ReleasePrimitiveArrayCritical(a jvm.Array) {
	_ = a
	e.cross()
	e.m.ExitCritical()
}

// directLookup is the cost of resolving a direct buffer's address or
// capacity. Unlike the array paths, these JNI functions are called
// from within the already-entered native frame — no state transition,
// just a field read off the Buffer object — so they cost nanoseconds,
// not a crossing.
const directLookup = 12 * vtime.Nanosecond

// GetDirectBufferAddress returns the stable storage of a direct buffer
// with no copy, or nil for heap buffers (JNI returns NULL). The slice
// covers the full capacity, like the JNI address + capacity pair.
func (e *Env) GetDirectBufferAddress(b *jvm.ByteBuffer) []byte {
	e.stats.Calls++
	e.m.Charge(directLookup)
	if !b.IsDirect() {
		return nil
	}
	return b.RawBytes()
}

// GetDirectBufferCapacity returns the capacity of a direct buffer, or
// -1 for heap buffers.
func (e *Env) GetDirectBufferCapacity(b *jvm.ByteBuffer) int {
	e.stats.Calls++
	e.m.Charge(directLookup)
	if !b.IsDirect() {
		return -1
	}
	return b.Capacity()
}
