package jni

import (
	"testing"

	"mv2j/internal/jvm"
	"mv2j/internal/vtime"
)

func newEnv(t testing.TB) (*Env, *jvm.Machine, *vtime.Clock) {
	t.Helper()
	clock := vtime.NewClock()
	m := jvm.NewMachine(clock, jvm.Options{HeapSize: 1 << 20, ArenaSize: 1 << 20})
	return New(m), m, clock
}

func TestGetArrayElementsCopies(t *testing.T) {
	e, m, _ := newEnv(t)
	a := m.MustArray(jvm.Byte, 8)
	a.SetInt(0, 11)
	elems := e.GetArrayElements(a)
	if elems[0] != 11 {
		t.Fatal("native copy missing array contents")
	}
	// Mutating the native copy must NOT be visible until release:
	// this is a copy, not a pinned pointer.
	elems[0] = 99
	if a.Int(0) != 11 {
		t.Fatal("GetArrayElements returned an aliased view; it must copy")
	}
	e.ReleaseArrayElements(a, elems, CopyBack)
	if a.Int(0) != 99 {
		t.Fatal("ReleaseArrayElements(CopyBack) did not write back")
	}
}

func TestReleaseAbortSkipsCopyBack(t *testing.T) {
	e, m, _ := newEnv(t)
	a := m.MustArray(jvm.Byte, 4)
	elems := e.GetArrayElements(a)
	elems[2] = 42
	e.ReleaseArrayElements(a, elems, Abort)
	if a.Int(2) != 0 {
		t.Fatal("Abort mode must not write back")
	}
	s := e.Stats()
	if s.ArrayCopyOut != 1 || s.ArrayCopyBack != 0 {
		t.Fatalf("stats wrong: %+v", s)
	}
}

func TestReleaseLengthMismatchPanics(t *testing.T) {
	e, m, _ := newEnv(t)
	a := m.MustArray(jvm.Int, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	e.ReleaseArrayElements(a, make([]byte, 3), CopyBack)
}

func TestCopyPathCostsMoreThanCriticalPath(t *testing.T) {
	e, m, clock := newEnv(t)
	a := m.MustArray(jvm.Byte, 1<<16)

	t0 := clock.Now()
	elems := e.GetArrayElements(a)
	e.ReleaseArrayElements(a, elems, CopyBack)
	copying := clock.Now().Sub(t0)

	t1 := clock.Now()
	view := e.GetPrimitiveArrayCritical(a)
	_ = view
	e.ReleasePrimitiveArrayCritical(a)
	critical := clock.Now().Sub(t1)

	if copying < 4*critical {
		t.Fatalf("copying path (%v) should dwarf the critical path (%v) for 64KB", copying, critical)
	}
}

func TestCriticalDisablesGC(t *testing.T) {
	e, m, _ := newEnv(t)
	a := m.MustArray(jvm.Byte, 16)
	view := e.GetPrimitiveArrayCritical(a)
	if !m.InCritical() {
		t.Fatal("critical region not opened")
	}
	if err := m.GC(); err == nil {
		t.Fatal("GC must refuse to run during a critical region")
	}
	view[3] = 7 // zero-copy: writes hit the heap directly
	e.ReleasePrimitiveArrayCritical(a)
	if m.InCritical() {
		t.Fatal("critical region not closed")
	}
	if a.Int(3) != 7 {
		t.Fatal("critical view was not zero-copy")
	}
}

func TestGetDirectBufferAddress(t *testing.T) {
	e, m, _ := newEnv(t)
	direct := m.MustAllocateDirect(32)
	view := e.GetDirectBufferAddress(direct)
	if view == nil || len(view) != 32 {
		t.Fatalf("direct address view wrong: len=%d", len(view))
	}
	view[0] = 0xAB // native write, zero copy
	if direct.ByteAt(0) != 0xAB {
		t.Fatal("direct buffer view is not aliased storage")
	}
	heap, err := m.Allocate(32)
	if err != nil {
		t.Fatal(err)
	}
	if e.GetDirectBufferAddress(heap) != nil {
		t.Fatal("heap buffer must yield nil address (JNI NULL)")
	}
	if e.GetDirectBufferCapacity(direct) != 32 || e.GetDirectBufferCapacity(heap) != -1 {
		t.Fatal("GetDirectBufferCapacity wrong")
	}
}

func TestDirectBufferPathIsCheapest(t *testing.T) {
	e, m, clock := newEnv(t)
	a := m.MustArray(jvm.Byte, 1<<20)
	b := m.MustAllocateDirect(1 << 20)

	t0 := clock.Now()
	elems := e.GetArrayElements(a)
	e.ReleaseArrayElements(a, elems, CopyBack)
	arrayPath := clock.Now().Sub(t0)

	t1 := clock.Now()
	_ = e.GetDirectBufferAddress(b)
	bufferPath := clock.Now().Sub(t1)

	if bufferPath*100 > arrayPath {
		t.Fatalf("direct path (%v) should be ~free next to the 1MB copy path (%v)", bufferPath, arrayPath)
	}
}

func TestRegionCopiesOnlyTheSubset(t *testing.T) {
	e, m, clock := newEnv(t)
	a := m.MustArray(jvm.Int, 1<<18) // 1 MiB of ints
	small := make([]byte, 64*4)

	t0 := clock.Now()
	e.GetArrayRegion(a, 100, 64, small)
	region := clock.Now().Sub(t0)

	t1 := clock.Now()
	elems := e.GetArrayElements(a)
	e.ReleaseArrayElements(a, elems, Abort)
	full := clock.Now().Sub(t1)

	if region*50 > full {
		t.Fatalf("region copy (%v) should be tiny next to the full-array copy (%v)", region, full)
	}
}

func TestRegionRoundTrip(t *testing.T) {
	e, m, _ := newEnv(t)
	a := m.MustArray(jvm.Short, 16)
	src := []byte{1, 2, 3, 4}
	e.SetArrayRegion(a, 5, src)
	dst := make([]byte, 4)
	e.GetArrayRegion(a, 5, 2, dst)
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("region round trip mismatch: %v vs %v", dst, src)
		}
	}
}

func TestRegionSizeMismatchPanics(t *testing.T) {
	e, m, _ := newEnv(t)
	a := m.MustArray(jvm.Int, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("GetArrayRegion size mismatch did not panic")
		}
	}()
	e.GetArrayRegion(a, 0, 4, make([]byte, 15))
}

func TestCrossingChargesTime(t *testing.T) {
	e, _, clock := newEnv(t)
	t0 := clock.Now()
	e.CallNative()
	if clock.Now().Sub(t0) != costs.Crossing {
		t.Fatal("CallNative did not charge one crossing")
	}
	if e.Stats().Calls != 1 {
		t.Fatal("call counter wrong")
	}
}

func TestNewPanicsOnNilMachine(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(nil) did not panic")
		}
	}()
	New(nil)
}
