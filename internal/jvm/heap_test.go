package jvm

import (
	"errors"
	"testing"

	"mv2j/internal/vtime"
)

func newTestMachine(t testing.TB, heap, arena int) *Machine {
	t.Helper()
	return NewMachine(vtime.NewClock(), Options{HeapSize: heap, ArenaSize: arena})
}

func TestAllocAndPayload(t *testing.T) {
	m := newTestMachine(t, 1<<16, 1<<16)
	a, err := m.NewArray(Int, 10)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != 10 || a.Kind() != Int || a.SizeBytes() != 40 {
		t.Fatalf("array shape wrong: len=%d kind=%v bytes=%d", a.Len(), a.Kind(), a.SizeBytes())
	}
	if m.HeapUsed() != 40 || m.LiveBytes() != 40 {
		t.Fatalf("heap accounting wrong: used=%d live=%d", m.HeapUsed(), m.LiveBytes())
	}
}

func TestDiscardAndStaleRef(t *testing.T) {
	m := newTestMachine(t, 1<<16, 1<<16)
	a := m.MustArray(Byte, 8)
	ref := a.Ref()
	a.Discard()
	if _, err := m.payload(ref); !errors.Is(err, ErrStale) {
		t.Fatalf("payload after discard: err=%v, want ErrStale", err)
	}
	if m.LiveBytes() != 0 {
		t.Fatalf("LiveBytes = %d after discard", m.LiveBytes())
	}
}

func TestSlotReuseBumpsGeneration(t *testing.T) {
	m := newTestMachine(t, 1<<16, 1<<16)
	a := m.MustArray(Byte, 8)
	oldRef := a.Ref()
	a.Discard()
	b := m.MustArray(Byte, 8) // recycles the slot
	if b.Ref() == oldRef {
		t.Fatal("recycled slot produced an identical ref; generations must differ")
	}
	if _, err := m.payload(oldRef); !errors.Is(err, ErrStale) {
		t.Fatalf("old ref resolved after recycling: %v", err)
	}
}

func TestGCCompactsAndMovesObjects(t *testing.T) {
	m := newTestMachine(t, 1<<16, 1<<16)
	dead := m.MustArray(Byte, 1000)
	live := m.MustArray(Byte, 100)
	live.SetInt(0, 42)
	live.SetInt(99, 7)
	offBefore := live.Offset()
	dead.Discard()
	if err := m.GC(); err != nil {
		t.Fatal(err)
	}
	offAfter := live.Offset()
	if offAfter == offBefore {
		t.Fatal("GC did not move the surviving object (compaction expected)")
	}
	if offAfter != 0 {
		t.Fatalf("survivor should be compacted to offset 0, got %d", offAfter)
	}
	// Contents must survive the move.
	if live.Int(0) != 42 || live.Int(99) != 7 {
		t.Fatal("payload corrupted by compaction")
	}
	if m.HeapUsed() != 100 {
		t.Fatalf("HeapUsed = %d after GC, want 100", m.HeapUsed())
	}
	if m.Stats().Collections != 1 {
		t.Fatalf("Collections = %d, want 1", m.Stats().Collections)
	}
}

func TestGCChargesPause(t *testing.T) {
	clock := vtime.NewClock()
	m := NewMachine(clock, Options{HeapSize: 1 << 16, ArenaSize: 1 << 16})
	before := clock.Now()
	if err := m.GC(); err != nil {
		t.Fatal(err)
	}
	pause := clock.Now().Sub(before)
	if pause < costs.GCFixed {
		t.Fatalf("GC pause %v below fixed cost %v", pause, costs.GCFixed)
	}
}

func TestAllocationTriggersGC(t *testing.T) {
	m := newTestMachine(t, 1024, 1<<16)
	a := m.MustArray(Byte, 600)
	a.Discard()
	// 600 dead + 600 requested > 1024: allocation must collect first.
	b, err := m.NewArray(Byte, 600)
	if err != nil {
		t.Fatalf("allocation should have succeeded after implicit GC: %v", err)
	}
	if m.Stats().Collections != 1 {
		t.Fatalf("Collections = %d, want 1 (implicit)", m.Stats().Collections)
	}
	if b.Offset() != 0 {
		t.Fatalf("new object at %d, want 0 after compaction", b.Offset())
	}
}

// deadObjectAtZero leaves a discarded 600-byte object full of 85s at
// heap offset 0 of a 1 KiB heap, so the next 600-byte allocation lands
// on its bytes once a collection has compacted the heap.
func deadObjectAtZero(t *testing.T) *Machine {
	t.Helper()
	m := newTestMachine(t, 1024, 1<<16)
	dead := m.MustArray(Byte, 600)
	dead.Fill(85)
	dead.Discard()
	return m
}

func assertZero(t *testing.T, n int, at func(i int) int64) {
	t.Helper()
	for i := 0; i < n; i++ {
		if v := at(i); v != 0 {
			t.Fatalf("fresh object reads %d at index %d, want 0", v, i)
		}
	}
}

func TestNewArrayAfterGCReadsZero(t *testing.T) {
	m := deadObjectAtZero(t)
	if err := m.GC(); err != nil {
		t.Fatal(err)
	}
	a := m.MustArray(Byte, 600)
	assertZero(t, a.Len(), a.Int)
}

func TestNewArrayAfterImplicitGCReadsZero(t *testing.T) {
	m := deadObjectAtZero(t)
	a := m.MustArray(Byte, 600) // 600 dead + 600 requested > 1024: collects first
	if m.Stats().Collections != 1 {
		t.Fatalf("Collections = %d, want 1 (implicit)", m.Stats().Collections)
	}
	assertZero(t, a.Len(), a.Int)
}

func TestAllocateAfterGCReadsZero(t *testing.T) {
	m := deadObjectAtZero(t)
	if err := m.GC(); err != nil {
		t.Fatal(err)
	}
	b, err := m.Allocate(600)
	if err != nil {
		t.Fatal(err)
	}
	assertZero(t, b.Capacity(), func(i int) int64 { return int64(b.ByteAt(i)) })
}

func TestOutOfMemory(t *testing.T) {
	m := newTestMachine(t, 256, 1<<16)
	if _, err := m.NewArray(Byte, 300); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
	// Live data filling the heap: no GC can help.
	m.MustArray(Byte, 200)
	if _, err := m.NewArray(Byte, 100); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory for live-full heap", err)
	}
}

func TestCriticalRegionBlocksGC(t *testing.T) {
	m := newTestMachine(t, 1<<16, 1<<16)
	m.MustArray(Byte, 16)
	m.EnterCritical()
	if err := m.GC(); !errors.Is(err, ErrGCDisabled) {
		t.Fatalf("GC in critical region: err=%v, want ErrGCDisabled", err)
	}
	if m.Stats().Collections != 0 {
		t.Fatal("collection ran inside a critical region")
	}
	m.ExitCritical()
	// The pending collection must have run at region exit.
	if m.Stats().Collections != 1 {
		t.Fatalf("pending GC did not run on ExitCritical: collections=%d", m.Stats().Collections)
	}
}

func TestCriticalRegionNesting(t *testing.T) {
	m := newTestMachine(t, 1<<16, 1<<16)
	m.EnterCritical()
	m.EnterCritical()
	m.ExitCritical()
	if !m.InCritical() {
		t.Fatal("nested critical region closed too early")
	}
	m.ExitCritical()
	if m.InCritical() {
		t.Fatal("critical region still open")
	}
}

func TestExitCriticalUnbalancedPanics(t *testing.T) {
	m := newTestMachine(t, 1<<16, 1<<16)
	defer func() {
		if recover() == nil {
			t.Fatal("unbalanced ExitCritical did not panic")
		}
	}()
	m.ExitCritical()
}

func TestAllocationDuringCriticalNeedingGCFails(t *testing.T) {
	m := newTestMachine(t, 1024, 1<<16)
	a := m.MustArray(Byte, 600)
	a.Discard()
	m.EnterCritical()
	_, err := m.NewArray(Byte, 600)
	if !errors.Is(err, ErrGCDisabled) {
		t.Fatalf("err = %v, want ErrGCDisabled", err)
	}
	m.ExitCritical()
	if _, err := m.NewArray(Byte, 600); err != nil {
		t.Fatalf("allocation after critical exit failed: %v", err)
	}
}

func TestNewMachinePanicsOnNilClock(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMachine(nil) did not panic")
		}
	}()
	NewMachine(nil, Options{})
}

func TestStatsAccumulate(t *testing.T) {
	m := newTestMachine(t, 1<<16, 1<<16)
	m.MustArray(Int, 4)
	m.MustAllocateDirect(64)
	s := m.Stats()
	if s.HeapAllocs != 1 || s.HeapAllocBytes != 16 {
		t.Fatalf("heap stats wrong: %+v", s)
	}
	if s.DirectAllocs != 1 || s.DirectBytes != 64 {
		t.Fatalf("direct stats wrong: %+v", s)
	}
}
