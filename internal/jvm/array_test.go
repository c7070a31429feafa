package jvm

import (
	"testing"
	"testing/quick"

	"mv2j/internal/vtime"
)

func TestArrayIntRoundTripAllKinds(t *testing.T) {
	m := newTestMachine(t, 1<<16, 1<<16)
	cases := []struct {
		kind Kind
		vals []int64
	}{
		{Byte, []int64{0, 1, -1, 127, -128}},
		{Boolean, []int64{0, 1, 1, 0}},
		{Char, []int64{0, 1, 65535, 'A'}},
		{Short, []int64{0, -1, 32767, -32768}},
		{Int, []int64{0, -1, 1<<31 - 1, -(1 << 31)}},
		{Long, []int64{0, -1, 1<<63 - 1, -(1 << 63)}},
	}
	for _, c := range cases {
		a := m.MustArray(c.kind, len(c.vals))
		for i, v := range c.vals {
			a.SetInt(i, v)
		}
		for i, v := range c.vals {
			if got := a.Int(i); got != v {
				t.Errorf("%v[%d] = %d, want %d", c.kind, i, got, v)
			}
		}
	}
}

func TestArrayFloatRoundTrip(t *testing.T) {
	m := newTestMachine(t, 1<<16, 1<<16)
	f := m.MustArray(Float, 3)
	d := m.MustArray(Double, 3)
	for i, v := range []float64{0, -1.5, 3.25} {
		f.SetFloat(i, v)
		d.SetFloat(i, v)
	}
	for i, v := range []float64{0, -1.5, 3.25} {
		if f.Float(i) != v {
			t.Errorf("float[%d] = %v, want %v", i, f.Float(i), v)
		}
		if d.Float(i) != v {
			t.Errorf("double[%d] = %v, want %v", i, d.Float(i), v)
		}
	}
}

func TestArrayNarrowing(t *testing.T) {
	m := newTestMachine(t, 1<<16, 1<<16)
	a := m.MustArray(Byte, 1)
	a.SetInt(0, 300) // 300 & 0xff = 44, sign-extended stays 44
	if got := a.Int(0); got != 44 {
		t.Fatalf("byte narrowing: got %d, want 44", got)
	}
	a.SetInt(0, 200) // 200 as int8 is -56
	if got := a.Int(0); got != -56 {
		t.Fatalf("byte sign extension: got %d, want -56", got)
	}
	b := m.MustArray(Boolean, 1)
	b.SetInt(0, 2)
	if got := b.Int(0); got != 0 {
		t.Fatalf("boolean stores the low bit: 2 -> %d, want 0", got)
	}
}

func TestArrayBoundsPanics(t *testing.T) {
	m := newTestMachine(t, 1<<16, 1<<16)
	a := m.MustArray(Int, 4)
	for _, f := range []func(){
		func() { a.SetInt(4, 0) },
		func() { a.SetInt(-1, 0) },
		func() { _ = a.Int(4) },
		func() { a.CopyInBytes(13, make([]byte, 4)) },
		func() { a.CopyOutBytes(-1, make([]byte, 4)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-bounds access did not panic")
				}
			}()
			f()
		}()
	}
}

func TestArrayKindMismatchPanics(t *testing.T) {
	m := newTestMachine(t, 1<<16, 1<<16)
	ints := m.MustArray(Int, 1)
	floats := m.MustArray(Double, 1)
	for _, f := range []func(){
		func() { ints.SetFloat(0, 1.0) },
		func() { _ = ints.Float(0) },
		func() { floats.SetInt(0, 1) },
		func() { _ = floats.Int(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("kind-mismatched access did not panic")
				}
			}()
			f()
		}()
	}
}

func TestArrayFill(t *testing.T) {
	m := newTestMachine(t, 1<<16, 1<<16)
	a := m.MustArray(Short, 5)
	a.Fill(-7)
	for i := 0; i < 5; i++ {
		if a.Int(i) != -7 {
			t.Fatalf("Fill: a[%d] = %d", i, a.Int(i))
		}
	}
}

func TestArrayBulkCopy(t *testing.T) {
	m := newTestMachine(t, 1<<16, 1<<16)
	a := m.MustArray(Byte, 8)
	src := []byte{1, 2, 3, 4}
	a.CopyInBytes(2, src)
	dst := make([]byte, 4)
	a.CopyOutBytes(2, dst)
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("bulk copy mismatch at %d: %v vs %v", i, dst, src)
		}
	}
	if a.Int(0) != 0 || a.Int(6) != 0 {
		t.Fatal("bulk copy spilled outside the range")
	}
}

func TestElementAccessCostsCharged(t *testing.T) {
	clock := vtime.NewClock()
	m := NewMachine(clock, Options{HeapSize: 1 << 16, ArenaSize: 1 << 16})
	a := m.MustArray(Byte, 1000)
	start := clock.Now()
	for i := 0; i < 1000; i++ {
		a.SetInt(i, int64(i))
	}
	writeCost := clock.Now().Sub(start)
	want := vtime.PerElement(1000, costs.ArrayWrite)
	if writeCost != want {
		t.Fatalf("1000 array writes charged %v, want %v", writeCost, want)
	}
}

func TestBufferElementAccessSlowerThanArray(t *testing.T) {
	// The mechanism behind Fig. 18: per-element buffer access must cost
	// more than array access.
	if costs.BufferWrite <= costs.ArrayWrite || costs.BufferRead <= costs.ArrayRead {
		t.Fatal("cost model must make ByteBuffer element access slower than arrays")
	}
	ratio := float64(costs.BufferWrite+costs.BufferRead) / float64(costs.ArrayWrite+costs.ArrayRead)
	if ratio < 2 || ratio > 6 {
		t.Fatalf("buffer/array access ratio %.2f outside plausible [2,6]", ratio)
	}
}

// Property: SetInt/Int round-trips for every integral kind with Java
// narrowing applied.
func TestArrayRoundTripProperty(t *testing.T) {
	m := newTestMachine(t, 1<<20, 1<<16)
	arrays := map[Kind]Array{}
	for _, k := range []Kind{Byte, Char, Short, Int, Long} {
		arrays[k] = m.MustArray(k, 1)
	}
	narrow := func(k Kind, v int64) int64 {
		switch k {
		case Byte:
			return int64(int8(v))
		case Char:
			return int64(uint16(v))
		case Short:
			return int64(int16(v))
		case Int:
			return int64(int32(v))
		default:
			return v
		}
	}
	f := func(kindSel uint8, v int64) bool {
		kinds := []Kind{Byte, Char, Short, Int, Long}
		k := kinds[int(kindSel)%len(kinds)]
		a := arrays[k]
		a.SetInt(0, v)
		return a.Int(0) == narrow(k, v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: data written before a GC survives compaction verbatim.
func TestGCPreservesContentsProperty(t *testing.T) {
	f := func(data []byte, garbage uint16) bool {
		if len(data) == 0 {
			data = []byte{0xAA}
		}
		m := NewMachine(vtime.NewClock(), Options{HeapSize: 1 << 20, ArenaSize: 1 << 10})
		junk := m.MustArray(Byte, int(garbage%4096)+1)
		a := m.MustArray(Byte, len(data))
		a.CopyInBytes(0, data)
		junk.Discard()
		if err := m.GC(); err != nil {
			return false
		}
		out := make([]byte, len(data))
		a.CopyOutBytes(0, out)
		for i := range data {
			if out[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
