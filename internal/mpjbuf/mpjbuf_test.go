package mpjbuf

import (
	"errors"
	"testing"
	"testing/quick"

	"mv2j/internal/jvm"
	"mv2j/internal/vtime"
)

func newPool(t testing.TB) (*Pool, *jvm.Machine) {
	t.Helper()
	m := jvm.NewMachine(vtime.NewClock(), jvm.Options{HeapSize: 8 << 20, ArenaSize: 8 << 20})
	return NewPool(m), m
}

func TestClassFor(t *testing.T) {
	cases := [][2]int{{1, 256}, {256, 256}, {257, 512}, {512, 512}, {1000, 1024}, {4096, 4096}, {4097, 8192}}
	for _, c := range cases {
		if got := classFor(c[0]); got != c[1] {
			t.Errorf("classFor(%d) = %d, want %d", c[0], got, c[1])
		}
	}
}

func TestPoolReuse(t *testing.T) {
	p, _ := newPool(t)
	b1, err := p.Get(1000)
	if err != nil {
		t.Fatal(err)
	}
	if b1.Capacity() != 1024 {
		t.Fatalf("capacity %d, want 1024", b1.Capacity())
	}
	b1.Free()
	b2, err := p.Get(900) // same class: must reuse the parked storage
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Free()
	s := p.Stats()
	if s.Gets != 2 || s.Hits != 1 || s.Misses != 1 || s.Allocated != 1 {
		t.Fatalf("pool stats %+v: want one hit, one miss, one allocation", s)
	}
}

func TestPoolAvoidsAllocateDirectCost(t *testing.T) {
	clock := vtime.NewClock()
	m := jvm.NewMachine(clock, jvm.Options{HeapSize: 8 << 20, ArenaSize: 8 << 20})
	p := NewPool(m)
	// Warm the class.
	b, err := p.Get(4096)
	if err != nil {
		t.Fatal(err)
	}
	b.Free()
	t0 := clock.Now()
	b2, err := p.Get(4096)
	if err != nil {
		t.Fatal(err)
	}
	hit := clock.Now().Sub(t0)
	b2.Free()
	if hit >= jvm.DefaultCosts().AllocDirect {
		t.Fatalf("pool hit cost %v should be far below AllocateDirect %v", hit, jvm.DefaultCosts().AllocDirect)
	}
}

func TestUnpooledAlwaysAllocates(t *testing.T) {
	_, m := newPool(t)
	p := NewUnpooled(m)
	b1, _ := p.Get(512)
	b1.Free()
	b2, _ := p.Get(512)
	b2.Free()
	s := p.Stats()
	if s.Hits != 0 || s.Allocated != 2 {
		t.Fatalf("unpooled stats %+v: expected no hits", s)
	}
	if m.DirectUsed() != 0 {
		t.Fatalf("unpooled Free must release storage, %d bytes held", m.DirectUsed())
	}
}

func TestGetInvalidSize(t *testing.T) {
	p, _ := newPool(t)
	if _, err := p.Get(0); err == nil {
		t.Fatal("Get(0) must fail")
	}
	if _, err := p.Get(-1); err == nil {
		t.Fatal("Get(-1) must fail")
	}
}

func TestRawModeRoundTrip(t *testing.T) {
	p, m := newPool(t)
	src := m.MustArray(jvm.Int, 10)
	for i := 0; i < 10; i++ {
		src.SetInt(i, int64(i*i))
	}
	b, err := p.Get(64)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Free()
	if err := b.Write(src, 2, 5); err != nil { // elements 2..6
		t.Fatal(err)
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	if len(b.Raw()) != 20 {
		t.Fatalf("raw payload %d bytes, want 20", len(b.Raw()))
	}
	dst := m.MustArray(jvm.Int, 10)
	if err := b.Read(dst, 0, 5); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if dst.Int(i) != int64((i+2)*(i+2)) {
			t.Fatalf("dst[%d] = %d", i, dst.Int(i))
		}
	}
}

func TestSectionsRoundTrip(t *testing.T) {
	p, m := newPool(t)
	ints := m.MustArray(jvm.Int, 4)
	doubles := m.MustArray(jvm.Double, 3)
	for i := 0; i < 4; i++ {
		ints.SetInt(i, int64(i+1))
	}
	for i := 0; i < 3; i++ {
		doubles.SetFloat(i, float64(i)+0.5)
	}
	b, err := p.Get(256)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Free()
	if err := b.PutSectionHeader(jvm.Int); err != nil {
		t.Fatal(err)
	}
	if err := b.Write(ints, 0, 4); err != nil {
		t.Fatal(err)
	}
	if err := b.PutSectionHeader(jvm.Double); err != nil {
		t.Fatal(err)
	}
	if err := b.Write(doubles, 0, 3); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}

	kind, count, err := b.GetSectionHeader()
	if err != nil || kind != jvm.Int || count != 4 {
		t.Fatalf("section 1 header: %v %d %v", kind, count, err)
	}
	outI := m.MustArray(jvm.Int, 4)
	if err := b.Read(outI, 0, count); err != nil {
		t.Fatal(err)
	}
	kind, count, err = b.GetSectionHeader()
	if err != nil || kind != jvm.Double || count != 3 {
		t.Fatalf("section 2 header: %v %d %v", kind, count, err)
	}
	outD := m.MustArray(jvm.Double, 3)
	if err := b.Read(outD, 0, count); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if outI.Int(i) != int64(i+1) {
			t.Fatalf("ints[%d] = %d", i, outI.Int(i))
		}
	}
	for i := 0; i < 3; i++ {
		if outD.Float(i) != float64(i)+0.5 {
			t.Fatalf("doubles[%d] = %v", i, outD.Float(i))
		}
	}
}

func TestSectionTypeMismatch(t *testing.T) {
	p, m := newPool(t)
	b, _ := p.Get(256)
	defer b.Free()
	if err := b.PutSectionHeader(jvm.Int); err != nil {
		t.Fatal(err)
	}
	arr := m.MustArray(jvm.Double, 2)
	if err := b.Write(arr, 0, 2); !errors.Is(err, ErrSectionType) {
		t.Fatalf("err = %v, want ErrSectionType", err)
	}
}

func TestSectionSizeSplitting(t *testing.T) {
	p, m := newPool(t)
	b, _ := p.Get(1024)
	defer b.Free()
	b.SetSectionSize(3)
	arr := m.MustArray(jvm.Short, 8)
	for i := 0; i < 8; i++ {
		arr.SetInt(i, int64(10+i))
	}
	if err := b.PutSectionHeader(jvm.Short); err != nil {
		t.Fatal(err)
	}
	if err := b.Write(arr, 0, 8); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	// Expect sections of 3, 3, 2 elements.
	var counts []int
	total := 0
	out := m.MustArray(jvm.Short, 8)
	for total < 8 {
		kind, count, err := b.GetSectionHeader()
		if err != nil {
			t.Fatal(err)
		}
		if kind != jvm.Short {
			t.Fatalf("kind = %v", kind)
		}
		if err := b.Read(out, total, count); err != nil {
			t.Fatal(err)
		}
		counts = append(counts, count)
		total += count
	}
	if len(counts) != 3 || counts[0] != 3 || counts[1] != 3 || counts[2] != 2 {
		t.Fatalf("section counts = %v, want [3 3 2]", counts)
	}
	for i := 0; i < 8; i++ {
		if out.Int(i) != int64(10+i) {
			t.Fatalf("out[%d] = %d", i, out.Int(i))
		}
	}
}

func TestLifecycleErrors(t *testing.T) {
	p, m := newPool(t)
	arr := m.MustArray(jvm.Byte, 4)
	b, _ := p.Get(64)

	// Read before commit.
	if err := b.Read(arr, 0, 1); !errors.Is(err, ErrNotCommitted) {
		t.Fatalf("read before commit: %v", err)
	}
	if _, _, err := b.GetSectionHeader(); !errors.Is(err, ErrNotCommitted) {
		t.Fatalf("header before commit: %v", err)
	}
	// Write after commit.
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := b.Write(arr, 0, 1); err == nil {
		t.Fatal("write after commit must fail")
	}
	// Clear re-enables writing.
	if err := b.Clear(); err != nil {
		t.Fatal(err)
	}
	if err := b.Write(arr, 0, 4); err != nil {
		t.Fatal(err)
	}
	// Everything fails after Free.
	b.Free()
	if err := b.Write(arr, 0, 1); !errors.Is(err, ErrFreed) {
		t.Fatalf("write after free: %v", err)
	}
	if err := b.Commit(); !errors.Is(err, ErrFreed) {
		t.Fatalf("commit after free: %v", err)
	}
	if err := b.Clear(); !errors.Is(err, ErrFreed) {
		t.Fatalf("clear after free: %v", err)
	}
	b.Free() // double free is a no-op
}

func TestOverflow(t *testing.T) {
	p, m := newPool(t)
	b, _ := p.Get(256) // min class
	defer b.Free()
	arr := m.MustArray(jvm.Long, 64) // 512 bytes
	if err := b.Write(arr, 0, 64); !errors.Is(err, ErrShortBuffer) {
		t.Fatalf("overflow write: %v, want ErrShortBuffer", err)
	}
}

func TestSetIncoming(t *testing.T) {
	p, m := newPool(t)
	b, _ := p.Get(64)
	defer b.Free()
	// Simulate the native layer landing 8 wire bytes.
	copy(b.RawCapacity(), []byte{1, 0, 0, 0, 2, 0, 0, 0})
	if err := b.SetIncoming(8); err != nil {
		t.Fatal(err)
	}
	dst := m.MustArray(jvm.Int, 2)
	if err := b.Read(dst, 0, 2); err != nil {
		t.Fatal(err)
	}
	// Bulk array transfers are raw native-layout copies (little-endian
	// element storage), so {1,0,0,0} decodes as 1.
	if dst.Int(0) != 1 || dst.Int(1) != 2 {
		t.Fatalf("incoming decode: %d %d", dst.Int(0), dst.Int(1))
	}
	if err := b.SetIncoming(b.Capacity() + 1); err == nil {
		t.Fatal("SetIncoming beyond capacity must fail")
	}
}

func TestEncodingConfig(t *testing.T) {
	p, _ := newPool(t)
	b, _ := p.Get(64)
	defer b.Free()
	if b.Encoding() != jvm.BigEndian {
		t.Fatal("default encoding must be big-endian")
	}
	b.SetEncoding(jvm.LittleEndian)
	if b.Encoding() != jvm.LittleEndian {
		t.Fatal("SetEncoding did not stick")
	}
}

func TestDrain(t *testing.T) {
	p, m := newPool(t)
	b, _ := p.Get(512)
	b.Free()
	if p.Stats().HeldBytes == 0 {
		t.Fatal("free list should hold the parked buffer")
	}
	p.Drain()
	if p.Stats().HeldBytes != 0 || m.DirectUsed() != 0 {
		t.Fatalf("Drain left held=%d direct=%d", p.Stats().HeldBytes, m.DirectUsed())
	}
}

// Property: write/read round-trips arbitrary byte payloads through the
// buffering layer, for any split of the writes.
func TestWriteReadProperty(t *testing.T) {
	p, m := newPool(t)
	f := func(data []byte, split uint8) bool {
		if len(data) == 0 {
			return true
		}
		src := m.MustArray(jvm.Byte, len(data))
		src.CopyInBytes(0, data)
		b, err := p.Get(len(data))
		if err != nil {
			return false
		}
		defer b.Free()
		k := int(split)%len(data) + 0
		if err := b.Write(src, 0, k); err != nil {
			return false
		}
		if err := b.Write(src, k, len(data)-k); err != nil {
			return false
		}
		if err := b.Commit(); err != nil {
			return false
		}
		dst := m.MustArray(jvm.Byte, len(data))
		if err := b.Read(dst, 0, len(data)); err != nil {
			return false
		}
		out := make([]byte, len(data))
		dst.CopyOutBytes(0, out)
		for i := range data {
			if out[i] != data[i] {
				return false
			}
		}
		src.Discard()
		dst.Discard()
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
