package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"mv2j/internal/faults"
	"mv2j/internal/jvm"
	"mv2j/internal/metrics"
	"mv2j/internal/nativempi"
	"mv2j/internal/trace"
	"mv2j/internal/vtime"
)

// ---------------------------------------------------------------------
// Constructor / commit lifecycle (deterministic panics)
// ---------------------------------------------------------------------

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic, got none", what)
		}
	}()
	fn()
}

func TestTypeConstructorPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"contiguous zero count", func() { TypeContiguous(INT, 0) }},
		{"contiguous negative count", func() { TypeContiguous(INT, -3) }},
		{"vector zero count", func() { TypeVector(INT, 0, 1, 1) }},
		{"vector zero blocklen", func() { TypeVector(INT, 2, 0, 4) }},
		{"vector negative blocklen", func() { TypeVector(INT, 2, -1, 4) }},
		{"vector zero stride", func() { TypeVector(INT, 2, 1, 0) }},
		{"vector negative stride", func() { TypeVector(INT, 2, 1, -4) }},
		{"vector overlapping stride", func() { TypeVector(INT, 2, 4, 3) }},
		{"indexed empty", func() { TypeIndexed(INT, nil, nil) }},
		{"indexed length mismatch", func() { TypeIndexed(INT, []int{1, 2}, []int{0}) }},
		{"indexed zero blocklen", func() { TypeIndexed(INT, []int{0}, []int{0}) }},
		{"indexed negative displ", func() { TypeIndexed(INT, []int{1}, []int{-1}) }},
		{"indexed overlap", func() { TypeIndexed(INT, []int{3, 1}, []int{0, 2}) }},
		{"struct empty", func() { TypeStruct(nil, nil, nil) }},
		{"struct mismatch", func() { TypeStruct([]int{1}, []int{0, 4}, []Datatype{INT, INT}) }},
		{"struct zero blocklen", func() { TypeStruct([]int{0}, []int{0}, []Datatype{INT}) }},
		{"struct overlap", func() { TypeStruct([]int{2, 1}, []int{0, 4}, []Datatype{INT, INT}) }},
		{"struct nested derived", func() {
			v := TypeVector(INT, 2, 1, 2)
			TypeStruct([]int{1}, []int{0}, []Datatype{v})
		}},
		{"vector nested derived", func() {
			v := TypeVector(INT, 2, 1, 2)
			TypeVector(v, 2, 1, 2)
		}},
	}
	for _, tc := range cases {
		mustPanic(t, tc.name, tc.fn)
	}
}

func TestCommitLifecycle(t *testing.T) {
	dt := TypeVector(INT, 2, 2, 4)
	if dt.Committed() {
		t.Error("uncommitted type reports Committed")
	}
	dt.Commit()
	if !dt.Committed() {
		t.Error("committed type reports not Committed")
	}
	dt.Commit() // idempotent
	cp := dt    // value copy shares commit state
	if !cp.Committed() {
		t.Error("copy of committed type reports not Committed")
	}
	dt.Free()
	if cp.Committed() {
		t.Error("Free not visible through value copy")
	}
	mustPanic(t, "recommit after free", func() { dt.Commit() })

	// Predefined and legacy types never need a commit.
	if !INT.Committed() {
		t.Error("predefined type not usable")
	}
	leg, err := Vector(INT, 2, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !leg.Committed() {
		t.Error("legacy vector not usable")
	}
}

// TestUncommittedUsePanics pins the deterministic panic when an
// uncommitted or freed Type*-datatype reaches a message operation, on
// every staging path.
func TestUncommittedUsePanics(t *testing.T) {
	run := func(name string, body func(m *MPI) error) {
		t.Run(name, func(t *testing.T) {
			err := Run(mv2Config(1, 2), func(m *MPI) error {
				if m.CommWorld().Rank() != 0 {
					return nil
				}
				defer func() {
					if recover() == nil {
						t.Errorf("%s: expected panic", name)
					}
				}()
				return body(m)
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	run("uncommitted send", func(m *MPI) error {
		v := TypeVector(INT, 2, 2, 4)
		arr := m.JVM().MustArray(jvm.Int, 64)
		return m.CommWorld().Send(arr, 1, v, 1, 7)
	})
	run("freed recv", func(m *MPI) error {
		v := TypeVector(INT, 2, 2, 4)
		v.Commit()
		v.Free()
		arr := m.JVM().MustArray(jvm.Int, 64)
		_, err := m.CommWorld().Recv(arr, 1, v, 1, 7)
		return err
	})
	run("uncommitted pack", func(m *MPI) error {
		v := TypeIndexed(INT, []int{2}, []int{0})
		arr := m.JVM().MustArray(jvm.Int, 8)
		dest := m.JVM().MustAllocateDirect(64)
		return m.Pack(arr, 0, 1, v, dest)
	})
	run("freed unpack", func(m *MPI) error {
		v := TypeIndexed(INT, []int{2}, []int{0})
		v.Commit()
		v.Free()
		arr := m.JVM().MustArray(jvm.Int, 8)
		src := m.JVM().MustAllocateDirect(64)
		src.Flip()
		return m.Unpack(src, arr, 0, 1, v)
	})
}

// TestTypeVectorPanicInvalidStride is an alias-level guard: the exact
// knob combinations the issue calls out (zero and negative stride /
// blocklength) panic with a message naming the argument.
func TestTypeVectorPanicInvalidStride(t *testing.T) {
	for _, stride := range []int{0, -8} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("stride %d: no panic", stride)
				}
				if msg, ok := r.(string); !ok || !bytes.Contains([]byte(msg), []byte("stride")) {
					t.Errorf("stride %d: panic %v does not name the stride", stride, r)
				}
			}()
			TypeVector(DOUBLE, 4, 2, stride)
		}()
	}
}

// ---------------------------------------------------------------------
// Status.Count / Status.Elements (MPI_Get_count / MPI_Get_elements)
// ---------------------------------------------------------------------

func TestStatusCountDerivedUnits(t *testing.T) {
	v := TypeVector(INT, 3, 2, 4) // 6 ints = 24 bytes per element
	v.Commit()
	st := Status{Bytes: 72} // 3 whole elements
	if n, err := st.Count(v); err != nil || n != 3 {
		t.Errorf("Count = %d, %v; want 3 derived elements", n, err)
	}
	if n, err := st.Elements(v); err != nil || n != 18 {
		t.Errorf("Elements = %d, %v; want 18 base ints", n, err)
	}
	// A transfer that ends mid-element: Count is undefined (error),
	// Elements still resolves.
	st = Status{Bytes: 60}
	if _, err := st.Count(v); err == nil {
		t.Error("Count of a partial element did not error")
	}
	if n, err := st.Elements(v); err != nil || n != 15 {
		t.Errorf("Elements = %d, %v; want 15", n, err)
	}
	// Ragged byte tail: neither resolves.
	st = Status{Bytes: 61}
	if _, err := st.Elements(v); err == nil {
		t.Error("Elements of a ragged byte count did not error")
	}
	// Empty message is zero elements on both.
	st = Status{}
	if n, err := st.Count(v); err != nil || n != 0 {
		t.Errorf("empty Count = %d, %v", n, err)
	}
	if n, err := st.Elements(v); err != nil || n != 0 {
		t.Errorf("empty Elements = %d, %v", n, err)
	}
}

// ---------------------------------------------------------------------
// Round-trip correctness across constructors and call shapes
// ---------------------------------------------------------------------

// TestDDTRoundTripVector exchanges a committed vector type through
// Send/Recv (eager) and Isend/Irecv (rendezvous) and checks both the
// run payloads and the untouched gaps.
func TestDDTRoundTripVector(t *testing.T) {
	dt := TypeVector(INT, 4, 8, 16) // 32 ints payload, 56 ints extent
	dt.Commit()
	const ext = 56
	for _, count := range []int{3, 512} { // eager / rendezvous tiers
		count := count
		t.Run(fmt.Sprintf("count%d", count), func(t *testing.T) {
			err := Run(mv2Config(1, 2), func(m *MPI) error {
				c := m.CommWorld()
				arr := m.JVM().MustArray(jvm.Int, count*ext)
				if c.Rank() == 0 {
					for i := 0; i < arr.Len(); i++ {
						arr.SetInt(i, int64(3*i+1))
					}
					return c.Send(arr, count, dt, 1, 5)
				}
				arr.Fill(-1)
				st, err := c.Recv(arr, count, dt, 0, 5)
				if err != nil {
					return err
				}
				if n, err := st.Count(dt); err != nil || n != count {
					return fmt.Errorf("count = %d, %v", n, err)
				}
				for e := 0; e < count; e++ {
					for blk := 0; blk < 4; blk++ {
						for i := 0; i < 16; i++ {
							idx := e*ext + blk*16 + i
							if idx >= e*ext+ext {
								continue
							}
							got := arr.Int(idx)
							if i < 8 {
								if want := int64(3*idx + 1); got != want {
									return fmt.Errorf("run payload arr[%d] = %d, want %d", idx, got, want)
								}
							} else if got != -1 {
								return fmt.Errorf("gap arr[%d] = %d, want untouched -1", idx, got)
							}
						}
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDDTRoundTripIndexedOffset drives TypeIndexed through the offset
// extension (SendRange/RecvRange) — the mpiJava 1.2 argument §IV-B
// argues for — on the iovec path.
func TestDDTRoundTripIndexedOffset(t *testing.T) {
	dt := TypeIndexed(INT, []int{3, 1, 4}, []int{0, 5, 9}) // 8 ints payload, 13 extent
	dt.Commit()
	const count, off, ext = 5, 7, 13
	err := Run(mv2Config(1, 2), func(m *MPI) error {
		c := m.CommWorld()
		arr := m.JVM().MustArray(jvm.Int, off+count*ext)
		if c.Rank() == 0 {
			for i := 0; i < arr.Len(); i++ {
				arr.SetInt(i, int64(i))
			}
			return c.SendRange(arr, off, count, dt, 1, 6)
		}
		arr.Fill(-1)
		if _, err := c.RecvRange(arr, off, count, dt, 0, 6); err != nil {
			return err
		}
		for e := 0; e < count; e++ {
			base := off + e*ext
			want := map[int]bool{}
			for b, d := range []int{0, 5, 9} {
				for i := 0; i < []int{3, 1, 4}[b]; i++ {
					want[base+d+i] = true
				}
			}
			for i := base; i < base+ext; i++ {
				got := arr.Int(i)
				if want[i] {
					if got != int64(i) {
						return fmt.Errorf("arr[%d] = %d, want %d", i, got, i)
					}
				} else if got != -1 {
					return fmt.Errorf("gap arr[%d] = %d, want -1", i, got)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDDTRoundTripStruct covers both struct flavors: a homogeneous
// struct keeps its primitive kind; a mixed-kind struct degrades to a
// byte-granular layout over byte arrays.
func TestDDTRoundTripStruct(t *testing.T) {
	t.Run("homogeneous", func(t *testing.T) {
		dt := TypeStruct([]int{2, 3}, []int{0, 16}, []Datatype{INT, INT}) // ints at 0,1 and 4,5,6
		dt.Commit()
		if dt.Kind() != jvm.Int {
			t.Fatalf("homogeneous struct kind = %v, want Int", dt.Kind())
		}
		err := Run(mv2Config(1, 2), func(m *MPI) error {
			c := m.CommWorld()
			arr := m.JVM().MustArray(jvm.Int, 7*8)
			if c.Rank() == 0 {
				for i := 0; i < arr.Len(); i++ {
					arr.SetInt(i, int64(i+100))
				}
				return c.Send(arr, 8, dt, 1, 2)
			}
			arr.Fill(0)
			if _, err := c.Recv(arr, 8, dt, 0, 2); err != nil {
				return err
			}
			for e := 0; e < 8; e++ {
				for _, i := range []int{0, 1, 4, 5, 6} {
					idx := e*7 + i
					if arr.Int(idx) != int64(idx+100) {
						return fmt.Errorf("struct member arr[%d] = %d", idx, arr.Int(idx))
					}
				}
				for _, i := range []int{2, 3} {
					if idx := e*7 + i; arr.Int(idx) != 0 {
						return fmt.Errorf("struct hole arr[%d] overwritten", idx)
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	t.Run("mixed", func(t *testing.T) {
		// {int at 0, long at 8} on a byte array: byte-granular layout.
		dt := TypeStruct([]int{1, 1}, []int{0, 8}, []Datatype{INT, LONG})
		dt.Commit()
		if dt.Kind() != jvm.Byte {
			t.Fatalf("mixed struct kind = %v, want Byte", dt.Kind())
		}
		if dt.Size() != 12 || dt.Extent() != 16 {
			t.Fatalf("mixed struct size/extent = %d/%d, want 12/16", dt.Size(), dt.Extent())
		}
		err := Run(mv2Config(1, 2), func(m *MPI) error {
			c := m.CommWorld()
			arr := m.JVM().MustArray(jvm.Byte, 16*4)
			if c.Rank() == 0 {
				for i := 0; i < arr.Len(); i++ {
					arr.SetInt(i, int64(i%127))
				}
				return c.Send(arr, 4, dt, 1, 3)
			}
			arr.Fill(-1)
			if _, err := c.Recv(arr, 4, dt, 0, 3); err != nil {
				return err
			}
			for e := 0; e < 4; e++ {
				for i := 0; i < 16; i++ {
					idx := e*16 + i
					payload := i < 4 || (i >= 8 && i < 16)
					got := arr.Int(idx)
					if payload && got != int64(idx%127) {
						return fmt.Errorf("mixed struct arr[%d] = %d", idx, got)
					}
					if !payload && got != -1 {
						return fmt.Errorf("mixed struct pad arr[%d] overwritten", idx)
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// ---------------------------------------------------------------------
// The datapath differential: direct vs. framed
// ---------------------------------------------------------------------

// worldArtifacts is everything deterministic one world produced, plus
// its host counters.
type worldArtifacts struct {
	recvs  [][]byte
	clocks []vtime.Time
	trace  []byte
	met    []byte
	host   nativempi.HostStats
}

// export serialises the world's trace and metrics once Run has returned.
func (a *worldArtifacts) export(rec *trace.Recorder, met *metrics.Registry) error {
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		return err
	}
	a.trace = append([]byte(nil), buf.Bytes()...)
	buf.Reset()
	if err := met.WriteJSON(&buf); err != nil {
		return err
	}
	a.met = buf.Bytes()
	return nil
}

// assertSameArtifacts fails t unless two worlds' receive payloads, final
// clocks, trace JSONL and metrics JSON are byte-identical; legs names
// the two runs in the failure messages.
func assertSameArtifacts(t *testing.T, a, b worldArtifacts, legs string) {
	t.Helper()
	for r := range a.recvs {
		if !bytes.Equal(a.recvs[r], b.recvs[r]) {
			t.Errorf("rank %d: receive payload differs between the %s", r, legs)
		}
		if a.clocks[r] != b.clocks[r] {
			t.Errorf("rank %d: final clock %d vs %d between the %s", r, a.clocks[r], b.clocks[r], legs)
		}
	}
	if !bytes.Equal(a.trace, b.trace) {
		t.Errorf("trace JSONL differs between the %s", legs)
	}
	if !bytes.Equal(a.met, b.met) {
		t.Errorf("metrics JSON differs between the %s", legs)
	}
}

// runDDTWorkload drives committed derived types across all three
// protocol tiers — eager, zero-copy rendezvous, RDMA placement — plus
// contiguous eager traffic and a collective, capturing every
// deterministic artifact and the host counters.
func runDDTWorkload(nodes, ppn, workers int, framed bool) (worldArtifacts, error) {
	rec := trace.New(0)
	met := metrics.NewRegistry()
	var host nativempi.HostStats
	cfg := mv2Config(nodes, ppn)
	cfg.HeapSize = 48 << 20
	cfg.Lib.FramedDatapath = framed
	cfg.EngineWorkers = workers
	cfg.Trace = rec
	cfg.Metrics = met
	cfg.HostStats = &host
	np := nodes * ppn
	a := worldArtifacts{recvs: make([][]byte, np), clocks: make([]vtime.Time, np)}

	dtv := TypeVector(INT, 4, 8, 16) // 128 B payload, 224 B extent per element
	dtv.Commit()
	dti := TypeIndexed(INT, []int{3, 1, 4}, []int{0, 5, 9}) // 32 B payload, 52 B extent
	dti.Commit()
	const ext = 56
	// Wire sizes per tier: 3 KiB (eager, under the 8 KiB intra limit),
	// 96 KiB (rendezvous, under the 256 KiB RDMA threshold), 384 KiB
	// (RDMA placement).
	tiers := []struct{ count, tag int }{{24, 21}, {768, 22}, {3072, 23}}

	err := Run(cfg, func(m *MPI) error {
		c := m.CommWorld()
		me, size := c.Rank(), c.Size()
		next, prev := (me+1)%size, (me-1+size)%size
		var captured []byte
		for _, tier := range tiers {
			send := m.JVM().MustArray(jvm.Int, tier.count*ext)
			recv := m.JVM().MustArray(jvm.Int, tier.count*ext)
			for i := 0; i < send.Len(); i++ {
				send.SetInt(i, int64(me*1_000_000+tier.tag*1000+i%997))
			}
			recv.Fill(-1)
			sreq, err := c.Isend(send, tier.count, dtv, next, tier.tag)
			if err != nil {
				return err
			}
			rreq, err := c.Irecv(recv, tier.count, dtv, prev, tier.tag)
			if err != nil {
				return err
			}
			if _, err := sreq.Wait(); err != nil {
				return err
			}
			st, err := rreq.Wait()
			if err != nil {
				return err
			}
			if n, err := st.Count(dtv); err != nil || n != tier.count {
				return fmt.Errorf("tier %d: Count = %d, %v", tier.tag, n, err)
			}
			for e := 0; e < tier.count; e++ {
				for blk := 0; blk < 4; blk++ {
					for i := 0; i < 16 && blk*16+i < ext; i++ {
						idx := e*ext + blk*16 + i
						got := recv.Int(idx)
						if i < 8 {
							if want := int64(prev*1_000_000 + tier.tag*1000 + idx%997); got != want {
								return fmt.Errorf("rank %d tier %d: recv[%d] = %d, want %d", me, tier.tag, idx, got, want)
							}
						} else if got != -1 {
							return fmt.Errorf("rank %d tier %d: gap recv[%d] overwritten", me, tier.tag, idx)
						}
					}
				}
			}
			captured = append(captured, recv.RawBytes()...)
			send.Discard()
			recv.Discard()
		}

		// An indexed Sendrecv exchange at the eager tier (also covers
		// the vec Sendrecv plumbing).
		isend := m.JVM().MustArray(jvm.Int, 40*13)
		irecv := m.JVM().MustArray(jvm.Int, 40*13)
		for i := 0; i < isend.Len(); i++ {
			isend.SetInt(i, int64(10_000*me+i))
		}
		irecv.Fill(-9)
		if _, err := c.Sendrecv(isend, 40, dti, next, 31, irecv, 40, dti, prev, 31); err != nil {
			return err
		}
		captured = append(captured, irecv.RawBytes()...)

		// Contiguous eager traffic plus a collective, both small enough
		// that no rendezvous engages — the framed leg must report zero
		// elisions.
		small := m.JVM().MustArray(jvm.Int, 64)
		sink := m.JVM().MustArray(jvm.Int, 64)
		fillArray(small, int64(100+me))
		if _, err := c.Sendrecv(small, 64, INT, next, 32, sink, 64, INT, prev, 32); err != nil {
			return err
		}
		acc := m.JVM().MustArray(jvm.Long, 4)
		contrib := m.JVM().MustArray(jvm.Long, 4)
		fillArray(contrib, int64(me))
		if err := c.Allreduce(contrib, acc, 4, LONG, SUM); err != nil {
			return err
		}
		captured = append(captured, sink.RawBytes()...)
		captured = append(captured, acc.RawBytes()...)

		a.recvs[me] = captured
		a.clocks[me] = m.Clock().Now()
		return nil
	})
	if err != nil {
		return a, err
	}
	a.host = host
	err = a.export(rec, met)
	return a, err
}

// TestDDTZeroCopyDifferential is the strided guarantee: with the
// bindings handing the transport iovecs on both runs, borrowing and
// placing them directly versus packing them through the framed wire
// image (Profile.FramedDatapath) changes host counters ONLY. Receive
// arrays (gap bytes included), final clocks, trace JSONL, and metrics
// JSON are byte-identical at np∈{2,4,8} under both serial and parallel
// engine scheduling, while the direct leg provably elides the pack
// staging the framed leg pays.
func TestDDTZeroCopyDifferential(t *testing.T) {
	shapes := []struct{ nodes, ppn int }{{1, 2}, {2, 2}, {2, 4}}
	for _, sh := range shapes {
		for _, workers := range []int{1, 8} {
			sh, workers := sh, workers
			t.Run(fmt.Sprintf("np%d_w%d", sh.nodes*sh.ppn, workers), func(t *testing.T) {
				if testing.Short() && sh.nodes*sh.ppn*workers > 16 {
					t.Skip("short mode")
				}
				direct, err := runDDTWorkload(sh.nodes, sh.ppn, workers, false)
				if err != nil {
					t.Fatal(err)
				}
				framed, err := runDDTWorkload(sh.nodes, sh.ppn, workers, true)
				if err != nil {
					t.Fatal(err)
				}
				assertSameArtifacts(t, direct, framed, "direct and framed datapaths")
				if direct.host.Copy.CopiesElided == 0 || direct.host.RDMA.Writes == 0 {
					t.Errorf("direct: %d copies elided, %d placement writes, want both > 0",
						direct.host.Copy.CopiesElided, direct.host.RDMA.Writes)
				}
				if direct.host.Copy.FramedRndv != 0 {
					t.Errorf("direct: %d rendezvous fell back to the framed leg on a clean fabric", direct.host.Copy.FramedRndv)
				}
				if framed.host.Copy.CopiesElided != 0 || framed.host.RDMA.Writes != 0 || framed.host.Copy.FramedRndv == 0 {
					t.Errorf("framed: %d copies elided, %d placement writes, %d framed rendezvous, want 0, 0, > 0",
						framed.host.Copy.CopiesElided, framed.host.RDMA.Writes, framed.host.Copy.FramedRndv)
				}
				if direct.host.Copy.BytesCopied >= framed.host.Copy.BytesCopied {
					t.Errorf("direct copied %d bytes, framed copied %d — elision saved nothing",
						direct.host.Copy.BytesCopied, framed.host.Copy.BytesCopied)
				}
			})
		}
	}
}

// TestDDTFallbackUnderFaults pins the framed fallback: with a fault
// plan active the bindings route derived types through the classic
// pack path (retransmission needs a stable framed payload), and the
// exchange still round-trips correctly.
func TestDDTFallbackUnderFaults(t *testing.T) {
	dt := TypeVector(INT, 4, 8, 16)
	dt.Commit()
	const count, ext = 768, 56 // 96 KiB on the wire: rendezvous, so the fallback leg is exercised
	cfg := mv2Config(2, 1)
	cfg.Faults = faults.Uniform(7, 0.05)
	var host nativempi.HostStats
	cfg.HostStats = &host
	err := Run(cfg, func(m *MPI) error {
		c := m.CommWorld()
		arr := m.JVM().MustArray(jvm.Int, count*ext)
		if c.Rank() == 0 {
			for i := 0; i < arr.Len(); i++ {
				arr.SetInt(i, int64(2*i+5))
			}
			return c.Send(arr, count, dt, 1, 4)
		}
		arr.Fill(-1)
		if _, err := c.Recv(arr, count, dt, 0, 4); err != nil {
			return err
		}
		for e := 0; e < count; e++ {
			for blk := 0; blk < 4; blk++ {
				idx := e*ext + blk*16
				if got, want := arr.Int(idx), int64(2*idx+5); got != want {
					return fmt.Errorf("recv[%d] = %d, want %d", idx, got, want)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if host.Copy.CopiesElided != 0 {
		t.Errorf("fault plan active but %d copies elided", host.Copy.CopiesElided)
	}
	if host.Copy.FramedRndv == 0 {
		t.Error("fault plan active but no rendezvous counted on the framed leg")
	}
}

// ---------------------------------------------------------------------
// Randomized typed pack engine differential (satellite: 20 seeds)
// ---------------------------------------------------------------------

// randomLayout builds a random committed Type* datatype plus the raw
// (lens, displs) element layout it was built from, for the naive
// reference copier.
func randomLayout(rng *rand.Rand) (Datatype, []int, []int) {
	var lens, displs []int
	switch rng.Intn(3) {
	case 0:
		count := 1 + rng.Intn(5)
		bl := 1 + rng.Intn(6)
		stride := bl + rng.Intn(5)
		for b := 0; b < count; b++ {
			lens = append(lens, bl)
			displs = append(displs, b*stride)
		}
		return TypeVector(INT, count, bl, stride), lens, displs
	case 1:
		nb := 1 + rng.Intn(5)
		pos := 0
		for b := 0; b < nb; b++ {
			pos += rng.Intn(4)
			l := 1 + rng.Intn(5)
			lens = append(lens, l)
			displs = append(displs, pos)
			pos += l
		}
		return TypeIndexed(INT, lens, displs), lens, displs
	default:
		nb := 1 + rng.Intn(4)
		bytePos := 0
		var bls, bds []int
		var tys []Datatype
		for b := 0; b < nb; b++ {
			bytePos += 4 * rng.Intn(3)
			l := 1 + rng.Intn(4)
			bls = append(bls, l)
			bds = append(bds, bytePos)
			tys = append(tys, INT)
			lens = append(lens, l)
			displs = append(displs, bytePos/4)
			bytePos += 4 * l
		}
		return TypeStruct(bls, bds, tys), lens, displs
	}
}

// checkTypedPackEquivalence packs (offset, count, dt) through the typed
// engine into a pooled buffer, unpacks into a fresh array, and compares
// against a naive per-element reference copier — byte-identical
// destination arrays, gaps included.
func checkTypedPackEquivalence(t *testing.T, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	dt, lens, displs := randomLayout(rng)
	dt.Commit()
	count := 1 + rng.Intn(4)
	offset := rng.Intn(3)
	need := offset + count*dt.Extent()
	nbytes := count * dt.Size()

	cfg := mv2Config(1, 1)
	err := Run(cfg, func(m *MPI) error {
		src := m.JVM().MustArray(jvm.Int, need)
		for i := 0; i < need; i++ {
			src.SetInt(i, rng.Int63n(1<<31))
		}
		dstTyped := m.JVM().MustArray(jvm.Int, need)
		dstRef := m.JVM().MustArray(jvm.Int, need)
		dstTyped.Fill(-7)
		dstRef.Fill(-7)

		// Typed engine: pack to a staging image, bounce it, unpack.
		stage, err := m.Pool().Get(nbytes)
		if err != nil {
			return err
		}
		if err := packInto(stage, src, offset, count, &dt); err != nil {
			return err
		}
		if err := stage.Commit(); err != nil {
			return err
		}
		land, err := m.Pool().Get(nbytes)
		if err != nil {
			return err
		}
		copy(land.RawCapacity()[:nbytes], stage.Raw())
		if err := land.SetIncoming(nbytes); err != nil {
			return err
		}
		if err := unpackFrom(land, dstTyped, offset, count, &dt); err != nil {
			return err
		}
		stage.Free()
		land.Free()

		// Naive reference: element-by-element, block-by-block.
		for e := 0; e < count; e++ {
			eb := offset + e*dt.Extent()
			for b := range lens {
				for i := 0; i < lens[b]; i++ {
					dstRef.SetInt(eb+displs[b]+i, src.Int(eb+displs[b]+i))
				}
			}
		}
		for i := 0; i < need; i++ {
			if dstTyped.Int(i) != dstRef.Int(i) {
				return fmt.Errorf("seed %d (%v): dst[%d] typed=%d ref=%d",
					seed, dt, i, dstTyped.Int(i), dstRef.Int(i))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDDTPackUnpackDifferential sweeps 20 seeds of random vector /
// indexed / struct layouts through the typed pack engine and the naive
// reference copier.
func TestDDTPackUnpackDifferential(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			checkTypedPackEquivalence(t, seed)
		})
	}
}

// FuzzDatatypeEquivalence extends the differential across the whole
// seed space (nightly fuzz job).
func FuzzDatatypeEquivalence(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkTypedPackEquivalence(t, seed)
	})
}
