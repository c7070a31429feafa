package core

import (
	"fmt"

	"mv2j/internal/jvm"
	"mv2j/internal/mpjbuf"
	"mv2j/internal/vtime"
)

// Buffer staging: every message call reduces its user buffer — a Java
// array or a ByteBuffer — to a contiguous native byte view, the way
// the real bindings do at the JNI boundary.
//
//   - direct ByteBuffer: GetDirectBufferAddress, zero copy;
//   - heap ByteBuffer: the JVM copy JNI imposes on movable objects;
//   - array under MVAPICH2-J: staged through the mpjbuf pool (Fig. 3);
//   - array under Open MPI-J: Get/Release<Type>ArrayElements, which
//     copies the WHOLE array in each direction.
//
// offset is in base elements of the array, exactly the mpiJava
// 1.2-style argument §IV-B argues for; the Open MPI-J flavor rejects
// non-zero offsets at the API layer, so only MVAPICH2-J paths ever see
// one.

func noop() {}

func nofinish() error { return nil }

// Open MPI-J's per-call native scratch allocation costs (malloc at
// stage-in, free at release).
const (
	ompijScratchAlloc = 260 * vtime.Nanosecond
	ompijScratchFree  = 95 * vtime.Nanosecond
)

// arrayNeed returns the number of base elements a (offset, count, dt)
// access touches.
func arrayNeed(offset, count int, dt Datatype) int {
	return offset + count*dt.Extent()
}

// packInto writes (offset, count, dt) elements of arr into b.
// Committed derived types stream their coalesced run list through the
// typed pack engine (mpjbuf.WriteRuns) — one bulk transfer per run;
// legacy derived types walk the per-block map.
func packInto(b *mpjbuf.Buffer, arr jvm.Array, offset, count int, dt Datatype) error {
	if dt.contiguous() {
		return b.Write(arr, offset, count*dt.baseElems())
	}
	if pr := dt.packRuns(); pr != nil {
		for e := 0; e < count; e++ {
			if err := b.WriteRuns(arr, offset+e*dt.Extent(), pr); err != nil {
				return err
			}
		}
		return nil
	}
	for e := 0; e < count; e++ {
		elemBase := offset + e*dt.Extent()
		if err := dt.blocks(func(displ, length int) error {
			return b.Write(arr, elemBase+displ, length)
		}); err != nil {
			return err
		}
	}
	return nil
}

// unpackFrom reads count dt elements out of b into arr at offset,
// mirroring packInto's typed-engine fast path.
func unpackFrom(b *mpjbuf.Buffer, arr jvm.Array, offset, count int, dt Datatype) error {
	if dt.contiguous() {
		return b.Read(arr, offset, count*dt.baseElems())
	}
	if pr := dt.packRuns(); pr != nil {
		for e := 0; e < count; e++ {
			if err := b.ReadRuns(arr, offset+e*dt.Extent(), pr); err != nil {
				return err
			}
		}
		return nil
	}
	for e := 0; e < count; e++ {
		elemBase := offset + e*dt.Extent()
		if err := dt.blocks(func(displ, length int) error {
			return b.Read(arr, elemBase+displ, length)
		}); err != nil {
			return err
		}
	}
	return nil
}

// packBytes/unpackBytes are the native-side equivalents used by the
// Open MPI-J array path, operating on the JNI array copy.
func packBytes(dst, elems []byte, offset, count int, dt Datatype) {
	esz := dt.base.Size()
	base := offset * esz
	if dt.contiguous() {
		copy(dst, elems[base:base+count*dt.Size()])
		return
	}
	pos := 0
	for e := 0; e < count; e++ {
		elemBase := base + e*dt.Extent()*esz
		_ = dt.blocks(func(displ, length int) error {
			n := length * esz
			copy(dst[pos:pos+n], elems[elemBase+displ*esz:])
			pos += n
			return nil
		})
	}
}

func unpackBytes(elems, src []byte, offset, count int, dt Datatype) {
	esz := dt.base.Size()
	base := offset * esz
	if dt.contiguous() {
		copy(elems[base:base+count*dt.Size()], src)
		return
	}
	pos := 0
	for e := 0; e < count; e++ {
		elemBase := base + e*dt.Extent()*esz
		_ = dt.blocks(func(displ, length int) error {
			n := length * esz
			copy(elems[elemBase+displ*esz:elemBase+displ*esz+n], src[pos:pos+n])
			pos += n
			return nil
		})
	}
}

// sendStageImpl produces the contiguous native view of a send buffer
// plus a release function to run once the payload is no longer needed.
// Callers go through sendStage (observe.go), which adds the copy-in
// trace span.
func (m *MPI) sendStageImpl(buf any, offset, count int, dt Datatype) (raw []byte, free func(), err error) {
	dt.checkUsable("send")
	nbytes := count * dt.Size()
	switch b := buf.(type) {
	case jvm.Array:
		if b.Kind() != dt.Kind() {
			return nil, nil, fmt.Errorf("%w: %v array with %v datatype", ErrBufferType, b.Kind(), dt)
		}
		if err := checkCount(arrayNeed(offset, count, dt), b.Len(), "send"); err != nil {
			return nil, nil, err
		}
		if m.flavor == OpenMPIJ {
			// The Open MPI bindings marshal the message region into a
			// malloc'd native scratch buffer (Get<Type>ArrayRegion) —
			// a fresh allocation per call, which is precisely the cost
			// MVAPICH2-J's buffer pool exists to avoid.
			need := arrayNeed(offset, count, dt) - offset
			region := make([]byte, need*dt.base.Size())
			m.machine.Charge(ompijScratchAlloc)
			m.env.GetArrayRegion(b, offset, need, region)
			m.proc.CountHostCopy(len(region))
			if dt.contiguous() {
				return region[:nbytes], func() { m.machine.Charge(ompijScratchFree) }, nil
			}
			packed := make([]byte, nbytes)
			packBytes(packed, region, 0, count, dt)
			m.machine.ChargeBulk(nbytes)
			m.proc.CountHostCopy(nbytes)
			return packed, func() { m.machine.Charge(ompijScratchFree) }, nil
		}
		// MVAPICH2-J: stage through the buffering layer. Zero-byte
		// messages need no staging (and the pool rejects empty
		// requests).
		if nbytes == 0 {
			return nil, noop, nil
		}
		stage, err := m.stagePool().Get(nbytes)
		if err != nil {
			return nil, nil, err
		}
		if err := packInto(stage, b, offset, count, dt); err != nil {
			stage.Free()
			return nil, nil, err
		}
		if err := stage.Commit(); err != nil {
			stage.Free()
			return nil, nil, err
		}
		m.proc.CountHostCopy(nbytes)
		return stage.Raw(), stage.Free, nil

	case *jvm.ByteBuffer:
		if dt.IsDerived() {
			return nil, nil, fmt.Errorf("%w: derived datatypes require the buffering layer (use a Java array)", ErrUnsupported)
		}
		start := b.Position() + offset*dt.Size()
		if start+nbytes > b.Limit() {
			return nil, nil, fmt.Errorf("%w: %d bytes at position %d exceed buffer limit %d",
				ErrCount, nbytes, start, b.Limit())
		}
		if b.IsDirect() {
			// Direct pass-through: the send path hands the runtime a
			// slice aliasing the buffer's off-heap storage — no mpjbuf
			// bounce, no host copy, and (matching real JNI, where
			// GetDirectBufferAddress is a pointer fetch) no virtual
			// charge either. This is the host half of the zero-copy
			// datapath: with rendezvous borrowing downstream
			// (nativempi), a large direct-buffer send moves exactly one
			// host memcpy, at the receiver. See DESIGN.md §"Host
			// datapath policy".
			view := m.env.GetDirectBufferAddress(b)
			return view[start : start+nbytes], noop, nil
		}
		// Heap buffer: the JVM must copy it for native code.
		tmp := make([]byte, nbytes)
		copy(tmp, b.RawBytes()[start:start+nbytes])
		m.machine.ChargeBulk(nbytes)
		m.proc.CountHostCopy(nbytes)
		return tmp, noop, nil

	case nil:
		if nbytes == 0 {
			return nil, noop, nil
		}
		return nil, nil, fmt.Errorf("%w: nil buffer with %d bytes", ErrBufferType, nbytes)
	default:
		return nil, nil, fmt.Errorf("%w: got %T", ErrBufferType, buf)
	}
}

// recvStageImpl produces the native landing area for a receive, a
// finish function that unpacks into the user buffer once data has
// landed, and a free function for the staging resources. Callers go
// through recvStage (observe.go), which adds the copy-out trace span.
func (m *MPI) recvStageImpl(buf any, offset, count int, dt Datatype) (raw []byte, finish func() error, free func(), err error) {
	dt.checkUsable("recv")
	nbytes := count * dt.Size()
	switch b := buf.(type) {
	case jvm.Array:
		if b.Kind() != dt.Kind() {
			return nil, nil, nil, fmt.Errorf("%w: %v array with %v datatype", ErrBufferType, b.Kind(), dt)
		}
		if err := checkCount(arrayNeed(offset, count, dt), b.Len(), "recv"); err != nil {
			return nil, nil, nil, err
		}
		if m.flavor == OpenMPIJ {
			// Land in a malloc'd scratch, then Set<Type>ArrayRegion
			// back into the Java array.
			need := arrayNeed(offset, count, dt) - offset
			region := make([]byte, need*dt.base.Size())
			m.machine.Charge(ompijScratchAlloc)
			if dt.contiguous() {
				return region[:nbytes], func() error {
						m.env.SetArrayRegion(b, offset, region)
						m.proc.CountHostCopy(len(region))
						return nil
					},
					func() { m.machine.Charge(ompijScratchFree) }, nil
			}
			// Strided landing: read the current region out first so the
			// gaps between blocks survive the write-back.
			m.env.GetArrayRegion(b, offset, need, region)
			m.proc.CountHostCopy(len(region))
			tmp := make([]byte, nbytes)
			return tmp, func() error {
					unpackBytes(region, tmp, 0, count, dt)
					m.machine.ChargeBulk(nbytes)
					m.env.SetArrayRegion(b, offset, region)
					m.proc.CountHostCopy(nbytes + len(region))
					return nil
				},
				func() { m.machine.Charge(ompijScratchFree) }, nil
		}
		if nbytes == 0 {
			return nil, nofinish, noop, nil
		}
		stage, err := m.stagePool().Get(nbytes)
		if err != nil {
			return nil, nil, nil, err
		}
		return stage.RawCapacity()[:nbytes], func() error {
			if err := stage.SetIncoming(nbytes); err != nil {
				return err
			}
			if err := unpackFrom(stage, b, offset, count, dt); err != nil {
				return err
			}
			m.proc.CountHostCopy(nbytes)
			return nil
		}, stage.Free, nil

	case *jvm.ByteBuffer:
		if dt.IsDerived() {
			return nil, nil, nil, fmt.Errorf("%w: derived datatypes require the buffering layer (use a Java array)", ErrUnsupported)
		}
		start := b.Position() + offset*dt.Size()
		if start+nbytes > b.Limit() {
			return nil, nil, nil, fmt.Errorf("%w: %d bytes at position %d exceed buffer limit %d",
				ErrCount, nbytes, start, b.Limit())
		}
		if b.IsDirect() {
			view := m.env.GetDirectBufferAddress(b)
			return view[start : start+nbytes], nofinish, noop, nil
		}
		tmp := make([]byte, nbytes)
		return tmp, func() error {
			copy(b.RawBytes()[start:start+nbytes], tmp)
			m.machine.ChargeBulk(nbytes)
			m.proc.CountHostCopy(nbytes)
			return nil
		}, noop, nil

	case nil:
		if nbytes == 0 {
			return nil, nofinish, noop, nil
		}
		return nil, nil, nil, fmt.Errorf("%w: nil buffer with %d bytes", ErrBufferType, nbytes)
	default:
		return nil, nil, nil, fmt.Errorf("%w: got %T", ErrBufferType, buf)
	}
}
