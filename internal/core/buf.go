package core

import (
	"fmt"

	"mv2j/internal/jvm"
	"mv2j/internal/mpjbuf"
	"mv2j/internal/nativempi"
	"mv2j/internal/trace"
	"mv2j/internal/vtime"
)

// Buffer staging: every message call reduces its user buffer — a Java
// array or a ByteBuffer — to a native view, the way the real bindings do
// at the JNI boundary. One function (stage) validates the buffer and
// builds one descriptor (staged) whatever the buffer kind, flavor and
// call family; DESIGN.md's "Bindings staging" table lists, per case, the
// view, the host copies, the virtual charges and what finish and release
// do.
//
// offset is in base elements of the array, exactly the mpiJava
// 1.2-style argument §IV-B argues for; the Open MPI-J flavor rejects
// non-zero offsets at the API layer, so only MVAPICH2-J paths ever see
// one.

// Open MPI-J's per-call native scratch allocation costs (malloc at
// stage-in, free at release).
const (
	ompijScratchAlloc = 260 * vtime.Nanosecond
	ompijScratchFree  = 95 * vtime.Nanosecond
)

// arrayNeed returns the number of base elements a (offset, count, dt)
// access touches.
func arrayNeed(offset, count int, dt *Datatype) int {
	return offset + count*dt.Extent()
}

// packInto writes (offset, count, dt) elements of arr into b.
// Committed derived types stream their coalesced run list through the
// typed pack engine (mpjbuf.WriteRuns) — one bulk transfer per run;
// legacy derived types walk the per-block map.
func packInto(b *mpjbuf.Buffer, arr jvm.Array, offset, count int, dt *Datatype) error {
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
func unpackFrom(b *mpjbuf.Buffer, arr jvm.Array, offset, count int, dt *Datatype) error {
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

// moveBlocks is the native-side equivalent on the Open MPI-J array
// path: it copies count non-contiguous dt elements between region, the
// JNI copy of the array span they lie in, and their packed image — out
// of the region when dir is dirSend, back into it otherwise.
func moveBlocks(region, packed []byte, count int, dt *Datatype, dir stageDir) {
	esz := dt.base.Size()
	for e := 0; e < count; e++ {
		elemBase := e * dt.Extent() * esz
		_ = dt.blocks(func(displ, length int) error {
			at, n := elemBase+displ*esz, length*esz
			if dir == dirSend {
				copy(packed[:n], region[at:])
			} else {
				copy(region[at:at+n], packed)
			}
			packed = packed[n:]
			return nil
		})
	}
}

// stageDir says which way a staged buffer's bytes flow. dirIovec may be
// or-ed in by callers whose native entry takes a nativempi.Payload (the
// point-to-point family): a committed strided array is then pinned and
// described in place instead of packed.
type stageDir uint8

const (
	dirSend stageDir = iota
	dirRecv
	dirIovec stageDir = 1 << 1
)

func (d stageDir) String() string {
	if d&dirRecv != 0 {
		return "recv"
	}
	return "send"
}

// stageKind names the resource behind a staged view — what release
// returns and, on the receive side, what finish unpacks from.
type stageKind uint8

const (
	kindAlias   stageKind = iota // direct ByteBuffer, empty message, or a heap ByteBuffer's send copy: nothing held
	kindPooled                   // MVAPICH2-J array: an mpjbuf buffer (Fig. 3)
	kindPinned                   // MVAPICH2-J committed strided array: a JNI critical region, described as an iovec
	kindScratch                  // Open MPI-J array: a malloc'd copy of the array region
	kindBounce                   // heap ByteBuffer landing: the JVM's copy for native code
)

// staged is one user buffer reduced to its native view, plus exactly
// what completing the call needs. It is a value: the blocking calls keep
// it on the stack, so staging allocates nothing of its own, and a
// request keeps a copy only while something is held (see held). The
// zero value is the empty message.
type staged struct {
	// view is what the native call reads or fills.
	view nativempi.Payload

	m    *MPI
	user any            // the jvm.Array or heap *jvm.ByteBuffer that finish writes and release unpins
	buf  *mpjbuf.Buffer // kindPooled: the staging buffer
	// region is kindScratch's copy of the array region: the source the
	// send view was cut or packed from, the image a landing is merged
	// into before Set<Type>ArrayRegion writes it back.
	region []byte
	// offset is in base elements of the array (bytes into a heap
	// ByteBuffer); n is the element count finish unpacks — layout
	// elements when layout is set, base elements otherwise.
	offset, n int
	// layout is the datatype of a non-contiguous landing, copied to the
	// heap only for those: a contiguous unpack needs no layout, and
	// holding the caller's pointer would move every Datatype argument of
	// every call to the heap.
	layout *Datatype
	kind   stageKind
	dir    stageDir
}

// bytes is the contiguous view for the native calls that take []byte.
func (s *staged) bytes() []byte { return s.view.Bytes() }

// landing records what finish needs to unpack count dt elements.
func (s *staged) landing(count int, dt *Datatype) {
	if dt.contiguous() {
		s.n = count * dt.baseElems()
		return
	}
	layout := *dt
	s.layout, s.n = &layout, count
}

// stage validates (buf, offset, count, dt) once and reduces it to its
// native view. pool is where an MVAPICH2-J array stages: the rank's
// point-to-point pool, or the per-call collective pool (§IV-D).
func (m *MPI) stage(buf any, offset, count int, dt *Datatype, dir stageDir, pool *mpjbuf.Pool) (staged, error) {
	send := dir&dirRecv == 0
	dt.checkUsable(dir.String())
	if count < 0 {
		return staged{}, fmt.Errorf("%w: negative %s count %d", ErrCount, dir, count)
	}
	nbytes := count * dt.Size()
	st := staged{m: m, user: buf, offset: offset, dir: dir & dirRecv}
	start := m.proc.Clock().Now()
	switch b := buf.(type) {
	case jvm.Array:
		if b.Kind() != dt.Kind() {
			return staged{}, fmt.Errorf("%w: %v array with %v datatype", ErrBufferType, b.Kind(), *dt)
		}
		if err := checkCount(arrayNeed(offset, count, dt), b.Len(), dir.String()); err != nil {
			return staged{}, err
		}
		switch {
		case m.flavor == OpenMPIJ:
			// The Open MPI bindings marshal the message region through a
			// malloc'd native scratch buffer — a fresh allocation per
			// call, which is precisely the cost MVAPICH2-J's buffer pool
			// exists to avoid. A strided landing reads the region out
			// first so the gaps between blocks survive the write-back.
			need := arrayNeed(offset, count, dt) - offset
			st.kind, st.region = kindScratch, make([]byte, need*dt.base.Size())
			m.machine.Charge(ompijScratchAlloc)
			if !send {
				st.landing(count, dt)
			}
			if send || !dt.contiguous() {
				m.env.GetArrayRegion(b, offset, need, st.region)
				m.proc.CountHostCopy(len(st.region))
			}
			raw := st.region[:nbytes]
			if !dt.contiguous() {
				raw = make([]byte, nbytes)
				if send {
					moveBlocks(st.region, raw, count, dt, dirSend)
					m.machine.ChargeBulk(nbytes)
					m.proc.CountHostCopy(nbytes)
				}
			}
			st.view = nativempi.Contig(raw)
		case nbytes == 0:
			// Zero-byte messages need no staging (and the pool rejects
			// empty requests).
		case dir&dirIovec != 0 && m.vecPath && dt.needsCommit && !dt.contiguous():
			// Non-contiguous zero copy: pin the array and hand the
			// transport an iovec over it (ddt.go). No copy-in span: there
			// is no copy. The landing is scattered in place, so there is
			// nothing to unpack either.
			st.kind = kindPinned
			st.view = nativempi.Strided(buildVec(m.env.GetPrimitiveArrayCritical(b), offset, count, dt))
			return st, nil
		default:
			stage, err := pool.Get(nbytes)
			if err != nil {
				return staged{}, err
			}
			st.kind, st.buf = kindPooled, stage
			if !send {
				st.landing(count, dt)
				st.view = nativempi.Contig(stage.RawCapacity()[:nbytes])
				break
			}
			err = packInto(stage, b, offset, count, dt)
			if err == nil {
				err = stage.Commit()
			}
			if err != nil {
				stage.Free()
				return staged{}, err
			}
			m.proc.CountHostCopy(nbytes)
			st.view = nativempi.Contig(stage.Raw())
		}

	case *jvm.ByteBuffer:
		if dt.IsDerived() {
			return staged{}, fmt.Errorf("%w: derived datatypes require the buffering layer (use a Java array)", ErrUnsupported)
		}
		st.offset = b.Position() + offset*dt.Size()
		if st.offset+nbytes > b.Limit() {
			return staged{}, fmt.Errorf("%w: %d bytes at position %d exceed buffer limit %d",
				ErrCount, nbytes, st.offset, b.Limit())
		}
		if b.IsDirect() {
			// Direct pass-through: the runtime gets a slice aliasing the
			// buffer's off-heap storage — no mpjbuf bounce, no host copy,
			// and (matching real JNI, where GetDirectBufferAddress is a
			// field read, not a crossing) 12 ns of virtual time. This is
			// the host half of the zero-copy datapath: with rendezvous
			// borrowing downstream (nativempi), a large direct-buffer send
			// moves exactly one host memcpy, at the receiver. See
			// DESIGN.md §"Host datapath policy".
			st.view = nativempi.Contig(m.env.GetDirectBufferAddress(b)[st.offset : st.offset+nbytes])
			break
		}
		// Heap buffer: the JVM must copy it for native code.
		tmp := make([]byte, nbytes)
		if send {
			copy(tmp, b.RawBytes()[st.offset:st.offset+nbytes])
			m.machine.ChargeBulk(nbytes)
			m.proc.CountHostCopy(nbytes)
		} else {
			st.kind = kindBounce
		}
		st.view = nativempi.Contig(tmp)

	case nil:
		if nbytes != 0 {
			return staged{}, fmt.Errorf("%w: nil buffer with %d bytes", ErrBufferType, nbytes)
		}
	default:
		return staged{}, fmt.Errorf("%w: got %T", ErrBufferType, buf)
	}
	if send {
		m.recordCopy(trace.KindCopyIn, nbytes, start)
	}
	return st, nil
}

// finish unpacks a landed receive into the user buffer, inside a
// copy-out span. Run it only after the native operation has completed.
func (s *staged) finish() error {
	if s.dir != dirRecv || s.kind == kindAlias || s.kind == kindPinned {
		return nil
	}
	m, raw := s.m, s.bytes()
	start := m.proc.Clock().Now()
	switch s.kind {
	case kindPooled:
		if err := s.buf.SetIncoming(len(raw)); err != nil {
			return err
		}
		arr := s.user.(jvm.Array)
		if s.layout == nil {
			if err := s.buf.Read(arr, s.offset, s.n); err != nil {
				return err
			}
		} else if err := unpackFrom(s.buf, arr, s.offset, s.n, s.layout); err != nil {
			return err
		}
		m.proc.CountHostCopy(len(raw))
	case kindScratch:
		copied := len(s.region)
		if s.layout != nil {
			moveBlocks(s.region, raw, s.n, s.layout, dirRecv)
			m.machine.ChargeBulk(len(raw))
			copied += len(raw)
		}
		m.env.SetArrayRegion(s.user.(jvm.Array), s.offset, s.region)
		m.proc.CountHostCopy(copied)
	case kindBounce:
		copy(s.user.(*jvm.ByteBuffer).RawBytes()[s.offset:s.offset+len(raw)], raw)
		m.machine.ChargeBulk(len(raw))
		m.proc.CountHostCopy(len(raw))
	}
	m.recordCopy(trace.KindCopyOut, len(raw), start)
	return nil
}

// release returns the staging resource. For a pinned array it closes
// the critical region, so it must wait for the native operation to
// complete: the transport may still be reading from — or landing
// payload into — the pinned view.
func (s *staged) release() {
	switch s.kind {
	case kindPooled:
		s.buf.Free()
	case kindPinned:
		s.m.env.ReleasePrimitiveArrayCritical(s.user.(jvm.Array))
	case kindScratch:
		s.m.machine.Charge(ompijScratchFree)
	}
}

// held is the descriptor as a request keeps it across the calls that
// post and complete a non-blocking operation: a heap copy when there is
// something to finish or release, nil otherwise — embedding the value
// would triple the Request every direct-buffer Isend/Irecv allocates.
func (s *staged) held() *staged {
	if s.kind == kindAlias {
		return nil
	}
	h := *s
	return &h
}

// done completes a staged call whose native half returned err: unpack
// if it succeeded, release either way. A nil descriptor held nothing.
func (s *staged) done(err error) error {
	if s == nil {
		return err
	}
	if err == nil {
		err = s.finish()
	}
	s.release()
	return err
}

// staging is the staged form of a call with a send and a receive side
// (Sendrecv, most collectives). A side this rank does not stage — a
// non-root's receive buffer — is staged as (nil, 0): the empty message,
// which charges and holds nothing.
type staging struct{ s, r staged }

// add files the next staged side under its direction. If staging it
// failed, the side already held is released.
func (st *staging) add(d staged, err error) error {
	switch {
	case err != nil:
		st.release()
	case d.dir == dirRecv:
		st.r = d
	default:
		st.s = d
	}
	return err
}

func (st *staging) send() []byte { return st.s.bytes() }
func (st *staging) recv() []byte { return st.r.bytes() }

// release frees the receive side first: Sendrecv stages send-first
// through the point-to-point pool, whose per-class free lists are LIFO,
// so the order decides which buffer (and registration-cache key) the
// next Get sees.
func (st *staging) release() {
	st.r.release()
	st.s.release()
}

// held is staged.held for both sides.
func (st *staging) held() *staging {
	if st.s.kind == kindAlias && st.r.kind == kindAlias {
		return nil
	}
	h := *st
	return &h
}

// done is staged.done for both sides.
func (st *staging) done(err error) error {
	if st == nil {
		return err
	}
	err = st.r.done(err)
	st.s.release()
	return err
}

// stageColl stages a collective's two sides, send first, through the
// per-call collective pool.
func (c *Comm) stageColl(sbuf any, scount int, rbuf any, rcount int, dt *Datatype) (st staging, err error) {
	m := c.mpi
	if err = st.add(m.stage(sbuf, 0, scount, dt, dirSend, m.collPool)); err == nil {
		err = st.add(m.stage(rbuf, 0, rcount, dt, dirRecv, m.collPool))
	}
	return st, err
}
