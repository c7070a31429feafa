package core

import (
	"fmt"

	"mv2j/internal/jvm"
	"mv2j/internal/nativempi"
)

// One-sided communication at the bindings level. A window must be
// backed by a DIRECT ByteBuffer: the native library keeps a raw
// pointer to the exposed memory for the lifetime of the window, which
// is exactly what movable heap objects (arrays, heap buffers) cannot
// provide — the paper's off-heap argument, sharpened: for RMA there is
// no copy-based fallback at all.
type Win struct {
	mpi    *MPI
	native *nativempi.Win
	buf    *jvm.ByteBuffer
	freed  bool
}

// WinCreate exposes the direct buffer's [position, limit) region as an
// RMA window. Collective over the communicator.
func (c *Comm) WinCreate(buf *jvm.ByteBuffer) (*Win, error) {
	c.mpi.enterNative()
	var region []byte
	if buf != nil {
		if !buf.IsDirect() {
			return nil, fmt.Errorf("%w: RMA windows require a direct ByteBuffer (movable heap memory cannot be exposed)", ErrUnsupported)
		}
		view := c.mpi.env.GetDirectBufferAddress(buf)
		region = view[buf.Position():buf.Limit()]
	}
	nw, err := c.native.WinCreate(region)
	if err != nil {
		return nil, err
	}
	return &Win{mpi: c.mpi, native: nw, buf: buf}, nil
}

// Buffer returns the backing buffer.
func (w *Win) Buffer() *jvm.ByteBuffer { return w.buf }

// Put transfers count dt elements from origin into the target's
// window at element offset targetOff. Completes at the next Fence.
// Origin buffers may be arrays (they are copied/staged per operation,
// like sends); only the WINDOW memory must be direct.
func (w *Win) Put(origin any, count int, dt Datatype, target, targetOff int) error {
	w.mpi.enterNative()
	st, err := w.mpi.stage(origin, 0, count, &dt, dirSend, w.mpi.pool)
	if err != nil {
		return err
	}
	return st.done(w.native.Put(st.bytes(), target, targetOff*dt.Size()))
}

// Accumulate combines count dt elements into the target's window.
func (w *Win) Accumulate(origin any, count int, dt Datatype, op Op, target, targetOff int) error {
	w.mpi.enterNative()
	st, err := w.mpi.stage(origin, 0, count, &dt, dirSend, w.mpi.pool)
	if err != nil {
		return err
	}
	return st.done(w.native.Accumulate(st.bytes(), target, targetOff*dt.Size(), dt.Kind(), op))
}

// Get fetches count dt elements from the target's window into origin.
// Origin must be a direct ByteBuffer: the fetched bytes land after the
// Fence, with no bindings-level unpack hook in between.
func (w *Win) Get(origin any, count int, dt Datatype, target, targetOff int) error {
	w.mpi.enterNative()
	bb, ok := origin.(*jvm.ByteBuffer)
	if !ok || !bb.IsDirect() {
		return fmt.Errorf("%w: RMA Get requires a direct ByteBuffer origin", ErrUnsupported)
	}
	if dt.IsDerived() {
		return fmt.Errorf("%w: derived datatypes in RMA", ErrUnsupported)
	}
	nbytes := count * dt.Size()
	view := w.mpi.env.GetDirectBufferAddress(bb)
	start := bb.Position()
	if start+nbytes > bb.Limit() {
		return fmt.Errorf("%w: get of %d bytes exceeds origin buffer", ErrCount, nbytes)
	}
	return w.native.Get(view[start:start+nbytes], target, targetOff*dt.Size())
}

// Fence closes the access/exposure epoch (MPI_Win_fence).
func (w *Win) Fence() error {
	w.mpi.enterNative()
	return w.native.Fence()
}

// Free releases the window. Collective.
func (w *Win) Free() error {
	if w.freed {
		return fmt.Errorf("core: window already freed")
	}
	w.freed = true
	w.mpi.enterNative()
	return w.native.Free()
}
