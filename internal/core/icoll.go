package core

import (
	"fmt"

	"mv2j/internal/jvm"
	"mv2j/internal/nativempi"
)

// Non-blocking collectives — the MPI 3.0 surface whose absence from
// the older Java APIs motivated Open MPI-J's new API, and an extension
// beyond the blocking subset the MVAPICH2-J prototype ships (§I lists
// blocking collectives only; this is the natural next step the paper's
// conclusion points at). The schedule progresses inside Test/Wait
// (software progress), so compute placed between initiation and
// completion genuinely overlaps communication in virtual time.
//
// As with Isend/Irecv, the Open MPI-J personality supports these only
// for ByteBuffers.

// CollRequest is the bindings-level handle for a non-blocking
// collective.
type CollRequest struct {
	mpi    *MPI
	native *nativempi.CollRequest
	st     *staging // nil when neither side left anything to finish or release
	waited bool
	err    error
}

// pending wraps a started native collective, or releases the staging if
// it failed to start.
func (st *staging) pending(m *MPI, req *nativempi.CollRequest, err error) (*CollRequest, error) {
	if err != nil {
		st.release()
		return nil, err
	}
	return &CollRequest{mpi: m, native: req, st: st.held()}, nil
}

// complete finishes the request without charging a bindings call — the
// one completion body under Wait and Test: native wait, unpack staged
// receives, release staging, exactly once.
func (r *CollRequest) complete() error {
	if !r.waited {
		r.err = r.st.done(r.native.Wait())
		r.st = nil
		r.waited = true
	}
	return r.err
}

// Wait blocks until the collective completes, then unpacks staged
// receives and releases staging resources.
func (r *CollRequest) Wait() error {
	if r == nil {
		return nativempi.ErrRequest
	}
	if !r.waited {
		r.mpi.enterNative()
	}
	return r.complete()
}

// Test progresses the schedule without blocking.
func (r *CollRequest) Test() (bool, error) {
	if r == nil {
		return false, nativempi.ErrRequest
	}
	if r.waited {
		return true, r.err
	}
	r.mpi.enterNative()
	if done, _ := r.native.Test(); !done {
		return false, nil
	}
	return true, r.complete()
}

// checkNBBuf enforces the Open MPI-J array restriction on the
// non-blocking surface.
func (c *Comm) checkNBBuf(bufs ...any) error {
	if c.mpi.flavor != OpenMPIJ {
		return nil
	}
	for _, b := range bufs {
		if _, isArray := b.(jvm.Array); isArray {
			return fmt.Errorf("%w: Open MPI-J does not support Java arrays with non-blocking operations", ErrUnsupported)
		}
	}
	return nil
}

// Ibcast starts a non-blocking broadcast.
func (c *Comm) Ibcast(buf any, count int, dt Datatype, root int) (*CollRequest, error) {
	if err := c.checkNBBuf(buf); err != nil {
		return nil, err
	}
	c.mpi.enterNative()
	d, err := c.mpi.stage(buf, 0, count, &dt, c.bcastDir(root), c.mpi.collPool)
	if err != nil {
		return nil, err
	}
	var st staging
	st.add(d, nil)
	req, err := c.native.Ibcast(d.bytes(), root)
	return st.pending(c.mpi, req, err)
}

// Iallreduce starts a non-blocking allreduce.
func (c *Comm) Iallreduce(sendBuf, recvBuf any, count int, dt Datatype, op Op) (*CollRequest, error) {
	if err := c.checkNBBuf(sendBuf, recvBuf); err != nil {
		return nil, err
	}
	c.mpi.enterNative()
	st, err := c.stageColl(sendBuf, count, recvBuf, count, &dt)
	if err != nil {
		return nil, err
	}
	req, err := c.native.Iallreduce(st.send(), st.recv(), dt.Kind(), op)
	return st.pending(c.mpi, req, err)
}

// Ireduce starts a non-blocking reduce toward root.
func (c *Comm) Ireduce(sendBuf, recvBuf any, count int, dt Datatype, op Op, root int) (*CollRequest, error) {
	if err := c.checkNBBuf(sendBuf, recvBuf); err != nil {
		return nil, err
	}
	c.mpi.enterNative()
	rcount := count
	if c.Rank() != root {
		recvBuf, rcount = nil, 0
	}
	st, err := c.stageColl(sendBuf, count, recvBuf, rcount, &dt)
	if err != nil {
		return nil, err
	}
	req, err := c.native.Ireduce(st.send(), st.recv(), dt.Kind(), op, root)
	return st.pending(c.mpi, req, err)
}

// Iallgather starts a non-blocking allgather.
func (c *Comm) Iallgather(sendBuf any, sendCount int, recvBuf any, recvCount int, dt Datatype) (*CollRequest, error) {
	if err := c.checkNBBuf(sendBuf, recvBuf); err != nil {
		return nil, err
	}
	c.mpi.enterNative()
	if sendCount != recvCount {
		return nil, fmt.Errorf("%w: iallgather send count %d != recv count %d", ErrCount, sendCount, recvCount)
	}
	st, err := c.stageColl(sendBuf, sendCount, recvBuf, recvCount*c.Size(), &dt)
	if err != nil {
		return nil, err
	}
	req, err := c.native.Iallgather(st.send(), st.recv())
	return st.pending(c.mpi, req, err)
}

// Ibarrier starts a non-blocking barrier.
func (c *Comm) Ibarrier() (*CollRequest, error) {
	c.mpi.enterNative()
	req, err := c.native.Ibarrier()
	if err != nil {
		return nil, err
	}
	return &CollRequest{mpi: c.mpi, native: req}, nil
}
