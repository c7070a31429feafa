package core

import (
	"fmt"

	"mv2j/internal/nativempi"
)

// Op re-exports the native reduction operations at the bindings level.
type Op = nativempi.Op

// Predefined reduction operations.
const (
	SUM  = nativempi.OpSum
	PROD = nativempi.OpProd
	MAX  = nativempi.OpMax
	MIN  = nativempi.OpMin
	LAND = nativempi.OpLAnd
	LOR  = nativempi.OpLOr
	BAND = nativempi.OpBAnd
	BOR  = nativempi.OpBOr
	BXOR = nativempi.OpBXor
)

// Blocking collectives (the subset MVAPICH2-J implements: §IV-D).
// Each is one bindings call of one shape: stage both sides (stageColl),
// one native collective on the staged views, done (unpack + release).
// Java arrays stage through the per-call collective pool on both sides;
// direct ByteBuffers pass straight through. A side this rank takes no
// part in (a non-root's receive buffer) is staged as (nil, 0).

// Barrier blocks until all ranks of the communicator reach it.
func (c *Comm) Barrier() error {
	c.mpi.enterNative()
	return c.native.Barrier()
}

// Bcast broadcasts count dt elements from root's buf into every other
// rank's buf (in place, as in MPI).
func (c *Comm) Bcast(buf any, count int, dt Datatype, root int) error {
	c.mpi.enterNative()
	st, err := c.mpi.stage(buf, 0, count, &dt, c.bcastDir(root), c.mpi.collPool)
	if err != nil {
		return err
	}
	return st.done(c.native.Bcast(st.bytes(), root))
}

// bcastDir is the direction a broadcast buffer is staged in: root sends.
func (c *Comm) bcastDir(root int) stageDir {
	if c.Rank() == root {
		return dirSend
	}
	return dirRecv
}

// Reduce combines count dt elements from every rank's sendBuf into
// root's recvBuf. recvBuf may be nil on non-root ranks.
func (c *Comm) Reduce(sendBuf, recvBuf any, count int, dt Datatype, op Op, root int) error {
	c.mpi.enterNative()
	rcount := count
	if c.Rank() != root {
		recvBuf, rcount = nil, 0
	}
	st, err := c.stageColl(sendBuf, count, recvBuf, rcount, &dt)
	if err != nil {
		return err
	}
	return st.done(c.native.Reduce(st.send(), st.recv(), dt.Kind(), op, root))
}

// Allreduce combines count dt elements across all ranks into every
// rank's recvBuf.
func (c *Comm) Allreduce(sendBuf, recvBuf any, count int, dt Datatype, op Op) error {
	c.mpi.enterNative()
	st, err := c.stageColl(sendBuf, count, recvBuf, count, &dt)
	if err != nil {
		return err
	}
	return st.done(c.native.Allreduce(st.send(), st.recv(), dt.Kind(), op))
}

// Gather collects sendCount dt elements from every rank into root's
// recvBuf, which must hold size·sendCount elements. recvBuf may be nil
// on non-root ranks.
func (c *Comm) Gather(sendBuf any, sendCount int, recvBuf any, recvCount int, dt Datatype, root int) error {
	c.mpi.enterNative()
	if sendCount != recvCount {
		return fmt.Errorf("%w: gather send count %d != recv count %d", ErrCount, sendCount, recvCount)
	}
	rtotal := recvCount * c.Size()
	if c.Rank() != root {
		recvBuf, rtotal = nil, 0
	}
	st, err := c.stageColl(sendBuf, sendCount, recvBuf, rtotal, &dt)
	if err != nil {
		return err
	}
	return st.done(c.native.Gather(st.send(), st.recv(), root))
}

// Scatter distributes recvCount dt elements to each rank from root's
// sendBuf (size·recvCount elements). sendBuf may be nil off-root.
func (c *Comm) Scatter(sendBuf any, sendCount int, recvBuf any, recvCount int, dt Datatype, root int) error {
	c.mpi.enterNative()
	if sendCount != recvCount {
		return fmt.Errorf("%w: scatter send count %d != recv count %d", ErrCount, sendCount, recvCount)
	}
	stotal := sendCount * c.Size()
	if c.Rank() != root {
		sendBuf, stotal = nil, 0
	}
	st, err := c.stageScatter(sendBuf, stotal, recvBuf, recvCount, &dt)
	if err != nil {
		return err
	}
	return st.done(c.native.Scatter(st.send(), st.recv(), root))
}

// stageScatter is stageColl in the scatter family's order: every rank
// stages its landing first, then the root its source.
func (c *Comm) stageScatter(sbuf any, scount int, rbuf any, rcount int, dt *Datatype) (st staging, err error) {
	m := c.mpi
	if err = st.add(m.stage(rbuf, 0, rcount, dt, dirRecv, m.collPool)); err == nil {
		err = st.add(m.stage(sbuf, 0, scount, dt, dirSend, m.collPool))
	}
	return st, err
}

// Allgather concatenates sendCount dt elements from every rank into
// every rank's recvBuf (size·sendCount elements).
func (c *Comm) Allgather(sendBuf any, sendCount int, recvBuf any, recvCount int, dt Datatype) error {
	c.mpi.enterNative()
	if sendCount != recvCount {
		return fmt.Errorf("%w: allgather send count %d != recv count %d", ErrCount, sendCount, recvCount)
	}
	st, err := c.stageColl(sendBuf, sendCount, recvBuf, recvCount*c.Size(), &dt)
	if err != nil {
		return err
	}
	return st.done(c.native.Allgather(st.send(), st.recv()))
}

// Scan computes the inclusive prefix reduction: rank r receives
// op(rank_0, ..., rank_r).
func (c *Comm) Scan(sendBuf, recvBuf any, count int, dt Datatype, op Op) error {
	c.mpi.enterNative()
	st, err := c.stageColl(sendBuf, count, recvBuf, count, &dt)
	if err != nil {
		return err
	}
	return st.done(c.native.Scan(st.send(), st.recv(), dt.Kind(), op))
}

// Exscan computes the exclusive prefix reduction: rank 0's recvBuf is
// untouched; rank r>0 receives op(rank_0, ..., rank_{r-1}).
func (c *Comm) Exscan(sendBuf, recvBuf any, count int, dt Datatype, op Op) error {
	c.mpi.enterNative()
	st, err := c.stageColl(sendBuf, count, recvBuf, count, &dt)
	if err != nil {
		return err
	}
	err = c.native.Exscan(st.send(), st.recv(), dt.Kind(), op)
	if c.Rank() == 0 {
		// Rank 0 stages a landing like everyone else but its buffer is
		// untouched by Exscan; skip the unpack so the staging area's
		// garbage never reaches the user buffer.
		st.release()
		return err
	}
	return st.done(err)
}

// ReduceScatter reduces blocks across all ranks and scatters them:
// rank r receives the reduced counts[r] elements of block r. Counts
// are in dt elements.
func (c *Comm) ReduceScatter(sendBuf, recvBuf any, counts []int, dt Datatype, op Op) error {
	c.mpi.enterNative()
	if len(counts) != c.Size() {
		return fmt.Errorf("%w: reduce_scatter counts length %d != %d", ErrCount, len(counts), c.Size())
	}
	total := 0
	bcounts := make([]int, len(counts))
	for r, n := range counts {
		if n < 0 {
			return fmt.Errorf("%w: negative count for rank %d", ErrCount, r)
		}
		bcounts[r] = n * dt.Size()
		total += n
	}
	st, err := c.stageColl(sendBuf, total, recvBuf, counts[c.Rank()], &dt)
	if err != nil {
		return err
	}
	return st.done(c.native.ReduceScatter(st.send(), st.recv(), bcounts, dt.Kind(), op))
}

// Alltoall exchanges sendCount dt elements with every rank: block i of
// sendBuf goes to rank i, block j of recvBuf comes from rank j.
func (c *Comm) Alltoall(sendBuf any, sendCount int, recvBuf any, recvCount int, dt Datatype) error {
	c.mpi.enterNative()
	if sendCount != recvCount {
		return fmt.Errorf("%w: alltoall send count %d != recv count %d", ErrCount, sendCount, recvCount)
	}
	p := c.Size()
	st, err := c.stageColl(sendBuf, sendCount*p, recvBuf, recvCount*p, &dt)
	if err != nil {
		return err
	}
	return st.done(c.native.Alltoall(st.send(), st.recv()))
}
