package core

import (
	"fmt"

	"mv2j/internal/jvm"
	"mv2j/internal/nativempi"
)

// Comm wraps a native communicator behind the Java-bindings API. All
// message methods accept either a jvm.Array or a *jvm.ByteBuffer as
// their buffer, dispatching on the dynamic type exactly as the Java
// bindings overload on Object.
type Comm struct {
	mpi    *MPI
	native *nativempi.Comm
}

// Rank returns the calling process's rank in this communicator.
func (c *Comm) Rank() int { return c.native.Rank() }

// Size returns the number of ranks in this communicator.
func (c *Comm) Size() int { return c.native.Size() }

// MPI returns the owning bindings environment.
func (c *Comm) MPI() *MPI { return c.mpi }

// Status describes a completed receive.
type Status struct {
	// Source is the sender's rank in this communicator.
	Source int
	// Tag is the matched tag.
	Tag int
	// Bytes is the wire payload length.
	Bytes int
}

// Count returns the number of complete dt elements received
// (MPI_Get_count). Bytes is the wire payload size, which for a derived
// datatype counts only the bytes actually transferred — never the
// holes of the user-buffer layout — so the result is in whole derived
// elements, not base elements. A payload that ends mid-element is an
// error (the MPI_UNDEFINED case); use Elements for the partial count.
func (s Status) Count(dt Datatype) (int, error) {
	sz := dt.Size()
	if sz == 0 {
		if s.Bytes == 0 {
			return 0, nil
		}
		return 0, fmt.Errorf("%w: %d bytes with zero-size datatype %v", ErrCount, s.Bytes, dt)
	}
	if s.Bytes%sz != 0 {
		return 0, fmt.Errorf("%w: %d bytes is not a whole number of %v elements", ErrCount, s.Bytes, dt)
	}
	return s.Bytes / sz, nil
}

// Elements returns the number of base (primitive) elements received
// (MPI_Get_elements): the finer-grained count that remains defined
// when a transfer ends partway through a derived element.
func (s Status) Elements(dt Datatype) (int, error) {
	esz := dt.Kind().Size()
	if esz == 0 {
		if s.Bytes == 0 {
			return 0, nil
		}
		return 0, fmt.Errorf("%w: %d bytes with zero-size base kind %v", ErrCount, s.Bytes, dt.Kind())
	}
	if s.Bytes%esz != 0 {
		return 0, fmt.Errorf("%w: %d bytes is not a whole number of %v base elements", ErrCount, s.Bytes, dt.Kind())
	}
	return s.Bytes / esz, nil
}

func fromNative(st nativempi.Status) Status {
	return Status{Source: st.Source, Tag: st.Tag, Bytes: st.Bytes}
}

// Send performs a blocking send of count dt elements from buf.
func (c *Comm) Send(buf any, count int, dt Datatype, dst, tag int) error {
	return c.SendRange(buf, 0, count, dt, dst, tag)
}

// SendRange is MVAPICH2-J's offset extension (§IV-B): send count dt
// elements starting at base-element offset of the array (the mpiJava
// 1.2 offset argument), copying only the subset through the buffering
// layer. The Open MPI-J flavor, whose API dropped the offset argument,
// rejects non-zero offsets.
func (c *Comm) SendRange(buf any, offset, count int, dt Datatype, dst, tag int) error {
	if offset != 0 && c.mpi.flavor == OpenMPIJ {
		return fmt.Errorf("%w: the Open MPI Java API has no offset argument", ErrUnsupported)
	}
	req, st, err := c.isend(buf, offset, count, &dt, dst, tag)
	if err != nil || req == nil {
		return err
	}
	_, err = req.Wait()
	req.Release()
	return st.done(err)
}

// Recv performs a blocking receive of up to count dt elements into buf.
func (c *Comm) Recv(buf any, count int, dt Datatype, src, tag int) (Status, error) {
	return c.RecvRange(buf, 0, count, dt, src, tag)
}

// RecvRange is the receive side of the offset extension.
func (c *Comm) RecvRange(buf any, offset, count int, dt Datatype, src, tag int) (Status, error) {
	if offset != 0 && c.mpi.flavor == OpenMPIJ {
		return Status{}, fmt.Errorf("%w: the Open MPI Java API has no offset argument", ErrUnsupported)
	}
	req, st, err := c.irecv(buf, offset, count, &dt, src, tag)
	if err != nil {
		return Status{}, err
	}
	if req == nil {
		return Status{Source: ProcNull, Tag: tag}, nil
	}
	nst, err := req.Wait()
	req.Release()
	return fromNative(nst), st.done(err)
}

// Isend starts a non-blocking send. Under the Open MPI-J flavor, Java
// arrays are rejected — the API gap that leaves the paper's bandwidth
// plots without an "Open MPI-J arrays" series.
func (c *Comm) Isend(buf any, count int, dt Datatype, dst, tag int) (*Request, error) {
	if _, isArray := buf.(jvm.Array); isArray && c.mpi.flavor == OpenMPIJ {
		return nil, fmt.Errorf("%w: Open MPI-J does not support Java arrays with non-blocking point-to-point", ErrUnsupported)
	}
	req, st, err := c.isend(buf, 0, count, &dt, dst, tag)
	if err != nil {
		return nil, err
	}
	return &Request{mpi: c.mpi, native: req, st: st.held(), waited: req == nil}, nil
}

// Irecv starts a non-blocking receive, with the same Open MPI-J array
// restriction as Isend.
func (c *Comm) Irecv(buf any, count int, dt Datatype, src, tag int) (*Request, error) {
	if _, isArray := buf.(jvm.Array); isArray && c.mpi.flavor == OpenMPIJ {
		return nil, fmt.Errorf("%w: Open MPI-J does not support Java arrays with non-blocking point-to-point", ErrUnsupported)
	}
	req, st, err := c.irecv(buf, 0, count, &dt, src, tag)
	if err != nil {
		return nil, err
	}
	r := &Request{mpi: c.mpi, native: req, st: st.held(), waited: req == nil}
	if req == nil {
		r.status = Status{Source: ProcNull, Tag: tag}
	}
	return r, nil
}

// isend is the one send path under every point-to-point call: one
// bindings crossing, stage the buffer, hand its view to the native
// library. It returns the native request and the staged buffer by
// value — the blocking calls complete both from their own stack and
// allocate nothing — and takes the datatype by pointer (a 112-byte
// value this path would otherwise copy per layer, per message). A send
// to ProcNull (MPI_PROC_NULL) is already complete — no crossing, no
// staging, no communication — and has no native request.
func (c *Comm) isend(buf any, offset, count int, dt *Datatype, dst, tag int) (*nativempi.Request, staged, error) {
	if dst == ProcNull {
		return nil, staged{}, nil
	}
	c.mpi.enterNative()
	st, err := c.mpi.stage(buf, offset, count, dt, dirSend|dirIovec, c.mpi.pool)
	if err != nil {
		return nil, staged{}, err
	}
	req, err := c.native.IsendPayload(st.view, dst, tag)
	if err != nil {
		st.release()
		return nil, staged{}, err
	}
	return req, st, nil
}

// irecv is isend's receive twin. A receive from ProcNull completes at
// once as an empty message from ProcNull.
func (c *Comm) irecv(buf any, offset, count int, dt *Datatype, src, tag int) (*nativempi.Request, staged, error) {
	if src == ProcNull {
		return nil, staged{}, nil
	}
	c.mpi.enterNative()
	st, err := c.mpi.stage(buf, offset, count, dt, dirRecv|dirIovec, c.mpi.pool)
	if err != nil {
		return nil, staged{}, err
	}
	req, err := c.native.IrecvPayload(st.view, src, tag)
	if err != nil {
		st.release()
		return nil, staged{}, err
	}
	return req, st, nil
}

// Sendrecv exchanges messages without deadlock.
func (c *Comm) Sendrecv(sendBuf any, sendCount int, sendType Datatype, dst, sendTag int,
	recvBuf any, recvCount int, recvType Datatype, src, recvTag int) (Status, error) {
	if dst == ProcNull || src == ProcNull {
		// With a null leg nothing can deadlock: what is left is the
		// other leg's blocking call (or nothing at all).
		if err := c.SendRange(sendBuf, 0, sendCount, sendType, dst, sendTag); err != nil {
			return Status{}, err
		}
		return c.RecvRange(recvBuf, 0, recvCount, recvType, src, recvTag)
	}
	// One bindings crossing for both legs; both staged before the
	// native call validates both legs, posts the receive, then the
	// send, then waits for both.
	m := c.mpi
	m.enterNative()
	var st staging
	if err := st.add(m.stage(sendBuf, 0, sendCount, &sendType, dirSend|dirIovec, m.pool)); err != nil {
		return Status{}, err
	}
	if err := st.add(m.stage(recvBuf, 0, recvCount, &recvType, dirRecv|dirIovec, m.pool)); err != nil {
		return Status{}, err
	}
	nst, err := c.native.SendrecvPayload(st.s.view, dst, sendTag, st.r.view, src, recvTag)
	return fromNative(nst), st.done(err)
}

// Probe blocks until a matching message can be received and returns
// its status.
func (c *Comm) Probe(src, tag int) (Status, error) {
	c.mpi.enterNative()
	st, err := c.native.Probe(src, tag)
	return fromNative(st), err
}

// Iprobe polls for a matching message.
func (c *Comm) Iprobe(src, tag int) (Status, bool, error) {
	c.mpi.enterNative()
	st, ok, err := c.native.Iprobe(src, tag)
	return fromNative(st), ok, err
}

// Dup creates a congruent communicator (MPI_Comm_dup).
func (c *Comm) Dup() (*Comm, error) {
	c.mpi.enterNative()
	n, err := c.native.Dup()
	if err != nil {
		return nil, err
	}
	return &Comm{mpi: c.mpi, native: n}, nil
}

// Split partitions the communicator (MPI_Comm_split). Color
// nativempi.Undefined (-1) yields a nil communicator.
func (c *Comm) Split(color, key int) (*Comm, error) {
	c.mpi.enterNative()
	n, err := c.native.Split(color, key)
	if err != nil || n == nil {
		return nil, err
	}
	return &Comm{mpi: c.mpi, native: n}, nil
}

// SplitType partitions by shared-memory locality
// (MPI_Comm_split_type): one subcommunicator per node.
func (c *Comm) SplitType(key int) (*Comm, error) {
	c.mpi.enterNative()
	n, err := c.native.SplitType(key)
	if err != nil || n == nil {
		return nil, err
	}
	return &Comm{mpi: c.mpi, native: n}, nil
}

// Create builds a communicator from a group (MPI_Comm_create).
// Collective over c; callers outside the group receive nil.
func (c *Comm) Create(g *Group) (*Comm, error) {
	c.mpi.enterNative()
	n, err := c.native.CreateFromGroup(g.ranks)
	if err != nil || n == nil {
		return nil, err
	}
	return &Comm{mpi: c.mpi, native: n}, nil
}

// Group returns the communicator's group (MPI_Comm_group): ranks are
// expressed as this communicator's ranks, in order.
func (c *Comm) Group() *Group {
	ranks := make([]int, c.Size())
	for i := range ranks {
		ranks[i] = i
	}
	return &Group{ranks: ranks}
}

// Request is a non-blocking operation handle.
type Request struct {
	mpi    *MPI
	native *nativempi.Request
	// st is the staged buffer still to be unpacked and released; nil
	// when staging left nothing to do (direct ByteBuffers, empty
	// messages), which keeps the per-message Request at its bare size.
	st     *staged
	waited bool
	status Status
	err    error
}

// Wait blocks until the operation completes, unpacks any staged
// receive, and releases staging resources.
func (r *Request) Wait() (Status, error) {
	if r == nil {
		return Status{}, nativempi.ErrRequest
	}
	if r.waited {
		return r.status, r.err
	}
	r.mpi.enterNative()
	return r.waitNoCharge()
}

// waitNoCharge completes the request without charging a bindings call;
// Waitall charges once for the whole batch, as the real waitAll is a
// single JNI downcall.
func (r *Request) waitNoCharge() (Status, error) {
	if r.waited {
		return r.status, r.err
	}
	st, err := r.native.Wait()
	r.status, r.err = fromNative(st), r.st.done(err)
	r.st = nil // drop the user buffer and staging references
	r.waited = true
	// The status is read: the native request goes back to its rank's
	// free list. Every later read of r.native is behind r.waited.
	r.native.Release()
	r.native = nil
	return r.status, r.err
}

// Test polls for completion; on completion it behaves like Wait.
func (r *Request) Test() (Status, bool, error) {
	if r == nil {
		return Status{}, false, nativempi.ErrRequest
	}
	if r.waited {
		return r.status, true, r.err
	}
	r.mpi.enterNative()
	_, ok, _ := r.native.Test()
	if !ok {
		return Status{}, false, nil
	}
	st, err := r.waitNoCharge()
	return st, true, err
}

// WaitanyStack is the request-list length Waitany, and a caller
// building the list it passes, converts without a heap allocation;
// longer lists fall back to make.
const WaitanyStack = 64

// Waitany blocks until at least one request completes (MPI_Waitany)
// and returns its index and status, unpacking that request's staged
// receive. Nil or already-completed entries are inactive and skipped;
// with no active requests the index is -1 (MPI_UNDEFINED).
func Waitany(reqs []*Request) (int, Status, error) {
	// A stack array, not a per-rank scratch slice: under
	// MPI_THREAD_MULTIPLE two simulated threads of one rank can both be
	// blocked in Waitany.
	var stack [WaitanyStack]*nativempi.Request
	natives := stack[:min(len(reqs), WaitanyStack)]
	if len(reqs) > WaitanyStack {
		natives = make([]*nativempi.Request, len(reqs))
	}
	charged := false
	for i, r := range reqs {
		if r == nil || r.waited {
			continue
		}
		if !charged {
			r.mpi.enterNative()
			charged = true
		}
		natives[i] = r.native
	}
	idx, _, err := nativempi.Waitany(natives)
	if idx < 0 {
		return -1, Status{}, err
	}
	st, err := reqs[idx].waitNoCharge()
	return idx, st, err
}

// Waitall completes every request as one bindings call (the Java
// waitAll is a single JNI downcall over the request array), returning
// the first error.
func Waitall(reqs []*Request) error {
	var first error
	charged := false
	for _, r := range reqs {
		if r == nil {
			continue
		}
		if !charged {
			r.mpi.enterNative()
			charged = true
		}
		if _, err := r.waitNoCharge(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
