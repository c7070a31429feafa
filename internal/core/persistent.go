package core

import (
	"fmt"

	"mv2j/internal/jvm"
)

// Persistent requests (MPI_Send_init / MPI_Recv_init / MPI_Start):
// the argument checking and staging setup of a point-to-point
// operation is done once, then the operation is (re)started cheaply
// each iteration — the classic optimisation for fixed communication
// patterns like halo exchanges.
type PersistentRequest struct {
	c      *Comm
	isSend bool
	buf    any
	count  int
	dt     Datatype
	peer   int
	tag    int

	active *Request
	freed  bool
}

// SendInit prepares a persistent standard-mode send. No communication
// happens until Start.
func (c *Comm) SendInit(buf any, count int, dt Datatype, dst, tag int) (*PersistentRequest, error) {
	if err := c.persistentCheck(buf, count, dt); err != nil {
		return nil, err
	}
	if dst != ProcNull {
		if dst < 0 || dst >= c.Size() {
			return nil, fmt.Errorf("%w: rank %d", ErrCount, dst)
		}
	}
	return &PersistentRequest{c: c, isSend: true, buf: buf, count: count, dt: dt, peer: dst, tag: tag}, nil
}

// RecvInit prepares a persistent receive.
func (c *Comm) RecvInit(buf any, count int, dt Datatype, src, tag int) (*PersistentRequest, error) {
	if err := c.persistentCheck(buf, count, dt); err != nil {
		return nil, err
	}
	if src != ProcNull && src != AnySource {
		if src < 0 || src >= c.Size() {
			return nil, fmt.Errorf("%w: rank %d", ErrCount, src)
		}
	}
	return &PersistentRequest{c: c, isSend: false, buf: buf, count: count, dt: dt, peer: src, tag: tag}, nil
}

func (c *Comm) persistentCheck(buf any, count int, dt Datatype) error {
	if count < 0 {
		return fmt.Errorf("%w: count %d", ErrCount, count)
	}
	if _, isArray := buf.(jvm.Array); isArray && c.mpi.flavor == OpenMPIJ {
		return fmt.Errorf("%w: Open MPI-J does not support Java arrays with request-based operations", ErrUnsupported)
	}
	return nil
}

// Start activates the operation. A request may not be started while a
// previous activation is still in flight.
func (p *PersistentRequest) Start() error {
	if p.freed {
		return fmt.Errorf("core: Start on a freed persistent request")
	}
	if p.active != nil && !p.active.waited {
		return fmt.Errorf("core: persistent request started while still active")
	}
	var req *Request
	var err error
	if p.isSend {
		req, err = p.c.Isend(p.buf, p.count, p.dt, p.peer, p.tag)
	} else {
		req, err = p.c.Irecv(p.buf, p.count, p.dt, p.peer, p.tag)
	}
	if err != nil {
		return err
	}
	p.active = req
	return nil
}

// Wait completes the current activation; the request can be Started
// again afterwards.
func (p *PersistentRequest) Wait() (Status, error) {
	if p.active == nil {
		return Status{}, fmt.Errorf("core: Wait on an inactive persistent request")
	}
	return p.active.Wait()
}

// Free releases the request (MPI_Request_free on an inactive
// persistent request).
func (p *PersistentRequest) Free() error {
	if p.active != nil && !p.active.waited {
		return fmt.Errorf("core: Free on an active persistent request")
	}
	p.freed = true
	return nil
}

// StartAll starts a set of persistent requests (MPI_Startall).
func StartAll(reqs []*PersistentRequest) error {
	for _, r := range reqs {
		if r == nil {
			continue
		}
		if err := r.Start(); err != nil {
			return err
		}
	}
	return nil
}

// WaitAllPersistent completes every started request.
func WaitAllPersistent(reqs []*PersistentRequest) error {
	var first error
	for _, r := range reqs {
		if r == nil {
			continue
		}
		if _, err := r.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
