package nativempi

import (
	"fmt"

	"mv2j/internal/vtime"
)

// Comm is one rank's view of a communicator: the member group (as
// world ranks), this rank's position in it, and the pair of context
// ids separating its point-to-point and collective traffic.
type Comm struct {
	p       *Proc
	group   []int
	myRank  int
	ptCtx   int32
	collCtx int32
	collSeq int           // rolling tag for collective operations
	ftSeq   int           // rolling agreement counter for recovery operations (ft.go)
	scr     *scratchArena // lazily created scratch arena (pool.go)

	// nodes, myNode and myNodeIdx memoize planNodeMembers (comm
	// membership is immutable).
	nodes             [][]int
	myNode, myNodeIdx int
}

// Rank returns the calling process's rank within the communicator.
func (c *Comm) Rank() int { return c.myRank }

// Size returns the communicator size.
func (c *Comm) Size() int { return len(c.group) }

// Proc returns the owning process.
func (c *Comm) Proc() *Proc { return c.p }

// Group returns a copy of the member list as world ranks, in
// communicator-rank order.
func (c *Comm) Group() []int {
	g := make([]int, len(c.group))
	copy(g, c.group)
	return g
}

// WorldRank translates a communicator rank to a world rank.
func (c *Comm) WorldRank(rank int) int {
	if rank < 0 || rank >= len(c.group) {
		panic(fmt.Sprintf("nativempi: comm rank %d out of range [0,%d)", rank, len(c.group)))
	}
	return c.group[rank]
}

// commRankOfWorld maps a world rank back into this communicator
// (linear scan; groups are small and this is off the hot path).
func (c *Comm) commRankOfWorld(world int) int {
	for i, w := range c.group {
		if w == world {
			return i
		}
	}
	return -1
}

func (c *Comm) checkRank(rank int) error {
	if rank < 0 || rank >= len(c.group) {
		return fmt.Errorf("%w: %d not in [0,%d)", ErrRank, rank, len(c.group))
	}
	return nil
}

func (c *Comm) checkSendTag(tag int) error {
	if tag < 0 {
		return fmt.Errorf("%w: send tag %d must be non-negative", ErrTag, tag)
	}
	return nil
}

// checkSendLeg validates a send's destination and tag.
func (c *Comm) checkSendLeg(dst, tag int) error {
	if err := c.checkRank(dst); err != nil {
		return err
	}
	return c.checkSendTag(tag)
}

// Request is a non-blocking operation handle (MPI_Request).
type Request struct {
	p          *Proc
	done       bool
	completeAt vtime.Time
	status     Status
	err        error

	// data is the receive's landing layout, or a rendezvous send's
	// source held until the CTS comes back.
	data Payload

	// receive state
	src           int // world rank or AnySource
	tag           int
	ctx           int32
	postedAt      vtime.Time
	extraRecvCost vtime.Duration
	rndvFrom      int
	rndvTag       int

	// rendezvous send state
	id  uint64
	dst int // world rank
	ep  int // injection endpoint fixed at issue time (-1 = rank's shared NIC)

	// comm, when set, translates the status source from world rank to
	// communicator rank.
	comm *Comm
	// waited records that a Wait consumed this request (used by
	// Waitsome to report each completion exactly once).
	waited bool
	// free marks a request on its rank's free list (putReq sets it,
	// getReq clears it), so a second release cannot list it twice.
	free bool
}

// sendOpts parameterise internal sends (collective traffic uses the
// collective context and pays the profile's per-message collective
// overhead).
type sendOpts struct {
	ctx  int32
	coll bool
}

// isendOn injects a message toward world rank wdst.
func (p *Proc) isendOn(pl Payload, wdst, tag int, o sendOpts) *Request {
	p.checkCrash()
	p.inflight++
	sendStart := p.clock.Now()
	ch := p.channel(wdst)
	soft := p.sendSoft(wdst)
	if o.coll {
		soft += p.w.prof.CollMsgOverhead
	}
	p.clock.Advance(soft + ch.SendOverhead)
	n := pl.size()
	p.stats.MsgsSent++
	p.stats.BytesSent += int64(n)

	if n <= p.eagerLimit(wdst) && p.fcEagerOK(wdst) {
		// Eager: the CPU copies the payload into a wire buffer; the
		// send completes locally as soon as the copy is injected.
		// Deliberately NO dead-peer or revocation check here: like an
		// MPI buffered send, an eager send to a dead rank completes
		// locally and the payload evaporates. Failing it would make
		// control flow depend on when this rank's knowledge arrived —
		// a host-scheduling race the buffered semantics avoid.
		// Under flow control the injection first waits for eager credit
		// toward wdst — the receiver-not-ready park (flowctl.go) that
		// bounds how far a flood can run ahead of the receiver.
		p.stats.EagerSends++
		p.fcWaitCredit(wdst)
		p.fcChargeSend(wdst)
		// The eager tier always ships a contiguous wire image, so a
		// strided payload pays the CPU pack cost per run boundary before
		// injection (zero for one run).
		p.clock.Advance(p.ddtPackCost(pl.runs()))
		// Under a MULTIPLE-level thread group the injection lands on the
		// calling thread's endpoint slot, so concurrent threads stop
		// serializing on one NIC cursor (see thread.go).
		nic := p.nicSlot(p.curEndpoint())
		start := vtime.Max(p.clock.Now(), *nic)
		*nic = start.Add(ch.SerializeTime(n))
		p.clock.AdvanceTo(*nic)
		data := getWire(n)
		pl.gatherInto(data)
		p.copyStats.count(n)
		pkt := getPacket()
		pkt.kind = pktEager
		pkt.src = p.rank
		pkt.dst = wdst
		pkt.tag = tag
		pkt.ctx = o.ctx
		pkt.data = Contig(data)
		pkt.ownsData = true
		pkt.nbytes = n
		pkt.sentAt = start
		pkt.arriveAt = start.Add(ch.TransferTime(n))
		err := p.post(wdst, pkt)
		p.recordSend(wdst, n, sendStart, p.clock.Now())
		req := p.getReq()
		req.done = true
		req.completeAt = p.clock.Now()
		req.status = Status{Source: wdst, Tag: tag, Bytes: n}
		req.err = err
		return req
	}

	// Rendezvous: advertise with an RTS; the payload moves (and the
	// request completes) when the CTS comes back. A rendezvous toward a
	// confirmed-dead peer or on a revoked context fails at entry: no
	// CTS is coming, and the failure time the pending request would
	// reach via the notice is the same deterministic instant.
	p.stats.RndvSends++
	if req, failed := p.entryCheckSend(wdst, tag, o.ctx); failed {
		return req
	}
	p.nextReq++
	req := p.getReq()
	req.id = p.nextReq
	req.data = pl
	req.dst = wdst
	req.ep = p.curEndpoint()
	req.tag = tag
	req.ctx = o.ctx
	req.postedAt = p.clock.Now()
	p.sendPending[req.id] = req
	rts := getPacket()
	rts.kind = pktRTS
	rts.src = p.rank
	rts.dst = wdst
	rts.tag = tag
	rts.ctx = o.ctx
	rts.nbytes = n
	// Protocol tier: an RTS above the RDMA threshold — or from a
	// buffer whose registration is still warm in the pin-down cache —
	// negotiates a remote placement instead of a DATA landing. The
	// covered peek is keyed on the payload's registration region, which
	// is what the cache pins.
	rts.rdma = p.rdmaRndv(n, pl.region())
	rts.reqID = req.id
	rts.sentAt = p.clock.Now()
	rts.arriveAt = p.clock.Now().Add(ch.Latency)
	if err := p.post(wdst, rts); err != nil {
		delete(p.sendPending, req.id)
		p.failReq(req, p.clock.Now(), err)
	}
	return req
}

// irecvOn posts a receive for (wsrc, tag) on a context. wsrc may be
// AnySource.
func (p *Proc) irecvOn(pl Payload, wsrc, tag int, o sendOpts) *Request {
	p.checkCrash()
	p.inflight++
	req := p.getReq()
	req.data = pl
	req.src = wsrc
	req.tag = tag
	req.ctx = o.ctx
	req.postedAt = p.clock.Now()
	if o.coll {
		req.extraRecvCost = p.w.prof.CollMsgOverhead
	}
	// Drain arrived traffic, then look for an already-queued match.
	// The mailbox's FIFO guarantee means a dead peer's pre-death sends
	// are always dispatched before its failure notice, so the
	// already-arrived match (if any) wins over the failure check below.
	p.poll()
	if pkt := p.unexp.take(req); pkt != nil {
		p.deliver(req, pkt)
		return req
	}
	if p.entryCheckRecv(req) {
		return req
	}
	p.posted.add(req)
	return req
}

// Isend starts a non-blocking standard-mode send of buf to dst.
// The buffer must not be modified until the request completes.
func (c *Comm) Isend(buf []byte, dst, tag int) (*Request, error) {
	return c.IsendPayload(Contig(buf), dst, tag)
}

// Irecv starts a non-blocking receive into buf from src (AnySource
// allowed) with tag (AnyTag allowed).
func (c *Comm) Irecv(buf []byte, src, tag int) (*Request, error) {
	return c.IrecvPayload(Contig(buf), src, tag)
}

// IsendPayload is Isend for any payload layout — the entry the
// bindings' staging uses.
func (c *Comm) IsendPayload(pl Payload, dst, tag int) (*Request, error) {
	if err := c.checkSendLeg(dst, tag); err != nil {
		return nil, err
	}
	c.p.gateEnter()
	req := c.p.isendOn(pl, c.group[dst], tag, sendOpts{ctx: c.ptCtx})
	req.comm = c
	c.p.gateLeave()
	return req, nil
}

// IrecvPayload is Irecv for any landing layout: a strided landing
// receives the payload scattered into its runs.
func (c *Comm) IrecvPayload(pl Payload, src, tag int) (*Request, error) {
	wsrc := AnySource
	if src != AnySource {
		if err := c.checkRank(src); err != nil {
			return nil, err
		}
		wsrc = c.group[src]
	}
	if tag < 0 && tag != AnyTag {
		return nil, fmt.Errorf("%w: recv tag %d", ErrTag, tag)
	}
	c.p.gateEnter()
	req := c.p.irecvOn(pl, wsrc, tag, sendOpts{ctx: c.ptCtx})
	req.comm = c
	c.p.gateLeave()
	return req, nil
}

// Send is the blocking standard-mode send.
func (c *Comm) Send(buf []byte, dst, tag int) error {
	req, err := c.Isend(buf, dst, tag)
	if err != nil {
		return err
	}
	_, err = req.Wait()
	req.Release()
	return err
}

// Recv is the blocking receive. It returns the completion status
// (with the source expressed as a communicator rank).
func (c *Comm) Recv(buf []byte, src, tag int) (Status, error) {
	req, err := c.Irecv(buf, src, tag)
	if err != nil {
		return Status{}, err
	}
	st, err := req.Wait()
	req.Release()
	return st, err
}

// Sendrecv runs a send and a receive concurrently — the classic
// exchange primitive that cannot deadlock where paired blocking calls
// would.
func (c *Comm) Sendrecv(sendBuf []byte, dst, sendTag int, recvBuf []byte, src, recvTag int) (Status, error) {
	return c.SendrecvPayload(Contig(sendBuf), dst, sendTag, Contig(recvBuf), src, recvTag)
}

// SendrecvPayload is Sendrecv for any pair of layouts. The send leg is
// validated before the receive is posted (IrecvPayload validates its
// own leg before posting): an error must not leave a receive behind
// that outlives the caller's landing buffer and swallows the peer's
// next message.
func (c *Comm) SendrecvPayload(send Payload, dst, sendTag int, recv Payload, src, recvTag int) (Status, error) {
	if err := c.checkSendLeg(dst, sendTag); err != nil {
		return Status{}, err
	}
	rreq, err := c.IrecvPayload(recv, src, recvTag)
	if err != nil {
		return Status{}, err
	}
	sreq, err := c.IsendPayload(send, dst, sendTag)
	if err != nil {
		return Status{}, err
	}
	_, err = sreq.Wait()
	sreq.Release()
	if err != nil {
		return Status{}, err // rreq stays unconsumed and is not released
	}
	st, err := rreq.Wait()
	rreq.Release()
	return st, err
}

// Probe blocks until a message matching (src, tag) is available and
// returns its status without receiving it.
func (c *Comm) Probe(src, tag int) (Status, error) {
	c.p.gateEnter()
	defer c.p.gateLeave()
	for {
		st, ok, err := c.Iprobe(src, tag)
		if err != nil || ok {
			return st, err
		}
		c.p.progressOnce()
	}
}

// Iprobe polls for a matching message.
func (c *Comm) Iprobe(src, tag int) (Status, bool, error) {
	wsrc := AnySource
	if src != AnySource {
		if err := c.checkRank(src); err != nil {
			return Status{}, false, err
		}
		wsrc = c.group[src]
	}
	c.p.gateEnter()
	defer c.p.gateLeave()
	c.p.poll()
	probe := &Request{src: wsrc, tag: tag, ctx: c.ptCtx}
	if pkt := c.p.unexp.peek(probe); pkt != nil {
		n := pkt.data.size()
		if pkt.kind == pktRTS {
			n = pkt.nbytes
		}
		src := c.commRankOfWorld(pkt.src)
		return Status{Source: src, Tag: pkt.tag, Bytes: n}, true, nil
	}
	c.p.engYield() // probe spins must cooperate with the phase engine
	return Status{}, false, nil
}

// Wait blocks until the request completes, advances the rank's clock
// to the completion time, and returns the status. Waiting on an
// already-waited request returns the recorded result (like
// MPI_REQUEST_NULL being a no-op).
func (r *Request) Wait() (Status, error) {
	if r == nil {
		return Status{}, ErrRequest
	}
	p := r.p
	p.gateEnter()
	p.poll()
	for !r.done {
		p.progressOnce()
	}
	p.clock.AdvanceTo(r.completeAt)
	r.consume()
	p.gateLeave()
	return r.commStatus(), r.err
}

// consume marks the request as handed back to the program, balancing
// the inflight count taken at issue time. The count is pure program
// order — issue and consumption both happen on the rank's own call
// path — which is what lets checkCrash use it as a quiescence gate
// without depending on host-scheduling-sensitive engine state.
func (r *Request) consume() {
	if !r.waited {
		r.waited = true
		r.p.inflight--
	}
}

// Release hands a consumed request back to its rank's free list, the
// analogue of MPI_Request_free on a completed request. It does
// nothing unless the request is done and a Wait or a successful Test
// has consumed it, and a second Release is a no-op. The caller must be
// the request's last holder: after Release the struct belongs to the
// next operation the rank issues, so every read of its status must
// come first.
func (r *Request) Release() {
	if r != nil && r.done && r.waited {
		r.p.putReq(r)
	}
}

// Test polls for completion without blocking. A successful Test
// consumes the request, exactly as MPI_Test frees it on completion.
func (r *Request) Test() (Status, bool, error) {
	if r == nil {
		return Status{}, false, ErrRequest
	}
	r.p.gateEnter()
	defer r.p.gateLeave()
	r.p.poll()
	if !r.done {
		// A pure Test spin never blocks, so under the phase-stepped
		// engine it must yield or its peers' packets would never flush.
		r.p.engYield()
		return Status{}, false, nil
	}
	r.p.clock.AdvanceTo(r.completeAt)
	r.consume()
	return r.commStatus(), true, r.err
}

// Done reports whether the request has completed (without progressing
// the engine).
func (r *Request) Done() bool { return r.done }

// commStatus returns the status with the source translated from the
// internal world rank to the caller's communicator rank.
func (r *Request) commStatus() Status {
	st := r.status
	if r.comm != nil && st.Source >= 0 {
		if cr := r.comm.commRankOfWorld(st.Source); cr >= 0 {
			st.Source = cr
		}
	}
	return st
}

// Waitall completes every request, returning the first error.
func Waitall(reqs []*Request) error {
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
