package nativempi

import (
	"fmt"

	"mv2j/internal/jvm"
)

// Non-blocking collectives (MPI 3.0's MPI_Ibcast and friends), built
// the way libnbc-style implementations build them: the operation is
// compiled into a SCHEDULE — rounds of point-to-point posts and local
// reductions — and the schedule advances only inside Test/Wait calls.
// That is software progress: a rank that computes between posting the
// collective and waiting on it delays its part of the tree, exactly as
// real progress-threadless MPI libraries do.

// nbOpKind enumerates schedule operations.
type nbOpKind uint8

const (
	nbSend nbOpKind = iota
	nbRecv
	nbCopy   // dst <- src (local)
	nbReduce // dst <- op(dst, src) (local)
)

// nbOp is one operation in a schedule round.
type nbOp struct {
	kind nbOpKind
	buf  []byte // send source or recv destination
	peer int    // comm rank for send/recv
	// local ops
	dst, src []byte
	rkind    jvm.Kind
	rop      Op
}

// nbRound is a set of operations that may be in flight together; a
// round completes when all of its posted requests complete, then its
// local ops run, then the next round is posted.
type nbRound struct {
	ops []nbOp
}

// CollRequest is the handle for a non-blocking collective.
type CollRequest struct {
	c       *Comm
	tag     int
	rounds  []nbRound
	cur     int
	pending []*Request
	started bool
	done    bool
	err     error
	scratch [][]byte // arena buffers on loan until the schedule completes
}

// releaseScratch hands the schedule's working buffers back to the
// arena once the last round has run (the rounds reference them).
func (r *CollRequest) releaseScratch() {
	for i, b := range r.scratch {
		r.c.returnScratch(b)
		r.scratch[i] = nil
	}
	r.scratch = r.scratch[:0]
}

// postRound posts the point-to-point operations of round i.
func (r *CollRequest) postRound(i int) {
	round := &r.rounds[i]
	r.pending = r.pending[:0]
	for _, op := range round.ops {
		switch op.kind {
		case nbSend:
			r.pending = append(r.pending,
				r.c.p.isendOn(Contig(op.buf), r.c.group[op.peer], r.tag, sendOpts{ctx: r.c.collCtx, coll: true}))
		case nbRecv:
			r.pending = append(r.pending,
				r.c.p.irecvOn(Contig(op.buf), r.c.group[op.peer], r.tag, sendOpts{ctx: r.c.collCtx, coll: true}))
		}
	}
}

// runLocals executes the round's local copies and reductions after its
// communication completes.
func (r *CollRequest) runLocals(i int) error {
	for _, op := range r.rounds[i].ops {
		switch op.kind {
		case nbCopy:
			copy(op.dst, op.src)
			r.c.chargeCompute(len(op.dst))
		case nbReduce:
			if err := reduceInto(op.dst, op.src, op.rkind, op.rop); err != nil {
				return err
			}
			r.c.chargeCompute(len(op.dst))
		}
	}
	return nil
}

// start posts the first round.
func (r *CollRequest) start() {
	if r.started {
		return
	}
	r.started = true
	if len(r.rounds) == 0 {
		r.done = true
		r.releaseScratch()
		return
	}
	r.postRound(0)
}

// Test advances the schedule without blocking and reports completion.
func (r *CollRequest) Test() (bool, error) {
	if r == nil {
		return false, ErrRequest
	}
	if r.done {
		return true, r.err
	}
	r.c.p.gateEnter()
	defer r.c.p.gateLeave()
	r.start()
	for !r.done {
		r.c.p.poll()
		allDone := true
		for _, req := range r.pending {
			if !req.done {
				allDone = false
				break
			}
		}
		if !allDone {
			// Schedule stalled on in-flight communication: a caller
			// spinning on Test must yield to the phase engine so peer
			// emissions flush and the rounds can advance.
			r.c.p.engYield()
			return false, nil
		}
		// Round communication finished: absorb completion times, run
		// locals, move on. Absorption consumes the round's requests —
		// they are never handed to the caller, so they recycle here.
		for i, req := range r.pending {
			r.c.p.clock.AdvanceTo(req.completeAt)
			req.consume()
			if req.err != nil && r.err == nil {
				r.err = req.err
			}
			r.c.p.putReq(req)
			r.pending[i] = nil
		}
		if err := r.runLocals(r.cur); err != nil && r.err == nil {
			r.err = err
		}
		r.cur++
		if r.cur >= len(r.rounds) {
			r.done = true
			r.releaseScratch()
			return true, r.err
		}
		r.postRound(r.cur)
	}
	return true, r.err
}

// Wait blocks (progressing the engine) until the collective completes.
func (r *CollRequest) Wait() error {
	if r == nil {
		return ErrRequest
	}
	r.c.p.gateEnter()
	defer r.c.p.gateLeave()
	for {
		done, err := r.Test()
		if done {
			return err
		}
		r.c.p.progressOnce()
	}
}

// Done reports completion without progressing.
func (r *CollRequest) Done() bool { return r != nil && r.done }

// --- schedule builders ---

// Ibcast starts a non-blocking binomial-tree broadcast.
func (c *Comm) Ibcast(buf []byte, root int) (*CollRequest, error) {
	if err := c.checkRank(root); err != nil {
		return nil, err
	}
	c.p.gateEnter()
	defer c.p.gateLeave()
	p := c.Size()
	r := &CollRequest{c: c, tag: c.collTag()}
	if p == 1 {
		r.start()
		return r, nil
	}
	v := (c.myRank - root + p) % p

	mask := 1
	for mask < p && v%(mask*2) == 0 {
		mask *= 2
	}
	if v != 0 {
		parent := ((v - v%(mask*2)) + root) % p
		r.rounds = append(r.rounds, nbRound{ops: []nbOp{{kind: nbRecv, buf: buf, peer: parent}}})
	}
	var sends []nbOp
	for m := mask / 2; m >= 1; m /= 2 {
		if child := v + m; child < p {
			sends = append(sends, nbOp{kind: nbSend, buf: buf, peer: (child + root) % p})
		}
	}
	if len(sends) > 0 {
		r.rounds = append(r.rounds, nbRound{ops: sends})
	}
	r.start()
	return r, nil
}

// Ibarrier starts a non-blocking dissemination barrier.
func (c *Comm) Ibarrier() (*CollRequest, error) {
	c.p.gateEnter()
	defer c.p.gateLeave()
	p := c.Size()
	r := &CollRequest{c: c, tag: c.collTag()}
	token := []byte{}
	for mask := 1; mask < p; mask <<= 1 {
		dst := (c.myRank + mask) % p
		src := (c.myRank - mask + p) % p
		r.rounds = append(r.rounds, nbRound{ops: []nbOp{
			{kind: nbSend, buf: token, peer: dst},
			{kind: nbRecv, buf: token, peer: src},
		}})
	}
	r.start()
	return r, nil
}

// Iallreduce starts a non-blocking recursive-doubling allreduce.
// sendBuf is read at post time (copied into recvBuf immediately);
// recvBuf must stay untouched until completion.
func (c *Comm) Iallreduce(sendBuf, recvBuf []byte, kind jvm.Kind, op Op) (*CollRequest, error) {
	n := len(sendBuf)
	if len(recvBuf) != n {
		return nil, fmt.Errorf("%w: iallreduce recv buffer %d != send %d", ErrCount, len(recvBuf), n)
	}
	c.p.gateEnter()
	defer c.p.gateLeave()
	p := c.Size()
	r := &CollRequest{c: c, tag: c.collTag()}
	copy(recvBuf, sendBuf)
	if p == 1 {
		r.start()
		return r, nil
	}

	pof2 := 1
	for pof2*2 <= p {
		pof2 *= 2
	}
	rem := p - pof2
	// Scratch areas: one per exchange round, so rounds do not alias.
	steps := 0
	for mask := 1; mask < pof2; mask <<= 1 {
		steps++
	}
	scratch := make([][]byte, steps+1)
	for i := range scratch {
		scratch[i] = c.borrowScratch(n)
	}
	r.scratch = append(r.scratch, scratch...)

	v := -1
	switch {
	case c.myRank < 2*rem && c.myRank%2 != 0:
		r.rounds = append(r.rounds, nbRound{ops: []nbOp{{kind: nbSend, buf: recvBuf, peer: c.myRank - 1}}})
	case c.myRank < 2*rem:
		r.rounds = append(r.rounds, nbRound{ops: []nbOp{
			{kind: nbRecv, buf: scratch[steps], peer: c.myRank + 1},
			{kind: nbReduce, dst: recvBuf, src: scratch[steps], rkind: kind, rop: op},
		}})
		v = c.myRank / 2
	default:
		v = c.myRank - rem
	}

	if v >= 0 {
		toReal := func(vr int) int {
			if vr < rem {
				return vr * 2
			}
			return vr + rem
		}
		i := 0
		for mask := 1; mask < pof2; mask <<= 1 {
			partner := toReal(v ^ mask)
			r.rounds = append(r.rounds, nbRound{ops: []nbOp{
				{kind: nbSend, buf: recvBuf, peer: partner},
				{kind: nbRecv, buf: scratch[i], peer: partner},
				{kind: nbReduce, dst: recvBuf, src: scratch[i], rkind: kind, rop: op},
			}})
			i++
		}
	}

	if c.myRank < 2*rem {
		if c.myRank%2 == 0 {
			r.rounds = append(r.rounds, nbRound{ops: []nbOp{{kind: nbSend, buf: recvBuf, peer: c.myRank + 1}}})
		} else {
			r.rounds = append(r.rounds, nbRound{ops: []nbOp{{kind: nbRecv, buf: recvBuf, peer: c.myRank - 1}}})
		}
	}
	r.start()
	return r, nil
}

// Iallgather starts a non-blocking ring allgather.
func (c *Comm) Iallgather(sendBuf, recvBuf []byte) (*CollRequest, error) {
	p := c.Size()
	n := len(sendBuf)
	if len(recvBuf) != n*p {
		return nil, fmt.Errorf("%w: iallgather recv buffer %d != %d", ErrCount, len(recvBuf), n*p)
	}
	c.p.gateEnter()
	defer c.p.gateLeave()
	r := &CollRequest{c: c, tag: c.collTag()}
	me := c.myRank
	copy(recvBuf[me*n:(me+1)*n], sendBuf)
	right := (me + 1) % p
	left := (me - 1 + p) % p
	for s := 0; s < p-1; s++ {
		sendBlk := (me - s + p) % p
		recvBlk := (me - s - 1 + p) % p
		r.rounds = append(r.rounds, nbRound{ops: []nbOp{
			{kind: nbSend, buf: recvBuf[sendBlk*n : (sendBlk+1)*n], peer: right},
			{kind: nbRecv, buf: recvBuf[recvBlk*n : (recvBlk+1)*n], peer: left},
		}})
	}
	r.start()
	return r, nil
}

// Ireduce starts a non-blocking binomial reduce toward root.
func (c *Comm) Ireduce(sendBuf, recvBuf []byte, kind jvm.Kind, op Op, root int) (*CollRequest, error) {
	if err := c.checkRank(root); err != nil {
		return nil, err
	}
	n := len(sendBuf)
	if c.myRank == root && len(recvBuf) != n {
		return nil, fmt.Errorf("%w: ireduce recv buffer %d != send %d", ErrCount, len(recvBuf), n)
	}
	c.p.gateEnter()
	defer c.p.gateLeave()
	p := c.Size()
	r := &CollRequest{c: c, tag: c.collTag()}
	v := (c.myRank - root + p) % p

	acc := c.borrowScratch(n)
	r.scratch = append(r.scratch, acc)
	copy(acc, sendBuf)
	for mask := 1; mask < p; mask <<= 1 {
		if v&mask != 0 {
			parent := ((v ^ mask) + root) % p
			r.rounds = append(r.rounds, nbRound{ops: []nbOp{{kind: nbSend, buf: acc, peer: parent}}})
			break
		}
		if partner := v + mask; partner < p {
			scratch := c.borrowScratch(n)
			r.scratch = append(r.scratch, scratch)
			r.rounds = append(r.rounds, nbRound{ops: []nbOp{
				{kind: nbRecv, buf: scratch, peer: (partner + root) % p},
				{kind: nbReduce, dst: acc, src: scratch, rkind: kind, rop: op},
			}})
		}
	}
	if v == 0 {
		r.rounds = append(r.rounds, nbRound{ops: []nbOp{{kind: nbCopy, dst: recvBuf, src: acc}}})
	}
	r.start()
	return r, nil
}
