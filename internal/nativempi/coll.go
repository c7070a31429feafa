package nativempi

import (
	"fmt"
	"mv2j/internal/jvm"

	"mv2j/internal/vtime"
)

// Collective implementations. Every algorithm is built from the same
// point-to-point engine on the communicator's collective context, so
// virtual time propagates through the real message dependency graph —
// the latency of a bcast IS the critical path of its tree.
//
// One rolling tag per collective invocation separates successive
// collectives; within one invocation, per-(src,dst) FIFO ordering makes
// multi-step exchanges unambiguous.

func (c *Comm) collTag() int {
	c.collSeq++
	return c.collSeq
}

// waitRelease waits an internally issued request and recycles it.
// Requests created inside a collective never escape it, so once Wait
// observes completion (or failure — failReq also marks done and
// unlinks) the engine holds no reference and the struct can be reused.
func (c *Comm) waitRelease(req *Request) error {
	_, err := req.Wait()
	c.p.putReq(req)
	return err
}

// csend/crecv are blocking sends/receives on the collective context.
func (c *Comm) csend(buf []byte, dst, tag int) error {
	return c.waitRelease(c.p.isendOn(Contig(buf), c.group[dst], tag, sendOpts{ctx: c.collCtx, coll: true}))
}

func (c *Comm) crecv(buf []byte, src, tag int) error {
	return c.waitRelease(c.p.irecvOn(Contig(buf), c.group[src], tag, sendOpts{ctx: c.collCtx, coll: true}))
}

func (c *Comm) cisend(buf []byte, dst, tag int) *Request {
	return c.p.isendOn(Contig(buf), c.group[dst], tag, sendOpts{ctx: c.collCtx, coll: true})
}

func (c *Comm) cirecv(buf []byte, src, tag int) *Request {
	return c.p.irecvOn(Contig(buf), c.group[src], tag, sendOpts{ctx: c.collCtx, coll: true})
}

func (c *Comm) csendrecv(sendBuf []byte, dst int, recvBuf []byte, src, tag int) error {
	rreq := c.cirecv(recvBuf, src, tag)
	sreq := c.cisend(sendBuf, dst, tag)
	if err := c.waitRelease(sreq); err != nil {
		return err // rreq may still be pending: it stays with the engine
	}
	return c.waitRelease(rreq)
}

// chargeCompute charges local reduction/copy work of n bytes.
func (c *Comm) chargeCompute(n int) {
	c.p.clock.Advance(vtime.PerByte(n, c.p.w.prof.ReduceBandwidth))
}

// Bcast broadcasts root's buf to every rank (in place), using the
// profile-selected algorithm.
func (c *Comm) Bcast(buf []byte, root int) error {
	if err := c.checkRank(root); err != nil {
		return err
	}
	defer c.collSpan("bcast", len(buf))()
	p := c.Size()
	if p == 1 {
		return nil
	}
	tag := c.collTag()
	switch r := c.p.w.prof.Bcast.Pick(len(buf), p); r.Alg {
	case BcastKnomial:
		return c.bcastKnomial(buf, nil, c.myRank, root, tag, r.Radix)
	case BcastScatterAllgather:
		return c.bcastScatterAllgather(buf, root, tag)
	case BcastBinaryTree:
		return c.bcastBinaryTree(buf, root, tag)
	case BcastFlat:
		return c.bcastFlat(buf, root, tag)
	case BcastShmAware:
		return c.bcastShmAware(buf, root, tag, r.Radix)
	case BcastMultiLeader:
		return c.bcastMultiLeader(buf, root, tag, r.Radix)
	default:
		return c.errNoAlg("bcast", r.Alg, len(buf))
	}
}

// errNoAlg reports a collective whose profile picked no algorithm it
// implements — a profile Validate would have rejected.
func (c *Comm) errNoAlg(coll string, alg fmt.Stringer, nbytes int) error {
	return fmt.Errorf("nativempi: profile %q picks no %s algorithm for %d bytes on %d ranks (got %v)",
		c.p.w.prof.Name, coll, nbytes, c.Size(), alg)
}

// Tree algorithms run over a member list: members[i] is the comm rank
// of member i, and my is the caller's index in the list. A nil list is
// the whole communicator in rank order (member i is comm rank i), so
// the whole-comm callers pass c.myRank and neither allocate nor search.
// Only members call.

// memberCount returns the length of a member list.
func (c *Comm) memberCount(members []int) int {
	if members == nil {
		return c.Size()
	}
	return len(members)
}

// memberRank returns the comm rank of member i.
func memberRank(members []int, i int) int {
	if members == nil {
		return i
	}
	return members[i]
}

// bcastKnomial runs a k-ary tree broadcast over members rooted at
// member rootIdx; k=2 is the classic binomial tree.
func (c *Comm) bcastKnomial(buf []byte, members []int, my, rootIdx, tag, k int) error {
	m := c.memberCount(members)
	v := (my - rootIdx + m) % m // virtual index: root becomes 0

	// Receive phase: find the level of my lowest non-zero base-k digit.
	mask := 1
	for mask < m && v%(mask*k) == 0 {
		mask *= k
	}
	if v != 0 {
		parent := memberRank(members, ((v-v%(mask*k))+rootIdx)%m)
		if err := c.crecv(buf, parent, tag); err != nil {
			return err
		}
	}
	// Send phase: serve subtrees below my level, widest first.
	for level := mask / k; level >= 1; level /= k {
		for j := 1; j < k; j++ {
			child := v + j*level
			if child < m {
				if err := c.csend(buf, memberRank(members, (child+rootIdx)%m), tag); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// bcastBinaryTree forwards the full payload down a non-segmented
// binary tree — the cheap-to-implement algorithm whose n·log(p) bytes
// per path hurt at large sizes.
func (c *Comm) bcastBinaryTree(buf []byte, root, tag int) error {
	p := c.Size()
	v := (c.myRank - root + p) % p
	if v != 0 {
		parent := ((v-1)/2 + root) % p
		if err := c.crecv(buf, parent, tag); err != nil {
			return err
		}
	}
	for _, child := range []int{2*v + 1, 2*v + 2} {
		if child < p {
			if err := c.csend(buf, (child+root)%p, tag); err != nil {
				return err
			}
		}
	}
	return nil
}

// bcastFlat has the root send to every other rank in turn.
func (c *Comm) bcastFlat(buf []byte, root, tag int) error {
	if c.myRank != root {
		return c.crecv(buf, root, tag)
	}
	for r := 0; r < c.Size(); r++ {
		if r == root {
			continue
		}
		if err := c.csend(buf, r, tag); err != nil {
			return err
		}
	}
	return nil
}

// chunkRange returns the byte range of chunk i when n bytes are split
// into p near-equal chunks.
func chunkRange(n, p, i int) (lo, hi int) {
	lo = i * n / p
	hi = (i + 1) * n / p
	return
}

// bcastScatterAllgather is the van de Geijn large-message broadcast:
// a binomial scatter of chunks followed by a ring allgather, moving
// ~2n bytes per rank instead of n per tree level.
func (c *Comm) bcastScatterAllgather(buf []byte, root, tag int) error {
	p := c.Size()
	n := len(buf)
	v := (c.myRank - root + p) % p
	ringTag := c.collTag()

	// Binomial scatter over virtual ranks: the owner of range [lo,hi)
	// (vrank lo) holds the bytes of chunks lo..hi-1 and hands the top
	// half to vrank mid at each level.
	lo, hi := 0, p
	for hi-lo > 1 {
		mid := (lo + hi + 1) / 2
		bLo, _ := chunkRange(n, p, mid)
		_, bHi := chunkRange(n, p, hi-1)
		if v < mid {
			if v == lo && bHi > bLo {
				if err := c.csend(buf[bLo:bHi], (mid+root)%p, tag); err != nil {
					return err
				}
			}
			hi = mid
		} else {
			if v == mid && bHi > bLo {
				if err := c.crecv(buf[bLo:bHi], (lo+root)%p, tag); err != nil {
					return err
				}
			}
			lo = mid
		}
	}

	// Ring allgather of the chunks.
	right := ((v+1)%p + root) % p
	left := ((v-1+p)%p + root) % p
	for s := 0; s < p-1; s++ {
		sendChunk := (v - s + p) % p
		recvChunk := (v - s - 1 + p) % p
		sLo, sHi := chunkRange(n, p, sendChunk)
		rLo, rHi := chunkRange(n, p, recvChunk)
		if err := c.csendrecv(buf[sLo:sHi], right, buf[rLo:rHi], left, ringTag); err != nil {
			return err
		}
	}
	return nil
}

// Reduce combines every rank's sendBuf with op into recvBuf at root
// over a binomial tree. recvBuf may be nil on non-root ranks.
func (c *Comm) Reduce(sendBuf, recvBuf []byte, kind jvm.Kind, op Op, root int) error {
	if err := c.checkRank(root); err != nil {
		return err
	}
	defer c.collSpan("reduce", len(sendBuf))()
	n := len(sendBuf)
	if c.myRank == root && len(recvBuf) != n {
		return fmt.Errorf("%w: reduce recv buffer %d != send %d", ErrCount, len(recvBuf), n)
	}
	tag := c.collTag()
	acc := c.borrowScratch(n)
	defer c.returnScratch(acc)
	copy(acc, sendBuf)
	if err := c.reduceBinomial(acc, nil, c.myRank, root, tag, kind, op); err != nil {
		return err
	}
	if c.myRank == root {
		copy(recvBuf, acc)
	}
	return nil
}

// reduceBinomial reduces the members' acc vectors onto member rootIdx
// over a binomial tree; on return the root's acc holds the combined
// value.
func (c *Comm) reduceBinomial(acc []byte, members []int, my, rootIdx, tag int, kind jvm.Kind, op Op) error {
	m := c.memberCount(members)
	if m <= 1 {
		return nil
	}
	v := (my - rootIdx + m) % m
	scratch := c.borrowScratch(len(acc))
	defer c.returnScratch(scratch)
	for mask := 1; mask < m; mask <<= 1 {
		if v&mask != 0 {
			parent := memberRank(members, ((v^mask)+rootIdx)%m)
			return c.csend(acc, parent, tag)
		}
		partner := v + mask
		if partner < m {
			if err := c.crecv(scratch, memberRank(members, (partner+rootIdx)%m), tag); err != nil {
				return err
			}
			if err := reduceInto(acc, scratch, kind, op); err != nil {
				return err
			}
			c.chargeCompute(len(acc))
		}
	}
	return nil
}

// Allreduce combines every rank's sendBuf into every rank's recvBuf.
func (c *Comm) Allreduce(sendBuf, recvBuf []byte, kind jvm.Kind, op Op) error {
	defer c.collSpan("allreduce", len(sendBuf))()
	n := len(sendBuf)
	if len(recvBuf) != n {
		return fmt.Errorf("%w: allreduce recv buffer %d != send %d", ErrCount, len(recvBuf), n)
	}
	if c.Size() == 1 {
		copy(recvBuf, sendBuf)
		return nil
	}
	switch r := c.p.w.prof.Allreduce.Pick(n, c.Size()); r.Alg {
	case AllreduceRecursiveDoubling:
		tag := c.collTag()
		copy(recvBuf, sendBuf)
		return c.allreduceRecursiveDoubling(recvBuf, nil, c.myRank, tag, kind, op)
	case AllreduceRabenseifner:
		return c.allreduceRing(sendBuf, recvBuf, kind, op)
	case AllreduceReduceBcast:
		if err := c.Reduce(sendBuf, recvBuf, kind, op, 0); err != nil {
			return err
		}
		return c.Bcast(recvBuf, 0)
	case AllreduceShmAware:
		return c.allreduceMultiLeader(sendBuf, recvBuf, kind, op, r.Radix, 1)
	case AllreduceMultiLeader:
		return c.allreduceMultiLeader(sendBuf, recvBuf, kind, op, r.Radix, sectionsPerNode)
	default:
		return c.errNoAlg("allreduce", r.Alg, n)
	}
}

// allreduceRecursiveDoubling exchanges-and-combines over log2 steps
// among the members, with the standard fold-in/fold-out handling for
// non-power-of-two counts; every member ends with the combined vector
// in acc.
func (c *Comm) allreduceRecursiveDoubling(acc []byte, members []int, my, tag int, kind jvm.Kind, op Op) error {
	m := c.memberCount(members)
	if m <= 1 {
		return nil
	}
	scratch := c.borrowScratch(len(acc))
	defer c.returnScratch(scratch)

	pof2 := 1
	for pof2*2 <= m {
		pof2 *= 2
	}
	rem := m - pof2

	// Fold-in: the first 2*rem members pair up; odd ones hand their
	// vector to the even partner and sit out.
	v := -1 // index within the power-of-two group, -1 if sitting out
	switch {
	case my < 2*rem && my%2 != 0:
		if err := c.csend(acc, memberRank(members, my-1), tag); err != nil {
			return err
		}
	case my < 2*rem:
		if err := c.crecv(scratch, memberRank(members, my+1), tag); err != nil {
			return err
		}
		if err := reduceInto(acc, scratch, kind, op); err != nil {
			return err
		}
		c.chargeCompute(len(acc))
		v = my / 2
	default:
		v = my - rem
	}

	if v >= 0 {
		toReal := func(vr int) int {
			if vr < rem {
				return vr * 2
			}
			return vr + rem
		}
		for mask := 1; mask < pof2; mask <<= 1 {
			partner := memberRank(members, toReal(v^mask))
			if err := c.csendrecv(acc, partner, scratch, partner, tag); err != nil {
				return err
			}
			if err := reduceInto(acc, scratch, kind, op); err != nil {
				return err
			}
			c.chargeCompute(len(acc))
		}
	}

	// Fold-out: even partners return the result to the odd members.
	if my < 2*rem {
		if my%2 == 0 {
			return c.csend(acc, memberRank(members, my+1), tag)
		}
		return c.crecv(acc, memberRank(members, my-1), tag)
	}
	return nil
}

// allreduceRing is the bandwidth-optimal large-message algorithm:
// a ring reduce-scatter followed by a ring allgather (the composition
// Rabenseifner's algorithm reduces to on a ring), moving ~2n bytes per
// rank regardless of p.
func (c *Comm) allreduceRing(sendBuf, recvBuf []byte, kind jvm.Kind, op Op) error {
	p := c.Size()
	n := len(sendBuf)
	// Element-aligned chunking so reductions see whole elements.
	esz := kind.Size()
	if n%esz != 0 {
		return fmt.Errorf("%w: %d bytes not a multiple of %v", ErrCount, n, kind)
	}
	tagRS := c.collTag()
	tagAG := c.collTag()
	copy(recvBuf, sendBuf)
	elems := n / esz
	chunk := func(i int) (int, int) {
		lo := i * elems / p * esz
		hi := (i + 1) * elems / p * esz
		return lo, hi
	}
	right := (c.myRank + 1) % p
	left := (c.myRank - 1 + p) % p
	scratch := c.borrowScratch(n)
	defer c.returnScratch(scratch)

	// Reduce-scatter: after p-1 steps, rank r owns the fully reduced
	// chunk (r+1)%p.
	for s := 0; s < p-1; s++ {
		sendChunk := (c.myRank - s + p) % p
		recvChunk := (c.myRank - s - 1 + p) % p
		sLo, sHi := chunk(sendChunk)
		rLo, rHi := chunk(recvChunk)
		if err := c.csendrecv(recvBuf[sLo:sHi], right, scratch[rLo:rHi], left, tagRS); err != nil {
			return err
		}
		if err := reduceInto(recvBuf[rLo:rHi], scratch[rLo:rHi], kind, op); err != nil {
			return err
		}
		c.chargeCompute(rHi - rLo)
	}

	// Allgather the reduced chunks around the ring.
	for s := 0; s < p-1; s++ {
		sendChunk := (c.myRank + 1 - s + p) % p
		recvChunk := (c.myRank - s + p) % p
		sLo, sHi := chunk(sendChunk)
		rLo, rHi := chunk(recvChunk)
		if err := c.csendrecv(recvBuf[sLo:sHi], right, recvBuf[rLo:rHi], left, tagAG); err != nil {
			return err
		}
	}
	return nil
}
