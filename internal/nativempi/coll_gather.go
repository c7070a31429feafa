package nativempi

import "fmt"

// Gather collects every rank's n-byte sendBuf into recvBuf at root
// (size·n bytes, rank-ordered). recvBuf may be nil elsewhere.
func (c *Comm) Gather(sendBuf, recvBuf []byte, root int) error {
	if err := c.checkRank(root); err != nil {
		return err
	}
	defer c.collSpan("gather", len(sendBuf))()
	p := c.Size()
	n := len(sendBuf)
	if c.myRank == root && len(recvBuf) != n*p {
		return fmt.Errorf("%w: gather recv buffer %d != %d", ErrCount, len(recvBuf), n*p)
	}
	tag := c.collTag()
	switch alg := c.p.w.prof.Gather; alg {
	case GatherBinomial:
		return c.gatherBinomial(sendBuf, recvBuf, root, tag)
	case GatherLinear:
		return c.gatherLinear(sendBuf, recvBuf, root, tag)
	default:
		return c.errNoAlg("gather", alg, n)
	}
}

func (c *Comm) gatherLinear(sendBuf, recvBuf []byte, root, tag int) error {
	if c.myRank != root {
		return c.csend(sendBuf, root, tag)
	}
	n := len(sendBuf)
	copy(recvBuf[root*n:(root+1)*n], sendBuf)
	for r := 0; r < c.Size(); r++ {
		if r == root {
			continue
		}
		if err := c.crecv(recvBuf[r*n:(r+1)*n], r, tag); err != nil {
			return err
		}
	}
	return nil
}

// gatherBinomial funnels blocks up a binomial tree: at each level a
// rank holds the contiguous blocks of its (virtual-rank-ordered)
// subtree. The root un-rotates block positions at the end.
func (c *Comm) gatherBinomial(sendBuf, recvBuf []byte, root, tag int) error {
	p := c.Size()
	n := len(sendBuf)
	v := (c.myRank - root + p) % p

	// acc holds blocks for vranks [v, v+cnt); subtree blocks are
	// received straight into the tail of the borrowed buffer.
	accBuf := c.borrowScratch(n * p)
	defer c.returnScratch(accBuf)
	acc := accBuf[:0]
	acc = append(acc, sendBuf...)
	cnt := 1
	for mask := 1; mask < p; mask <<= 1 {
		if v&mask != 0 {
			parent := ((v ^ mask) + root) % p
			return c.csend(acc, parent, tag)
		}
		partner := v + mask
		if partner < p {
			sub := mask
			if p-partner < sub {
				sub = p - partner
			}
			chunk := acc[len(acc) : len(acc)+sub*n]
			if err := c.crecv(chunk, (partner+root)%p, tag); err != nil {
				return err
			}
			acc = acc[:len(acc)+sub*n]
			cnt += sub
		}
	}
	// Root: acc is vrank-ordered; rotate back to true rank order.
	for vr := 0; vr < p; vr++ {
		r := (vr + root) % p
		copy(recvBuf[r*n:(r+1)*n], acc[vr*n:(vr+1)*n])
	}
	c.chargeCompute(n * p)
	return nil
}

// Scatter distributes root's rank-ordered sendBuf (size·n bytes) into
// every rank's n-byte recvBuf.
func (c *Comm) Scatter(sendBuf, recvBuf []byte, root int) error {
	if err := c.checkRank(root); err != nil {
		return err
	}
	defer c.collSpan("scatter", len(recvBuf))()
	p := c.Size()
	n := len(recvBuf)
	if c.myRank == root && len(sendBuf) != n*p {
		return fmt.Errorf("%w: scatter send buffer %d != %d", ErrCount, len(sendBuf), n*p)
	}
	tag := c.collTag()
	switch alg := c.p.w.prof.Scatter; alg {
	case ScatterBinomial:
		return c.scatterBinomial(sendBuf, recvBuf, root, tag)
	case ScatterLinear:
		return c.scatterLinear(sendBuf, recvBuf, root, tag)
	default:
		return c.errNoAlg("scatter", alg, n)
	}
}

func (c *Comm) scatterLinear(sendBuf, recvBuf []byte, root, tag int) error {
	if c.myRank != root {
		return c.crecv(recvBuf, root, tag)
	}
	n := len(recvBuf)
	for r := 0; r < c.Size(); r++ {
		if r == root {
			continue
		}
		if err := c.csend(sendBuf[r*n:(r+1)*n], r, tag); err != nil {
			return err
		}
	}
	copy(recvBuf, sendBuf[root*n:(root+1)*n])
	return nil
}

// scatterBinomial pushes subtree block ranges down a binomial tree
// (the reverse of gatherBinomial).
func (c *Comm) scatterBinomial(sendBuf, recvBuf []byte, root, tag int) error {
	p := c.Size()
	n := len(recvBuf)
	v := (c.myRank - root + p) % p

	// Each rank receives the blocks of its subtree, vrank-ordered.
	var acc []byte
	defer func() { c.returnScratch(acc) }()
	if v == 0 {
		// Rotate into vrank order once.
		acc = c.borrowScratch(p * n)
		for vr := 0; vr < p; vr++ {
			r := (vr + root) % p
			copy(acc[vr*n:(vr+1)*n], sendBuf[r*n:(r+1)*n])
		}
		c.chargeCompute(n * p)
	} else {
		// Find my receive level: largest mask with v&mask set is where
		// my parent sent me my whole subtree.
		mask := 1
		for mask < p && v%(mask*2) == 0 {
			mask *= 2
		}
		sub := mask
		if p-v < sub {
			sub = p - v
		}
		acc = c.borrowScratch(sub * n)
		parent := ((v - v%(mask*2)) + root) % p
		if err := c.crecv(acc, parent, tag); err != nil {
			return err
		}
	}

	// Forward sub-subtrees downward, widest first.
	myMask := 1
	for myMask < p && v%(myMask*2) == 0 {
		myMask *= 2
	}
	for m := myMask / 2; m >= 1; m /= 2 {
		child := v + m
		if child < p {
			sub := m
			if p-child < sub {
				sub = p - child
			}
			if err := c.csend(acc[m*n:(m+sub)*n], (child+root)%p, tag); err != nil {
				return err
			}
		}
	}
	copy(recvBuf, acc[:n])
	return nil
}
