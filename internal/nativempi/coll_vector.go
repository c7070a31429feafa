package nativempi

import "fmt"

// Vector ("v") collective variants, with per-rank byte counts and
// displacements — the blocking vectored collectives MVAPICH2-J exposes.
// All use linear root-based schedules, as the reference MPI
// implementations do for the irregular variants.

func checkVector(buf []byte, counts, displs []int, p int) error {
	if len(counts) != p || len(displs) != p {
		return fmt.Errorf("%w: counts/displs length %d/%d, want %d", ErrCount, len(counts), len(displs), p)
	}
	for r := 0; r < p; r++ {
		if counts[r] < 0 || displs[r] < 0 || displs[r]+counts[r] > len(buf) {
			return fmt.Errorf("%w: rank %d slice [%d,%d) outside buffer of %d",
				ErrCount, r, displs[r], displs[r]+counts[r], len(buf))
		}
	}
	return nil
}

// Gatherv gathers sendBuf from every rank into root's recvBuf at
// per-rank displacements.
func (c *Comm) Gatherv(sendBuf, recvBuf []byte, counts, displs []int, root int) error {
	if err := c.checkRank(root); err != nil {
		return err
	}
	defer c.collSpan("gatherv", len(sendBuf))()
	p := c.Size()
	tag := c.collTag()
	if c.myRank != root {
		return c.csend(sendBuf, root, tag)
	}
	if err := checkVector(recvBuf, counts, displs, p); err != nil {
		return err
	}
	if len(sendBuf) != counts[root] {
		return fmt.Errorf("%w: root send %d != counts[root] %d", ErrCount, len(sendBuf), counts[root])
	}
	copy(recvBuf[displs[root]:displs[root]+counts[root]], sendBuf)
	for r := 0; r < p; r++ {
		if r == root {
			continue
		}
		if err := c.crecv(recvBuf[displs[r]:displs[r]+counts[r]], r, tag); err != nil {
			return err
		}
	}
	return nil
}

// Scatterv scatters slices of root's sendBuf to every rank's recvBuf.
func (c *Comm) Scatterv(sendBuf []byte, counts, displs []int, recvBuf []byte, root int) error {
	if err := c.checkRank(root); err != nil {
		return err
	}
	defer c.collSpan("scatterv", len(recvBuf))()
	p := c.Size()
	tag := c.collTag()
	if c.myRank != root {
		return c.crecv(recvBuf, root, tag)
	}
	if err := checkVector(sendBuf, counts, displs, p); err != nil {
		return err
	}
	if len(recvBuf) != counts[root] {
		return fmt.Errorf("%w: root recv %d != counts[root] %d", ErrCount, len(recvBuf), counts[root])
	}
	for r := 0; r < p; r++ {
		if r == root {
			continue
		}
		if err := c.csend(sendBuf[displs[r]:displs[r]+counts[r]], r, tag); err != nil {
			return err
		}
	}
	copy(recvBuf, sendBuf[displs[root]:displs[root]+counts[root]])
	return nil
}

// Allgatherv gathers variable-size blocks to every rank: a Gatherv to
// rank 0 followed by a broadcast of the filled region.
func (c *Comm) Allgatherv(sendBuf, recvBuf []byte, counts, displs []int) error {
	defer c.collSpan("allgatherv", len(sendBuf))()
	p := c.Size()
	if err := checkVector(recvBuf, counts, displs, p); err != nil {
		return err
	}
	if err := c.Gatherv(sendBuf, recvBuf, counts, displs, 0); err != nil {
		return err
	}
	// Broadcast the whole rank-addressed region in one message.
	end := 0
	for r := 0; r < p; r++ {
		if displs[r]+counts[r] > end {
			end = displs[r] + counts[r]
		}
	}
	return c.Bcast(recvBuf[:end], 0)
}

// Alltoallv exchanges variable-size blocks between all ranks.
func (c *Comm) Alltoallv(sendBuf []byte, sendCounts, sendDispls []int,
	recvBuf []byte, recvCounts, recvDispls []int) error {
	defer c.collSpan("alltoallv", len(sendBuf))()
	p := c.Size()
	if err := checkVector(sendBuf, sendCounts, sendDispls, p); err != nil {
		return err
	}
	if err := checkVector(recvBuf, recvCounts, recvDispls, p); err != nil {
		return err
	}
	me := c.myRank
	if sendCounts[me] != recvCounts[me] {
		return fmt.Errorf("%w: self block %d != %d", ErrCount, sendCounts[me], recvCounts[me])
	}
	copy(recvBuf[recvDispls[me]:recvDispls[me]+recvCounts[me]],
		sendBuf[sendDispls[me]:sendDispls[me]+sendCounts[me]])
	tag := c.collTag()
	reqs := make([]*Request, 0, 2*(p-1))
	for off := 1; off < p; off++ {
		src := (me - off + p) % p
		reqs = append(reqs, c.cirecv(recvBuf[recvDispls[src]:recvDispls[src]+recvCounts[src]], src, tag))
	}
	for off := 1; off < p; off++ {
		dst := (me + off) % p
		reqs = append(reqs, c.cisend(sendBuf[sendDispls[dst]:sendDispls[dst]+sendCounts[dst]], dst, tag))
	}
	return Waitall(reqs)
}
