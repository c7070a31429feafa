package nativempi

import "fmt"

// Allgather concatenates every rank's n-byte sendBuf into every
// rank's recvBuf (size·n bytes, rank-ordered), circulating blocks
// around the ring in p-1 steps.
func (c *Comm) Allgather(sendBuf, recvBuf []byte) error {
	defer c.collSpan("allgather", len(sendBuf))()
	p := c.Size()
	n := len(sendBuf)
	if len(recvBuf) != n*p {
		return fmt.Errorf("%w: allgather recv buffer %d != %d", ErrCount, len(recvBuf), n*p)
	}
	tag := c.collTag()
	me := c.myRank
	copy(recvBuf[me*n:(me+1)*n], sendBuf)
	right := (me + 1) % p
	left := (me - 1 + p) % p
	for s := 0; s < p-1; s++ {
		sendBlk := (me - s + p) % p
		recvBlk := (me - s - 1 + p) % p
		if err := c.csendrecv(recvBuf[sendBlk*n:(sendBlk+1)*n], right,
			recvBuf[recvBlk*n:(recvBlk+1)*n], left, tag); err != nil {
			return err
		}
	}
	return nil
}

// Alltoall sends block i of sendBuf to rank i and receives block j of
// recvBuf from rank j; blocks are n bytes (len/size). Step s pairs
// each rank with the ranks s ahead and s behind it.
func (c *Comm) Alltoall(sendBuf, recvBuf []byte) error {
	defer c.collSpan("alltoall", len(sendBuf))()
	p := c.Size()
	if len(sendBuf)%p != 0 || len(recvBuf) != len(sendBuf) {
		return fmt.Errorf("%w: alltoall buffers %d/%d not divisible across %d ranks",
			ErrCount, len(sendBuf), len(recvBuf), p)
	}
	n := len(sendBuf) / p
	me := c.myRank
	copy(recvBuf[me*n:(me+1)*n], sendBuf[me*n:(me+1)*n])
	if p == 1 {
		return nil
	}
	tag := c.collTag()
	for step := 1; step < p; step++ {
		dst := (me + step) % p
		src := (me - step + p) % p
		if err := c.csendrecv(sendBuf[dst*n:(dst+1)*n], dst,
			recvBuf[src*n:(src+1)*n], src, tag); err != nil {
			return err
		}
	}
	return nil
}

// Barrier blocks until every rank has entered it: log2(p) rounds of
// dissemination.
func (c *Comm) Barrier() error {
	defer c.collSpan("barrier", 0)()
	p := c.Size()
	if p == 1 {
		return nil
	}
	tag := c.collTag()
	var token []byte
	for mask := 1; mask < p; mask <<= 1 {
		dst := (c.myRank + mask) % p
		src := (c.myRank - mask + p) % p
		if err := c.csendrecv(token, dst, token, src, tag); err != nil {
			return err
		}
	}
	return nil
}
