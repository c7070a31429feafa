package core

import "fmt"

// Vectored blocking collectives (§IV-D "including vector variants").
// Counts and displacements are in dt elements, as in the Java API;
// they are converted to wire bytes for the native layer.

func scaleVec(counts, displs []int, esz int) (bcounts, bdispls []int) {
	bcounts = make([]int, len(counts))
	bdispls = make([]int, len(displs))
	for i := range counts {
		bcounts[i] = counts[i] * esz
		bdispls[i] = displs[i] * esz
	}
	return
}

func vecTotal(counts, displs []int) (int, error) {
	end := 0
	for i := range counts {
		if counts[i] < 0 || displs[i] < 0 {
			return 0, fmt.Errorf("%w: negative count/displacement at %d", ErrCount, i)
		}
		if displs[i]+counts[i] > end {
			end = displs[i] + counts[i]
		}
	}
	return end, nil
}

// Gatherv collects sendCount elements from each rank into root's
// recvBuf at per-rank element displacements.
func (c *Comm) Gatherv(sendBuf any, sendCount int, recvBuf any, recvCounts, displs []int, dt Datatype, root int) error {
	c.mpi.enterNative()
	if c.Rank() != root {
		recvBuf, recvCounts, displs = nil, nil, nil
	}
	total, err := vecTotal(recvCounts, displs)
	if err != nil {
		return err
	}
	st, err := c.stageColl(sendBuf, sendCount, recvBuf, total, &dt)
	if err != nil {
		return err
	}
	bc, bd := scaleVec(recvCounts, displs, dt.Size())
	return st.done(c.native.Gatherv(st.send(), st.recv(), bc, bd, root))
}

// Scatterv distributes per-rank slices of root's sendBuf.
func (c *Comm) Scatterv(sendBuf any, sendCounts, displs []int, recvBuf any, recvCount int, dt Datatype, root int) error {
	c.mpi.enterNative()
	if c.Rank() != root {
		sendBuf, sendCounts, displs = nil, nil, nil
	}
	total, err := vecTotal(sendCounts, displs)
	if err != nil {
		return err
	}
	st, err := c.stageScatter(sendBuf, total, recvBuf, recvCount, &dt)
	if err != nil {
		return err
	}
	bc, bd := scaleVec(sendCounts, displs, dt.Size())
	return st.done(c.native.Scatterv(st.send(), bc, bd, st.recv(), root))
}

// Allgatherv gathers variable-size contributions to every rank.
func (c *Comm) Allgatherv(sendBuf any, sendCount int, recvBuf any, recvCounts, displs []int, dt Datatype) error {
	c.mpi.enterNative()
	total, err := vecTotal(recvCounts, displs)
	if err != nil {
		return err
	}
	st, err := c.stageColl(sendBuf, sendCount, recvBuf, total, &dt)
	if err != nil {
		return err
	}
	bc, bd := scaleVec(recvCounts, displs, dt.Size())
	return st.done(c.native.Allgatherv(st.send(), st.recv(), bc, bd))
}

// Alltoallv exchanges variable-size blocks between all ranks.
func (c *Comm) Alltoallv(sendBuf any, sendCounts, sendDispls []int,
	recvBuf any, recvCounts, recvDispls []int, dt Datatype) error {
	c.mpi.enterNative()
	stotal, err := vecTotal(sendCounts, sendDispls)
	if err != nil {
		return err
	}
	rtotal, err := vecTotal(recvCounts, recvDispls)
	if err != nil {
		return err
	}
	st, err := c.stageColl(sendBuf, stotal, recvBuf, rtotal, &dt)
	if err != nil {
		return err
	}
	sc, sd := scaleVec(sendCounts, sendDispls, dt.Size())
	rc, rd := scaleVec(recvCounts, recvDispls, dt.Size())
	return st.done(c.native.Alltoallv(st.send(), sc, sd, st.recv(), rc, rd))
}
