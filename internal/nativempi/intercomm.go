package nativempi

import "fmt"

// Intercommunicators (MPI_Intercomm_create / MPI_Intercomm_merge):
// point-to-point communication between two disjoint groups, addressed
// by the peer group's ranks. Collectives on intercommunicators are out
// of scope (the paper's libraries only expose intracommunicator
// collectives); Merge converts to an ordinary communicator when
// collectives are needed.

// InterComm is one rank's handle on an intercommunicator.
type InterComm struct {
	local  *Comm
	remote []int // world ranks of the remote group, in remote-rank order
	ptCtx  int32
}

// CreateIntercomm connects this communicator's group with a remote
// group (MPI_Intercomm_create). localLeader is a rank of c; the two
// leaders must be able to talk over bridge (typically MPI_COMM_WORLD)
// where they are bridgeLocalLeader/bridgeRemoteLeader; tag
// disambiguates concurrent constructions. Collective over c.
func (c *Comm) CreateIntercomm(localLeader int, bridge *Comm, bridgeRemoteLeader, tag int) (*InterComm, error) {
	if err := c.checkRank(localLeader); err != nil {
		return nil, err
	}
	if bridge == nil {
		return nil, fmt.Errorf("%w: nil bridge communicator", ErrComm)
	}

	// Phase 1: the leaders exchange group lists (world ranks) and
	// agree on a context id over the bridge.
	var remote []int
	var ctx int32
	if c.myRank == localLeader {
		if err := bridge.checkRank(bridgeRemoteLeader); err != nil {
			return nil, err
		}
		// Serialize my group.
		mine := make([]byte, 4+4*len(c.group))
		putI32(mine, 0, int32(len(c.group)))
		for i, wr := range c.group {
			putI32(mine, 4+4*i, int32(wr))
		}
		// The lexicographically smaller world-rank leader allocates
		// the context and ships it with its group list; the other
		// replies with its group only.
		myWorld := bridge.group[bridge.myRank]
		peerWorld := bridge.group[bridgeRemoteLeader]
		if myWorld < peerWorld {
			ctx = c.p.w.allocCtx(1)
			hdr := make([]byte, 4)
			putI32(hdr, 0, ctx)
			if err := bridge.Send(append(hdr, mine...), bridgeRemoteLeader, tag); err != nil {
				return nil, err
			}
			buf := make([]byte, 4+4*bridge.p.w.Size())
			st, err := bridge.Recv(buf, bridgeRemoteLeader, tag)
			if err != nil {
				return nil, err
			}
			remote = decodeGroup(buf[:st.Bytes])
		} else {
			buf := make([]byte, 8+4*bridge.p.w.Size())
			st, err := bridge.Recv(buf, bridgeRemoteLeader, tag)
			if err != nil {
				return nil, err
			}
			ctx = getI32(buf, 0)
			remote = decodeGroup(buf[4:st.Bytes])
			if err := bridge.Send(mine, bridgeRemoteLeader, tag); err != nil {
				return nil, err
			}
		}
	}

	// Phase 2: the leader broadcasts (ctx, remote group) within the
	// local communicator.
	meta := make([]byte, 8)
	if c.myRank == localLeader {
		putI32(meta, 0, ctx)
		putI32(meta, 4, int32(len(remote)))
	}
	if err := c.Bcast(meta, localLeader); err != nil {
		return nil, err
	}
	ctx = getI32(meta, 0)
	n := int(getI32(meta, 4))
	table := make([]byte, 4*n)
	if c.myRank == localLeader {
		for i, wr := range remote {
			putI32(table, 4*i, int32(wr))
		}
	}
	if err := c.Bcast(table, localLeader); err != nil {
		return nil, err
	}
	remote = make([]int, n)
	for i := range remote {
		remote[i] = int(getI32(table, 4*i))
	}
	return &InterComm{local: c, remote: remote, ptCtx: ctx}, nil
}

func decodeGroup(b []byte) []int {
	n := int(getI32(b, 0))
	out := make([]int, n)
	for i := range out {
		out[i] = int(getI32(b, 4+4*i))
	}
	return out
}

// Rank returns the caller's rank in the LOCAL group.
func (ic *InterComm) Rank() int { return ic.local.Rank() }

// LocalSize and RemoteSize report the two group sizes.
func (ic *InterComm) LocalSize() int  { return ic.local.Size() }
func (ic *InterComm) RemoteSize() int { return len(ic.remote) }

func (ic *InterComm) checkRemote(rank int) error {
	if rank < 0 || rank >= len(ic.remote) {
		return fmt.Errorf("%w: remote rank %d not in [0,%d)", ErrRank, rank, len(ic.remote))
	}
	return nil
}

// Send transmits to a REMOTE-group rank.
func (ic *InterComm) Send(buf []byte, remoteRank, tag int) error {
	if err := ic.checkRemote(remoteRank); err != nil {
		return err
	}
	if tag < 0 {
		return fmt.Errorf("%w: tag %d", ErrTag, tag)
	}
	req := ic.local.p.isendOn(Contig(buf), ic.remote[remoteRank], tag, sendOpts{ctx: ic.ptCtx})
	_, err := req.Wait()
	return err
}

// Recv receives from a REMOTE-group rank (AnySource allowed).
func (ic *InterComm) Recv(buf []byte, remoteRank, tag int) (Status, error) {
	wsrc := AnySource
	if remoteRank != AnySource {
		if err := ic.checkRemote(remoteRank); err != nil {
			return Status{}, err
		}
		wsrc = ic.remote[remoteRank]
	}
	req := ic.local.p.irecvOn(Contig(buf), wsrc, tag, sendOpts{ctx: ic.ptCtx})
	st, err := req.Wait()
	// Translate the world source into a remote-group rank.
	for i, wr := range ic.remote {
		if wr == st.Source {
			st.Source = i
			break
		}
	}
	return st, err
}

// Merge builds an intracommunicator over the union of both groups
// (MPI_Intercomm_merge): the group passing high=false orders first.
// Collective over both sides.
func (ic *InterComm) Merge(high bool) (*Comm, error) {
	// Exchange the high flags through the leaders so both sides order
	// identically. Leaders are local rank 0 and remote rank 0.
	myFlag := []byte{0}
	if high {
		myFlag[0] = 1
	}
	peerFlag := make([]byte, 1)
	if ic.local.Rank() == 0 {
		// Deterministic order: smaller leader world rank sends first.
		myWorld := ic.local.group[0]
		peerWorld := ic.remote[0]
		if myWorld < peerWorld {
			if err := ic.Send(myFlag, 0, 0); err != nil {
				return nil, err
			}
			if _, err := ic.Recv(peerFlag, 0, 0); err != nil {
				return nil, err
			}
		} else {
			if _, err := ic.Recv(peerFlag, 0, 0); err != nil {
				return nil, err
			}
			if err := ic.Send(myFlag, 0, 0); err != nil {
				return nil, err
			}
		}
	}
	if err := ic.local.Bcast(peerFlag, 0); err != nil {
		return nil, err
	}
	if myFlag[0] == peerFlag[0] {
		// Equal flags: MPI orders by leader world rank; encode that as
		// an effective flag on the larger-leader side.
		if ic.local.group[0] > ic.remote[0] {
			myFlag[0] = 1
			peerFlag[0] = 0
		} else {
			myFlag[0] = 0
			peerFlag[0] = 1
		}
	}

	// Build the merged world-rank list identically on both sides.
	var lo, hi []int
	if myFlag[0] == 0 {
		lo, hi = ic.local.Group(), append([]int(nil), ic.remote...)
	} else {
		lo, hi = append([]int(nil), ic.remote...), ic.local.Group()
	}
	merged := append(lo, hi...)

	// Context agreement: the rank-0 member of the merged group (which
	// is a leader of one side) allocates and distributes over the
	// intercommunicator, then each side broadcasts locally.
	base := make([]byte, 4)
	iOwnCtx := merged[0] == ic.local.group[ic.local.Rank()]
	if iOwnCtx {
		putI32(base, 0, ic.local.p.w.allocCtx(2))
		if err := ic.Send(base, 0, 1); err != nil {
			return nil, err
		}
	} else if ic.local.Rank() == 0 && merged[0] == ic.remote[0] {
		if _, err := ic.Recv(base, 0, 1); err != nil {
			return nil, err
		}
	}
	if err := ic.local.Bcast(base, 0); err != nil {
		return nil, err
	}
	ctx := getI32(base, 0)

	myWorld := ic.local.group[ic.local.Rank()]
	myRank := -1
	for i, wr := range merged {
		if wr == myWorld {
			myRank = i
			break
		}
	}
	if myRank < 0 {
		return nil, fmt.Errorf("%w: caller missing from merged group", ErrComm)
	}
	return &Comm{
		p:       ic.local.p,
		group:   merged,
		myRank:  myRank,
		ptCtx:   ctx,
		collCtx: ctx + 1,
	}, nil
}
