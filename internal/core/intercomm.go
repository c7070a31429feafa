package core

import (
	"fmt"

	"mv2j/internal/nativempi"
)

// InterComm is the bindings-level intercommunicator: point-to-point
// messaging addressed by REMOTE-group ranks, plus Merge back to an
// ordinary communicator for collectives.
type InterComm struct {
	mpi    *MPI
	native *nativempi.InterComm
}

// CreateIntercomm connects this communicator's group with a remote
// group over a bridge communicator (MPI_Intercomm_create). Collective
// over c.
func (c *Comm) CreateIntercomm(localLeader int, bridge *Comm, bridgeRemoteLeader, tag int) (*InterComm, error) {
	c.mpi.enterNative()
	if bridge == nil {
		return nil, fmt.Errorf("%w: nil bridge communicator", ErrCount)
	}
	n, err := c.native.CreateIntercomm(localLeader, bridge.native, bridgeRemoteLeader, tag)
	if err != nil {
		return nil, err
	}
	return &InterComm{mpi: c.mpi, native: n}, nil
}

// Rank returns the caller's rank in the local group.
func (ic *InterComm) Rank() int { return ic.native.Rank() }

// LocalSize and RemoteSize report the two group sizes.
func (ic *InterComm) LocalSize() int  { return ic.native.LocalSize() }
func (ic *InterComm) RemoteSize() int { return ic.native.RemoteSize() }

// Send transmits count dt elements to a remote-group rank.
func (ic *InterComm) Send(buf any, count int, dt Datatype, remoteRank, tag int) error {
	ic.mpi.enterNative()
	st, err := ic.mpi.stage(buf, 0, count, &dt, dirSend, ic.mpi.pool)
	if err != nil {
		return err
	}
	return st.done(ic.native.Send(st.bytes(), remoteRank, tag))
}

// Recv receives count dt elements from a remote-group rank.
func (ic *InterComm) Recv(buf any, count int, dt Datatype, remoteRank, tag int) (Status, error) {
	ic.mpi.enterNative()
	st, err := ic.mpi.stage(buf, 0, count, &dt, dirRecv, ic.mpi.pool)
	if err != nil {
		return Status{}, err
	}
	nst, err := ic.native.Recv(st.bytes(), remoteRank, tag)
	return fromNative(nst), st.done(err)
}

// Merge converts the intercommunicator into an ordinary communicator
// (MPI_Intercomm_merge). Collective over both sides.
func (ic *InterComm) Merge(high bool) (*Comm, error) {
	ic.mpi.enterNative()
	n, err := ic.native.Merge(high)
	if err != nil {
		return nil, err
	}
	return &Comm{mpi: ic.mpi, native: n}, nil
}
