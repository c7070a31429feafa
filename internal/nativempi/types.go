// Package nativempi is the simulated "native MPI library" under the
// Java bindings — the role MVAPICH2 (or Open MPI + UCX) plays in the
// paper. It is a complete message-passing runtime: per-rank processes
// with tag/source matching (posted-receive and unexpected-message
// queues, MPI wildcards), eager and rendezvous point-to-point
// protocols, non-blocking requests, reduction operations, and a suite
// of collective algorithms whose selection is governed by a library
// Profile (see profile.go) — the mechanism by which the MVAPICH2-like
// and OpenMPI-like libraries differ.
//
// Ranks are goroutines; real bytes move through per-rank mailboxes.
// All costs are charged to per-rank virtual clocks, and message
// timestamps propagate those clocks, so reported latencies are
// deterministic functions of the cost model, independent of host
// scheduling.
package nativempi

import (
	"errors"
	"fmt"

	"mv2j/internal/jvm"
)

// Wildcards, mirroring MPI_ANY_SOURCE / MPI_ANY_TAG.
const (
	AnySource = -1
	AnyTag    = -1
)

// Errors surfaced by the runtime (the analogues of MPI error classes).
var (
	// ErrTruncated is MPI_ERR_TRUNCATE: a message longer than the
	// posted receive buffer.
	ErrTruncated = errors.New("nativempi: message truncated")
	// ErrRank is MPI_ERR_RANK.
	ErrRank = errors.New("nativempi: rank out of range")
	// ErrTag is MPI_ERR_TAG: negative tags are reserved.
	ErrTag = errors.New("nativempi: invalid tag")
	// ErrCount is MPI_ERR_COUNT.
	ErrCount = errors.New("nativempi: invalid count")
	// ErrComm covers operations on invalid communicators.
	ErrComm = errors.New("nativempi: invalid communicator")
	// ErrRequest covers operations on completed/void requests.
	ErrRequest = errors.New("nativempi: invalid request")
	// ErrUnsupported refuses a combination of features the runtime does
	// not model, such as simulated threads under a fault plan.
	ErrUnsupported = errors.New("nativempi: unsupported feature combination")
)

// Op identifies a predefined reduction operation.
type Op int

const (
	OpSum Op = iota
	OpProd
	OpMax
	OpMin
	OpLAnd
	OpLOr
	OpBAnd
	OpBOr
	OpBXor
)

func (o Op) String() string {
	switch o {
	case OpSum:
		return "MPI_SUM"
	case OpProd:
		return "MPI_PROD"
	case OpMax:
		return "MPI_MAX"
	case OpMin:
		return "MPI_MIN"
	case OpLAnd:
		return "MPI_LAND"
	case OpLOr:
		return "MPI_LOR"
	case OpBAnd:
		return "MPI_BAND"
	case OpBOr:
		return "MPI_BOR"
	case OpBXor:
		return "MPI_BXOR"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Status describes a completed receive, like MPI_Status.
type Status struct {
	// Source is the world... communicator rank the message came from.
	Source int
	// Tag is the matched tag.
	Tag int
	// Bytes is the received payload length (MPI_Get_count in bytes).
	Bytes int
}

// Count returns the element count for the given component kind,
// mirroring MPI_Get_count. It errors if the byte count is not a
// multiple of the element size (MPI_UNDEFINED in the standard).
func (s Status) Count(kind jvm.Kind) (int, error) {
	sz := kind.Size()
	if s.Bytes%sz != 0 {
		return 0, fmt.Errorf("nativempi: %d bytes is not a whole number of %v elements", s.Bytes, kind)
	}
	return s.Bytes / sz, nil
}
