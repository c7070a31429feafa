// Package profile provides the two native-library personalities the
// paper evaluates: MVAPICH2-X 2.3.6 and Open MPI 4.1.2 + UCX 1.13.
//
// The paper's point-to-point results show the libraries roughly at
// parity inter-node (Figs. 9–13) with MVAPICH2 ahead intra-node for
// small messages (Fig. 5, ×2.46 average), while the collective results
// (Figs. 14–17) show large MVAPICH2 advantages that the authors
// attribute to "performance differences in the native MPI libraries".
// Those differences are expressed here as: per-message software
// overheads, protocol thresholds, per-step collective overheads, and —
// dominating the collective gap — algorithm selection.
package profile

import (
	"mv2j/internal/nativempi"
	"mv2j/internal/vtime"
)

// MVAPICH2 returns the MVAPICH2-like tuning: lean per-message software
// path; shm-aware k-nomial broadcasts whose radix drops from 8 to 2
// above 8 KiB, then scatter-allgather above 128 KiB; shm-aware then
// Rabenseifner allreduce; multi-leader hierarchies once the communicator
// reaches 256 ranks, where single-leader trees funnel every node's
// traffic through one rank.
func MVAPICH2() nativempi.Profile {
	return nativempi.Profile{
		Name:              "mvapich2",
		IntraSendOverhead: vtime.Nanos(45),
		IntraRecvOverhead: vtime.Nanos(45),
		InterSendOverhead: vtime.Nanos(70),
		InterRecvOverhead: vtime.Nanos(70),
		EagerIntra:        8192,
		EagerInter:        16384,
		CollMsgOverhead:   vtime.Nanos(90),
		ReduceBandwidth:   10e9,
		Bcast: nativempi.BcastTable{
			{MinRanks: 256, MaxBytes: 8 << 10, Alg: nativempi.BcastMultiLeader, Radix: 8},
			{MinRanks: 256, Alg: nativempi.BcastMultiLeader, Radix: 2},
			{MaxBytes: 8 << 10, Alg: nativempi.BcastShmAware, Radix: 8},
			{MaxBytes: 128 << 10, Alg: nativempi.BcastShmAware, Radix: 2},
			{Alg: nativempi.BcastScatterAllgather},
		},
		Allreduce: nativempi.AllreduceTable{
			{MinRanks: 256, Alg: nativempi.AllreduceMultiLeader, Radix: 8},
			{MaxBytes: 32 << 10, Alg: nativempi.AllreduceShmAware, Radix: 8},
			{Alg: nativempi.AllreduceRabenseifner},
		},
		Gather:  nativempi.GatherBinomial,
		Scatter: nativempi.ScatterBinomial,
	}
}

// OpenMPI returns the Open MPI + UCX-like tuning of the paper's runs:
// heavier intra-node small-message software path (the ×2.46 of
// Fig. 5), comparable inter-node point-to-point, and costlier
// collectives — higher per-step overhead and the topology-oblivious
// decision table: a linear (root-serialised) broadcast fan-out for small
// payloads, a binomial tree in the middle, a non-segmented binary tree
// for large payloads; reduce+bcast allreduce between recursive doubling
// for tiny and Rabenseifner for huge payloads; linear gather and scatter.
func OpenMPI() nativempi.Profile {
	return nativempi.Profile{
		Name:              "openmpi",
		IntraSendOverhead: vtime.Nanos(660),
		IntraRecvOverhead: vtime.Nanos(660),
		InterSendOverhead: vtime.Nanos(90),
		InterRecvOverhead: vtime.Nanos(90),
		EagerIntra:        4096,
		EagerInter:        8192,
		CollMsgOverhead:   vtime.Nanos(550),
		ReduceBandwidth:   8e9,
		Bcast: nativempi.BcastTable{
			{MaxBytes: 4 << 10, Alg: nativempi.BcastFlat},
			{MaxBytes: 32 << 10, Alg: nativempi.BcastKnomial, Radix: 2},
			{Alg: nativempi.BcastBinaryTree},
		},
		Allreduce: nativempi.AllreduceTable{
			{MaxBytes: 256, Alg: nativempi.AllreduceRecursiveDoubling},
			{MaxBytes: 1 << 20, Alg: nativempi.AllreduceReduceBcast},
			{Alg: nativempi.AllreduceRabenseifner},
		},
		Gather:  nativempi.GatherLinear,
		Scatter: nativempi.ScatterLinear,
	}
}

// ByName resolves a profile by its CLI name ("mvapich2", "openmpi").
// Unknown names return the MVAPICH2 profile and false.
func ByName(name string) (nativempi.Profile, bool) {
	switch name {
	case "mvapich2", "mv2", "mvapich":
		return MVAPICH2(), true
	case "openmpi", "ompi":
		return OpenMPI(), true
	default:
		return MVAPICH2(), false
	}
}
