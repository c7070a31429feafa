package core

import "mv2j/internal/nativempi"

// Non-contiguous zero-copy staging: when a committed derived datatype
// meets a Java array on the MVAPICH2-J point-to-point path, the message
// is not packed through the buffering layer at all. Instead stage pins
// the array with GetPrimitiveArrayCritical and hands the native runtime
// an iovec — the commit-time run list replicated across the element
// count, in bytes — so the transport gathers/scatters directly between
// the user arrays (see internal/nativempi/iovec.go). The critical
// region stays open until the operation completes, which is exactly the
// pin the real zero-copy protocols need: GC cannot move the array while
// the NIC (or the peer, on the borrow path) still references it.
//
// The path is gated off (MPI.vecPath) whenever payloads may be framed
// or replayed — fault injection, FT — where the copy-through pack path
// is the fallback; and never asked for by collectives, whose staging
// model (§IV-D) is per-call by design.

// buildVec flattens (offset, count, dt) over arr into a byte-granular
// iovec rooted at the message's first base element. The commit-time run
// list is already coalesced within one datatype element; replication
// across elements coalesces the seam when one element's last run abuts
// the next element's first.
func buildVec(raw []byte, offset, count int, dt *Datatype) *nativempi.IOVec {
	esz := dt.Kind().Size()
	ext := dt.Extent() * esz
	base := offset * esz
	full := raw[base : base+count*ext]
	elemRuns := dt.committedRuns()
	runs := make([]nativempi.Run, 0, count*len(elemRuns))
	for e := 0; e < count; e++ {
		eb := e * ext
		for _, r := range elemRuns {
			off, ln := eb+r.off*esz, r.length*esz
			if k := len(runs) - 1; k >= 0 && runs[k].Off+runs[k].Len == off {
				runs[k].Len += ln
			} else {
				runs = append(runs, nativempi.Run{Off: off, Len: ln})
			}
		}
	}
	return nativempi.NewIOVec(full, runs)
}
