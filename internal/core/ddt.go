package core

import (
	"fmt"

	"mv2j/internal/jvm"
	"mv2j/internal/nativempi"
)

// Non-contiguous zero-copy staging: when a committed derived datatype
// meets a Java array on the MVAPICH2-J point-to-point path, the message
// is not packed through the buffering layer at all. Instead the
// bindings pin the array with GetPrimitiveArrayCritical and hand the
// native runtime an iovec — the commit-time run list replicated across
// the element count, in bytes — so the transport gathers/scatters
// directly between the user arrays (see internal/nativempi/iovec.go).
// The critical region stays open until the operation completes, which
// is exactly the pin the real zero-copy protocols need: GC cannot move
// the array while the NIC (or the peer, on the borrow path) still
// references it.
//
// The path is gated off whenever payloads may be framed or replayed —
// fault injection, FT — where the copy-through pack path is the
// fallback; and off for collectives, whose staging model (§IV-D) is
// per-call by design.

// vecEligible reports whether (buf, count, dt) takes the iovec
// datapath. Eligibility is decided before any validation: an
// ineligible call takes the classic staging path, which performs the
// same checks and reports the same errors.
func (m *MPI) vecEligible(buf any, count int, dt *Datatype) bool {
	if !m.vecPath || m.collStaging {
		return false
	}
	if !dt.needsCommit || dt.contiguous() {
		return false
	}
	if _, isArray := buf.(jvm.Array); !isArray {
		return false
	}
	return count > 0 && count*dt.Size() > 0
}

// buildVec flattens (offset, count, dt) over arr into a byte-granular
// iovec rooted at the message's first base element. The commit-time run
// list is already coalesced within one datatype element; replication
// across elements coalesces the seam when one element's last run abuts
// the next element's first.
func buildVec(arr jvm.Array, raw []byte, offset, count int, dt Datatype) *nativempi.IOVec {
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

// stageVec pins the array and builds the send/recv iovec. The returned
// free closes the critical region; callers must run it only after the
// native operation has completed (Wait), because the transport may
// still be reading from — or landing payload into — the pinned view.
func (m *MPI) stageVec(buf any, offset, count int, dt Datatype, what string) (nativempi.Payload, func(), error) {
	dt.checkUsable(what)
	arr := buf.(jvm.Array)
	if arr.Kind() != dt.Kind() {
		return nativempi.Payload{}, nil, fmt.Errorf("%w: %v array with %v datatype", ErrBufferType, arr.Kind(), dt)
	}
	if err := checkCount(arrayNeed(offset, count, dt), arr.Len(), what); err != nil {
		return nativempi.Payload{}, nil, err
	}
	raw := m.env.GetPrimitiveArrayCritical(arr)
	vec := buildVec(arr, raw, offset, count, dt)
	return nativempi.Strided(vec), func() { m.env.ReleasePrimitiveArrayCritical(arr) }, nil
}

// sendPayload stages a point-to-point send buffer and names it for the
// transport: an iovec over the pinned array when the message takes the
// non-contiguous datapath, the contiguous staged view otherwise.
func (m *MPI) sendPayload(buf any, offset, count int, dt *Datatype) (nativempi.Payload, func(), error) {
	if m.vecEligible(buf, count, dt) {
		return m.stageVec(buf, offset, count, *dt, "send")
	}
	raw, free, err := m.sendStage(buf, offset, count, *dt)
	return nativempi.Contig(raw), free, err
}

// recvPayload is sendPayload for a landing area. The transport scatters
// into an iovec in place, so that path has no unpack step — only the
// pin release.
func (m *MPI) recvPayload(buf any, offset, count int, dt *Datatype) (nativempi.Payload, func() error, func(), error) {
	if m.vecEligible(buf, count, dt) {
		pl, free, err := m.stageVec(buf, offset, count, *dt, "recv")
		return pl, nofinish, free, err
	}
	raw, finish, free, err := m.recvStage(buf, offset, count, *dt)
	return nativempi.Contig(raw), finish, free, err
}
