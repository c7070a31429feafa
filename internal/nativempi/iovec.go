package nativempi

import "fmt"

// Non-contiguous payload descriptors. A derived-datatype message is not
// one span of bytes but an ordered set of (offset, length) runs over a
// single spanning user region. The bindings layer flattens a committed
// datatype into this canonical form once, and the transport moves the
// runs directly — gathering into a wire buffer at the eager tier,
// borrowing the whole descriptor on the zero-copy rendezvous path, or
// scattering straight into the receiver's strided destination on the
// RDMA placement path — without ever materialising an intermediate
// packed image unless the framed datapath is in force.

// Run is one contiguous byte extent of an IOVec, relative to Full[0].
type Run struct {
	Off int
	Len int
}

// IOVec describes a non-contiguous payload: ascending, disjoint,
// pre-coalesced byte runs over one spanning region of the user's
// buffer. Full covers the whole strided footprint (first byte of the
// first run through last byte of the last run lie inside it) — the
// registration cache pins Full, exactly as an RDMA NIC registers the
// page range, while only the runs carry payload. N is the payload byte
// total across runs.
type IOVec struct {
	Full []byte
	Runs []Run
	N    int
}

// NewIOVec validates a run list against its spanning region and
// returns the descriptor. Malformed layouts are construction bugs in
// the bindings layer, not runtime conditions, so they panic
// deterministically (the FUNNELED/SERIALIZED precedent) rather than
// surface as corrupted payloads later. Adjacent runs are coalesced.
func NewIOVec(full []byte, runs []Run) *IOVec {
	if len(runs) == 0 {
		panic("nativempi: IOVec with no runs")
	}
	v := &IOVec{Full: full, Runs: make([]Run, 0, len(runs))}
	end := 0
	for i, r := range runs {
		if r.Len <= 0 {
			panic(fmt.Sprintf("nativempi: IOVec run %d has non-positive length %d", i, r.Len))
		}
		if r.Off < end {
			panic(fmt.Sprintf("nativempi: IOVec run %d at offset %d overlaps or reorders the previous run ending at %d", i, r.Off, end))
		}
		if r.Off+r.Len > len(full) {
			panic(fmt.Sprintf("nativempi: IOVec run %d [%d,%d) exceeds the %d-byte spanning region", i, r.Off, r.Off+r.Len, len(full)))
		}
		if k := len(v.Runs) - 1; k >= 0 && v.Runs[k].Off+v.Runs[k].Len == r.Off {
			v.Runs[k].Len += r.Len
		} else {
			v.Runs = append(v.Runs, r)
		}
		end = r.Off + r.Len
		v.N += r.Len
	}
	return v
}

// Payload names one message's bytes everywhere the stack handles them,
// from the bindings' staging to the receiver's copy-out: contiguous
// bytes or a strided layout over the user's array. It is a value — a
// slice header plus a pointer — so carrying it in a Request or a packet
// allocates nothing. The zero value is the empty message.
type Payload struct {
	b   []byte
	iov *IOVec
}

// Contig describes a contiguous payload.
func Contig(b []byte) Payload { return Payload{b: b} }

// Strided describes a non-contiguous payload — the derived-datatype
// datapath. The runs (and the region they alias) must stay unmodified
// until the operation completes, exactly like a contiguous buffer.
func Strided(v *IOVec) Payload { return Payload{iov: v} }

// Bytes is the contiguous view the []byte-taking native calls
// (collectives, RMA) consume; nil for a strided payload, which only the
// point-to-point Payload entries accept.
func (pl Payload) Bytes() []byte { return pl.b }

// size is the payload byte count (holes excluded).
func (pl Payload) size() int {
	if pl.iov != nil {
		return pl.iov.N
	}
	return len(pl.b)
}

// region is the memory the registration cache pins: the bytes
// themselves, or a strided layout's whole spanning footprint (the NIC
// pins pages, not runs).
func (pl Payload) region() []byte {
	if pl.iov != nil {
		return pl.iov.Full
	}
	return pl.b
}

// strided reports a non-contiguous layout, however many runs it
// coalesced into.
func (pl Payload) strided() bool { return pl.iov != nil }

// runs is the number of contiguous extents; the eager tier's CPU
// pack/unpack charge is per run boundary.
func (pl Payload) runs() int {
	if pl.iov != nil {
		return len(pl.iov.Runs)
	}
	return 1
}

// run returns extent i, relative to region()[0].
func (pl Payload) run(i int) Run {
	if pl.iov != nil {
		return pl.iov.Runs[i]
	}
	return Run{Len: len(pl.b)}
}

// prefix bounds a contiguous landing to its first n bytes — what an
// n-byte message into a larger buffer registers and exposes. A strided
// landing keeps its layout: its spanning region is pinned whole, and
// copyFrom stops at the shorter side anyway.
func (pl Payload) prefix(n int) Payload {
	if pl.iov == nil && n < len(pl.b) {
		pl.b = pl.b[:n]
	}
	return pl
}

// copyFrom streams src's bytes into pl's layout in order, stopping at
// the shorter side, and returns the bytes moved — one logical host
// memcpy however many runs it touches. The contiguous pair (every
// eager message) stays small enough to inline.
func (pl Payload) copyFrom(src Payload) int {
	if pl.iov == nil && src.iov == nil {
		return copy(pl.b, src.b)
	}
	return pl.copyRuns(src)
}

// copyRuns is copyFrom's general case: a two-pointer merge over the two
// run lists, whose boundaries need not line up.
func (pl Payload) copyRuns(src Payload) int {
	dfull, sfull := pl.region(), src.region()
	moved, di, doff := 0, 0, 0
	for si := 0; si < src.runs() && di < pl.runs(); si++ {
		sr := src.run(si)
		for soff := 0; soff < sr.Len && di < pl.runs(); {
			dr := pl.run(di)
			n := copy(dfull[dr.Off+doff:dr.Off+dr.Len], sfull[sr.Off+soff:sr.Off+sr.Len])
			moved += n
			soff += n
			doff += n
			if doff == dr.Len {
				di, doff = di+1, 0
			}
		}
	}
	return moved
}

// gatherInto packs the payload into a contiguous image.
func (pl Payload) gatherInto(dst []byte) int { return Contig(dst).copyFrom(pl) }

// CountHostCopy records one n-byte host payload memcpy performed by a
// layer above the native runtime — bindings staging, MPI.Pack/Unpack,
// heap-buffer bounce copies — so BENCH_OMB.json's bytes_copied
// guardrail sees the whole datapath, not just the transport's own
// memcpys. Host accounting only; no clock is touched.
func (p *Proc) CountHostCopy(n int) {
	if n > 0 {
		p.copyStats.count(n)
	}
}
