package nativempi

import (
	"fmt"
	"math/bits"
	"sync"
)

// Host-side memory reuse. The simulator used to pay a fresh allocation
// for every packet struct, every eager/rendezvous wire payload, and
// every collective scratch buffer — the host-side analogue of the
// bounce-buffer tax the paper's mpjbuf pool exists to avoid. Four
// reuse layers remove that tax:
//
//   - a sync.Pool of packet structs (packets cross goroutines, so the
//     pool must be concurrency-safe);
//   - size-classed sync.Pools of wire payload buffers (ditto);
//   - the same size classes for reliability frames under a fault plan;
//   - a per-Comm scratch arena for collective working buffers
//     (rank-confined, so a plain free list with no locking).
//
// A reliability frame's life is its carrying packet's. reliablePost
// gets one frame of RelHeaderSize+n bytes per materialised copy and
// marks the copy ownsWire; a fabric duplicate gets its own copy of the
// frame, never a share. The receiver's freePacket puts it back: after
// admit and dispatch have consumed the payload aliasing it, or at the
// checksum/duplicate reject. Not on ack — the sender precomputes the
// whole burst and keeps no frame. A packet discarded without freePacket
// — stranded in a mailbox or outbox by an abort, or settled by
// drainPending after Run (a dead rank's letters included) — leaves its
// frame to the GC.
//
// None of this can affect virtual time: buffers are fully overwritten
// or explicitly zeroed before reuse, and no pool ever touches a clock.

// pktPool recycles packet structs. A packet's life ends at exactly one
// point (delivery, ack settlement, control handling); freePacket
// documents each such point and guards against double frees.
var pktPool = sync.Pool{New: func() any { return new(packet) }}

// getPacket returns a zeroed packet.
func getPacket() *packet {
	p := pktPool.Get().(*packet)
	*p = packet{}
	return p
}

// freePacket returns a packet (and its pooled payload, if it owns one)
// for reuse. Freeing the same packet twice is a bug in the ownership
// protocol and panics loudly rather than corrupting a later message.
func freePacket(p *packet) {
	if p == nil {
		return
	}
	if p.freed {
		panic("nativempi: packet double-free")
	}
	if p.borrowed && p.ownsData {
		// A borrowed payload aliases a live USER buffer. Returning it to
		// the wire pool would hand that memory to a later message and
		// corrupt the user's data; the ownership protocol guarantees
		// borrowed packets never claim pool ownership, so a violation is
		// a bug worth a loud stop.
		panic("nativempi: pool release of borrowed payload")
	}
	p.freed = true
	if p.ownsData {
		putWire(p.data.b)
	}
	if p.ownsWire {
		putWire(p.wire) // an admitted packet's data aliases it; cleared below
	}
	p.data = Payload{}
	p.wire = nil
	pktPool.Put(p)
}

// wireClasses pools wire payload slices in power-of-two size classes.
// Class i holds buffers of capacity 1<<i; minWireClass keeps tiny
// messages in one class.
const (
	minWireClass = 6 // 64 bytes
	maxWireClass = 63
)

// The class pools traffic in *[]byte, not []byte: storing a bare slice
// in a sync.Pool boxes its three-word header into an interface, which
// is itself a heap allocation — one alloc per putWire, the exact tax
// the pool exists to remove (it dominated the allocation profile).
// Pointers are interface-direct, so a recycled header makes the whole
// round trip allocation-free. hdrPool recycles the headers themselves.
var wireClasses [maxWireClass + 1]sync.Pool

var hdrPool = sync.Pool{New: func() any { return new([]byte) }}

// wireClassFor returns the class index whose capacity fits n bytes.
func wireClassFor(n int) int {
	if n <= 1<<minWireClass {
		return minWireClass
	}
	return bits.Len(uint(n - 1))
}

// getWire returns an n-byte slice backed by a pooled buffer. The
// caller is expected to overwrite all n bytes (every producer does a
// full copy into it), so the contents are unspecified.
func getWire(n int) []byte {
	if n == 0 {
		return nil
	}
	cls := wireClassFor(n)
	if v := wireClasses[cls].Get(); v != nil {
		hdr := v.(*[]byte)
		b := (*hdr)[:n]
		*hdr = nil
		hdrPool.Put(hdr)
		return b
	}
	return make([]byte, n, 1<<cls)
}

// putWire parks a buffer obtained from getWire.
func putWire(b []byte) {
	if cap(b) == 0 {
		return
	}
	cls := bits.Len(uint(cap(b) - 1))
	if cap(b) != 1<<cls || cls > maxWireClass {
		return // not one of ours; let the GC have it
	}
	hdr := hdrPool.Get().(*[]byte)
	*hdr = b[:cap(b)]
	wireClasses[cls].Put(hdr)
}

// ArenaStats counts scratch-arena activity for one rank, aggregated
// across its communicators. Like MailboxStats these are host-side
// numbers (reported by hostbench), kept out of the deterministic
// registry so goldens are unaffected by host-speed work.
type ArenaStats struct {
	Borrows        int64 `json:"borrows"`
	Hits           int64 `json:"hits"`   // borrows served from the free list
	Misses         int64 `json:"misses"` // borrows that had to allocate
	Returns        int64 `json:"returns"`
	InUseBytes     int64 `json:"in_use_bytes"`
	HighWaterBytes int64 `json:"high_water_bytes"` // peak borrowed footprint, mpjbuf-style
}

// scratchArena lends working buffers to the collective algorithms —
// the acc/scratch/partial temporaries that used to be a make([]byte, n)
// per call. It is confined to its rank goroutine, so borrowing is a
// lock-free free-list pop. Borrowed buffers are zeroed, preserving the
// exact semantics of make, so converting a call site cannot change any
// simulated artifact.
type scratchArena struct {
	p       *Proc
	classes map[int][][]byte
}

func newScratchArena(p *Proc) *scratchArena {
	return &scratchArena{p: p, classes: map[int][][]byte{}}
}

// borrow returns a zeroed n-byte slice.
func (a *scratchArena) borrow(n int) []byte {
	if n == 0 {
		return nil
	}
	st := &a.p.arenaStats
	st.Borrows++
	cls := wireClassFor(n)
	st.InUseBytes += int64(int(1) << cls)
	if st.InUseBytes > st.HighWaterBytes {
		st.HighWaterBytes = st.InUseBytes
	}
	if free := a.classes[cls]; len(free) > 0 {
		b := free[len(free)-1]
		free[len(free)-1] = nil
		a.classes[cls] = free[:len(free)-1]
		st.Hits++
		b = b[:n]
		clear(b)
		return b
	}
	st.Misses++
	return make([]byte, n, 1<<cls)
}

// giveBack parks a borrowed buffer. Returning a buffer that is already
// parked (a double return) panics: the aliasing it would create — two
// later borrowers handed the same memory — corrupts payloads in ways
// that are much harder to debug than a crash here.
func (a *scratchArena) giveBack(b []byte) {
	if cap(b) == 0 {
		return
	}
	cls := bits.Len(uint(cap(b) - 1))
	if cap(b) != 1<<cls {
		panic(fmt.Sprintf("nativempi: arena return of foreign buffer (cap %d)", cap(b)))
	}
	b = b[:cap(b)]
	for _, f := range a.classes[cls] {
		if &f[0] == &b[0] {
			panic("nativempi: arena double-return")
		}
	}
	st := &a.p.arenaStats
	st.Returns++
	st.InUseBytes -= int64(int(1) << cls)
	a.classes[cls] = append(a.classes[cls], b)
}

// arena returns the communicator's scratch arena, created on first
// use. Comms are rank-confined, so lazy init needs no synchronization.
func (c *Comm) arena() *scratchArena {
	if c.scr == nil {
		c.scr = newScratchArena(c.p)
	}
	return c.scr
}

// borrowScratch / returnScratch are the call-site API: n zeroed bytes
// on loan for the duration of one collective.
func (c *Comm) borrowScratch(n int) []byte { return c.arena().borrow(n) }
func (c *Comm) returnScratch(b []byte)     { c.arena().giveBack(b) }

// CopyStats counts host-side payload data movement for one rank: the
// actual memcpys the simulator performs to carry message bytes from
// the sender's buffer to the receiver's, and the copies the zero-copy
// rendezvous datapath elided. Like the other host-side counters these
// never enter the deterministic registry — eliding a host memcpy must
// not move a virtual timestamp (see DESIGN.md), so the only place the
// savings can show up is here and in BENCH_OMB.json.
type CopyStats struct {
	Copies       int64 `json:"copies"`
	BytesCopied  int64 `json:"bytes_copied"`
	CopiesElided int64 `json:"copies_elided"`
	BytesElided  int64 `json:"bytes_elided"`

	// FramedRndv counts rendezvous data phases that took the framed
	// wire-image leg — the direct datapath taken away by a fault plan,
	// fault tolerance, or Profile.FramedDatapath. Zero on a clean run.
	FramedRndv int64 `json:"framed_rndv"`
}

// count records one n-byte host memcpy of payload data.
func (c *CopyStats) count(n int) {
	c.Copies++
	c.BytesCopied += int64(n)
}

// elide records one n-byte copy avoided by borrowing.
func (c *CopyStats) elide(n int) {
	c.CopiesElided++
	c.BytesElided += int64(n)
}

// HostStats aggregates the host-side reuse and queue counters of a
// world across its ranks — the numbers cmd/mv2jbench reports. They
// describe how much host work the simulation cost, never what the
// simulation computed, and are therefore kept out of the deterministic
// metrics registry and the trace artifacts.
type HostStats struct {
	Mailbox MailboxStats `json:"mailbox"`
	Arena   ArenaStats   `json:"arena"`
	Copy    CopyStats    `json:"copy"`
	Match   MatchStats   `json:"match"`
	Engine  EngineStats  `json:"engine"`
	Reg     RegStats     `json:"reg"`
	RDMA    RDMAStats    `json:"rdma"`
	Flow    FlowStats    `json:"flow"`
	Threads ThreadStats  `json:"threads"`
}

// HostStats sums the per-rank host-side counters. Call after Run has
// returned; the ranks' goroutines must have quiesced.
func (w *World) HostStats() HostStats {
	var hs HostStats
	for _, p := range w.procs {
		mb := p.mb.Stats()
		hs.Mailbox.Pushes += mb.Pushes
		hs.Mailbox.Swaps += mb.Swaps
		hs.Mailbox.Batched += mb.Batched
		if mb.MaxBatch > hs.Mailbox.MaxBatch {
			hs.Mailbox.MaxBatch = mb.MaxBatch
		}
		if mb.MaxTail > hs.Mailbox.MaxTail {
			hs.Mailbox.MaxTail = mb.MaxTail
		}
		ar := p.arenaStats
		hs.Arena.Borrows += ar.Borrows
		hs.Arena.Hits += ar.Hits
		hs.Arena.Misses += ar.Misses
		hs.Arena.Returns += ar.Returns
		hs.Arena.InUseBytes += ar.InUseBytes
		hs.Arena.HighWaterBytes += ar.HighWaterBytes
		cs := p.copyStats
		hs.Copy.Copies += cs.Copies
		hs.Copy.BytesCopied += cs.BytesCopied
		hs.Copy.CopiesElided += cs.CopiesElided
		hs.Copy.BytesElided += cs.BytesElided
		hs.Copy.FramedRndv += cs.FramedRndv
		ms := p.matchStats
		hs.Match.PostedLookups += ms.PostedLookups
		hs.Match.PostedProbes += ms.PostedProbes
		hs.Match.UnexpLookups += ms.UnexpLookups
		hs.Match.UnexpProbes += ms.UnexpProbes
		if ms.MaxBucket > hs.Match.MaxBucket {
			hs.Match.MaxBucket = ms.MaxBucket
		}
		if ms.UnexpDepthHiWater > hs.Match.UnexpDepthHiWater {
			hs.Match.UnexpDepthHiWater = ms.UnexpDepthHiWater
		}
		if ms.UnexpBytesHiWater > hs.Match.UnexpBytesHiWater {
			hs.Match.UnexpBytesHiWater = ms.UnexpBytesHiWater
		}
		rs := p.reg.stats
		hs.Reg.Hits += rs.Hits
		hs.Reg.Misses += rs.Misses
		hs.Reg.Evictions += rs.Evictions
		hs.Reg.BytesReg += rs.BytesReg
		hs.Reg.PinnedBytes += rs.PinnedBytes
		if rs.PinnedPeak > hs.Reg.PinnedPeak {
			hs.Reg.PinnedPeak = rs.PinnedPeak
		}
		hs.RDMA.Writes += p.rdmaStats.Writes
		hs.RDMA.BytesPlaced += p.rdmaStats.BytesPlaced
		fs := p.FlowStats()
		hs.Flow.CreditFrames += fs.CreditFrames
		hs.Flow.Piggybacks += fs.Piggybacks
		hs.Flow.GrantsApplied += fs.GrantsApplied
		hs.Flow.RNRParks += fs.RNRParks
		hs.Flow.RNRWaitPs += fs.RNRWaitPs
		hs.Flow.DemotedSends += fs.DemotedSends
		hs.Threads.add(p.threadStats)
	}
	hs.Engine = w.engStats
	return hs
}

// clearTail nils the retained tail slots left behind by the
// filter-in-place idiom (kept := s[:0]; ... ; s = kept): without it the
// backing array keeps the filtered-out pointers alive indefinitely.
func clearTail[T any](s []T, from int) {
	var zero T
	for i := from; i < len(s); i++ {
		s[i] = zero
	}
}
