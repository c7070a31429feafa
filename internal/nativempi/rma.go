package nativempi

import (
	"fmt"

	"mv2j/internal/jvm"
	"mv2j/internal/vtime"
)

// One-sided communication (MPI-2/3 RMA) with active-target
// fence synchronisation: Win exposes a region of local memory;
// Put/Get/Accumulate issue RMA operations that complete at the next
// Fence, which also applies all incoming operations. The OSU
// Micro-Benchmarks cover these (osu_put_latency & co.); OMB-J gains
// the same coverage here.
//
// Epoch protocol at Fence: the ranks exchange per-target operation
// counts (Alltoall), then each rank progresses until it has applied
// exactly the operations addressed to it and received every reply to
// its own Gets, and finally a barrier closes the epoch.

// winState is the per-rank state of one window.
type winState struct {
	base     []byte
	incoming []*packet // unapplied RMA packets for this window
}

// Win is one rank's handle on a window.
type Win struct {
	c  *Comm
	id int32
	st *winState

	// outstanding ops this epoch
	sentTo     []int // ops issued per target (comm ranks)
	getPending map[uint64]*rmaGet
	nextGet    uint64
	freed      bool
}

type rmaGet struct {
	dst  []byte
	done bool
	at   vtime.Time
}

// rmaHeader packs (window id, op kind, element kind, reduce op) into
// packet fields: ctx carries the window id; tag carries the byte
// offset; nbytes the payload size; reqID correlates Get replies.
// The accumulate's (kind, op) ride in the two low bytes of dst... of
// the packet's src field's upper bits — packed explicitly below.

const (
	rmaPut = iota
	rmaAcc
	rmaGetReq
	rmaGetReply
)

// rmaMeta packs op metadata into an int64 for the packet.
func rmaMeta(op int, kind jvm.Kind, rop Op) int64 {
	return int64(op) | int64(kind)<<8 | int64(rop)<<16
}

func rmaMetaUnpack(meta int64) (op int, kind jvm.Kind, rop Op) {
	return int(meta & 0xff), jvm.Kind(meta >> 8 & 0xff), Op(meta >> 16 & 0xff)
}

// WinCreate exposes base as an RMA window. Collective over the
// communicator; every rank must call it (base may differ per rank, and
// may be nil for a zero-size exposure).
func (c *Comm) WinCreate(base []byte) (*Win, error) {
	id, err := c.allocCtxCollective(1)
	if err != nil {
		return nil, err
	}
	st := &winState{base: base}
	w := &Win{
		c:          c,
		id:         id,
		st:         st,
		sentTo:     make([]int, c.Size()),
		getPending: map[uint64]*rmaGet{},
	}
	if c.p.windows == nil {
		c.p.windows = map[int32]*winState{}
	}
	c.p.windows[id] = st
	// Exposing memory for one-sided access REQUIRES it pinned: the
	// window's base is registered sticky (exempt from LRU eviction)
	// for the window's lifetime, and the one-time pin-down cost lands
	// here — which is why MPI_Win_create is expensive and per-op RMA
	// is cheap, the trade the crossover benchmark measures.
	if c.p.rdmaOK() && len(base) > 0 {
		c.p.clock.Advance(c.p.reg.acquireLocked(base, c.p.clock.Now()))
	}
	// Window creation synchronises (MPI_Win_create is collective).
	if err := c.Barrier(); err != nil {
		return nil, err
	}
	return w, nil
}

// Free detaches the window. Collective.
func (w *Win) Free() error {
	if w.freed {
		return fmt.Errorf("nativempi: window already freed")
	}
	w.freed = true
	delete(w.c.p.windows, w.id)
	// The exposure ends but deregistration is lazy (the regcache bet):
	// the entry merely loses its eviction exemption.
	w.c.p.reg.unlock(w.st.base)
	return w.c.Barrier()
}

func (w *Win) check(target, off, n int) error {
	if w.freed {
		return fmt.Errorf("nativempi: operation on freed window")
	}
	if err := w.c.checkRank(target); err != nil {
		return err
	}
	if off < 0 || n < 0 {
		return fmt.Errorf("%w: rma range [%d,%d)", ErrCount, off, off+n)
	}
	return nil
}

// opRDMA reports whether a one-sided transfer of n bytes toward the
// target rides the RDMA channel: any large operation qualifies when
// the protocol is available, because the target's window is already
// pinned (WinCreate) — only the origin's buffer registration remains,
// and the cache amortizes that.
func (w *Win) opRDMA(n, target int) bool {
	p := w.c.p
	return p.rdmaOK() && n > p.eagerLimit(w.c.group[target])
}

// injectRMA ships an RMA packet toward the target. Small operations
// use eager-style injection (no handshake; the window exposure IS the
// standing rendezvous). A large operation either rides the RDMA
// channel — the origin registers its buffer (rdma true; cost already
// charged by the caller for Get, charged here for Put/Accumulate) and
// the transfer bypasses the target's CPU — or, when the protocol is
// unavailable, pays the staged fallback: per-rdmaStageChunk CPU
// overheads at both ends, the pipelined copy cost an RDMA-less
// library cannot avoid. nicAt, when non-zero, marks a NIC-served
// reply (an RDMA read): the payload streams out at max(nicAt,
// nicFree) without touching this rank's clock at all.
func (w *Win) injectRMA(target int, kind pktKind, meta int64, off int, data []byte, reqID uint64, rdma bool, nicAt vtime.Time) {
	p := w.c.p
	wdst := w.c.group[target]
	ch := p.channel(wdst)
	n := len(data)
	var start vtime.Time
	if nicAt > 0 {
		start = vtime.Max(nicAt, p.nicFree)
		p.nicFree = start.Add(ch.SerializeTime(n))
	} else {
		p.clock.Advance(p.sendSoft(wdst) + ch.SendOverhead)
		if rdma && n > 0 {
			p.clock.Advance(p.reg.acquire(data, p.clock.Now()))
		} else if !rdma && n > p.eagerLimit(wdst) {
			chunk := rdmaStageChunk
			p.clock.Advance(vtime.Duration((n-1)/chunk) * ch.SendOverhead)
		}
		start = vtime.Max(p.clock.Now(), p.nicFree)
		p.nicFree = start.Add(ch.SerializeTime(n))
		p.clock.AdvanceTo(p.nicFree)
	}
	var payload []byte
	if n > 0 {
		payload = getWire(n)
		copy(payload, data)
		p.copyStats.count(n)
	}
	pkt := getPacket()
	pkt.kind = kind
	pkt.src = p.rank
	pkt.dst = wdst
	pkt.tag = off
	pkt.ctx = w.id
	pkt.data = Contig(payload)
	pkt.ownsData = true
	pkt.rdma = rdma
	pkt.nbytes = int(meta)
	pkt.reqID = reqID
	pkt.sentAt = start
	pkt.arriveAt = start.Add(ch.TransferTime(n))
	p.post(wdst, pkt)
	p.stats.MsgsSent++
	p.stats.BytesSent += int64(n)
}

// Put transfers src into the target's window at byte offset targetOff.
// Completes at the next Fence.
func (w *Win) Put(src []byte, target, targetOff int) error {
	if err := w.check(target, targetOff, len(src)); err != nil {
		return err
	}
	start := w.c.p.clock.Now()
	w.injectRMA(target, pktRMA, rmaMeta(rmaPut, 0, 0), targetOff, src, 0, w.opRDMA(len(src), target), 0)
	w.sentTo[target]++
	w.rmaSpan("put", target, len(src), start)
	return nil
}

// Accumulate combines src into the target's window with op.
func (w *Win) Accumulate(src []byte, target, targetOff int, kind jvm.Kind, op Op) error {
	if err := w.check(target, targetOff, len(src)); err != nil {
		return err
	}
	start := w.c.p.clock.Now()
	w.injectRMA(target, pktRMA, rmaMeta(rmaAcc, kind, op), targetOff, src, 0, w.opRDMA(len(src), target), 0)
	w.sentTo[target]++
	w.rmaSpan("accumulate", target, len(src), start)
	return nil
}

// Get fetches len(dst) bytes from the target's window at targetOff
// into dst. dst is valid after the next Fence.
func (w *Win) Get(dst []byte, target, targetOff int) error {
	if err := w.check(target, targetOff, len(dst)); err != nil {
		return err
	}
	w.nextGet++
	id := w.nextGet
	w.getPending[id] = &rmaGet{dst: dst}
	// The request carries the wanted length in the meta field's upper
	// bits.
	meta := rmaMeta(rmaGetReq, 0, 0) | int64(len(dst))<<24
	start := w.c.p.clock.Now()
	rdma := w.opRDMA(len(dst), target)
	if rdma {
		// An RDMA read lands in dst directly, so the origin pins its
		// destination buffer up front; the target side is already
		// pinned by the window exposure.
		p := w.c.p
		p.clock.Advance(p.reg.acquire(dst, p.clock.Now()))
	}
	w.injectRMA(target, pktRMA, meta, targetOff, nil, id, rdma, 0)
	w.sentTo[target]++
	w.rmaSpan("get", target, len(dst), start)
	return nil
}

// rmaLandCost is the target-side CPU charge of landing one incoming
// put/accumulate: the NIC completion event only when the transfer rode
// the RDMA channel, RecvOverhead per staged chunk otherwise (one chunk
// for small operations — the pre-RDMA cost unchanged).
func (w *Win) rmaLandCost(pkt *packet) vtime.Duration {
	ch := w.c.p.channel(pkt.src)
	if pkt.rdma {
		return ch.RDMAFinOverhead
	}
	n := pkt.data.size()
	chunks := 1 + (n-1)/rdmaStageChunk
	if chunks < 1 {
		chunks = 1
	}
	return vtime.Duration(chunks) * ch.RecvOverhead
}

// applyIncoming processes one queued RMA packet at the target.
func (w *Win) applyIncoming(pkt *packet) error {
	p := w.c.p
	op, kind, rop := rmaMetaUnpack(int64(pkt.nbytes))
	data := pkt.data.b
	switch op {
	case rmaPut:
		if pkt.tag+len(data) > len(w.st.base) {
			return fmt.Errorf("%w: put beyond window (%d+%d > %d)", ErrCount, pkt.tag, len(data), len(w.st.base))
		}
		p.clock.AdvanceTo(pkt.arriveAt)
		copy(w.st.base[pkt.tag:], data)
		p.copyStats.count(len(data))
		p.clock.Advance(w.rmaLandCost(pkt))
	case rmaAcc:
		if pkt.tag+len(data) > len(w.st.base) {
			return fmt.Errorf("%w: accumulate beyond window", ErrCount)
		}
		p.clock.AdvanceTo(pkt.arriveAt)
		if err := reduceInto(w.st.base[pkt.tag:pkt.tag+len(data)], data, kind, rop); err != nil {
			return err
		}
		w.c.chargeCompute(len(data))
		p.clock.Advance(w.rmaLandCost(pkt))
	case rmaGetReq:
		n := int(int64(pkt.nbytes) >> 24)
		if pkt.tag+n > len(w.st.base) {
			// Still reply (empty) so the origin's fence does not hang
			// on a get that can never be served.
			src := w.c.commRankOfWorld(pkt.src)
			w.injectRMA(src, pktRMAReply, rmaMeta(rmaGetReply, 0, 0), pkt.tag, nil, pkt.reqID, false, 0)
			return fmt.Errorf("%w: get beyond window (%d+%d > %d)", ErrCount, pkt.tag, n, len(w.st.base))
		}
		// Reply with the data (the RDMA-read completion). Replies are
		// transport, not epoch operations: they are tracked by the
		// origin's getPending set, not by the fence counts. An RDMA
		// read is served by the target's NIC at the request's arrival
		// instant without involving its CPU; the staged fallback runs
		// through the CPU exactly as before.
		src := w.c.commRankOfWorld(pkt.src)
		if pkt.rdma {
			w.injectRMA(src, pktRMAReply, rmaMeta(rmaGetReply, 0, 0), pkt.tag, w.st.base[pkt.tag:pkt.tag+n], pkt.reqID, true, pkt.arriveAt)
		} else {
			p.clock.AdvanceTo(pkt.arriveAt)
			w.injectRMA(src, pktRMAReply, rmaMeta(rmaGetReply, 0, 0), pkt.tag, w.st.base[pkt.tag:pkt.tag+n], pkt.reqID, false, 0)
		}
	default:
		return fmt.Errorf("nativempi: unknown RMA op %d", op)
	}
	return nil
}

// completeReply lands a Get reply at the origin.
func (w *Win) completeReply(pkt *packet) {
	g, ok := w.getPending[pkt.reqID]
	if !ok {
		panic(fmt.Sprintf("nativempi: rank %d got RMA reply for unknown get %d", w.c.p.rank, pkt.reqID))
	}
	copy(g.dst, pkt.data.b)
	g.done = true
	g.at = pkt.arriveAt
}

// Fence closes the current epoch: all operations issued before it (by
// anyone, toward anyone) are complete when it returns.
func (w *Win) Fence() error {
	if w.freed {
		return fmt.Errorf("nativempi: fence on freed window")
	}
	c := w.c
	p := c.p
	np := c.Size()

	// Exchange per-target op counts so each rank knows how many
	// operations it must apply this epoch.
	sendCounts := make([]byte, 8*np)
	recvCounts := make([]byte, 8*np)
	for r := 0; r < np; r++ {
		putIntNative(sendCounts, 8*r, jvm.Long, int64(w.sentTo[r]))
		w.sentTo[r] = 0
	}
	if err := c.Alltoall(sendCounts, recvCounts); err != nil {
		return err
	}
	expected := 0
	for r := 0; r < np; r++ {
		expected += int(getIntNative(recvCounts, 8*r, jvm.Long))
	}

	// Apply queued + arriving operations until the epoch's incoming
	// count is met; also wait out replies for our own gets. A faulty
	// operation (e.g. out-of-window put) is recorded but the epoch
	// protocol still completes — returning early would leave the other
	// ranks stuck in the closing barrier.
	var firstErr error
	applied := 0
	apply := func() {
		// Indexed drain, then reset to the array start: nothing appends
		// to incoming while apply runs (arrivals land in dispatch, which
		// only the Fence loop's own polling reaches), so the backing
		// array can be recycled for the next batch instead of being
		// abandoned one head-retaining reslice at a time.
		for i, pkt := range w.st.incoming {
			w.st.incoming[i] = nil // release now, or the array pins the packet
			if pkt.kind == pktRMAReply {
				w.completeReply(pkt)
				freePacket(pkt)
				continue
			}
			err := w.applyIncoming(pkt)
			freePacket(pkt)
			if err != nil && firstErr == nil {
				firstErr = err
			}
			applied++
		}
		w.st.incoming = w.st.incoming[:0]
	}
	getsDone := func() bool {
		for _, g := range w.getPending {
			if !g.done {
				return false
			}
		}
		return true
	}
	apply()
	for applied < expected || !getsDone() {
		p.progressOnce()
		apply()
	}
	// Get destinations become valid now.
	for id, g := range w.getPending {
		p.clock.AdvanceTo(g.at)
		delete(w.getPending, id)
	}
	if err := c.Barrier(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}
