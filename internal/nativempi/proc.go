package nativempi

import (
	"fmt"

	"mv2j/internal/fabric"
	"mv2j/internal/faults"
	"mv2j/internal/vtime"
)

type pktKind uint8

const (
	pktEager pktKind = iota
	pktRTS
	pktCTS
	pktData
	pktRMA        // one-sided operation toward a window
	pktRMAReply   // data reply to an RMA Get
	pktAbort      // job abort: wakes and kills blocked ranks
	pktAck        // reliability-layer acknowledgement (fault plans only)
	pktFailNotice // failure-detector verdict: src is the dead rank (FT worlds)
	pktRevoke     // ULFM revoke poison: ctx/tag carry the comm's two contexts
	pktRndvFin    // zero-copy completion fence: receiver has copied a borrowed payload
	pktCredit     // explicit flow-control grant (one-sided traffic; see flowctl.go)
)

// packet is one unit on the simulated wire. arriveAt is the virtual
// time its last byte is available at the destination; the mailbox
// itself is only an event transport, so host scheduling never affects
// measured times.
type packet struct {
	kind     pktKind
	src, dst int // world ranks
	tag      int
	ctx      int32
	data     Payload // wire image (eager, framed DATA, RMA), or a borrowed descriptor — see borrowed
	nbytes   int     // full payload size (RTS, DATA)
	arriveAt vtime.Time
	reqID    uint64 // rendezvous correlation (RTS/CTS/Data)
	emitSeq  uint64 // per-source emission counter (phase-merge sort key)

	// rdma marks a message riding the RDMA channel: an RTS advertising
	// an RDMA-mode rendezvous, the CTS answering it (carrying the
	// receiver's registered landing layout on the direct datapath), the
	// DATA completion notification (payload already placed remotely,
	// data empty), or a one-sided operation that bypassed the target's
	// CPU. Both endpoints derive their virtual charges from this flag
	// identically whatever the host datapath.
	rdma bool

	// Host-side reuse bookkeeping (see pool.go). ownsData marks a
	// payload taken from the wire pool, ownsWire a reliability frame
	// taken from it; freed guards against a double free of the packet
	// struct itself. borrowed marks a direct-datapath DATA packet whose
	// data is the SENDER's live payload descriptor (the receiver performs
	// the transfer's only host copy straight out of the user's memory,
	// then fences with pktRndvFin) — or a CTS whose data is the
	// RECEIVER's registered landing layout: never pool-owned — freePacket
	// panics if such a payload ever claims pool ownership.
	ownsData bool
	ownsWire bool
	freed    bool
	borrowed bool

	// Reliability-layer fields, populated only under a fault plan.
	sentAt    vtime.Time    // when this transmission left the sender
	wire      []byte        // framed image (header + checksum + payload)
	relStream faults.Stream // sequence-number stream
	relSeq    uint64        // sequence number within the stream
	attempt   int           // transmission attempt (0 = first)

	// Flow-control piggyback fields (see flowctl.go): the sender's
	// cumulative eager-consumption total toward pkt.dst and the
	// receiver-saturation demote bit. Metadata, not payload: they ride
	// outside the reliability frame (every materialised copy carries
	// them) and are applied idempotently before admission.
	fcGrant  uint64
	fcDemote bool
}

// ProcStats counts per-rank runtime activity.
type ProcStats struct {
	MsgsSent     int64
	BytesSent    int64
	EagerSends   int64
	RndvSends    int64
	MsgsReceived int64
	Unexpected   int64 // receives that found the message already queued

	// Reliability-layer counters (non-zero only under a fault plan).
	Retransmits   int64 // attempts after an ack timeout
	FaultDrops    int64 // transmissions the fabric swallowed
	FaultCorrupts int64 // transmissions injected with a flipped byte
	FaultDups     int64 // transmissions the fabric duplicated
	FaultDelays   int64 // transmissions the fabric delayed
	CorruptDrops  int64 // frames this rank rejected on checksum
	DupDrops      int64 // duplicate frames this rank suppressed
	AcksSent      int64
	AcksReceived  int64
	PeerFailures  int64 // retransmit budgets exhausted (abort, or ErrProcFailed under FT)

	// Failure-detector counters (non-zero only in fault-tolerant
	// worlds). Each peer death drives this rank through one
	// suspect→confirm transition, charged to the virtual clock.
	PeerSuspects int64 // peers this rank's detector moved to suspected
	PeerConfirms int64 // suspected peers confirmed dead
	RevokesSeen  int64 // distinct communicator revocations applied
}

// Proc is one MPI rank: its clock, mailbox, matching queues, and
// injection resource. A Proc is confined to its rank goroutine.
type Proc struct {
	w     *World
	rank  int
	clock *vtime.Clock
	mb    *mailbox

	// nicFree is when the rank's injection resource (NIC / memory
	// port) next becomes idle; successive sends serialize on it.
	nicFree vtime.Time

	// nicEp is the per-endpoint injection fan, non-empty only while a
	// MULTIPLE-level thread group is live: thread tid injects through
	// slot tid % len(nicEp), so concurrent threads stop serializing on
	// one NIC cursor (see thread.go). Folded back into nicFree when
	// the group joins.
	nicEp []vtime.Time

	// Simulated-thread multiplexer state (see thread.go): the live
	// thread group (nil when the rank runs single-threaded), the level
	// InitThread negotiated (0 = never called = SINGLE), and the
	// host-side scheduling counters.
	tg          *threadGroup
	thrLevel    ThreadLevel
	threadStats ThreadStats

	// leaveFn is the cached no-observer collSpan closure: gateLeave
	// bound once per rank so the collective fast path stays
	// allocation-free.
	leaveFn func()

	posted      postedQueue          // posted receives, indexed (see match.go)
	unexp       unexpQueue           // arrived-but-unmatched eager/RTS packets, indexed
	sendPending map[uint64]*Request  // rendezvous sends awaiting CTS
	recvPending map[rndvKey]*Request // rendezvous receives awaiting data
	finPending  map[uint64]*Request  // zero-copy sends awaiting the receiver's copy fence
	nextReq     uint64

	world *Comm
	stats ProcStats

	// windows maps window ids to their per-rank state (see rma.go).
	windows map[int32]*winState

	// rel is the reliability-sublayer state, non-nil exactly when the
	// fabric carries a fault plan (see reliability.go).
	rel *relState

	// flow is the credit-based flow-control state, non-nil exactly when
	// the profile enables it (EagerCredits > 0; see flowctl.go).
	flow *flowState

	// Host-side reuse state (see pool.go): a free list of Request
	// structs for the internal collective paths that fully own their
	// requests, and the rank's aggregated scratch-arena, payload-copy
	// and matcher counters.
	reqFree    []*Request
	arenaStats ArenaStats
	copyStats  CopyStats
	matchStats MatchStats

	// reg is the rank's pin-down registration cache (see regcache.go);
	// rdmaStats counts the placement datapath's host-side writes.
	reg       *regCache
	rdmaStats RDMAStats

	// Fault-tolerance state (see ft.go), live only in FT worlds.
	crash       *faults.Crash        // this rank's scheduled death, if any
	crashed     bool                 // the schedule has fired
	crashHold   int                  // >0 suppresses checkCrash (atomic protocol commits)
	opCount     uint64               // MPI operations entered (crash trigger odometer)
	inflight    int                  // requests issued but not yet consumed by Wait/Test
	failedPeers map[int]vtime.Time   // world rank → virtual time its death was confirmed here
	revokedAt   map[int32]vtime.Time // revoked context id → poison time
}

// rndvKey names a pending rendezvous receive. Request ids are a
// per-rank counter, so the id alone is ambiguous on the receiver:
// two senders whose counters happen to align (symmetric workloads do
// this constantly) would collide in recvPending, completing the wrong
// request with the first DATA and panicking on the second.
type rndvKey struct {
	src int
	id  uint64
}

// newProc builds rank's process; group is MPI_COMM_WORLD's member
// list, shared by every rank.
func newProc(w *World, rank int, group []int) *Proc {
	p := &Proc{
		w:           w,
		rank:        rank,
		clock:       vtime.NewClock(),
		mb:          newMailbox(),
		sendPending: map[uint64]*Request{},
		recvPending: map[rndvKey]*Request{},
		finPending:  map[uint64]*Request{},
	}
	p.posted.init(&p.matchStats)
	p.unexp.init(&p.matchStats)
	p.leaveFn = p.gateLeave
	p.reg = newRegCache(p)
	if w.fab.Faults() != nil {
		p.rel = newRelState()
	}
	if w.flowOn {
		p.flow = newFlowState(&w.prof)
	}
	if c, ok := w.fab.CrashOf(rank); ok {
		crash := c
		p.crash = &crash
	}
	p.world = &Comm{
		p:       p,
		group:   group,
		myRank:  rank,
		ptCtx:   worldPtCtx,
		collCtx: worldCollCtx,
	}
	return p
}

func identity(n int) []int {
	g := make([]int, n)
	for i := range g {
		g[i] = i
	}
	return g
}

// Rank returns this process's world rank.
func (p *Proc) Rank() int { return p.rank }

// Clock returns the rank's virtual clock.
func (p *Proc) Clock() *vtime.Clock { return p.clock }

// CommWorld returns this rank's view of MPI_COMM_WORLD.
func (p *Proc) CommWorld() *Comm { return p.world }

// Stats returns a snapshot of the rank's counters.
func (p *Proc) Stats() ProcStats { return p.stats }

// World returns the job this rank belongs to.
func (p *Proc) World() *World { return p.w }

// channel returns the fabric parameters toward world rank dst.
func (p *Proc) channel(dst int) fabric.Params { return p.w.fab.Channel(p.rank, dst) }

// overheads returns the library software overheads toward dst.
func (p *Proc) sendSoft(dst int) vtime.Duration {
	if p.w.fab.IsIntra(p.rank, dst) {
		return p.w.prof.IntraSendOverhead
	}
	return p.w.prof.InterSendOverhead
}

func (p *Proc) recvSoft(src int) vtime.Duration {
	if p.w.fab.IsIntra(p.rank, src) {
		return p.w.prof.IntraRecvOverhead
	}
	return p.w.prof.InterRecvOverhead
}

// eagerLimit returns the protocol threshold toward dst.
func (p *Proc) eagerLimit(dst int) int {
	ch := p.channel(dst)
	if p.w.fab.IsIntra(p.rank, dst) {
		if p.w.prof.EagerIntra > 0 {
			return p.w.prof.EagerIntra
		}
	} else if p.w.prof.EagerInter > 0 {
		return p.w.prof.EagerInter
	}
	return ch.EagerThreshold
}

// post delivers a packet toward world rank dst: straight into the
// mailbox on a lossless fabric, through the reliability sublayer's
// ack/retransmit protocol under a fault plan. The error is non-nil
// only in fault-tolerant worlds, when the retransmit budget toward dst
// is exhausted (ErrProcFailed); without FT that condition aborts the
// job instead.
func (p *Proc) post(dst int, pkt *packet) error {
	if p.flow != nil {
		// Piggyback the current credit grant toward dst. Payload frames
		// always settle (delivered or the job is dead), so the grant
		// counts as advertised.
		p.fcAttachGrant(dst, pkt, true)
	}
	if p.rel == nil {
		p.postRaw(dst, pkt)
		return nil
	}
	// reliablePost materialises framed copies; the original packet (and
	// its pooled payload, already encoded into the frames) is done.
	err := p.reliablePost(dst, pkt)
	freePacket(pkt)
	return err
}

// postRaw bypasses the reliability layer (acks, aborts, and the
// transmissions reliablePost has already adjudicated). Under the
// phase-stepped engine the packet is buffered in this rank's outbox
// and delivered at the next barrier, in merged (arriveAt, src,
// emitSeq) order.
func (p *Proc) postRaw(dst int, pkt *packet) {
	if eng := p.w.eng.Load(); eng != nil {
		eng.emit(p.rank, dst, pkt)
		return
	}
	// No engine: drainPending, after Run, acking what it admits.
	p.w.procs[dst].mb.push(pkt)
}

// matches reports whether a posted receive (req) matches a packet.
func matches(req *Request, pkt *packet) bool {
	if req.ctx != pkt.ctx {
		return false
	}
	if req.src != AnySource && req.src != pkt.src {
		return false
	}
	if req.tag != AnyTag && req.tag != pkt.tag {
		return false
	}
	return true
}

// dispatch routes one arrived packet. Under a fault plan, transport
// packets first pass the reliability layer's admission check (checksum
// verification, duplicate suppression, acknowledgement).
func (p *Proc) dispatch(pkt *packet) {
	if p.tg != nil {
		// Every dispatch may satisfy a parked simulated thread's wake
		// condition (request completion, probe match, credit grant —
		// all are mail-driven), so it advances the group's epoch and
		// makes parked threads schedulable again (see thread.go).
		p.tg.epoch++
	}
	if p.flow != nil && pkt.fcGrant > 0 && pkt.src != p.rank {
		// Apply the piggybacked credit grant BEFORE reliability
		// admission: grants are cumulative maxima, so even a frame the
		// checksum or duplicate filter is about to reject carries valid
		// metadata, and applying it twice is a no-op.
		p.fcApplyGrant(pkt)
	}
	if p.rel != nil {
		switch pkt.kind {
		case pktAbort, pktFailNotice, pktRevoke, pktCredit:
			// Control traffic bypasses reliability: aborts, detector
			// verdicts, revocations, and cumulative credit grants (their
			// own retransmission) must get through even when the fabric
			// is on fire.
		case pktAck:
			p.handleAck(pkt)
			freePacket(pkt)
			return
		default:
			if !p.admit(pkt) {
				freePacket(pkt) // checksum/duplicate reject: life ends here
				return
			}
		}
	}
	switch pkt.kind {
	case pktEager, pktRTS:
		if p.w.ft {
			if _, revoked := p.revokedAt[pkt.ctx]; revoked {
				// Late arrival on a poisoned context. Receives on it fail
				// at entry and every posted one was failed by the revoke
				// sweep, so the packet is unmatchable forever — free it
				// rather than queue it. (applyRevoke purges the ones that
				// arrived first; this catches the stragglers.) No metric:
				// whether a packet lands before or after the revoke is
				// host scheduling, not simulation.
				freePacket(pkt)
				return
			}
		}
		if req := p.posted.take(pkt); req != nil {
			p.deliver(req, pkt)
			return
		}
		p.unexp.add(pkt)
		p.noteUnexpGrowth()
	case pktCTS:
		req, ok := p.sendPending[pkt.reqID]
		if !ok {
			p.lateRndv(pkt, "CTS")
			return
		}
		delete(p.sendPending, pkt.reqID)
		p.rndvSendData(req, pkt)
		freePacket(pkt)
	case pktData:
		k := rndvKey{src: pkt.src, id: pkt.reqID}
		req, ok := p.recvPending[k]
		if !ok {
			p.lateRndv(pkt, "DATA")
			return
		}
		delete(p.recvPending, k)
		p.completeRndvRecv(req, pkt)
		freePacket(pkt)
	case pktRMA, pktRMAReply:
		st, ok := p.windows[pkt.ctx]
		if !ok {
			panic(fmt.Sprintf("nativempi: rank %d got RMA traffic for unknown window %d", p.rank, pkt.ctx))
		}
		st.incoming = append(st.incoming, pkt)
	case pktFailNotice:
		p.handleFailNotice(pkt)
		freePacket(pkt)
	case pktRevoke:
		p.handleRevoke(pkt)
		freePacket(pkt)
	case pktRndvFin:
		// The receiver has copied a borrowed rendezvous payload out of
		// this rank's buffer; the send may now complete. The fence is a
		// pure host-side ordering event: the request's completion TIME
		// was fixed at injection, identically to the framed leg.
		req, ok := p.finPending[pkt.reqID]
		if !ok {
			p.lateRndv(pkt, "FIN")
			return
		}
		delete(p.finPending, pkt.reqID)
		req.done = true
		freePacket(pkt)
	case pktCredit:
		// The grant it carried was applied above; the frame itself is
		// pure metadata.
		freePacket(pkt)
	case pktAbort:
		// Propagates as a panic so even deeply nested blocking calls
		// unwind; World.Run recovers it into this rank's error.
		panic(abortError{origin: pkt.src, reason: string(pkt.data.b)})
	}
}

// lateRndv disposes of a rendezvous CTS, DATA or FIN whose request
// this rank no longer holds. Under fault tolerance that is late
// traffic: a revoke or failure sweep failed and purged the request
// after its handshake had begun, so the packet is freed and counted as
// a dead letter. Without fault tolerance nothing purges a request, and
// an unknown one is a protocol bug.
func (p *Proc) lateRndv(pkt *packet, what string) {
	if !p.w.ft {
		panic(fmt.Sprintf("nativempi: rank %d got %s for unknown request %d from rank %d", p.rank, what, pkt.reqID, pkt.src))
	}
	p.w.met.Add(p.rank, "ft", "dead_letters", 1)
	freePacket(pkt)
}

// progressOnce makes one unit of progress, blocking until it can:
// dispatch the next packet, or — inside a thread group — let another
// simulated thread run. A nil pop means the baton travelled and came
// back; every caller loops on its own wake condition, so "no packet,
// but siblings ran" is progress too.
func (p *Proc) progressOnce() {
	if pkt := p.popBlocking(); pkt != nil {
		p.dispatch(pkt)
	}
}

// popBlocking dequeues the next packet, parking the rank in the
// phase-stepped engine while its mailbox is empty (the engine's ONLY
// blocking point; ranks only run inside World.Run, so there always is
// one). After an engine abort the final tryPop is guaranteed to find
// the poison packet: abortLocked pushes it to every mailbox before
// waking anyone.
//
// Inside a thread group the empty-mailbox case first hands the baton
// to any schedulable sibling thread and returns nil once it comes
// back — the caller must recheck its wake condition, which sibling
// dispatches may have satisfied. The whole rank blocks in the engine
// only when no simulated thread can progress without new mail, so the
// engine's deadlock accounting keeps seeing one state per rank.
func (p *Proc) popBlocking() *packet {
	for {
		if pkt, ok := p.mb.tryPop(); ok {
			return pkt
		}
		if tg := p.tg; tg != nil && tg.yieldTo(tPopWait) {
			return nil
		}
		p.w.eng.Load().block(p.rank)
		if p.tg != nil {
			p.threadStats.RankBlocks++
		}
	}
}

// engYield lets spin-polling paths (Test/Iprobe loops that never
// block) cooperate with the phase-stepped engine; a no-op without one.
// Inside a thread group the spin checkpoint first offers the baton to
// a schedulable sibling — the cooperative analogue of the OS
// preempting a polling thread.
func (p *Proc) engYield() {
	if tg := p.tg; tg != nil && tg.yieldTo(tSpinWait) {
		return
	}
	if eng := p.w.eng.Load(); eng != nil {
		eng.yield(p.rank)
	}
}

// poll drains already-arrived packets without blocking.
func (p *Proc) poll() {
	for {
		pkt, ok := p.mb.tryPop()
		if !ok {
			return
		}
		p.dispatch(pkt)
	}
}

// direct is the one host-datapath rule: payload references may cross
// ranks — a CTS carrying the receiver's landing for a placement write,
// a DATA packet borrowing the sender's payload — unless a fault plan is
// active (frames must be mutable for corruption and retransmission),
// the world is fault tolerant (a failure sweep could orphan the
// reference), or the profile pins the framed reference leg. It selects
// HOST data movement only: every virtual quantity is computed
// identically on both legs (DESIGN.md, "Host datapath policy").
func (p *Proc) direct() bool {
	return p.rel == nil && !p.w.ft && !p.w.prof.FramedDatapath
}

// rdmaOK reports whether the RDMA protocol tier is available on this
// rank: enabled in the profile, no fault plan (a remote placement
// cannot be framed, checksummed, or retransmitted), no fault tolerance
// (a failure sweep could orphan a remote key mid-placement). The
// PROTOCOL — registration charges, completion arithmetic — is what
// this gates; the host datapath follows direct().
func (p *Proc) rdmaOK() bool {
	return p.w.rdmaProto && p.rel == nil && !p.w.ft
}

// rdmaRndv decides the protocol tier of one rendezvous send: RDMA when
// the payload crosses the threshold, or — the adaptive switch keyed on
// registration-cache state — when the sender's buffer is already
// registered, making the RDMA path strictly cheaper than a DATA
// landing. The covered peek reads deterministic cache state only.
func (p *Proc) rdmaRndv(n int, buf []byte) bool {
	if !p.rdmaOK() {
		return false
	}
	return n >= p.w.prof.RDMAThreshold || p.reg.covered(buf)
}

// getReq returns a zeroed Request from the rank-confined free list;
// zeroing clears the free mark putReq set.
func (p *Proc) getReq() *Request {
	if n := len(p.reqFree); n > 0 {
		r := p.reqFree[n-1]
		p.reqFree[n-1] = nil
		p.reqFree = p.reqFree[:n-1]
		*r = Request{p: p}
		return r
	}
	return &Request{p: p}
}

// putReq parks a completed Request for reuse. Only the request's last
// holder may put it back, once nothing will read it again: the
// collective paths that issued and waited it, the blocking calls, and
// the bindings through Release. A request still in flight, or already
// on the list, is left alone.
//
// The invariant that makes done the test: a request is marked done
// only after it has left posted, sendPending, recvPending and
// finPending. deliver, completeRndvRecv, the FIN handler and the
// failure and revocation sweeps (ft.go) unlink before or as they
// complete, so the engine holds no reference to a done request and the
// next getReq cannot hand out a request a packet can still reach.
func (p *Proc) putReq(r *Request) {
	if r == nil || !r.done || r.free {
		return
	}
	r.free = true
	p.reqFree = append(p.reqFree, r)
}

// deliver completes the receive req with an eager payload or, for an
// RTS, starts the rendezvous reply. The packet's life ends here: both
// the eager payload (copied out) and the RTS metadata (answered with a
// CTS) are consumed, so deliver frees it on behalf of every caller.
func (p *Proc) deliver(req *Request, pkt *packet) {
	ch := p.channel(pkt.src)
	switch pkt.kind {
	case pktEager:
		total := pkt.data.size()
		if total > req.data.size() {
			req.err = fmt.Errorf("%w: %d-byte message into %d-byte buffer", ErrTruncated, total, req.data.size())
		}
		// A strided landing has the CPU scatter the contiguous eager
		// image into its runs, paying the per-run unpack cost below.
		n := req.data.copyFrom(pkt.data)
		p.copyStats.count(n)
		complete := vtime.Max(req.postedAt, pkt.arriveAt).
			Add(ch.RecvOverhead + p.recvSoft(pkt.src) + req.extraRecvCost + p.ddtPackCost(req.data.runs()))
		// A message that hit the wire before the receive was posted
		// sat in a bounce buffer and pays one extra copy now. The
		// comparison uses virtual times only, keeping runs
		// deterministic under host scheduling.
		if pkt.arriveAt < req.postedAt {
			complete = complete.Add(vtime.PerByte(n, ch.Bandwidth))
			p.stats.Unexpected++
		}
		req.status = Status{Source: pkt.src, Tag: pkt.tag, Bytes: total}
		req.completeAt = complete
		req.done = true
		p.stats.MsgsReceived++
		p.recordRecv(pkt.src, total, req.postedAt, complete)
		p.fcConsumed(pkt.src, complete)
		freePacket(pkt)
	case pktRTS:
		if pkt.nbytes > req.data.size() {
			req.err = fmt.Errorf("%w: %d-byte rendezvous into %d-byte buffer", ErrTruncated, pkt.nbytes, req.data.size())
		}
		readyAt := vtime.Max(req.postedAt, pkt.arriveAt)
		req.rndvFrom = pkt.src
		req.rndvTag = pkt.tag
		p.recvPending[rndvKey{src: pkt.src, id: pkt.reqID}] = req
		cts := getPacket()
		cts.kind = pktCTS
		cts.src = p.rank
		cts.dst = pkt.src
		cts.ctx = pkt.ctx
		cts.reqID = pkt.reqID
		if pkt.rdma {
			// RDMA-mode rendezvous: the CTS carries the remote key, so
			// the landing buffer must be registered before it can be
			// issued — the pin-down cost (zero on a cache hit) delays
			// the CTS, never the receiver's other work. On the direct
			// datapath the CTS also carries the landing itself for the
			// sender's placement write; host movement only, every
			// virtual quantity is placement-independent.
			land := req.data.prefix(pkt.nbytes)
			readyAt = readyAt.Add(p.reg.acquire(land.region(), readyAt))
			cts.rdma = true
			if p.direct() {
				cts.data = land
				cts.borrowed = true
			}
		}
		cts.sentAt = readyAt
		cts.arriveAt = readyAt.Add(ch.Latency)
		src, reqID := pkt.src, pkt.reqID
		freePacket(pkt)
		if err := p.post(src, cts); err != nil {
			// The rendezvous partner is unreachable: the receive fails
			// in place instead of waiting for data that will never come.
			delete(p.recvPending, rndvKey{src: src, id: reqID})
			p.failReq(req, readyAt, err)
		}
	default:
		panic("nativempi: deliver on control packet")
	}
}

// rndvSendData runs the data phase after a CTS: inject the payload,
// complete the send request when the injection resource is done.
func (p *Proc) rndvSendData(req *Request, cts *packet) {
	ch := p.channel(req.dst)
	// The data phase is driven by the CTS arrival and the injection
	// resource, not by when this rank's CPU happened to poll the
	// mailbox: rendezvous transfers are RDMA-offloaded, and using
	// clock.Now() here would let host scheduling leak into virtual
	// time (the CTS is dispatched at whichever poll point it rides
	// in on). The injection endpoint was fixed when the send was
	// issued (req.ep), not re-derived here: whichever thread's poll
	// the CTS rides in on, the charge lands on the issuing thread's
	// endpoint.
	nic := p.nicSlot(req.ep)
	start := vtime.Max(cts.arriveAt, *nic)
	start = start.Add(ch.RndvHandshake)
	n := req.data.size()
	if cts.rdma {
		// RDMA mode: the NIC reads the source buffer directly, so it
		// too must be pinned — same cache, same amortization as the
		// receiver's side.
		start = start.Add(p.reg.acquire(req.data.region(), start))
	}
	// The send completes when the first injection clears the NIC;
	// reliablePost may keep the NIC busy later for retransmissions,
	// but those never block the sender's CPU.
	injected := start.Add(ch.SerializeTime(n))
	*nic = injected
	pkt := getPacket()
	pkt.kind = pktData
	pkt.src = p.rank
	pkt.dst = req.dst
	pkt.tag = req.tag
	pkt.ctx = req.ctx
	pkt.rdma = cts.rdma
	pkt.nbytes = n
	pkt.reqID = req.id
	pkt.sentAt = start
	pkt.arriveAt = start.Add(ch.TransferTime(n))
	// The one place the host datapath picks its leg. Every virtual
	// quantity above — start, injection, arrival, completion — is the
	// same on all three; they differ in who performs the transfer's
	// host copy.
	switch {
	case cts.data.size() > 0:
		// Placement write: the sender performs the only memcpy, straight
		// into the receiver's registered landing (carried by the CTS),
		// and the DATA packet degenerates to a payload-less completion
		// notification. Host-safe: the landing travelled
		// receiver→sender through the mailbox, and the receiver only
		// reads it after popping the completion packet, so both
		// directions carry a happens-before edge.
		placed := cts.data.copyFrom(req.data)
		p.copyStats.count(placed)
		if cts.data.strided() || req.data.strided() {
			p.copyStats.elide(placed) // the pack image a strided end would otherwise stage through
		}
		p.rdmaStats.Writes++
		p.rdmaStats.BytesPlaced += int64(placed)
	case p.direct():
		// Borrow: the receiver copies straight out of the sender's live
		// payload. Completion TIME is fixed below; completion ITSELF
		// waits for the receiver's fence so the sender cannot reuse the
		// buffer while the borrow is outstanding (a host-correctness
		// gate only — Wait/Test still report completeAt = injected).
		pkt.data = req.data
		pkt.borrowed = true
		p.copyStats.elide(n)
		p.finPending[req.id] = req
	default:
		// Framed: gather into a pooled wire image the reliability layer
		// can checksum, corrupt and retransmit — the only leg that runs
		// under a fault plan or FT, and the reference the differential
		// suites compare the other two against.
		wire := getWire(n)
		req.data.gatherInto(wire)
		p.copyStats.count(n)
		p.copyStats.FramedRndv++
		pkt.data = Contig(wire)
		pkt.ownsData = true
	}
	req.done = !pkt.borrowed
	req.completeAt = injected
	req.err = p.post(req.dst, pkt)
	p.recordSend(req.dst, n, start, req.completeAt)
}

// ddtPackCost is the eager tier's CPU charge for packing (sender) or
// unpacking (receiver) a non-contiguous payload: ddtPackRun per run
// boundary beyond the first. Zero for contiguous messages, and
// identical on every host datapath leg — the charge is protocol level.
func (p *Proc) ddtPackCost(runs int) vtime.Duration {
	if runs <= 1 {
		return 0
	}
	return ddtPackRun * vtime.Duration(runs-1)
}

// completeRndvRecv lands the data phase in the user buffer.
func (p *Proc) completeRndvRecv(req *Request, pkt *packet) {
	ch := p.channel(pkt.src)
	// nbytes is the transfer size whichever leg carried it; a placement
	// write already put the payload in the user buffer and its DATA is
	// only the completion notification, so nothing is left to move. A
	// short landing was flagged at RTS time and copyFrom stops at it.
	total := pkt.nbytes
	if n := req.data.copyFrom(pkt.data); n > 0 {
		p.copyStats.count(n)
	}
	req.status = Status{Source: pkt.src, Tag: pkt.tag, Bytes: total}
	if pkt.rdma {
		// The one-sided placement bypasses the receiver's protocol
		// stack: completion costs the NIC's completion-event handling
		// only, not RecvOverhead plus the library's software receive
		// path — the large-message win the RDMA channel exists for.
		req.completeAt = pkt.arriveAt.Add(ch.RDMAFinOverhead + req.extraRecvCost)
	} else {
		req.completeAt = pkt.arriveAt.Add(ch.RecvOverhead + p.recvSoft(pkt.src) + req.extraRecvCost)
	}
	req.done = true
	p.stats.MsgsReceived++
	p.recordRecv(pkt.src, total, req.postedAt, req.completeAt)
	if pkt.borrowed {
		// Release the sender's buffer: the copy-out above was the last
		// read of the borrow. The fence is raw host traffic — borrowed
		// payloads only exist on lossless fabrics — and carries no
		// virtual stamps anyone reads.
		fin := getPacket()
		fin.kind = pktRndvFin
		fin.src = p.rank
		fin.dst = pkt.src
		fin.reqID = pkt.reqID
		p.postRaw(pkt.src, fin)
	}
}
