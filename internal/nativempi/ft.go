package nativempi

import (
	"encoding/binary"
	"errors"
	"fmt"

	"mv2j/internal/trace"
	"mv2j/internal/vtime"
)

// Fault tolerance: simulation-grade ULFM.
//
// Without fault tolerance a rank failure has exactly one outcome —
// the retransmit budget toward the dead peer runs dry and the job
// aborts. EnableFT converts that into the ULFM policy instead:
//
//   - A scheduled crash (faults.Crash) kills its rank at the first
//     QUIESCENT operation entry at or past the trigger: no receives
//     posted, no rendezvous handshake in flight. This models a process
//     failing between MPI calls, and it is the determinism anchor —
//     a rank never dies owing protocol steps, so there is never a
//     half-open rendezvous whose fate depends on host scheduling.
//   - The death fans out as failure-notice packets carrying a
//     virtual-time heartbeat verdict: peers suspect the silence after
//     suspectBeats missed beats and confirm it one beat
//     later. Pending operations toward the dead rank fail at confirm
//     time with ErrProcFailed — survivors blocked in matched receives
//     or collectives wake instead of deadlocking.
//   - The dead rank's mailbox keeps absorbing traffic; World.drainPending
//     admits (and acks) all of it after the run, so a sender's
//     reliability protocol settles identically whether its target died
//     or not — the simulated NIC acks posthumously. Eager sends toward
//     a dead or revoked destination likewise complete locally and
//     evaporate, exactly like MPI buffered sends; only rendezvous
//     operations, which need the peer's cooperation, fail.
//   - Comm.Revoke poisons a communicator (MPIX_Comm_revoke),
//     Comm.Shrink agrees on the failed set and rebuilds a live-ranks
//     communicator (MPIX_Comm_shrink), and Comm.AgreeFT is
//     fault-tolerant agreement (MPIX_Comm_agree).
//
// What is NOT modeled, deliberately: ERA's full multi-phase agreement
// (our coordinator's decision broadcast commits atomically with
// respect to its own scheduled death instead), failure detection of
// non-crashed-but-slow processes (virtual time has no stragglers), and
// failure awareness for wildcard (AnySource) receives, which in ULFM
// only raise an advisory MPI_ERR_PROC_FAILED_PENDING anyway.

// ErrProcFailed is the MPI_ERR_PROC_FAILED-class error: the operation
// involved a process that has failed.
var ErrProcFailed = errors.New("nativempi: peer process failed")

// ErrRevoked is the MPI_ERR_REVOKED-class error: the communicator was
// revoked by some member.
var ErrRevoked = errors.New("nativempi: communicator revoked")

// recoveryCtx is the reserved context id carrying agreement traffic.
// Recovery must flow on a context that can never be revoked and never
// collides with application communicators (real ids are >= 0).
const recoveryCtx int32 = -2

// rankCrash is the panic payload that unwinds a rank at its scheduled
// death. World.Run recovers it silently: a scheduled death is
// scenario, not job failure.
type rankCrash struct {
	rank int
	at   vtime.Time
}

// EnableFT switches the world to the ULFM-style failure policy. Call
// before Run.
func (w *World) EnableFT() { w.ft = true }

// FailedRanks returns the world ranks that have died, ascending.
func (w *World) FailedRanks() []int {
	w.failMu.Lock()
	defer w.failMu.Unlock()
	var out []int
	for r := range w.deathAt {
		out = append(out, r)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// confirmTime maps a death instant to the virtual time survivors
// confirm it: suspectBeats missed heartbeats to suspect, one more to
// confirm.
func (w *World) confirmTime(deathAt vtime.Time) vtime.Time {
	return deathAt.Add((suspectBeats + 1) * heartbeatPeriod)
}

// markDead registers a death and fans the detector verdict out to
// every peer. Runs on the dying rank's goroutine.
func (w *World) markDead(rank int, at vtime.Time) {
	w.failMu.Lock()
	if w.deathAt == nil {
		w.deathAt = map[int]vtime.Time{}
	}
	if _, dup := w.deathAt[rank]; dup {
		w.failMu.Unlock()
		return
	}
	w.deathAt[rank] = at
	w.failMu.Unlock()
	if w.rec != nil {
		w.rec.Record(trace.Event{
			Rank: rank, Kind: trace.KindFault, Detail: "crash", Peer: -1,
			Start: at, End: at,
		})
	}
	w.met.Add(rank, "ft", "crashes", 1)
	confirmAt := w.confirmTime(at)
	eng := w.eng.Load()
	for _, q := range w.procs {
		if q.rank == rank {
			continue
		}
		// sentAt carries the death instant, arriveAt the confirm time;
		// the receiver derives the suspect transition from the profile.
		pkt := &packet{
			kind: pktFailNotice, src: rank, dst: q.rank,
			sentAt: at, arriveAt: confirmAt,
		}
		// markDead runs on the dying rank's goroutine while it still
		// holds its execution token, so the notices go through its
		// engine outbox like any other emission — flushed at the barrier
		// its retirement triggers, in canonical merge order.
		eng.emit(rank, q.rank, pkt)
	}
}

// revokeTime computes the canonical poison instant for revoking a
// communicator: one heartbeat after the latest registered member
// death is confirmed, so concurrent revokers of the same failure
// compute the same instant and the poison's effect on any pending
// operation is order-invariant. A revoke with no registered member
// failure (legal, like MPIX_Comm_revoke) anchors on the caller's
// clock instead.
func (w *World) revokeTime(group []int, fallback vtime.Time) vtime.Time {
	w.failMu.Lock()
	defer w.failMu.Unlock()
	var base vtime.Time
	for _, wr := range group {
		if at, ok := w.deathAt[wr]; ok {
			if c := w.confirmTime(at); c > base {
				base = c
			}
		}
	}
	if base == 0 {
		return fallback.Add(heartbeatPeriod)
	}
	return base
}

// checkCrash is the death trigger, evaluated at every MPI operation
// entry. The rank dies only when quiescent — every request it issued
// has been consumed by a Wait/Test — so death defers past any protocol
// steps the rank still owes its peers (they complete or fail
// deterministically first, never dangle).
//
// Quiescence is judged by the program-order inflight count, never by
// engine state like the posted-receive list: whether an already-posted
// receive has matched depends on when the peer's packet was drained in
// HOST time (the packet may sit in the mailbox long before its virtual
// arrival), and a gate reading that state would make the death instant
// host-scheduling-dependent.
func (p *Proc) checkCrash() {
	p.opCount++
	if p.crash == nil || p.crashed || p.crashHold > 0 {
		return
	}
	c := p.crash
	if !(c.At > 0 && p.clock.Now() >= c.At) && !(c.AfterOps > 0 && p.opCount >= c.AfterOps) {
		return
	}
	if p.inflight > 0 {
		return
	}
	p.die()
}

// die executes the scheduled crash. Without fault tolerance it is the
// MPI_Abort escalation, exactly as an exhausted retransmit budget
// would be; with it, the rank unwinds silently and survivors recover.
func (p *Proc) die() {
	p.crashed = true
	at := p.clock.Now()
	if !p.w.ft {
		reason := fmt.Sprintf("rank %d crashed at %v (no fault tolerance)", p.rank, at)
		p.w.Abort(p.rank, reason)
		panic(abortError{origin: p.rank, reason: reason})
	}
	p.w.markDead(p.rank, at)
	panic(rankCrash{rank: p.rank, at: at})
}

// holdCrash suppresses the crash trigger across a protocol section
// that must commit atomically; the returned func releases it.
func (p *Proc) holdCrash() func() {
	p.crashHold++
	return func() { p.crashHold-- }
}

// failReq completes a request exceptionally at the given virtual
// time (never before it was posted).
func (p *Proc) failReq(req *Request, at vtime.Time, err error) {
	if req.done {
		return
	}
	req.err = err
	req.completeAt = vtime.Max(req.postedAt, at)
	req.done = true
}

// procFailedErr builds the per-peer ErrProcFailed instance.
func procFailedErr(rank int) error {
	return fmt.Errorf("%w: rank %d", ErrProcFailed, rank)
}

// handleFailNotice applies one detector verdict: record the
// suspect→confirm transition and fail every pending operation that
// depends on the dead peer, all at confirm time.
func (p *Proc) handleFailNotice(pkt *packet) {
	dead, deathAt, confirmAt := pkt.src, pkt.sentAt, pkt.arriveAt
	if p.failedPeers == nil {
		p.failedPeers = map[int]vtime.Time{}
	}
	if at, known := p.failedPeers[dead]; known {
		if confirmAt < at {
			p.failedPeers[dead] = confirmAt
		}
		return
	}
	p.failedPeers[dead] = confirmAt
	p.stats.PeerSuspects++
	p.stats.PeerConfirms++
	suspectAt := confirmAt.Add(-heartbeatPeriod)
	if p.w.rec != nil {
		p.w.rec.Record(trace.Event{
			Rank: p.rank, Kind: trace.KindDetect,
			Detail: fmt.Sprintf("confirm rank %d dead", dead), Peer: dead,
			Start: suspectAt, End: confirmAt,
		})
	}
	p.w.met.Add(p.rank, "ft", "suspects", 1)
	p.w.met.Add(p.rank, "ft", "confirms", 1)
	p.w.met.Observe(p.rank, "ft", "detect_ps", int64(confirmAt.Sub(deathAt)))

	err := procFailedErr(dead)
	p.posted.failWhere(
		func(req *Request) bool { return req.src == dead },
		func(req *Request) { p.failReq(req, confirmAt, err) })
	for id, req := range p.recvPending {
		if req.rndvFrom == dead {
			delete(p.recvPending, id)
			p.failReq(req, confirmAt, err)
		}
	}
	for id, req := range p.sendPending {
		if req.dst == dead {
			delete(p.sendPending, id)
			p.failReq(req, confirmAt, err)
		}
	}
}

// handleRevoke applies one revocation packet: ctx carries the
// point-to-point context, tag the collective one, arriveAt the
// canonical poison time.
func (p *Proc) handleRevoke(pkt *packet) {
	p.applyRevoke(pkt.ctx, int32(pkt.tag), pkt.arriveAt)
}

// applyRevoke poisons a communicator's two contexts and fails every
// pending operation on them. Later revocations of the same contexts
// min-merge the poison time but have no further effect.
func (p *Proc) applyRevoke(ptCtx, collCtx int32, at vtime.Time) {
	if p.revokedAt == nil {
		p.revokedAt = map[int32]vtime.Time{}
	}
	fresh := false
	for _, ctx := range [2]int32{ptCtx, collCtx} {
		if old, ok := p.revokedAt[ctx]; !ok {
			p.revokedAt[ctx] = at
			fresh = true
		} else if at < old {
			p.revokedAt[ctx] = at
		}
	}
	if !fresh {
		return
	}
	p.stats.RevokesSeen++
	p.w.met.Add(p.rank, "ft", "revokes_applied", 1)
	err := fmt.Errorf("%w: contexts %d/%d", ErrRevoked, ptCtx, collCtx)
	onCtx := func(ctx int32) bool { return ctx == ptCtx || ctx == collCtx }
	p.posted.failWhere(
		func(req *Request) bool { return onCtx(req.ctx) },
		func(req *Request) { p.failReq(req, at, err) })
	for id, req := range p.recvPending {
		if onCtx(req.ctx) {
			delete(p.recvPending, id)
			p.failReq(req, at, err)
		}
	}
	for id, req := range p.sendPending {
		if onCtx(req.ctx) {
			delete(p.sendPending, id)
			p.failReq(req, at, err)
		}
	}
	// Unexpected packets on the revoked contexts can never match a
	// receive again (receives on them fail at entry); drop them so
	// their pooled payloads return instead of leaking. Purging counts
	// as consumption for flow control — the queue space is reclaimed at
	// the poison time, so the credits travel back to their senders.
	p.unexp.purgeWhere(func(k matchKey) bool { return onCtx(k.ctx) }, func(pkt *packet) {
		if pkt.kind == pktEager {
			p.fcConsumed(pkt.src, at)
		}
		freePacket(pkt)
	})
}

// entryCheckSend fails a rendezvous send at entry when its context is
// revoked or its destination confirmed dead — the same deterministic
// outcome the pending request would reach when the notice arrived,
// taken early so no RTS toward a corpse is ever emitted.
func (p *Proc) entryCheckSend(wdst, tag int, ctx int32) (*Request, bool) {
	if !p.w.ft {
		return nil, false
	}
	req := func(at vtime.Time, err error) *Request {
		r := &Request{p: p, dst: wdst, tag: tag, ctx: ctx, postedAt: p.clock.Now()}
		p.failReq(r, at, err)
		return r
	}
	if at, ok := p.revokedAt[ctx]; ok {
		return req(at, fmt.Errorf("%w: context %d", ErrRevoked, ctx)), true
	}
	if at, ok := p.failedPeers[wdst]; ok {
		return req(at, procFailedErr(wdst)), true
	}
	return nil, false
}

// entryCheckRecv fails a just-posted receive when its context is
// revoked or its (named) source confirmed dead. Wildcard receives are
// not failure-checked against peers: see the package comment.
func (p *Proc) entryCheckRecv(req *Request) bool {
	if !p.w.ft {
		return false
	}
	if at, ok := p.revokedAt[req.ctx]; ok {
		p.failReq(req, at, fmt.Errorf("%w: context %d", ErrRevoked, req.ctx))
		return true
	}
	if req.src != AnySource {
		if at, ok := p.failedPeers[req.src]; ok {
			p.failReq(req, at, procFailedErr(req.src))
			return true
		}
	}
	return false
}

// Revoke poisons the communicator on every member — MPIX_Comm_revoke.
// Any pending or future operation on it completes with ErrRevoked (at
// the canonical poison time), which is how survivors blocked against
// departed peers are flushed out of a half-finished collective.
// Revoke is not collective: any member may call it, concurrent calls
// are idempotent, and it never blocks.
func (c *Comm) Revoke() error {
	p := c.p
	if !p.w.ft {
		return fmt.Errorf("%w: Revoke requires fault tolerance (EnableFT)", ErrComm)
	}
	revAt := p.w.revokeTime(c.group, p.clock.Now())
	p.applyRevoke(c.ptCtx, c.collCtx, revAt)
	for i, wr := range c.group {
		if i == c.myRank {
			continue
		}
		// Pushed to every member, dead ones included: a corpse's
		// mailbox counters must not depend on what the revoker knew.
		p.postRaw(wr, &packet{
			kind: pktRevoke, src: p.rank, dst: wr,
			ctx: c.ptCtx, tag: int(c.collCtx),
			sentAt: p.clock.Now(), arriveAt: revAt,
		})
	}
	p.w.met.Add(p.rank, "ft", "revokes", 1)
	return nil
}

// Revoked reports whether this communicator has been revoked (as seen
// by the calling rank).
func (c *Comm) Revoked() bool {
	_, ok := c.p.revokedAt[c.ptCtx]
	return ok
}

// FailedMembers returns the communicator ranks this rank knows to be
// dead, ascending.
func (c *Comm) FailedMembers() []int {
	var out []int
	for i, wr := range c.group {
		if _, dead := c.p.failedPeers[wr]; dead {
			out = append(out, i)
		}
	}
	return out
}

// AgreeFT is fault-tolerant agreement — MPIX_Comm_agree. Every live
// member contributes a flag word; all of them receive the bitwise AND
// of the contributions that made it into the decision. The protocol
// terminates despite members (including the coordinator) dying
// mid-protocol. It must be called by every live member.
func (c *Comm) AgreeFT(flag uint64) (uint64, error) {
	out, _, _, err := c.agree(flag)
	return out, err
}

// Shrink agrees on the failed membership and builds the survivors'
// communicator — MPIX_Comm_shrink. Member order is preserved; fresh
// context ids are agreed as part of the decision so every survivor
// lands on the same pair.
func (c *Comm) Shrink() (*Comm, error) {
	p := c.p
	start := p.clock.Now()
	_, failed, ctxBase, err := c.agree(^uint64(0))
	if err != nil {
		return nil, err
	}
	return c.rebuildWithout(failed, ctxBase, start), nil
}

// AgreeShrink couples agreement on a flag word with communicator
// repair: one protocol round decides the flag AND the failed
// membership. When no member failed, the original communicator comes
// back unchanged; otherwise every survivor gets the same shrunken
// rebuild. Because every agreement allocates a context pair, a member
// calling AgreeShrink as a completion barrier and a member calling it
// (or Shrink) for recovery merge into the same decision — the
// property the benchmark drivers' exit protocol depends on.
func (c *Comm) AgreeShrink(flag uint64) (uint64, *Comm, []int, error) {
	p := c.p
	start := p.clock.Now()
	out, failed, ctxBase, err := c.agree(flag)
	if err != nil {
		return 0, nil, nil, err
	}
	if len(failed) == 0 {
		return out, c, nil, nil
	}
	return out, c.rebuildWithout(failed, ctxBase, start), failed, nil
}

// rebuildWithout materialises the post-agreement communicator: the
// agreed failed members removed, member order preserved, contexts from
// the agreed base.
func (c *Comm) rebuildWithout(failed []int, ctxBase int32, start vtime.Time) *Comm {
	p := c.p
	dead := map[int]bool{}
	for _, f := range failed {
		dead[f] = true
	}
	var group []int
	myNew := -1
	for i, wr := range c.group {
		if dead[i] {
			continue
		}
		if i == c.myRank {
			myNew = len(group)
		}
		group = append(group, wr)
	}
	nc := &Comm{p: p, group: group, myRank: myNew, ptCtx: ctxBase, collCtx: ctxBase + 1}
	p.w.met.Add(p.rank, "ft", "shrinks", 1)
	p.w.met.Observe(p.rank, "ft", "shrink_ps", int64(p.clock.Now().Sub(start)))
	if p.w.rec != nil {
		p.w.rec.Record(trace.Event{
			Rank: p.rank, Kind: trace.KindRecovery,
			Detail: fmt.Sprintf("shrink %d->%d", len(c.group), len(group)), Peer: -1,
			Start: start, End: p.clock.Now(),
		})
	}
	return nc
}

// Agreement wire format (all traffic on recoveryCtx, eager-sized):
//
//	contribution (follower → coordinator), tag agreeTag(c, seq, 0):
//	    [8] flag
//	result (coordinator → follower), tag agreeTag(c, seq, 1):
//	    [1] kind (agreeResult | agreeRestart)
//	    [8] flag (AND of heard contributions; zero for restart)
//	    [4] ctxBase (freshly allocated pair for a possible rebuild)
//	    [(size+7)/8] failed-member bitmap (restart: coordinator's view)
const (
	agreeResult  = 0
	agreeRestart = 1
)

// agreeTag gives each (communicator, agreement, direction) its own tag
// on the shared recovery context.
func agreeTag(c *Comm, seq, dir int) int {
	return (int(c.collCtx)*2048+seq)*2 + dir
}

// agree runs one agreement round set: the lowest live comm rank (by
// this rank's failure knowledge) coordinates — it gathers one
// contribution per live member, ANDs them, and broadcasts the
// decision. A member death mid-gather triggers a restart broadcast
// (carrying the coordinator's grown failure view); a coordinator
// death fails the followers' result receive, and they re-run against
// the next live coordinator. Each retry permanently excludes at least
// one confirmed-dead member, so the protocol terminates. The decision
// broadcast itself commits atomically with respect to the
// coordinator's own scheduled death — the simulation's stand-in for
// ERA's result-recovery sub-protocol.
func (c *Comm) agree(flag uint64) (uint64, []int, int32, error) {
	p := c.p
	if !p.w.ft {
		return 0, nil, 0, fmt.Errorf("%w: agreement requires fault tolerance (EnableFT)", ErrComm)
	}
	c.ftSeq++
	seq := c.ftSeq
	size := len(c.group)
	bm := (size + 7) / 8
	tagC := agreeTag(c, seq, 0)
	tagR := agreeTag(c, seq, 1)
	start := p.clock.Now()
	rounds := 0

	// view accumulates comm ranks known failed for THIS agreement:
	// seeded from detector knowledge each round, grown by restart
	// bitmaps adopted from a coordinator.
	view := map[int]bool{}
	syncView := func() {
		for i, wr := range c.group {
			if i == c.myRank {
				continue
			}
			if _, dead := p.failedPeers[wr]; dead {
				view[i] = true
			}
		}
	}
	finish := func(out uint64, failed []int, ctxBase int32) (uint64, []int, int32, error) {
		p.w.met.Add(p.rank, "ft", "agrees", 1)
		p.w.met.Observe(p.rank, "ft", "agree_rounds", int64(rounds))
		if p.w.rec != nil {
			p.w.rec.Record(trace.Event{
				Rank: p.rank, Kind: trace.KindRecovery,
				Detail: fmt.Sprintf("agree seq=%d rounds=%d", seq, rounds), Peer: -1,
				Start: start, End: p.clock.Now(),
			})
		}
		return out, failed, ctxBase, nil
	}

	for guard := 0; guard < 2*size+4; guard++ {
		rounds++
		syncView()
		coord := -1
		for i := 0; i < size; i++ {
			if i == c.myRank || !view[i] {
				coord = i
				break
			}
		}

		if coord != c.myRank {
			// Follower: contribute to the best coordinator guess, then
			// await its decision. A wrong (already dead) guess costs one
			// round: the contribution evaporates and the result receive
			// fails at the coordinator's confirm time.
			var cbuf [8]byte
			binary.LittleEndian.PutUint64(cbuf[:], flag)
			sreq := p.isendOn(Contig(cbuf[:]), c.group[coord], tagC, sendOpts{ctx: recoveryCtx})
			if _, err := sreq.Wait(); err != nil && !errors.Is(err, ErrProcFailed) {
				return 0, nil, 0, err
			}
			rbuf := make([]byte, 1+8+4+bm)
			rreq := p.irecvOn(Contig(rbuf), c.group[coord], tagR, sendOpts{ctx: recoveryCtx})
			if _, err := rreq.Wait(); err != nil {
				if errors.Is(err, ErrProcFailed) {
					continue
				}
				return 0, nil, 0, err
			}
			if rbuf[0] == agreeRestart {
				for i := 0; i < size; i++ {
					if rbuf[13+i/8]&(1<<(i%8)) != 0 {
						view[i] = true
					}
				}
				continue
			}
			out := binary.LittleEndian.Uint64(rbuf[1:9])
			ctxBase := int32(binary.LittleEndian.Uint32(rbuf[9:13]))
			var failed []int
			for i := 0; i < size; i++ {
				if rbuf[13+i/8]&(1<<(i%8)) != 0 {
					failed = append(failed, i)
				}
			}
			return finish(out, failed, ctxBase)
		}

		// Coordinator: gather one contribution per member outside the
		// view. A receive failing means that member died since the view
		// was built — restart with the grown view.
		agreed := flag
		newDeath := false
		for i := 0; i < size; i++ {
			if i == c.myRank || view[i] {
				continue
			}
			var buf [8]byte
			rreq := p.irecvOn(Contig(buf[:]), c.group[i], tagC, sendOpts{ctx: recoveryCtx})
			if _, err := rreq.Wait(); err != nil {
				if errors.Is(err, ErrProcFailed) {
					newDeath = true
					continue
				}
				return 0, nil, 0, err
			}
			agreed &= binary.LittleEndian.Uint64(buf[:])
		}
		if newDeath {
			syncView()
			msg := make([]byte, 1+8+4+bm)
			msg[0] = agreeRestart
			for i := range view {
				msg[13+i/8] |= 1 << (i % 8)
			}
			if err := c.agreeBroadcast(view, msg, tagR); err != nil {
				return 0, nil, 0, err
			}
			continue
		}
		// A context pair is allocated for EVERY decision, used or not:
		// it keeps the decision self-contained, so callers that reached
		// the agreement with different intents (completion barrier vs
		// shrink) still converge on one identical result.
		ctxBase := p.w.allocCtx(2)
		msg := make([]byte, 1+8+4+bm)
		msg[0] = agreeResult
		binary.LittleEndian.PutUint64(msg[1:9], agreed)
		binary.LittleEndian.PutUint32(msg[9:13], uint32(ctxBase))
		var failed []int
		for i := 0; i < size; i++ {
			if view[i] {
				failed = append(failed, i)
				msg[13+i/8] |= 1 << (i % 8)
			}
		}
		// The decision is committed: survivors that receive it return
		// from the agreement and will not answer a retry, so the
		// broadcast must not be severed by this rank's own scheduled
		// death halfway through.
		release := p.holdCrash()
		err := c.agreeBroadcast(view, msg, tagR)
		release()
		if err != nil {
			return 0, nil, 0, err
		}
		return finish(agreed, failed, ctxBase)
	}
	return 0, nil, 0, fmt.Errorf("%w: agreement did not converge", ErrProcFailed)
}

// agreeBroadcast sends a result/restart message to every member
// outside the view. Sends toward members that died since are buffered
// sends into the void; only non-failure errors propagate.
func (c *Comm) agreeBroadcast(view map[int]bool, msg []byte, tag int) error {
	p := c.p
	for i := 0; i < len(c.group); i++ {
		if i == c.myRank || view[i] {
			continue
		}
		sreq := p.isendOn(Contig(msg), c.group[i], tag, sendOpts{ctx: recoveryCtx})
		if _, err := sreq.Wait(); err != nil && !errors.Is(err, ErrProcFailed) {
			return err
		}
	}
	return nil
}
