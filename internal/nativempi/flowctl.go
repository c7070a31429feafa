package nativempi

import (
	"fmt"

	"mv2j/internal/trace"
	"mv2j/internal/vtime"
)

// Credit-based eager flow control — the backpressure tier that makes a
// many-to-one flood degrade gracefully instead of growing the
// receiver's unexpected queue without bound (MVAPICH2's RC-channel
// credit scheme; see Liu et al. and the Ibdxnet receiver-side
// backpressure design in PAPERS.md).
//
// The protocol is cumulative-counter based, which makes every message
// idempotent and loss-tolerant:
//
//   - The sender tracks, per peer, how many eager messages it has
//     injected (sent) and the highest consumption total the peer has
//     advertised back (granted). Available credit is
//     EagerCredits - (sent - granted); at zero the sender parks.
//   - The receiver counts eager consumptions per source (consumed) and
//     advertises the running total — a GRANT — back to the source:
//     piggybacked on every frame it sends that way anyway (payloads
//     under post, reliability acks under admit), and, when traffic is
//     one-sided and CreditBatch consumptions have accumulated with no
//     piggyback opportunity, as an explicit CREDIT frame.
//   - A grant also carries the receiver's demote bit: set while the
//     unexpected queue sits above half of UnexpectedQueueBytes. A
//     demoted sender routes eager-sized messages through the
//     rendezvous handshake, so the payload stays at the sender until a
//     receive is posted — the eager→rendezvous degradation tier.
//
// Because grants are cumulative maxima, applying one twice (duplicated
// reliability copies all inherit the piggyback fields) or out of order
// is harmless, and a lost grant is subsumed by the next one. Explicit
// CREDIT frames are NIC-autonomous control traffic, exactly like acks:
// no CPU charge, no injection-resource use, and they bypass the
// reliability layer's framing (the modelled transport is an RC channel;
// a cumulative grant needs no retransmission of its own). Below the
// credit limit flow control therefore moves NOTHING virtual — no clock,
// no trace event, no deterministic metric — which the differential
// suite checks byte for byte.
//
// When credit runs out the sender parks in VIRTUAL time: it polls for
// the freeing grant on an exponential receiver-not-ready schedule
// (retransmitRTO, then ×retransmitBackoff per probe, like the RTO
// ladder) and resumes at the first probe instant at or after the
// grant's arrival. The wait is charged to the sender's clock as a
// KindFlow span — real stall time, accounted like retransmission waits
// (see DESIGN.md, "Backpressure vs. the virtual-time invariant").

// maxRNRWait caps the receiver-not-ready backoff step so the probe
// ladder cannot overflow however long a receiver stays saturated.
const maxRNRWait = vtime.Duration(1) << 42 // ~4.4 virtual seconds

// FlowStats counts host-side flow-control activity for one rank. Like
// MailboxStats these are HOST observability numbers (whether a grant
// travelled piggybacked or explicit is protocol plumbing, and keeping
// frame counts out of the registry is what lets a below-limit run
// export byte-identical artifacts with flow control on or off). The
// deterministic registry carries only the quantities that are zero
// below the credit limit: rnr_parks, rnr_wait_ps, demoted_sends.
type FlowStats struct {
	CreditFrames  int64 `json:"credit_frames"`  // explicit CREDIT frames emitted
	Piggybacks    int64 `json:"piggybacks"`     // grants advanced on outbound payloads
	GrantsApplied int64 `json:"grants_applied"` // fresh grants applied at the sender
	RNRParks      int64 `json:"rnr_parks"`      // credit-exhaustion parks
	RNRWaitPs     int64 `json:"rnr_wait_ps"`    // total virtual park time
	DemotedSends  int64 `json:"demoted_sends"`  // eager-sized sends routed via rendezvous
}

// flowState is one rank's credit bookkeeping, confined to the rank
// goroutine like everything else on a Proc. All counters are
// cumulative; maps are keyed by world rank.
type flowState struct {
	credits int   // Profile.EagerCredits (>0, or no flowState exists)
	batch   int   // Profile.CreditBatch (normalized)
	qbytes  int64 // Profile.UnexpectedQueueBytes (normalized)

	// Sender side, per destination.
	sent    map[int]uint64     // eager messages injected
	granted map[int]uint64     // highest consumption total advertised back
	grantAt map[int]vtime.Time // arrival of the grant that set granted
	demoted map[int]bool       // receiver's demote bit from the freshest grant

	// Receiver side, per source.
	consumed map[int]uint64 // eager messages matched to receives
	advert   map[int]uint64 // highest total reliably advertised back
	// demoting latches the over-watermark state between the raise
	// threshold (qbytes/2) and the clear condition (empty queue) —
	// see fcOverWatermark.
	demoting bool

	stats FlowStats
}

func newFlowState(prof *Profile) *flowState {
	return &flowState{
		credits:  prof.EagerCredits,
		batch:    prof.CreditBatch,
		qbytes:   prof.UnexpectedQueueBytes,
		sent:     map[int]uint64{},
		granted:  map[int]uint64{},
		grantAt:  map[int]vtime.Time{},
		demoted:  map[int]bool{},
		consumed: map[int]uint64{},
		advert:   map[int]uint64{},
	}
}

// fcAvailable returns the sender's remaining eager credit toward dst.
// A confirmed-dead peer has infinite credit: its grants will never
// come, and eager sends toward it complete locally and evaporate
// (buffered-send semantics), so gating them would deadlock the park.
func (p *Proc) fcAvailable(dst int) int {
	f := p.flow
	if _, dead := p.failedPeers[dst]; dead {
		return f.credits
	}
	return f.credits - int(f.sent[dst]-f.granted[dst])
}

// fcEagerOK reports whether an eager-sized message toward dst may use
// the eager path. False only for a flow-controlled sender the receiver
// has demoted: the message routes through rendezvous instead, keeping
// the payload out of the receiver's unexpected queue.
func (p *Proc) fcEagerOK(dst int) bool {
	if p.flow == nil || dst == p.rank {
		return true
	}
	if _, dead := p.failedPeers[dst]; dead {
		// A corpse cannot demote anyone; its last grant is stale.
		return true
	}
	if p.flow.demoted[dst] {
		p.flow.stats.DemotedSends++
		p.w.met.Add(p.rank, "flow", "demoted_sends", 1)
		return false
	}
	return true
}

// fcChargeSend consumes one credit for an eager injection toward dst.
func (p *Proc) fcChargeSend(dst int) {
	if p.flow == nil || dst == p.rank {
		return
	}
	p.flow.sent[dst]++
}

// fcWaitCredit parks the sender until eager credit toward dst is
// available. The no-credit case is the ONLY one that touches the
// clock: a sender with credit returns without any effect, which is
// what keeps below-limit runs byte-identical to flow-control-off.
//
// The park models the library's receiver-not-ready loop: the CPU
// probes for returned credit at exponentially backed-off instants
// (retransmitRTO, ×retransmitBackoff per probe — the RTO ladder reused
// as the RNR ladder) and the send resumes at the first probe at or
// after the freeing grant arrived. Packets dispatched while parked are
// processed normally — none of those paths read this rank's paused
// clock, so progress inside the park cannot leak host scheduling into
// virtual time.
func (p *Proc) fcWaitCredit(dst int) {
	if p.flow == nil || dst == p.rank || p.fcAvailable(dst) > 0 {
		return
	}
	// Drain already-arrived traffic first: a grant sitting in the
	// mailbox frees the send with no park at all.
	p.poll()
	if p.fcAvailable(dst) > 0 {
		return
	}
	f := p.flow
	parkStart := p.clock.Now()
	for p.fcAvailable(dst) <= 0 {
		p.progressOnce()
	}
	// The freeing signal's arrival instant: the grant that advanced
	// granted[dst], or — when the park ended because the peer was
	// confirmed dead — the confirmation time.
	grantAt := f.grantAt[dst]
	if at, dead := p.failedPeers[dst]; dead && at > grantAt {
		grantAt = at
	}
	resume := parkStart
	wait := retransmitRTO
	for {
		resume = resume.Add(wait)
		if resume >= grantAt {
			break
		}
		if wait < maxRNRWait {
			wait *= retransmitBackoff
		}
	}
	p.clock.AdvanceTo(resume)
	f.stats.RNRParks++
	f.stats.RNRWaitPs += int64(resume.Sub(parkStart))
	p.recordFlow(fmt.Sprintf("rnr dst=%d", dst), dst, parkStart, resume)
}

// fcApplyGrant applies a piggybacked or explicit grant carried by an
// arrived packet. Grants are cumulative consumption totals, so only a
// FRESH grant (higher than anything seen) advances state; stale and
// duplicated copies — every materialised reliability copy of a frame
// carries the same piggyback fields — are no-ops, which is what makes
// application safe before the admission check and idempotent under
// loss, duplication, and corruption.
func (p *Proc) fcApplyGrant(pkt *packet) {
	f := p.flow
	src := pkt.src
	if pkt.fcGrant <= f.granted[src] {
		return
	}
	f.granted[src] = pkt.fcGrant
	f.grantAt[src] = pkt.arriveAt
	f.demoted[src] = pkt.fcDemote
	f.stats.GrantsApplied++
}

// fcOverWatermark reports whether this receiver is demoting its
// senders. The state latches with hysteresis, like the SRQ
// limit-reached handling it models: crossing half the configured byte
// bound raises it, and only a fully drained queue clears it. A
// transient per-instant reading would be unobservable in
// request/reply traffic — the grant a sender acts on is the latest
// one applied, and a receiver that just granted has just consumed,
// momentarily dipping below any threshold.
func (p *Proc) fcOverWatermark() bool {
	f := p.flow
	if f.qbytes <= 0 {
		return false
	}
	if p.unexp.bytes >= f.qbytes/2 {
		f.demoting = true
	} else if p.unexp.bytes == 0 {
		f.demoting = false
	}
	return f.demoting
}

// fcAttachGrant stamps an outbound packet toward dst with the current
// consumption total and demote bit. advance marks transports with
// guaranteed delivery (payload frames: the settled attempt always
// arrives), which lets the receiver count the grant as advertised;
// acks can be lost for good, so they carry the grant opportunistically
// without advancing the advertisement.
func (p *Proc) fcAttachGrant(dst int, pkt *packet, advance bool) {
	f := p.flow
	if f == nil || dst == p.rank {
		return
	}
	c := f.consumed[dst]
	if c == 0 {
		return
	}
	pkt.fcGrant = c
	pkt.fcDemote = p.fcOverWatermark()
	if advance && c > f.advert[dst] {
		f.advert[dst] = c
		f.stats.Piggybacks++
	}
}

// fcConsumed returns one credit to src: an eager payload was matched
// to a receive (or purged with its revoked context) at virtual instant
// at. When CreditBatch consumptions have accumulated with nothing
// heading back toward src to piggyback on, an explicit CREDIT frame
// carries the grant — the one-sided-traffic path.
func (p *Proc) fcConsumed(src int, at vtime.Time) {
	f := p.flow
	if f == nil || src == p.rank {
		return
	}
	f.consumed[src]++
	if f.consumed[src]-f.advert[src] >= uint64(f.batch) {
		p.fcSendCredit(src, at)
	}
}

// fcSendCredit emits an explicit CREDIT frame toward src. Like an ack
// it is NIC-autonomous: generated at the consumption instant with no
// CPU charge and no injection-resource use, and it bypasses the
// reliability layer (a cumulative grant is its own retransmission).
func (p *Proc) fcSendCredit(src int, at vtime.Time) {
	f := p.flow
	ck := getPacket()
	ck.kind = pktCredit
	ck.src = p.rank
	ck.dst = src
	ck.fcGrant = f.consumed[src]
	ck.fcDemote = p.fcOverWatermark()
	ck.sentAt = at
	ck.arriveAt = at.Add(p.channel(src).Latency)
	p.postRaw(src, ck)
	f.advert[src] = f.consumed[src]
	f.stats.CreditFrames++
}

// noteUnexpGrowth refreshes the unexpected-queue high-water marks
// after a packet was queued. The queue's content at every poll point
// is a pure function of program order and the engine's canonical
// delivery order, so — unlike bucket shapes or mailbox batches — the
// high-water marks are deterministic and safe in the registry. The
// MatchStats mirror feeds hostbench.
func (p *Proc) noteUnexpGrowth() {
	uq := &p.unexp
	if uq.bytes > p.matchStats.UnexpBytesHiWater {
		p.matchStats.UnexpBytesHiWater = uq.bytes
		p.w.met.SetMaxGauge(p.rank, "match", "unexp_bytes_hiwater", uq.bytes)
	}
	if uq.depth > p.matchStats.UnexpDepthHiWater {
		p.matchStats.UnexpDepthHiWater = uq.depth
		p.w.met.SetMaxGauge(p.rank, "match", "unexp_depth_hiwater", uq.depth)
	}
}

// recordFlow logs one receiver-not-ready park span and its registry
// quantities. Only saturated runs ever call this, so below the credit
// limit the flow subsystem contributes nothing to any artifact.
func (p *Proc) recordFlow(detail string, peer int, start, end vtime.Time) {
	if p.w.rec != nil {
		p.w.rec.Record(trace.Event{
			Rank: p.rank, Kind: trace.KindFlow, Detail: detail, Peer: peer,
			Start: start, End: end,
		})
	}
	if p.w.met != nil {
		p.w.met.Add(p.rank, "flow", "rnr_parks", 1)
		p.w.met.Observe(p.rank, "flow", "rnr_wait_ps", int64(end.Sub(start)))
	}
}

// FlowStats returns a snapshot of the rank's host-side flow-control
// counters (zero when flow control is off).
func (p *Proc) FlowStats() FlowStats {
	if p.flow == nil {
		return FlowStats{}
	}
	return p.flow.stats
}
