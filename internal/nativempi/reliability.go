package nativempi

import (
	"fmt"

	"mv2j/internal/faults"
	"mv2j/internal/mpjbuf"
	"mv2j/internal/trace"
	"mv2j/internal/vtime"
)

// Reliability sublayer. A lossless fabric delivers every packet
// exactly once, so the runtime normally posts straight into the
// destination mailbox. When a fault plan is attached to the fabric,
// every packet instead goes through reliablePost: it is framed with a
// sequence number and a CRC32-C checksum (mpjbuf's reliability codec),
// and an ack/retransmit protocol with exponential backoff recovers
// from loss and corruption.
//
// The fault plan is a pure function of the transfer identity, so the
// sender can evaluate, at injection time, the fate of every
// transmission attempt AND of its acknowledgement: which attempts the
// fabric drops, which arrive corrupted (the receiver's checksum will
// reject them), and which acks survive. It materialises exactly the
// packets that would reach the destination, each stamped with the
// virtual time retransmission delays push it to — so retransmits
// visibly inflate measured latencies while the simulation stays
// deterministic and free of wall-clock timers. The receiver
// independently verifies checksums, suppresses duplicates, and
// acknowledges accepted copies using the same coin flips, keeping both
// sides of the protocol honest.
//
// A message still unacknowledged after maxRetransmits attempts
// means the peer is unreachable. Without fault tolerance the sender
// escalates to the MPI_Abort path (waking every blocked rank) instead
// of deadlocking; in an FT world the same condition surfaces as an
// ErrProcFailed-class error on the operation, one recovery policy
// among several (see ft.go).

// ErrPeerUnreachable is the failure-detection error: a peer did not
// acknowledge a transfer within the retransmission budget.
var ErrPeerUnreachable = fmt.Errorf("nativempi: peer unreachable (retransmit limit exceeded)")

// relPair identifies a directed per-stream channel to or from a peer.
type relPair struct {
	peer   int
	stream faults.Stream
}

// relKey identifies one reliable message (for ack bookkeeping).
type relKey struct {
	peer   int
	stream faults.Stream
	seq    uint64
}

// relState is the per-rank protocol state. Like everything on a Proc
// it is confined to the rank goroutine.
type relState struct {
	// sendSeq numbers outgoing messages per (destination, stream) for
	// the streams that use a counter (match, rma, rmareply); the
	// rendezvous ctl/bulk streams reuse the rendezvous request id,
	// whose assignment order is deterministic where a shared counter's
	// would not be.
	sendSeq map[relPair]uint64
	// seen records accepted sequence numbers per (source, stream):
	// the duplicate-suppression window.
	seen map[relPair]map[uint64]struct{}
	// await tracks unacknowledged sends for the stats/trace view of
	// the ack stream: payload bytes and the settled attempt's send
	// time, so the eventual ack can be traced as a full round trip.
	await map[relKey]relAwait
	// verdicts is per-message scratch reused across reliablePost calls:
	// the whole transmission schedule is adjudicated in one fabric call.
	verdicts []faults.Verdict
}

// relAwait is the sender-side record of one in-flight acknowledgement.
type relAwait struct {
	bytes  int
	sentAt vtime.Time
}

func newRelState() *relState {
	return &relState{
		sendSeq: map[relPair]uint64{},
		seen:    map[relPair]map[uint64]struct{}{},
		await:   map[relKey]relAwait{},
	}
}

// streamOf classifies a packet kind into its sequence-number stream.
func streamOf(k pktKind) faults.Stream {
	switch k {
	case pktEager, pktRTS:
		return faults.StreamMatch
	case pktCTS:
		return faults.StreamCtl
	case pktData:
		return faults.StreamBulk
	case pktRMA:
		return faults.StreamRMA
	case pktRMAReply:
		return faults.StreamRMAReply
	default:
		panic(fmt.Sprintf("nativempi: no reliability stream for packet kind %d", k))
	}
}

// relSeqFor assigns the message's sequence number (1-based). The
// rendezvous control and bulk streams are keyed by the rendezvous
// request id — unique per originating sender and assigned in its
// program order — because CTS/DATA emission order between a pair can
// legitimately vary with matching order, which would make a shared
// counter nondeterministic.
func (p *Proc) relSeqFor(dst int, pkt *packet, stream faults.Stream) uint64 {
	switch stream {
	case faults.StreamCtl, faults.StreamBulk:
		return pkt.reqID
	default:
		pr := relPair{dst, stream}
		s := p.rel.sendSeq[pr] + 1
		p.rel.sendSeq[pr] = s
		return s
	}
}

// reliablePost runs the sender half of the ack/retransmit protocol for
// one packet whose first transmission leaves at pkt.sentAt and would
// arrive at pkt.arriveAt on a clean wire. It returns an error only in
// fault-tolerant worlds, when the retransmit budget is exhausted.
func (p *Proc) reliablePost(dst int, pkt *packet) error {
	stream := streamOf(pkt.kind)
	seq := p.relSeqFor(dst, pkt, stream)
	ch := p.channel(dst)
	fab := p.w.fab
	wireTime := pkt.arriveAt.Sub(pkt.sentAt)
	n := pkt.data.size()
	hdr := mpjbuf.RelHeader{Stream: uint8(stream), Kind: uint8(pkt.kind), Seq: seq}

	// Adjudicate the whole burst in one fabric call, then materialise
	// exactly the copies that reach the destination.
	rel := p.rel
	var settled int
	rel.verdicts, settled = fab.BurstVerdicts(p.rank, dst, stream, seq, maxRetransmits, rel.verdicts[:0])

	rto := retransmitRTO
	sendT := pkt.sentAt
	prevSendT := pkt.sentAt
	lastSendT := pkt.sentAt
	for k, v := range rel.verdicts {
		if k > 0 {
			p.stats.Retransmits++
			// The span is the RTO wait that expired to trigger this
			// attempt: retransmission time a phase breakdown can add up.
			p.recordRelSpan(trace.KindRetransmit,
				fmt.Sprintf("%v seq=%d attempt=%d", stream, seq, k), dst, n, prevSendT, sendT)
		}
		if v.Drop {
			p.stats.FaultDrops++
			p.recordRel(trace.KindFault,
				fmt.Sprintf("drop %v seq=%d attempt=%d", stream, seq, k), dst, n, sendT)
		} else {
			hdr.Attempt = uint16(k)
			// The frame comes from the wire pool and goes back when the
			// packet carrying it is freed at the receiver (see pool.go).
			frame := getWire(mpjbuf.RelHeaderSize + n)
			mpjbuf.EncodeRelFrame(frame, hdr, pkt.data.b)
			// Framing copies the payload into the frame image — host
			// data movement a borrow can never elide, which is why a
			// fault plan forces the framed rendezvous leg.
			p.copyStats.count(n)
			if v.CorruptPos >= 0 {
				frame[v.CorruptPos%len(frame)] ^= 0xA5
				p.stats.FaultCorrupts++
				p.recordRel(trace.KindFault,
					fmt.Sprintf("corrupt %v seq=%d attempt=%d", stream, seq, k), dst, n, sendT)
			}
			if v.Delay > 0 {
				p.stats.FaultDelays++
				p.recordRel(trace.KindFault,
					fmt.Sprintf("delay %v seq=%d attempt=%d by %v", stream, seq, k, v.Delay), dst, n, sendT)
			}
			cp := getPacket()
			*cp = *pkt
			cp.freed = false
			cp.wire = frame
			cp.ownsWire = true
			cp.data = Payload{} // the receiver recovers the payload from the frame
			cp.ownsData = false
			cp.relStream, cp.relSeq, cp.attempt = stream, seq, k
			cp.sentAt = sendT
			cp.arriveAt = sendT.Add(wireTime + v.Delay)
			lastSendT = sendT
			if !v.Duplicate {
				p.postRaw(dst, cp)
			} else {
				// Copied before cp is posted: a posted packet belongs to
				// the transport. The duplicate gets its own frame (the
				// corrupted one, if the attempt is corrupt): each copy's
				// frame is freed with it, so a shared one would return
				// to the pool twice. The fabric's copy, not the
				// datapath's, so copyStats does not count it.
				dup := getPacket()
				*dup = *cp
				dup.freed = false
				dup.wire = getWire(len(frame))
				copy(dup.wire, frame)
				dup.arriveAt = cp.arriveAt.Add(ch.Latency / 2)
				p.postRaw(dst, cp)
				p.postRaw(dst, dup)
				p.stats.FaultDups++
				p.recordRel(trace.KindFault,
					fmt.Sprintf("dup %v seq=%d attempt=%d", stream, seq, k), dst, n, sendT)
			}
			if k == settled {
				// This copy is intact and its ack will make it back:
				// the protocol settles on attempt k.
				p.rel.await[relKey{dst, stream, seq}] = relAwait{bytes: n, sentAt: sendT}
			}
		}
		prevSendT = sendT
		sendT = sendT.Add(rto)
		rto *= retransmitBackoff
	}
	if settled < 0 {
		reason := fmt.Sprintf("rank %d: peer %d unreachable: no ack for %v seq %d after %d attempts",
			p.rank, dst, stream, seq, maxRetransmits)
		p.stats.PeerFailures++
		p.recordRel(trace.KindFault, "peer-failure: "+reason, dst, n, sendT)
		if p.w.ft {
			// ULFM policy: declare the peer failed locally and let the
			// operation report MPI_ERR_PROC_FAILED instead of
			// escalating to MPI_Abort.
			if p.failedPeers == nil {
				p.failedPeers = map[int]vtime.Time{}
			}
			if _, known := p.failedPeers[dst]; !known {
				p.failedPeers[dst] = sendT
			}
			return fmt.Errorf("%w: rank %d unreachable after %d attempts", ErrProcFailed, dst, maxRetransmits)
		}
		p.w.Abort(p.rank, reason)
		panic(abortError{origin: p.rank, reason: reason})
	}
	// Retransmissions occupy the injection resource at their (future)
	// send times; later sends serialize behind the last one.
	if n > 0 && lastSendT > pkt.sentAt {
		p.nicFree = vtime.Max(p.nicFree, lastSendT.Add(ch.SerializeTime(n)))
	}
	return nil
}

// admit runs the receiver half: checksum verification, duplicate
// suppression, and acknowledgement. It reports whether the packet
// should proceed to dispatch, and on acceptance restores pkt.data from
// the decoded frame.
func (p *Proc) admit(pkt *packet) bool {
	hdr, payload, err := mpjbuf.DecodeRelFrame(pkt.wire)
	if err != nil {
		// Corrupt on the wire: reject silently (no ack), exactly as a
		// drop. The sender's precomputation reached the same verdict
		// and has already scheduled the retransmission.
		p.stats.CorruptDrops++
		p.recordRel(trace.KindFault, "checksum reject: "+err.Error(), pkt.src, len(pkt.wire), pkt.arriveAt)
		return false
	}
	stream := faults.Stream(hdr.Stream)
	pr := relPair{pkt.src, stream}
	seenSet := p.rel.seen[pr]
	if seenSet == nil {
		seenSet = map[uint64]struct{}{}
		p.rel.seen[pr] = seenSet
	}
	_, dup := seenSet[hdr.Seq]
	if !dup {
		seenSet[hdr.Seq] = struct{}{}
	}
	// Acknowledge every intact copy (duplicates are re-acked, as in
	// any ARQ protocol: the first ack may have been the casualty).
	if !p.w.fab.AckDropped(pkt.src, p.rank, stream, hdr.Seq, int(hdr.Attempt)) {
		ch := p.channel(pkt.src)
		p.stats.AcksSent++
		ack := getPacket()
		ack.kind = pktAck
		ack.src = p.rank
		ack.dst = pkt.src
		ack.relStream = stream
		ack.relSeq = hdr.Seq
		ack.attempt = int(hdr.Attempt)
		ack.arriveAt = pkt.arriveAt.Add(ch.Latency)
		// Piggyback the credit grant opportunistically: an ack can be
		// permanently lost, so it never counts as advertised.
		p.fcAttachGrant(pkt.src, ack, false)
		p.postRaw(pkt.src, ack)
	} else {
		p.recordRel(trace.KindFault,
			fmt.Sprintf("ack drop %v seq=%d attempt=%d", stream, hdr.Seq, hdr.Attempt), pkt.src, 0, pkt.arriveAt)
	}
	if dup {
		p.stats.DupDrops++
		p.recordRel(trace.KindFault,
			fmt.Sprintf("dup reject %v seq=%d attempt=%d", stream, hdr.Seq, hdr.Attempt), pkt.src, len(payload), pkt.arriveAt)
		return false
	}
	pkt.data = Contig(payload)
	return true
}

// handleAck clears the sender-side bookkeeping for an acknowledged
// message. Re-acks of already-cleared messages are ignored.
func (p *Proc) handleAck(pkt *packet) {
	k := relKey{pkt.src, pkt.relStream, pkt.relSeq}
	if aw, ok := p.rel.await[k]; ok {
		delete(p.rel.await, k)
		p.stats.AcksReceived++
		// The span is the settled attempt's full send-to-ack round
		// trip — the reliability layer's latency contribution.
		p.recordRelSpan(trace.KindAck,
			fmt.Sprintf("%v seq=%d attempt=%d", pkt.relStream, pkt.relSeq, pkt.attempt),
			pkt.src, aw.bytes, aw.sentAt, pkt.arriveAt)
	}
}
