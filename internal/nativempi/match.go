package nativempi

// Indexed tag matching. MPI matching is defined by two ordered queues
// per rank — posted receives and unexpected messages — and the
// standard's non-overtaking rule: a packet matches the EARLIEST posted
// receive it satisfies, a receive matches the EARLIEST arrived packet.
// The original implementation was the textbook pair of linear scans,
// O(queue length) per operation, which dominates host time once the
// window benchmarks keep dozens of operations in flight.
//
// This file replaces both scans with hash-bucketed FIFOs keyed by the
// fully-concrete (ctx, src, tag) triple, plus an ordered wildcard
// side-list for the cases hashing cannot index:
//
//   - posted side: a receive naming both its source and tag lands in
//     its bucket; a receive using AnySource/AnyTag goes to the
//     side-list. An arriving packet is concrete by construction, so at
//     most ONE bucket can hold a match — the candidate set is that
//     bucket's head plus the first matching wildcard entry, and a
//     monotonic post-sequence number picks the earlier of the two.
//     This reproduces the linear scan's answer exactly.
//   - unexpected side: every queued packet is concrete, so a concrete
//     receive can only match its own bucket (head = earliest arrival);
//     a wildcard receive walks the arrival-ordered side-list, which
//     indexes EVERY queued packet. A packet taken through one view is
//     tombstoned in the other and reclaimed lazily.
//
// The structures affect host-side data movement only: which (receive,
// packet) pair matches — and therefore every virtual timestamp — is
// identical to the linear scans, a property matcher_test.go checks
// against a reference implementation under randomized workloads.

// matchKey is the fully-concrete matching triple.
type matchKey struct {
	ctx int32
	src int
	tag int
}

// MatchStats counts matcher activity for one rank. Probes are the
// number of candidate entries examined; a perfectly-indexed workload
// does one probe per lookup, while wildcard traffic degrades toward
// the old linear scan. Bucket shapes depend on host-side arrival
// interleavings, so like MailboxStats the lookup/probe numbers are
// host-only (reported by hostbench), never part of the deterministic
// artifacts. The unexpected-queue HIGH-WATER marks are the exception:
// the queue's content at every dispatch point is a pure function of
// program order and the engine's canonical delivery order, so they are
// deterministic — mirrored into the metrics registry (flowctl.go) and
// the -report rollup, and the quantity the flow-control differential
// suite bounds.
type MatchStats struct {
	PostedLookups int64 `json:"posted_lookups"`
	PostedProbes  int64 `json:"posted_probes"`
	UnexpLookups  int64 `json:"unexp_lookups"`
	UnexpProbes   int64 `json:"unexp_probes"`
	MaxBucket     int64 `json:"max_bucket"` // deepest bucket ever observed

	// Unexpected-queue occupancy high-waters: the deepest the queue
	// ever got, in live packets and queued payload bytes.
	UnexpDepthHiWater int64 `json:"unexp_depth_hiwater"`
	UnexpBytesHiWater int64 `json:"unexp_bytes_hiwater"`
}

// postedEntry is one posted receive with its post-order stamp.
type postedEntry struct {
	req *Request
	seq uint64
}

// postedFIFO is one concrete bucket: append at the tail, pop at the
// head through an index so dequeue is O(1) amortized. Popped and
// vacated slots are nilled so the backing array retains nothing.
type postedFIFO struct {
	q    []postedEntry
	head int
}

func (f *postedFIFO) empty() bool { return f.head == len(f.q) }

func (f *postedFIFO) push(e postedEntry) {
	if f.empty() && f.head > 0 {
		clearTail(f.q, 0)
		f.q, f.head = f.q[:0], 0
	}
	f.q = append(f.q, e)
}

func (f *postedFIFO) peek() postedEntry { return f.q[f.head] }

func (f *postedFIFO) pop() {
	f.q[f.head] = postedEntry{}
	f.head++
	if f.empty() {
		f.q, f.head = f.q[:0], 0
	}
}

// postedQueue indexes a rank's posted receives. Emptied buckets are
// deleted from the map and their FIFO structs recycled: tag-rolling
// traffic (every collective invocation uses a fresh tag) would
// otherwise grow the map and allocate a bucket per invocation.
type postedQueue struct {
	buckets  map[matchKey]*postedFIFO
	wild     []postedEntry // AnySource/AnyTag receives, post order
	seq      uint64
	fifoFree []*postedFIFO
	stats    *MatchStats
}

func (pq *postedQueue) init(stats *MatchStats) {
	pq.buckets = map[matchKey]*postedFIFO{}
	pq.stats = stats
}

func (pq *postedQueue) getFIFO() *postedFIFO {
	if n := len(pq.fifoFree); n > 0 {
		f := pq.fifoFree[n-1]
		pq.fifoFree[n-1] = nil
		pq.fifoFree = pq.fifoFree[:n-1]
		return f
	}
	return &postedFIFO{}
}

// dropBucket removes an emptied bucket, keeping its storage for reuse.
func (pq *postedQueue) dropBucket(key matchKey, f *postedFIFO) {
	delete(pq.buckets, key)
	f.q, f.head = f.q[:0], 0
	pq.fifoFree = append(pq.fifoFree, f)
}

// add appends a receive in post order.
func (pq *postedQueue) add(req *Request) {
	pq.seq++
	e := postedEntry{req: req, seq: pq.seq}
	if req.src == AnySource || req.tag == AnyTag {
		pq.wild = append(pq.wild, e)
		return
	}
	key := matchKey{ctx: req.ctx, src: req.src, tag: req.tag}
	f := pq.buckets[key]
	if f == nil {
		f = pq.getFIFO()
		pq.buckets[key] = f
	}
	f.push(e)
	if depth := int64(len(f.q) - f.head); depth > pq.stats.MaxBucket {
		pq.stats.MaxBucket = depth
	}
}

// take removes and returns the earliest-posted receive matching pkt,
// or nil. pkt carries concrete (ctx, src, tag) values, so the
// candidates are exactly one bucket head and the first matching
// wildcard entry; the post-sequence stamp picks the earlier.
func (pq *postedQueue) take(pkt *packet) *Request {
	pq.stats.PostedLookups++
	key := matchKey{ctx: pkt.ctx, src: pkt.src, tag: pkt.tag}
	f := pq.buckets[key]
	haveConcrete := f != nil && !f.empty()
	if haveConcrete {
		pq.stats.PostedProbes++
	}
	wi := -1
	for i := range pq.wild {
		pq.stats.PostedProbes++
		if matches(pq.wild[i].req, pkt) {
			wi = i
			break
		}
	}
	switch {
	case wi >= 0 && (!haveConcrete || pq.wild[wi].seq < f.peek().seq):
		req := pq.wild[wi].req
		pq.removeWild(wi)
		return req
	case haveConcrete:
		req := f.peek().req
		f.pop()
		if f.empty() {
			pq.dropBucket(key, f)
		}
		return req
	default:
		return nil
	}
}

// removeWild deletes the wildcard entry at index i, preserving order.
func (pq *postedQueue) removeWild(i int) {
	copy(pq.wild[i:], pq.wild[i+1:])
	last := len(pq.wild) - 1
	pq.wild[last] = postedEntry{}
	pq.wild = pq.wild[:last]
}

// failWhere removes every posted receive for which pred is true,
// invoking fail on each. Used by the fault-tolerance sweeps (peer
// death, revocation); fail assigns the same deterministic completion
// to every victim, so visiting buckets in map order is safe.
func (pq *postedQueue) failWhere(pred func(*Request) bool, fail func(*Request)) {
	for key, f := range pq.buckets {
		kept := f.q[:f.head]
		for _, e := range f.q[f.head:] {
			if pred(e.req) {
				fail(e.req)
				continue
			}
			kept = append(kept, e)
		}
		clearTail(f.q, len(kept))
		f.q = kept
		if f.empty() {
			pq.dropBucket(key, f)
		}
	}
	kept := pq.wild[:0]
	for _, e := range pq.wild {
		if pred(e.req) {
			fail(e.req)
			continue
		}
		kept = append(kept, e)
	}
	clearTail(pq.wild, len(kept))
	pq.wild = kept
}

// pending returns the number of posted receives still queued (tests
// and invariant checks only; walks every bucket).
func (pq *postedQueue) pending() int {
	n := len(pq.wild)
	for _, f := range pq.buckets {
		n += len(f.q) - f.head
	}
	return n
}

// unexpEntry is one queued unexpected packet. An entry lives in two
// views at once — its concrete bucket and the arrival-ordered list —
// so removal through one view tombstones it (taken) in the other,
// which reclaims it lazily. The entry, not the packet, carries the
// tombstone: a freed packet struct is recycled through a global pool
// and may be live again elsewhere while a stale slot still points at
// the entry.
type unexpEntry struct {
	pkt      *packet
	key      matchKey
	seq      uint64
	taken    bool
	inBucket bool
	inAll    bool
	freed    bool // on the free list; guards double release
}

// unexpFIFO is one concrete bucket of unexpected entries.
type unexpFIFO struct {
	q    []*unexpEntry
	head int
}

func (f *unexpFIFO) empty() bool { return f.head == len(f.q) }

func (f *unexpFIFO) push(e *unexpEntry) {
	if f.empty() && f.head > 0 {
		clearTail(f.q, 0)
		f.q, f.head = f.q[:0], 0
	}
	f.q = append(f.q, e)
}

func (f *unexpFIFO) pop() *unexpEntry {
	e := f.q[f.head]
	f.q[f.head] = nil
	f.head++
	if f.empty() {
		f.q, f.head = f.q[:0], 0
	}
	return e
}

// unexpQueue indexes a rank's arrived-but-unmatched packets.
type unexpQueue struct {
	buckets  map[matchKey]*unexpFIFO
	all      []*unexpEntry // arrival order, every queued entry
	allHead  int
	stale    int // taken entries still occupying the all-list
	seq      uint64
	free     []*unexpEntry // rank-confined entry recycler
	fifoFree []*unexpFIFO  // emptied-bucket recycler
	stats    *MatchStats

	// Live occupancy, charged in add and discharged in claim (the sole
	// point every removal path — bucket take, wildcard take, purge —
	// funnels through). bytes counts queued payload bytes, so an RTS
	// (data still at the sender) charges zero: exactly the memory an
	// unbounded eager flood grows and flow control's demote watermark
	// bounds.
	bytes int64
	depth int64
}

func (uq *unexpQueue) init(stats *MatchStats) {
	uq.buckets = map[matchKey]*unexpFIFO{}
	uq.stats = stats
}

func (uq *unexpQueue) getFIFO() *unexpFIFO {
	if n := len(uq.fifoFree); n > 0 {
		f := uq.fifoFree[n-1]
		uq.fifoFree[n-1] = nil
		uq.fifoFree = uq.fifoFree[:n-1]
		return f
	}
	return &unexpFIFO{}
}

// dropBucket removes an emptied bucket, keeping its storage for reuse.
func (uq *unexpQueue) dropBucket(key matchKey, f *unexpFIFO) {
	delete(uq.buckets, key)
	f.q, f.head = f.q[:0], 0
	uq.fifoFree = append(uq.fifoFree, f)
}

func (uq *unexpQueue) getEntry() *unexpEntry {
	if n := len(uq.free); n > 0 {
		e := uq.free[n-1]
		uq.free[n-1] = nil
		uq.free = uq.free[:n-1]
		e.freed = false
		return e
	}
	return &unexpEntry{}
}

// release reclaims an entry once neither view holds it. Releasing an
// entry that is already on the free list would hand the same struct to
// two future packets (the bucket-corruption bug class the freed flag
// exists to catch), so it panics.
func (uq *unexpQueue) release(e *unexpEntry) {
	if e.inBucket || e.inAll {
		return
	}
	if e.freed {
		panic("nativempi: unexpected-queue entry double release")
	}
	*e = unexpEntry{}
	e.freed = true
	uq.free = append(uq.free, e)
}

// add queues an arrived packet, taking ownership until a receive (or
// probe-free drop at world teardown) claims it.
func (uq *unexpQueue) add(pkt *packet) {
	uq.seq++
	e := uq.getEntry()
	e.pkt = pkt
	e.key = matchKey{ctx: pkt.ctx, src: pkt.src, tag: pkt.tag}
	e.seq = uq.seq
	e.inBucket, e.inAll = true, true
	uq.bytes += int64(pkt.data.size())
	uq.depth++
	f := uq.buckets[e.key]
	if f == nil {
		f = uq.getFIFO()
		uq.buckets[e.key] = f
	}
	f.push(e)
	uq.all = append(uq.all, e)
	if depth := int64(len(f.q) - f.head); depth > uq.stats.MaxBucket {
		uq.stats.MaxBucket = depth
	}
}

// claim tombstones a live entry and returns its packet, discharging
// its occupancy.
func (uq *unexpQueue) claim(e *unexpEntry) *packet {
	pkt := e.pkt
	uq.bytes -= int64(pkt.data.size())
	uq.depth--
	e.pkt = nil
	e.taken = true
	return pkt
}

// bucketFront returns the bucket's earliest live entry, discarding
// tombstones left by wildcard takes.
func (uq *unexpQueue) bucketFront(key matchKey) (*unexpFIFO, *unexpEntry) {
	f := uq.buckets[key]
	if f == nil {
		return nil, nil
	}
	for !f.empty() {
		e := f.q[f.head]
		if !e.taken {
			return f, e
		}
		f.pop()
		e.inBucket = false
		uq.release(e)
	}
	uq.dropBucket(key, f)
	return nil, nil
}

// take removes and returns the earliest-arrived packet matching req,
// or nil. Concrete receives hit their bucket; wildcard receives walk
// the arrival list. Invariant: stale counts the taken entries still
// occupying all[allHead:].
func (uq *unexpQueue) take(req *Request) *packet {
	uq.stats.UnexpLookups++
	if req.src != AnySource && req.tag != AnyTag {
		key := matchKey{ctx: req.ctx, src: req.src, tag: req.tag}
		f, e := uq.bucketFront(key)
		if e == nil {
			return nil
		}
		uq.stats.UnexpProbes++
		pkt := uq.claim(e)
		f.pop()
		if f.empty() {
			uq.dropBucket(key, f)
		}
		e.inBucket = false
		// e remains tombstoned in the all-list until trimAllHead or
		// maybeCompact reclaims it; releasing it here as well would
		// double-insert it into the free list once compaction runs.
		uq.stale++
		uq.maybeCompact()
		return pkt
	}
	uq.trimAllHead()
	for i := uq.allHead; i < len(uq.all); i++ {
		e := uq.all[i]
		if e.taken {
			continue
		}
		uq.stats.UnexpProbes++
		if uq.entryMatches(req, e) {
			pkt := uq.claim(e)
			if i == uq.allHead {
				uq.popAllHead()
			} else {
				// Interior removal: tombstone in place; its bucket
				// discards it the next time that head is inspected.
				uq.stale++
				uq.maybeCompact()
			}
			return pkt
		}
	}
	return nil
}

// trimAllHead pops leading tombstones off the arrival list.
func (uq *unexpQueue) trimAllHead() {
	for uq.allHead < len(uq.all) && uq.all[uq.allHead].taken {
		uq.stale--
		uq.popAllHead()
	}
}

// popAllHead removes the arrival-list head slot.
func (uq *unexpQueue) popAllHead() {
	e := uq.all[uq.allHead]
	uq.all[uq.allHead] = nil
	uq.allHead++
	if uq.allHead == len(uq.all) {
		uq.all, uq.allHead = uq.all[:0], 0
	}
	e.inAll = false
	uq.release(e)
}

// peek returns the earliest-arrived matching packet without removing
// it (Iprobe).
func (uq *unexpQueue) peek(req *Request) *packet {
	uq.stats.UnexpLookups++
	if req.src != AnySource && req.tag != AnyTag {
		_, e := uq.bucketFront(matchKey{ctx: req.ctx, src: req.src, tag: req.tag})
		if e == nil {
			return nil
		}
		uq.stats.UnexpProbes++
		return e.pkt
	}
	for i := uq.allHead; i < len(uq.all); i++ {
		e := uq.all[i]
		if e.taken {
			continue
		}
		uq.stats.UnexpProbes++
		if uq.entryMatches(req, e) {
			return e.pkt
		}
	}
	return nil
}

// entryMatches mirrors matches() against an entry's cached key.
func (uq *unexpQueue) entryMatches(req *Request, e *unexpEntry) bool {
	if req.ctx != e.key.ctx {
		return false
	}
	if req.src != AnySource && req.src != e.key.src {
		return false
	}
	if req.tag != AnyTag && req.tag != e.key.tag {
		return false
	}
	return true
}

// maybeCompact rebuilds the all-list once tombstones dominate it,
// bounding memory on workloads that never run a wildcard scan.
func (uq *unexpQueue) maybeCompact() {
	if uq.stale < 32 || uq.stale*2 < len(uq.all)-uq.allHead {
		return
	}
	kept := uq.all[:0]
	for _, e := range uq.all[uq.allHead:] {
		if e == nil {
			continue
		}
		if e.taken {
			e.inAll = false
			uq.release(e)
			continue
		}
		kept = append(kept, e)
	}
	clearTail(uq.all, len(kept))
	uq.all = kept
	uq.allHead = 0
	uq.stale = 0
}

// pending returns the number of live queued packets (tests only).
func (uq *unexpQueue) pending() int {
	n := 0
	for i := uq.allHead; i < len(uq.all); i++ {
		if e := uq.all[i]; e != nil && !e.taken {
			n++
		}
	}
	return n
}

// purgeWhere drops every queued packet whose key satisfies pred,
// handing each to free. Used when a context is revoked: packets on it
// can never match again (receives on the context fail at entry), so
// holding them — and their pooled payloads — is pure leakage. All
// entries of a bucket share its key, so purging is a whole-bucket
// operation; the arrival-list tombstones reclaim lazily as usual.
func (uq *unexpQueue) purgeWhere(pred func(matchKey) bool, free func(*packet)) {
	for key, f := range uq.buckets {
		if !pred(key) {
			continue
		}
		for !f.empty() {
			e := f.pop()
			e.inBucket = false
			if !e.taken {
				free(uq.claim(e))
				uq.stale++
			}
			uq.release(e)
		}
		uq.dropBucket(key, f)
	}
	uq.trimAllHead()
	uq.maybeCompact()
}

// pendingFromLive counts queued packets whose source is not in dead
// (tests only). Messages a rank sent before dying legitimately outlive
// it unreceived — eager sends complete locally, like MPI buffered
// sends — so leak audits exclude them.
func (uq *unexpQueue) pendingFromLive(dead map[int]bool) int {
	n := 0
	for i := uq.allHead; i < len(uq.all); i++ {
		if e := uq.all[i]; e != nil && !e.taken && !dead[e.key.src] {
			n++
		}
	}
	return n
}
