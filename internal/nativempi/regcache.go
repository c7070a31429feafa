package nativempi

import "mv2j/internal/vtime"

// Pin-down registration cache. RDMA requires both endpoints of a
// placement to register (pin) the pages backing their buffers with the
// NIC — an expensive driver operation. MVAPICH2's regcache amortizes
// that cost by keeping registrations alive across reuses of the same
// buffer: a repeat transfer from a cached buffer pays nothing, and only
// capacity pressure (entry count or pinned-byte budget) deregisters the
// least recently used entry. This file models those economics — every
// register/deregister charge is virtual time returned to the caller —
// plus the host-side hit/miss/evict accounting hostbench reports.
//
// Determinism: the cache is keyed by the buffer's base address, which
// differs run to run — but the HIT/MISS PATTERN cannot. An entry
// retains a reference to the registered buffer, so the Go allocator
// cannot reuse a live entry's address for a different object; a lookup
// therefore hits exactly when the program re-presents the same buffer
// it registered earlier, which is pure program order. Evicted entries
// drop both the map slot and the reference together, so a recycled
// address can only ever miss. The cache is per-rank and rank-confined,
// like the clock it charges.

// regEntry is one live registration. Entries form an intrusive ring
// ordered least → most recently used around the cache's sentinel.
type regEntry struct {
	key        *byte  // base address, also the map key
	buf        []byte // retained: keeps the address from being recycled
	n          int    // registered length in bytes
	locked     bool   // sticky (an exposed RMA window): never evicted
	prev, next *regEntry
}

// RegStats is the host-side accounting of one rank's registration
// cache, aggregated into HostStats. Hits/Misses/Evictions also feed
// the deterministic metrics registry (they are protocol state, not
// host-speed state); the byte gauges are hostbench material only.
type RegStats struct {
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Evictions   int64 `json:"evictions"`
	BytesReg    int64 `json:"bytes_registered"` // cumulative bytes pinned
	PinnedBytes int64 `json:"pinned_bytes"`     // currently pinned
	PinnedPeak  int64 `json:"pinned_peak"`      // high-water pinned footprint
}

// RDMAStats counts host-side placement activity: the remote-memory
// writes the direct datapath performed in lieu of framed DATA
// packets. Purely host accounting — which leg moved the bytes must
// not move a virtual timestamp — so it never enters the registry.
type RDMAStats struct {
	Writes      int64 `json:"writes"`
	BytesPlaced int64 `json:"bytes_placed"`
}

// regCache is one rank's pin-down cache.
type regCache struct {
	p          *Proc
	entries    map[*byte]*regEntry
	lru        regEntry // sentinel: lru.next is LRU, lru.prev is MRU
	count      int
	bytes      int64
	maxEntries int
	maxBytes   int64
	stats      RegStats
}

func newRegCache(p *Proc) *regCache {
	rc := &regCache{
		p:          p,
		entries:    map[*byte]*regEntry{},
		maxEntries: regCacheEntries,
		maxBytes:   regCacheBytes,
	}
	rc.lru.prev = &rc.lru
	rc.lru.next = &rc.lru
	return rc
}

// covered reports whether buf is already fully registered — the pure
// peek behind the adaptive protocol switch. No accounting, no
// reordering: the decision must not perturb the cache it reads.
func (rc *regCache) covered(buf []byte) bool {
	if len(buf) == 0 {
		return false
	}
	e, ok := rc.entries[&buf[0]]
	return ok && e.n >= len(buf)
}

// acquire registers buf (or refreshes its registration) and returns
// the virtual cost: zero on a hit, deregistration charges for every
// entry evicted to make room plus the registration charge on a miss.
// at is the virtual instant the charge begins; trace/metrics events
// for the charged work are emitted against it.
func (rc *regCache) acquire(buf []byte, at vtime.Time) vtime.Duration {
	return rc.acquireMode(buf, at, false)
}

// acquireLocked is acquire for sticky registrations (exposed RMA
// windows): the entry is exempt from LRU eviction until unlock.
func (rc *regCache) acquireLocked(buf []byte, at vtime.Time) vtime.Duration {
	return rc.acquireMode(buf, at, true)
}

func (rc *regCache) acquireMode(buf []byte, at vtime.Time, lock bool) vtime.Duration {
	n := len(buf)
	if n == 0 {
		return 0
	}
	key := &buf[0]
	if e, ok := rc.entries[key]; ok && e.n >= n {
		rc.stats.Hits++
		rc.p.regCounter("reg_hits")
		e.locked = e.locked || lock
		rc.unlink(e)
		rc.pushMRU(e)
		return 0
	}
	var cost vtime.Duration
	if e, ok := rc.entries[key]; ok {
		// The buffer grew past its registered extent: the stale mapping
		// must be torn down before the full range is pinned. Counted as
		// a miss (the transfer could not ride the cache), not an
		// eviction (no capacity pressure was involved).
		cost += deregisterBase
		lock = lock || e.locked
		rc.remove(e)
	}
	rc.stats.Misses++
	rc.p.regCounter("reg_misses")
	for rc.count+1 > rc.maxEntries || rc.bytes+int64(n) > rc.maxBytes {
		v := rc.lruVictim()
		if v == nil {
			break // everything left is locked: over-subscribe rather than fail
		}
		cost += deregisterBase
		rc.stats.Evictions++
		rc.p.regCounter("reg_evicts")
		rc.p.recordReg("evict", v.n, at.Add(cost-deregisterBase), at.Add(cost))
		rc.remove(v)
	}
	pages := (n + 4095) / 4096
	reg := registerBase + vtime.Duration(pages)*registerPerPage
	rc.p.recordReg("register", n, at.Add(cost), at.Add(cost+reg))
	cost += reg
	e := &regEntry{key: key, buf: buf, n: n, locked: lock}
	rc.entries[key] = e
	rc.pushMRU(e)
	rc.count++
	rc.bytes += int64(n)
	rc.stats.BytesReg += int64(n)
	rc.stats.PinnedBytes = rc.bytes
	if rc.bytes > rc.stats.PinnedPeak {
		rc.stats.PinnedPeak = rc.bytes
	}
	return cost
}

// unlock releases a sticky registration (RMA window teardown). The
// entry stays cached — deregistration is lazy, exactly the regcache
// bet — but becomes an ordinary eviction candidate. Unknown buffers
// are a no-op: a zero-size window never registered.
func (rc *regCache) unlock(buf []byte) {
	if len(buf) == 0 {
		return
	}
	if e, ok := rc.entries[&buf[0]]; ok {
		e.locked = false
	}
}

// lruVictim returns the least recently used unlocked entry, nil if
// every cached entry is locked.
func (rc *regCache) lruVictim() *regEntry {
	for e := rc.lru.next; e != &rc.lru; e = e.next {
		if !e.locked {
			return e
		}
	}
	return nil
}

func (rc *regCache) unlink(e *regEntry) {
	e.prev.next = e.next
	e.next.prev = e.prev
}

func (rc *regCache) pushMRU(e *regEntry) {
	e.prev = rc.lru.prev
	e.next = &rc.lru
	rc.lru.prev.next = e
	rc.lru.prev = e
}

func (rc *regCache) remove(e *regEntry) {
	rc.unlink(e)
	delete(rc.entries, e.key)
	rc.count--
	rc.bytes -= int64(e.n)
	rc.stats.PinnedBytes = rc.bytes
	e.buf = nil
	e.key = nil
}
