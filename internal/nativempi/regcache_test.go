package nativempi

import (
	"fmt"
	"math/rand"
	"testing"

	"mv2j/internal/cluster"
	"mv2j/internal/fabric"
	"mv2j/internal/vtime"
)

// Reference-spec proof for the pin-down registration cache: regcache.go
// is an intrusive-ring LRU with sticky entries and byte/entry budgets;
// this file re-implements the SAME semantics as a naive map + ordered
// slice and drives both with randomized register/lock/unlock sequences,
// comparing every returned cost and every counter step by step — the
// matcher_test.go methodology applied to the RDMA channel's cache.

// refRegCache is the executable specification: entries live in a plain
// slice ordered least → most recently used; every operation is a
// linear scan. Costs use the same model constants and formulas.
type refRegCache struct {
	maxEnt  int
	maxByte int64
	order   []*refRegEntry // index 0 = LRU, last = MRU
	hits    int64
	misses  int64
	evicts  int64
	bytes   int64
	peak    int64
}

type refRegEntry struct {
	key    *byte
	n      int
	locked bool
}

func (rc *refRegCache) find(key *byte) int {
	for i, e := range rc.order {
		if e.key == key {
			return i
		}
	}
	return -1
}

func (rc *refRegCache) covered(buf []byte) bool {
	if len(buf) == 0 {
		return false
	}
	i := rc.find(&buf[0])
	return i >= 0 && rc.order[i].n >= len(buf)
}

func (rc *refRegCache) acquire(buf []byte, lock bool) vtime.Duration {
	n := len(buf)
	if n == 0 {
		return 0
	}
	key := &buf[0]
	if i := rc.find(key); i >= 0 && rc.order[i].n >= n {
		rc.hits++
		e := rc.order[i]
		e.locked = e.locked || lock
		rc.order = append(append(rc.order[:i:i], rc.order[i+1:]...), e)
		return 0
	}
	var cost vtime.Duration
	if i := rc.find(key); i >= 0 {
		cost += deregisterBase
		lock = lock || rc.order[i].locked
		rc.bytes -= int64(rc.order[i].n)
		rc.order = append(rc.order[:i:i], rc.order[i+1:]...)
	}
	rc.misses++
	for len(rc.order)+1 > rc.maxEnt || rc.bytes+int64(n) > rc.maxByte {
		vi := -1
		for i, e := range rc.order {
			if !e.locked {
				vi = i
				break
			}
		}
		if vi < 0 {
			break
		}
		cost += deregisterBase
		rc.evicts++
		rc.bytes -= int64(rc.order[vi].n)
		rc.order = append(rc.order[:vi:vi], rc.order[vi+1:]...)
	}
	pages := (n + 4095) / 4096
	cost += registerBase + vtime.Duration(pages)*registerPerPage
	rc.order = append(rc.order, &refRegEntry{key: key, n: n, locked: lock})
	rc.bytes += int64(n)
	if rc.bytes > rc.peak {
		rc.peak = rc.bytes
	}
	return cost
}

func (rc *refRegCache) unlock(buf []byte) {
	if len(buf) == 0 {
		return
	}
	if i := rc.find(&buf[0]); i >= 0 {
		rc.order[i].locked = false
	}
}

// regCacheCap builds a 1-rank world and returns its rank's cache, set
// to the given capacity.
func regCacheCap(entries int, capBytes int64) *regCache {
	topo := cluster.New(1, 1)
	rc := NewWorld(topo, fabric.Default(topo), Profile{}).Proc(0).reg
	rc.maxEntries, rc.maxBytes = entries, capBytes
	return rc
}

// TestRegCacheReference drives 20 seeds × 2000 randomized steps of
// acquire / acquireLocked / unlock / covered over a pool of buffers
// (including sub-slices of shared backing arrays, which exercise the
// grow-remiss path) and demands the production cache and the naive
// model agree on every cost, every counter, and every peek.
func TestRegCacheReference(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			entries := 2 + rng.Intn(6)
			capBytes := int64(16<<10) + int64(rng.Intn(64<<10))
			rc := regCacheCap(entries, capBytes)
			ref := &refRegCache{maxEnt: entries, maxByte: capBytes}

			// Buffer pool: a dozen backing arrays of assorted sizes;
			// each op registers a prefix slice, so the same base shows
			// up at several lengths.
			pool := make([][]byte, 12)
			for i := range pool {
				pool[i] = make([]byte, 1<<10+rng.Intn(24<<10))
			}
			for step := 0; step < 2000; step++ {
				b := pool[rng.Intn(len(pool))]
				buf := b[:1+rng.Intn(len(b))]
				switch op := rng.Intn(10); {
				case op < 6:
					got := rc.acquire(buf, 0)
					want := ref.acquire(buf, false)
					if got != want {
						t.Fatalf("step %d: acquire cost %v, reference %v", step, got, want)
					}
				case op < 7:
					got := rc.acquireLocked(buf, 0)
					want := ref.acquire(buf, true)
					if got != want {
						t.Fatalf("step %d: acquireLocked cost %v, reference %v", step, got, want)
					}
				case op < 8:
					rc.unlock(buf)
					ref.unlock(buf)
				default:
					if got, want := rc.covered(buf), ref.covered(buf); got != want {
						t.Fatalf("step %d: covered=%v, reference %v", step, got, want)
					}
				}
				st := rc.stats
				if st.Hits != ref.hits || st.Misses != ref.misses || st.Evictions != ref.evicts {
					t.Fatalf("step %d: counters (h%d m%d e%d) vs reference (h%d m%d e%d)",
						step, st.Hits, st.Misses, st.Evictions, ref.hits, ref.misses, ref.evicts)
				}
				if st.PinnedBytes != ref.bytes || st.PinnedPeak != ref.peak {
					t.Fatalf("step %d: pinned %d/%d vs reference %d/%d",
						step, st.PinnedBytes, st.PinnedPeak, ref.bytes, ref.peak)
				}
				if rc.count != len(ref.order) {
					t.Fatalf("step %d: %d entries vs reference %d", step, rc.count, len(ref.order))
				}
			}
		})
	}
}

// TestRegCacheAccounting pins the hit/miss/evict economics on a
// scripted sequence against hand-computed numbers.
func TestRegCacheAccounting(t *testing.T) {
	rc := regCacheCap(2, 1<<30) // entry-capacity pressure only
	a := make([]byte, 4096)
	b := make([]byte, 8192)
	c := make([]byte, 100)

	regCost := func(n int) vtime.Duration {
		return registerBase + vtime.Duration((n+4095)/4096)*registerPerPage
	}

	if got := rc.acquire(a, 0); got != regCost(4096) {
		t.Fatalf("cold register: %v, want %v", got, regCost(4096))
	}
	if got := rc.acquire(a, 0); got != 0 {
		t.Fatalf("warm hit should be free, cost %v", got)
	}
	if got := rc.acquire(b, 0); got != regCost(8192) {
		t.Fatalf("second register: %v, want %v", got, regCost(8192))
	}
	// Third distinct buffer: capacity 2 forces an eviction of a (LRU).
	if got, want := rc.acquire(c, 0), deregisterBase+regCost(100); got != want {
		t.Fatalf("evicting register: %v, want %v", got, want)
	}
	// a was evicted: re-acquiring is a miss (and evicts b).
	if got, want := rc.acquire(a, 0), deregisterBase+regCost(4096); got != want {
		t.Fatalf("re-register after evict: %v, want %v", got, want)
	}
	st := rc.stats
	if st.Hits != 1 || st.Misses != 4 || st.Evictions != 2 {
		t.Fatalf("counters h%d m%d e%d, want h1 m4 e2", st.Hits, st.Misses, st.Evictions)
	}
	// Grow: register a prefix (a capacity eviction makes room), hit it,
	// then present the full backing array — a remiss that tears the
	// stale mapping down first. Removing the stale entry frees its
	// capacity slot, so the grow itself pays exactly one deregistration
	// and is counted as a miss, never an eviction.
	big := make([]byte, 16<<10)
	rc.acquire(big[:4096], 0) // miss; evicts the LRU entry (c)
	if rc.acquire(big[:4096], 0) != 0 {
		t.Fatal("prefix re-acquire should hit")
	}
	if got, want := rc.acquire(big, 0), deregisterBase+regCost(16<<10); got != want {
		t.Fatalf("grow: %v, want %v", got, want)
	}
	if rc.stats.Evictions != 3 {
		t.Fatalf("grow must not count as eviction: e%d, want 3", rc.stats.Evictions)
	}
	if rc.stats.Misses != 6 || rc.stats.Hits != 2 {
		t.Fatalf("final counters h%d m%d, want h2 m6", rc.stats.Hits, rc.stats.Misses)
	}
}

// TestRegCacheLockedPinning pins the sticky-entry contract: locked
// registrations (exposed RMA windows) are exempt from LRU eviction,
// the cache over-subscribes rather than evicting them, and unlock
// restores eviction eligibility.
func TestRegCacheLockedPinning(t *testing.T) {
	rc := regCacheCap(2, 1<<30)
	win := make([]byte, 4096)
	a := make([]byte, 4096)
	b := make([]byte, 4096)
	rc.acquireLocked(win, 0)
	rc.acquire(a, 0)
	rc.acquire(b, 0) // evicts a (LRU unlocked), never win
	if !rc.covered(win) {
		t.Fatal("locked entry was evicted")
	}
	if rc.covered(a) {
		t.Fatal("unlocked LRU entry survived capacity pressure")
	}
	// Only locked entries left at capacity: over-subscribe.
	c := make([]byte, 4096)
	rc.acquireLocked(b, 0)
	rc.acquire(c, 0)
	if rc.count != 3 {
		t.Fatalf("locked-full cache should over-subscribe, count %d", rc.count)
	}
	rc.unlock(win)
	d := make([]byte, 4096)
	rc.acquire(d, 0)
	if rc.covered(win) {
		t.Fatal("unlocked window entry should be evictable again")
	}
}

// TestRegCacheHitAllocFree pins the warm-hit fast path at zero host
// allocations: the amortized case runs on every above-threshold
// message, and an alloc there would tax exactly the traffic the cache
// exists to speed up.
func TestRegCacheHitAllocFree(t *testing.T) {
	rc := regCacheCap(8, 1<<30)
	buf := make([]byte, 64<<10)
	rc.acquire(buf, 0)
	if avg := testing.AllocsPerRun(200, func() {
		if rc.acquire(buf, 0) != 0 {
			t.Fatal("expected warm hit")
		}
	}); avg != 0 {
		t.Fatalf("warm-hit acquire allocates %.2f/op, want 0", avg)
	}
}
