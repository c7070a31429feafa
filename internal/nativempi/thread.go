package nativempi

import (
	"fmt"
	"sync"

	"mv2j/internal/vtime"
)

// ThreadLevel is an MPI threading support level, mirroring the
// `threads=single|funneled|serialized|multiple` build variant of an
// MVAPICH2 install. The zero value means "unspecified" (a profile
// defaults it to ThreadMultiple; a rank that never calls InitThread
// runs at ThreadSingle, the MPI_Init semantics).
type ThreadLevel int

const (
	// ThreadSingle: only one thread exists per rank.
	ThreadSingle ThreadLevel = iota + 1
	// ThreadFunneled: the process may be multithreaded, but only the
	// main thread (tid 0) makes MPI calls.
	ThreadFunneled
	// ThreadSerialized: any thread may call MPI, but never two at
	// once — the application serializes the calls itself.
	ThreadSerialized
	// ThreadMultiple: any thread may call MPI at any time; the library
	// arbitrates its entry lock and charges the contention to virtual
	// time.
	ThreadMultiple
)

func (l ThreadLevel) String() string {
	switch l {
	case ThreadSingle:
		return "MPI_THREAD_SINGLE"
	case ThreadFunneled:
		return "MPI_THREAD_FUNNELED"
	case ThreadSerialized:
		return "MPI_THREAD_SERIALIZED"
	case ThreadMultiple:
		return "MPI_THREAD_MULTIPLE"
	default:
		return fmt.Sprintf("ThreadLevel(%d)", int(l))
	}
}

// ThreadStats counts host-side activity of the simulated-thread
// multiplexer. Contended and ArbWaitPs are virtual quantities (they
// are also exported through the deterministic metrics registry as
// thread/* series); the rest are host-side scheduling counters.
type ThreadStats struct {
	Groups     int64 // RunThreads invocations with n > 1
	Threads    int64 // simulated threads launched (including tid 0)
	Handoffs   int64 // baton handoffs between simulated threads
	RankBlocks int64 // whole-rank engine blocks taken on behalf of a group
	Contended  int64 // contended entry-lock acquisitions
	ArbWaitPs  int64 // virtual picoseconds spent arbitrating the entry lock
}

func (a *ThreadStats) add(b ThreadStats) {
	a.Groups += b.Groups
	a.Threads += b.Threads
	a.Handoffs += b.Handoffs
	a.RankBlocks += b.RankBlocks
	a.Contended += b.Contended
	a.ArbWaitPs += b.ArbWaitPs
}

// InitThread negotiates the rank's threading level — MPI_Init_thread.
// The provided level is the smaller of the requested level and the
// profile's build-time ThreadLevel; it is what RunThreads and the
// per-call gating enforce. Calling InitThread again renegotiates.
func (p *Proc) InitThread(required ThreadLevel) ThreadLevel {
	if required < ThreadSingle {
		required = ThreadSingle
	}
	if required > ThreadMultiple {
		required = ThreadMultiple
	}
	provided := required
	if lib := p.w.prof.ThreadLevel; provided > lib {
		provided = lib
	}
	p.thrLevel = provided
	return provided
}

// ThreadLevelProvided returns the level InitThread negotiated, or
// ThreadSingle if it was never called.
func (p *Proc) ThreadLevelProvided() ThreadLevel {
	if p.thrLevel == 0 {
		return ThreadSingle
	}
	return p.thrLevel
}

// Simulated-thread states. Exactly one thread of a group runs at any
// host instant (the baton invariant); the rest are parked on their
// wake channels in one of the waiting states.
type tstate uint8

const (
	tReady    tstate = iota // created, never run: always schedulable
	tRunning                // holds the baton
	tPopWait                // parked in popBlocking, waiting for dispatch progress
	tSpinWait               // parked at a spin checkpoint (Test/Iprobe)
	tJoin                   // main thread parked in the join pump
	tDone                   // body returned (or unwound)
)

// simThread is one simulated thread of a rank. Its virtual timeline
// lives in now while parked and in the rank's clock while running.
type simThread struct {
	tid      int
	state    tstate
	parkedAt uint64     // tg.epoch at park time: schedulable once stale
	now      vtime.Time // saved clock while not running
	csDepth  int        // reentrant depth inside the library's entry lock
	wake     chan struct{}
	err      error
}

// threadGroup multiplexes n simulated threads onto one rank goroutine
// family under a cooperative single-baton scheduler. The baton handoff
// order is a pure function of virtual state — the schedulable thread
// with the smallest (saved clock, tid) key runs next, the thread-level
// analogue of the engine's (arriveAt, src, seq) phase merge — so
// multithreaded runs produce byte-identical virtual artifacts whatever
// the host scheduler does.
type threadGroup struct {
	p       *Proc
	level   ThreadLevel
	threads []*simThread
	cur     int // tid holding the baton

	// epoch counts dispatches (and retirements). A parked thread is
	// schedulable only when its park epoch is stale: its wake condition
	// can only have changed if a packet was dispatched (all blocking
	// conditions — request completion, probe matches, credit grants —
	// are mail-driven), so fresher parks would just ping-pong the baton.
	epoch uint64

	// lockFree is the virtual instant the library's entry lock was
	// last released. An entry (or a reacquire after a condition wait)
	// whose clock is behind it is contended: the thread advances to
	// lockFree and pays lockArbitrationCost. Parking inside a call
	// releases the lock, as the real progress engine's condition waits
	// do.
	lockFree vtime.Time

	// gateHolders counts threads positioned inside an MPI call (parked
	// or running). Under SERIALIZED a second concurrent caller is an
	// application error and panics deterministically.
	gateHolders int
	gateOwner   int // tid of the most recent depth-0 entry

	aborted bool
	abortE  abortError
	wg      sync.WaitGroup
}

// RunThreads runs fn concurrently on n simulated threads of this rank
// and joins them — the harness's stand-in for a Java application
// spawning worker threads that share one MPI process. tid 0 runs on
// the rank goroutine itself; each other tid gets its own goroutine,
// but the group is cooperatively scheduled so exactly one thread runs
// at a time and every interleaving decision is made on virtual state.
//
// n == 1 runs fn(0) inline. n > 1 requires a negotiated level above
// ThreadSingle (see InitThread) and fails with ErrUnsupported under
// fault plans or fault tolerance: the reliability timers and failure
// sweeps assume one timeline per rank. The returned error is the first
// non-nil thread error; a panic in any thread aborts the job, exactly
// as a rank panic does.
func (p *Proc) RunThreads(n int, fn func(tid int) error) error {
	if fn == nil {
		return fmt.Errorf("nativempi: rank %d: RunThreads with nil body", p.rank)
	}
	if n <= 0 {
		return fmt.Errorf("nativempi: rank %d: RunThreads needs n >= 1, got %d", p.rank, n)
	}
	if n == 1 {
		return fn(0)
	}
	if p.tg != nil {
		return fmt.Errorf("nativempi: rank %d: nested RunThreads", p.rank)
	}
	level := p.ThreadLevelProvided()
	if level == ThreadSingle {
		return fmt.Errorf("nativempi: rank %d: %d threads need InitThread >= %v (provided %v)",
			p.rank, n, ThreadFunneled, ThreadSingle)
	}
	if p.w.ft || p.w.fab.Faults() != nil {
		return fmt.Errorf("%w: rank %d: RunThreads is unavailable under fault plans or fault tolerance", ErrUnsupported, p.rank)
	}

	tg := &threadGroup{p: p, level: level, cur: 0}
	tg.threads = make([]*simThread, n)
	start := p.clock.Now()
	for i := range tg.threads {
		tg.threads[i] = &simThread{tid: i, state: tReady, now: start, wake: make(chan struct{}, 1)}
	}
	tg.threads[0].state = tRunning
	p.tg = tg
	p.threadStats.Groups++
	p.threadStats.Threads += int64(n)

	// Endpoint fan-out: under MULTIPLE each thread injects through
	// endpoint tid % len(nicEp); below MULTIPLE at most one thread is
	// inside the library at a time, so the single NIC slot stands.
	if level == ThreadMultiple {
		eps := min(p.w.injectEndpoints, n)
		p.nicEp = p.nicEp[:0]
		for i := 0; i < eps; i++ {
			p.nicEp = append(p.nicEp, p.nicFree)
		}
	}

	for _, t := range tg.threads[1:] {
		tg.wg.Add(1)
		go tg.threadMain(t, fn)
	}

	// Main thread body, then the join pump. Both may unwind on an
	// abort packet; the recover turns that into the group-wide abort
	// cascade, and RunThreads re-raises it after the join so World.Run
	// sees the same panic a single-threaded rank would.
	func() {
		defer func() {
			r := recover()
			if r == nil {
				return
			}
			ae, ok := r.(abortError)
			if !ok {
				// A real bug in the harness or a user panic on the main
				// thread: abort the job and unwind the siblings before
				// letting it propagate to World.Run's recover.
				tg.noteAbort(abortError{origin: p.rank, reason: fmt.Sprint(r)})
				tg.abortWakeNext()
				tg.wg.Wait()
				panic(r)
			}
			tg.noteAbort(ae)
		}()
		tg.runBody(tg.threads[0], fn)
		tg.join()
	}()
	if tg.aborted {
		tg.abortWakeNext()
	}
	tg.wg.Wait()
	p.tg = nil

	// Fold the thread timelines back into the rank: the rank's clock
	// joins at the latest thread exit, and the endpoint slots collapse
	// into the single NIC cursor.
	joined := p.clock.Now()
	for _, t := range tg.threads {
		joined = vtime.Max(joined, t.now)
	}
	p.clock.AdvanceTo(joined)
	for _, ep := range p.nicEp {
		p.nicFree = vtime.Max(p.nicFree, ep)
	}
	p.nicEp = p.nicEp[:0]

	if tg.aborted {
		panic(tg.abortE)
	}
	for _, t := range tg.threads {
		if t.err != nil {
			return t.err
		}
	}
	return nil
}

// threadMain is the goroutine body of tids 1..n-1: wait for the first
// baton, run, retire.
func (tg *threadGroup) threadMain(t *simThread, fn func(int) error) {
	defer tg.wg.Done()
	<-t.wake
	if !tg.aborted {
		tg.runBody(t, fn)
	}
	tg.retire(t)
}

// runBody executes fn(tid) under the thread's recover shield: an abort
// packet popped by this thread is noted for the group (retire
// continues the cascade); any other panic aborts the whole job.
func (tg *threadGroup) runBody(t *simThread, fn func(int) error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if ae, ok := r.(abortError); ok {
			tg.noteAbort(ae)
			return
		}
		t.err = fmt.Errorf("nativempi: rank %d thread %d panicked: %v", tg.p.rank, t.tid, r)
		tg.noteAbort(abortError{origin: tg.p.rank, reason: fmt.Sprintf("thread %d panic: %v", t.tid, r)})
		tg.p.w.Abort(tg.p.rank, fmt.Sprintf("thread %d panic: %v", t.tid, r))
	}()
	t.err = fn(t.tid)
}

// retire marks t done and moves the baton on — to the next schedulable
// thread on the normal path, or down the abort cascade.
func (tg *threadGroup) retire(t *simThread) {
	t.state = tDone
	t.now = tg.p.clock.Now()
	tg.epoch++
	if tg.aborted {
		tg.abortWakeNext()
		return
	}
	defer func() {
		if r := recover(); r != nil {
			ae, ok := r.(abortError)
			if !ok {
				panic(r)
			}
			tg.noteAbort(ae)
			tg.abortWakeNext()
		}
	}()
	tg.releaseBaton()
}

// noteAbort records the first abort the group observed.
func (tg *threadGroup) noteAbort(ae abortError) {
	if !tg.aborted {
		tg.aborted = true
		tg.abortE = ae
	}
}

// abortWakeNext continues the abort cascade: wake exactly one parked,
// not-yet-done thread so it can unwind (its park point panics the
// abort, its retire calls back here). The chain is strictly
// sequential — each link wakes at most one successor — so the group
// unwinds without ever running two threads at once.
func (tg *threadGroup) abortWakeNext() {
	for _, t := range tg.threads {
		if t.state == tDone || t.state == tRunning {
			continue
		}
		t.state = tRunning
		tg.cur = t.tid
		t.wake <- struct{}{}
		return
	}
}

// schedulable reports whether t could take the baton now.
func (tg *threadGroup) schedulable(t *simThread) bool {
	switch t.state {
	case tReady:
		return true
	case tPopWait, tSpinWait, tJoin:
		return t.parkedAt != tg.epoch
	default:
		return false
	}
}

// pickRunnable returns the schedulable thread with the smallest
// (saved clock, tid) key. The key is total (tids are unique), so the
// handoff order — the rank's lock-arbitration order — is a pure
// function of virtual state, never of host scheduling.
func (tg *threadGroup) pickRunnable() *simThread {
	var best *simThread
	for _, t := range tg.threads {
		if !tg.schedulable(t) {
			continue
		}
		if best == nil || t.now < best.now || (t.now == best.now && t.tid < best.tid) {
			best = t
		}
	}
	return best
}

// resume hands the baton to next: restore its virtual timeline, then
// signal. The SetNow-before-signal order rides the channel's
// happens-before edge, so the woken thread always sees its own time.
func (tg *threadGroup) resume(next *simThread) {
	next.state = tRunning
	tg.cur = next.tid
	tg.p.clock.SetNow(next.now)
	next.wake <- struct{}{}
}

// park saves the current thread's timeline, hands the baton to next,
// and blocks until it comes back. If the group aborted meanwhile the
// thread unwinds via the abort panic, exactly as a poison packet
// does. A thread parked inside an MPI call releases the entry lock
// for the duration and re-arbitrates it on wake.
func (tg *threadGroup) park(st tstate, next *simThread) {
	cur := tg.threads[tg.cur]
	cur.state = st
	cur.parkedAt = tg.epoch
	cur.now = tg.p.clock.Now()
	if cur.csDepth > 0 && cur.now > tg.lockFree {
		tg.lockFree = cur.now
	}
	tg.resume(next)
	<-cur.wake
	if tg.aborted {
		panic(tg.abortE)
	}
	if cur.csDepth > 0 {
		tg.arbitrate()
	}
}

// yieldTo parks the current thread in state st if another simulated
// thread can run. Reports whether a handoff happened (and the baton
// has since returned) — the caller must then recheck its wake
// condition rather than assume mail arrived.
func (tg *threadGroup) yieldTo(st tstate) bool {
	next := tg.pickRunnable()
	if next == nil {
		return false
	}
	tg.p.threadStats.Handoffs++
	tg.park(st, next)
	return true
}

// releaseBaton moves the baton onward after the current thread
// retired: to the best schedulable thread, or — when every live
// thread waits on future mail — by pumping the rank's mailbox until a
// dispatch makes one schedulable.
func (tg *threadGroup) releaseBaton() {
	p := tg.p
	for {
		if next := tg.pickRunnable(); next != nil {
			p.threadStats.Handoffs++
			tg.resume(next)
			return
		}
		p.dispatch(p.rankPop())
	}
}

// join is the main thread's pump after its body returned: keep the
// rank making progress until every sibling retires. While parked in
// tJoin the main thread is an ordinary schedulable target, so
// retiring threads hand it the baton back through the same
// deterministic pick.
func (tg *threadGroup) join() {
	p := tg.p
	for {
		done := true
		for _, t := range tg.threads[1:] {
			if t.state != tDone {
				done = false
				break
			}
		}
		if done {
			return
		}
		if next := tg.pickRunnable(); next != nil {
			p.threadStats.Handoffs++
			tg.park(tJoin, next)
			continue
		}
		p.dispatch(p.rankPop())
	}
}

// rankPop blocks the WHOLE rank until a packet arrives — used by the
// baton holder when no simulated thread can progress without new
// mail. Engine aborts are observed through the poison packet
// abortLocked guarantees is in the mailbox before any wake.
func (p *Proc) rankPop() *packet {
	for {
		if pkt, ok := p.mb.tryPop(); ok {
			return pkt
		}
		p.w.eng.Load().block(p.rank)
		if p.tg != nil {
			p.threadStats.RankBlocks++
		}
	}
}

// gateEnter models the library's per-call entry serialization. Under
// FUNNELED a non-main caller is an application error and panics
// deterministically; under SERIALIZED a second thread entering while
// another is inside a call does too. Under MULTIPLE a contended entry
// advances the thread to the lock's release instant and charges
// lockArbitrationCost — the coarse-lock tax that bounds thread-
// multiple message rates. Reentrant (csDepth tracks nesting, so a
// public call composed of public calls arbitrates once).
func (p *Proc) gateEnter() {
	tg := p.tg
	if tg == nil {
		return
	}
	t := tg.threads[tg.cur]
	switch tg.level {
	case ThreadFunneled:
		if t.tid != 0 {
			panic(fmt.Sprintf("nativempi: rank %d thread %d made an MPI call under %v: only the main thread may",
				p.rank, t.tid, ThreadFunneled))
		}
		return
	case ThreadSerialized:
		if t.csDepth == 0 && tg.gateHolders > 0 {
			panic(fmt.Sprintf("nativempi: rank %d thread %d entered MPI while thread %d is inside a call: %v forbids overlapping calls",
				p.rank, t.tid, tg.gateOwner, ThreadSerialized))
		}
	}
	if t.csDepth == 0 {
		tg.gateHolders++
		tg.gateOwner = t.tid
		tg.arbitrate()
	}
	t.csDepth++
}

// gateLeave releases the entry lock at depth 0, stamping its release
// instant for the next contender.
func (p *Proc) gateLeave() {
	tg := p.tg
	if tg == nil || tg.level == ThreadFunneled {
		return
	}
	t := tg.threads[tg.cur]
	t.csDepth--
	if t.csDepth == 0 {
		tg.gateHolders--
		if now := p.clock.Now(); now > tg.lockFree {
			tg.lockFree = now
		}
	}
}

// arbitrate charges the entry lock's acquisition when the current
// thread's clock falls inside the last holder's critical section.
// Uncontended acquisitions are free and record nothing, so runs that
// never contend are byte-identical to runs without threading at all.
func (tg *threadGroup) arbitrate() {
	p := tg.p
	start := p.clock.Now()
	if start >= tg.lockFree {
		return
	}
	p.clock.AdvanceTo(tg.lockFree)
	p.clock.Advance(p.w.lockArbitration)
	end := p.clock.Now()
	p.threadStats.Contended++
	p.threadStats.ArbWaitPs += int64(end.Sub(start))
	p.recordLock(tg.threads[tg.cur].tid, start, end)
}

// nicSlot returns the injection cursor for endpoint ep (-1, or any
// value outside the active endpoint fan, selects the rank's shared
// NIC slot).
func (p *Proc) nicSlot(ep int) *vtime.Time {
	if ep >= 0 && ep < len(p.nicEp) {
		return &p.nicEp[ep]
	}
	return &p.nicFree
}

// curEndpoint returns the endpoint index the current simulated thread
// injects through, or -1 when the rank runs single-threaded (or the
// endpoint fan is inactive).
func (p *Proc) curEndpoint() int {
	if p.tg == nil || len(p.nicEp) == 0 {
		return -1
	}
	return p.tg.cur % len(p.nicEp)
}
