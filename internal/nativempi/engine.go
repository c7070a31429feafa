package nativempi

import (
	"runtime"
	"slices"
	"sync"

	"mv2j/internal/vtime"
)

// This file is the multicore scale-out engine: a conservative
// phase-stepped scheduler that runs per-rank host work (matching,
// copies, collectives, reliability) on a bounded worker pool while
// keeping every virtual artifact byte-identical to serial execution.
//
// The model. Each rank is a goroutine, as before, but at most
// `workers` of them hold an execution token at any instant. A running
// rank buffers every packet it emits into a private per-rank outbox
// instead of pushing straight into destination mailboxes. When every
// live rank is blocked (no one runnable, no one running) the engine
// has reached a PHASE BARRIER: all outboxes are flushed, merged, and
// sorted by the total key (arriveAt, src, emitSeq) — vtime.PhaseKey —
// then delivered to destination mailboxes in that order. Blocked ranks
// whose mailboxes became non-empty are promoted back to runnable and
// tokens are re-granted in rank order.
//
// Why this is deterministic: rank execution is rank-confined (a
// running rank touches only its own state plus its outbox), so the
// only inter-rank channel is packet delivery — and delivery order is
// canonicalized by the sorted merge, whose key is total (same source
// implies distinct emitSeq). Which worker ran which rank, and in what
// host order, cannot be observed by the simulation.
//
// Lock order: eng.mu → mailbox.mu, never the reverse. A running rank
// appends to its outbox without any lock (owner-only); the barrier
// reads outboxes under eng.mu, and the happens-before edge is the
// rank's own state transition (block/yield/done), which acquires
// eng.mu after its last append.

// rankState is a rank's position in the engine's state machine.
type rankState uint8

const (
	rsReady   rankState = iota // waiting for an execution token
	rsRunning                  // holds a token, executing user code
	rsBlocked                  // parked in popBlocking, mailbox empty
	rsYielded                  // parked at a spin-loop checkpoint (Test/Iprobe)
	rsDone                     // rank function returned
)

// EngineStats counts host-side scheduler activity. Like MailboxStats
// these are HOST observability numbers (phase shapes depend on worker
// count) and stay out of the deterministic artifacts.
type EngineStats struct {
	Phases    int64 `json:"phases"`    // barrier flushes performed
	Delivered int64 `json:"delivered"` // packets merged and delivered at barriers
	MaxPhase  int64 `json:"max_phase"` // largest single merge
	Handoffs  int64 `json:"handoffs"`  // execution-token grants
	Yields    int64 `json:"yields"`    // cooperative yields from spin loops
}

// engineCell is one rank's scheduling state. The out slice and seq
// counter are owner-private while the rank is RUNNING; the engine
// reads them only at barriers, under mu, when no rank is running.
type engineCell struct {
	cond  *sync.Cond
	state rankState
	out   []*packet // buffered emissions of the current phase
	seq   uint64    // per-rank emission counter (never reset: key stays total)
}

// engine is the per-Run scheduler instance. It is created by World.Run
// and discarded when the run ends; with no engine (w.eng empty) only
// drainPending's acks and an out-of-Run Abort move packets, pushing
// straight into the destination mailbox.
type engine struct {
	w       *World
	workers int

	mu        sync.Mutex
	cells     []engineCell
	readyq    []int // FIFO of rank ids awaiting a token
	readyHead int
	runningN  int
	doneN     int
	aborted   bool
	merged    []*packet // reusable barrier merge buffer
	stats     EngineStats
}

func newEngine(w *World, workers int) *engine {
	n := len(w.procs)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	eng := &engine{w: w, workers: workers}
	eng.cells = make([]engineCell, n)
	eng.readyq = make([]int, 0, n)
	for r := range eng.cells {
		eng.cells[r].cond = sync.NewCond(&eng.mu)
		eng.cells[r].state = rsReady
		eng.readyq = append(eng.readyq, r)
	}
	eng.mu.Lock()
	eng.grantLocked()
	eng.mu.Unlock()
	return eng
}

func (e *engine) readyN() int { return len(e.readyq) - e.readyHead }

// grantLocked hands execution tokens to ready ranks until the worker
// budget is spent or the ready queue drains. FIFO over the queue; the
// queue itself is filled in rank order at promotion time, so grant
// order is deterministic — though it would not matter if it weren't:
// rank execution is rank-confined and delivery order is fixed by the
// barrier merge, so grant order is pure host scheduling.
func (e *engine) grantLocked() {
	for e.runningN < e.workers && e.readyHead < len(e.readyq) {
		r := e.readyq[e.readyHead]
		e.readyHead++
		if e.readyHead == len(e.readyq) {
			e.readyq = e.readyq[:0]
			e.readyHead = 0
		}
		c := &e.cells[r]
		if c.state != rsReady {
			continue // stale entry (rank aborted or promoted elsewhere)
		}
		c.state = rsRunning
		e.runningN++
		e.stats.Handoffs++
		c.cond.Signal()
	}
}

// enter blocks the calling rank until it is granted its first token.
func (e *engine) enter(rank int) {
	e.mu.Lock()
	c := &e.cells[rank]
	for c.state != rsRunning && !e.aborted {
		c.cond.Wait()
	}
	e.mu.Unlock()
}

// emit buffers one packet emitted by src toward dst. Owner-only,
// lock-free: src is RUNNING and nobody else touches its cell until its
// next state transition publishes the appends.
func (e *engine) emit(src, dst int, pkt *packet) {
	c := &e.cells[src]
	pkt.dst = dst
	pkt.emitSeq = c.seq
	c.seq++
	c.out = append(c.out, pkt)
}

// block parks the calling rank: its mailbox is empty and it is inside
// a blocking MPI call. Returns false when the job aborted while the
// rank was parked (the caller re-polls and finds the abort packet).
func (e *engine) block(rank int) bool {
	e.mu.Lock()
	if e.aborted {
		e.mu.Unlock()
		return false
	}
	c := &e.cells[rank]
	c.state = rsBlocked
	e.runningN--
	e.grantLocked()
	e.maybePhaseLocked()
	for c.state != rsRunning {
		if e.aborted {
			break
		}
		c.cond.Wait()
	}
	ok := c.state == rsRunning
	e.mu.Unlock()
	return ok
}

// maybePhaseLocked runs a barrier when no rank is running or runnable
// — every live rank is parked at a block or yield checkpoint. If the
// barrier promotes nobody while live ranks remain, the job is
// deadlocked — every live rank waits on a message that no one can
// ever send — and the engine aborts it rather than hanging the
// harness. (Yielded ranks are always promoted, so a spinning rank can
// never produce a false deadlock verdict.)
func (e *engine) maybePhaseLocked() {
	if e.runningN > 0 || e.readyN() > 0 || e.aborted {
		return
	}
	e.phaseLocked()
	if e.runningN == 0 && e.readyN() == 0 && e.doneN < len(e.cells) && !e.aborted {
		e.abortLocked(-1, "deadlock: every live rank is blocked with no deliverable events")
	}
}

// phaseLocked is the barrier: flush all outboxes, sort by the total
// (arriveAt, src, emitSeq) key, deliver in that order, promote blocked
// ranks that received mail, and re-grant tokens. Steady state
// allocates nothing: the merge buffer, outbox slices, and ready queue
// are all recycled.
func (e *engine) phaseLocked() {
	m := e.merged[:0]
	for r := range e.cells {
		c := &e.cells[r]
		if len(c.out) == 0 {
			continue
		}
		m = append(m, c.out...)
		for i := range c.out {
			c.out[i] = nil
		}
		c.out = c.out[:0]
	}
	if len(m) > 0 {
		e.stats.Phases++
		e.stats.Delivered += int64(len(m))
		if int64(len(m)) > e.stats.MaxPhase {
			e.stats.MaxPhase = int64(len(m))
		}
		sortPackets(m)
		for i, pkt := range m {
			e.w.procs[pkt.dst].mb.push(pkt)
			m[i] = nil
		}
	}
	e.merged = m[:0]
	// Promote, in rank order: every yielded rank (runnable by
	// definition — it was spinning, not waiting), and every blocked
	// rank whose mailbox now has mail.
	for r := range e.cells {
		c := &e.cells[r]
		if c.state == rsYielded || (c.state == rsBlocked && !e.w.procs[r].mb.empty()) {
			c.state = rsReady
			e.readyq = append(e.readyq, r)
		}
	}
	e.grantLocked()
}

// sortPackets orders a merge buffer by the canonical phase key. The
// fuzzer drives this exact function over permuted event sets.
func sortPackets(pkts []*packet) { slices.SortFunc(pkts, comparePhase) }

// comparePhase is the merge comparator — a package-level func so
// slices.SortFunc takes no closure allocation on the hot path.
func comparePhase(a, b *packet) int {
	return vtime.PhaseKey{At: a.arriveAt, Src: a.src, Seq: a.emitSeq}.
		Compare(vtime.PhaseKey{At: b.arriveAt, Src: b.src, Seq: b.emitSeq})
}

// yield is the cooperative checkpoint for spin loops: a rank polling
// Test/Iprobe in a pure spin never blocks, so under strict phase
// stepping its peers' packets would sit in outboxes forever (and two
// mutual spinners would livelock). A yielding rank parks in rsYielded
// — structurally like blocking, except the next barrier ALWAYS
// promotes it. The run therefore advances in deterministic BSP-style
// rounds: every live rank executes from its previous checkpoint to
// its next block-or-yield point, then one barrier flushes and the
// next round begins. Round boundaries depend only on each rank's own
// deterministic execution, never on worker count or host scheduling.
func (e *engine) yield(rank int) {
	e.mu.Lock()
	if e.aborted {
		e.mu.Unlock()
		return
	}
	e.stats.Yields++
	c := &e.cells[rank]
	c.state = rsYielded
	e.runningN--
	e.grantLocked()
	e.maybePhaseLocked()
	for c.state != rsRunning {
		if e.aborted {
			break
		}
		c.cond.Wait()
	}
	e.mu.Unlock()
}

// done retires the calling rank. The LAST rank out always flushes a
// final barrier — even after an abort — so trailing reliability acks
// and detector notices reach mailboxes for drainPending to settle.
func (e *engine) done(rank int) {
	e.mu.Lock()
	c := &e.cells[rank]
	if c.state == rsRunning {
		e.runningN--
	}
	c.state = rsDone
	e.doneN++
	if e.doneN == len(e.cells) {
		e.phaseLocked()
	} else {
		e.grantLocked()
		e.maybePhaseLocked()
	}
	e.mu.Unlock()
}

// abort wakes every rank with a poison packet — MPI_Abort under the
// engine. Out-of-band: the abort packets are pushed directly (not
// through outboxes) BEFORE ranks are woken, so every woken rank's next
// poll finds one.
func (e *engine) abort(origin int, reason string) {
	e.mu.Lock()
	e.abortLocked(origin, reason)
	e.mu.Unlock()
}

func (e *engine) abortLocked(origin int, reason string) {
	if e.aborted {
		return
	}
	for _, q := range e.w.procs {
		q.mb.push(&packet{kind: pktAbort, src: origin, data: Contig([]byte(reason))})
	}
	e.aborted = true
	for r := range e.cells {
		c := &e.cells[r]
		if c.state == rsBlocked || c.state == rsReady || c.state == rsYielded {
			c.state = rsRunning
			e.runningN++
		}
		c.cond.Signal()
	}
	e.readyq = e.readyq[:0]
	e.readyHead = 0
}
