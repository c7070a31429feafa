package nativempi

import (
	"fmt"
	"sync"
	"sync/atomic"

	"mv2j/internal/cluster"
	"mv2j/internal/fabric"
	"mv2j/internal/metrics"
	"mv2j/internal/trace"
	"mv2j/internal/vtime"
)

// World is one simulated MPI job: a set of rank processes on a
// topology, bound to a fabric and a library profile.
type World struct {
	topo      *cluster.Topology
	fab       *fabric.Fabric
	prof      Profile
	procs     []*Proc
	nextCtx   atomic.Int32
	rec       *trace.Recorder
	met       *metrics.Registry
	abortOnce sync.Once

	// eng is the phase-stepped scale-out scheduler, non-nil exactly
	// while Run executes (atomic: Abort may be called from outside the
	// rank goroutines). engWorkers configures the worker-pool width for
	// the next Run: 0 = GOMAXPROCS, 1 = serial reference execution.
	eng        atomic.Pointer[engine]
	engWorkers int
	engStats   EngineStats

	// flowOn caches whether the profile enables credit-based eager flow
	// control (EagerCredits > 0; see flowctl.go).
	flowOn bool

	// rdmaProto caches the world-level half of the RDMA protocol
	// decision (threshold enabled AND no fault plan; Procs additionally
	// require !ft, see Proc.rdmaOK).
	rdmaProto bool

	// lockArbitration and injectEndpoints are the thread model's
	// lockArbitrationCost and injectEndpoints, held per world so that
	// the arbitration and fan-out tests can vary them.
	lockArbitration vtime.Duration
	injectEndpoints int

	// Fault-tolerance state (see ft.go). ft selects the ULFM-style
	// policy: a rank crash becomes a survivable event instead of a job
	// abort. deathAt is the global failure registry (virtual death
	// times), guarded by failMu while rank goroutines run.
	ft          bool
	failMu      sync.Mutex
	deathAt     map[int]vtime.Time
	deadLetters int64
}

// Context ids 0 and 1 are MPI_COMM_WORLD's point-to-point and
// collective contexts.
const (
	worldPtCtx   int32 = 0
	worldCollCtx int32 = 1
)

// NewWorld creates a world of topo.Size() ranks.
func NewWorld(topo *cluster.Topology, fab *fabric.Fabric, prof Profile) *World {
	if topo == nil || fab == nil {
		panic("nativempi: nil topology or fabric")
	}
	w := &World{topo: topo, fab: fab, prof: prof.normalize()}
	w.flowOn = w.prof.EagerCredits > 0
	w.rdmaProto = w.prof.RDMAThreshold > 0 && fab.Faults() == nil
	w.lockArbitration, w.injectEndpoints = lockArbitrationCost, injectEndpoints
	w.nextCtx.Store(2)
	// MPI_COMM_WORLD's member list and node partition are built once
	// and shared by every rank's view: nothing writes a group in place
	// (Comm.Group hands out a copy; Split, Shrink and CreateFromGroup
	// build fresh slices).
	group := identity(topo.Size())
	nodes, _, _ := partitionByNode(topo, group, -1)
	w.procs = make([]*Proc, topo.Size())
	for r := range w.procs {
		w.procs[r] = newProc(w, r, group)
	}
	for i, members := range nodes {
		for j, r := range members {
			c := w.procs[r].world
			c.nodes, c.myNode, c.myNodeIdx = nodes, i, j
		}
	}
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.topo.Size() }

// Topology returns the machine shape.
func (w *World) Topology() *cluster.Topology { return w.topo }

// Fabric returns the interconnect model.
func (w *World) Fabric() *fabric.Fabric { return w.fab }

// Profile returns the library profile in effect.
func (w *World) Profile() Profile { return w.prof }

// Proc returns the process object for a rank. Intended for tests and
// for the SPMD harness; application code receives its Proc from Run.
func (w *World) Proc(rank int) *Proc {
	if rank < 0 || rank >= len(w.procs) {
		panic(fmt.Sprintf("nativempi: rank %d out of range", rank))
	}
	return w.procs[rank]
}

// allocCtx reserves n fresh context ids and returns the first.
func (w *World) allocCtx(n int32) int32 {
	return w.nextCtx.Add(n) - n
}

// abortError is the panic payload the abort packet raises in blocked
// ranks.
type abortError struct {
	origin int
	reason string
}

func (e abortError) Error() string {
	return fmt.Sprintf("aborted by rank %d: %s", e.origin, e.reason)
}

// Abort wakes every rank of the job and fails it with the given
// reason — MPI_Abort. Blocked ranks unwind out of their MPI calls;
// ranks that already finished are unaffected.
func (w *World) Abort(origin int, reason string) {
	w.abortOnce.Do(func() {
		if eng := w.eng.Load(); eng != nil {
			eng.abort(origin, reason)
			return
		}
		// No engine: Abort called outside Run (before it, or after it
		// returned).
		for _, q := range w.procs {
			q.mb.push(&packet{kind: pktAbort, src: origin, data: Contig([]byte(reason))})
		}
	})
}

// SetEngineWorkers configures the phase-stepped engine's worker-pool
// width for subsequent Run calls: 0 (the default) sizes the pool to
// GOMAXPROCS, 1 forces serial reference execution, and any n is capped
// at the rank count. Virtual artifacts are byte-identical at every
// width — the knob trades host parallelism only.
func (w *World) SetEngineWorkers(n int) {
	if n < 0 {
		n = 0
	}
	w.engWorkers = n
}

// EngineStats reports the scheduler's host-side counters, accumulated
// across Run calls.
func (w *World) EngineStats() EngineStats { return w.engStats }

// Run executes fn once per rank, each on its own goroutine, and waits
// for all of them — the SPMD model of mpirun. A panic in any rank is
// captured and reported as that rank's error; the first few rank
// errors are joined into the returned error.
//
// A rank that fails (error or panic) ABORTS the job: peers blocked in
// MPI calls are woken and unwound, so one rank's failure can never
// deadlock the harness.
func (w *World) Run(fn func(p *Proc) error) error {
	errs := make([]error, len(w.procs))
	eng := newEngine(w, w.engWorkers)
	w.eng.Store(eng)
	var wg sync.WaitGroup
	for _, p := range w.procs {
		wg.Add(1)
		go func(p *Proc) {
			defer wg.Done()
			defer eng.done(p.rank)
			defer func() {
				if r := recover(); r != nil {
					if ae, ok := r.(abortError); ok {
						errs[p.rank] = ae
						return
					}
					if _, ok := r.(rankCrash); ok {
						// A scheduled death under fault tolerance is
						// scenario, not job failure: the rank simply
						// stops contributing and survivors recover.
						return
					}
					errs[p.rank] = fmt.Errorf("rank %d panicked: %v", p.rank, r)
					w.Abort(p.rank, fmt.Sprintf("peer panic: %v", r))
				}
			}()
			eng.enter(p.rank)
			errs[p.rank] = fn(p)
			if errs[p.rank] != nil {
				w.Abort(p.rank, errs[p.rank].Error())
			}
		}(p)
	}
	wg.Wait()
	w.engStats.Phases += eng.stats.Phases
	w.engStats.Delivered += eng.stats.Delivered
	if eng.stats.MaxPhase > w.engStats.MaxPhase {
		w.engStats.MaxPhase = eng.stats.MaxPhase
	}
	w.engStats.Handoffs += eng.stats.Handoffs
	w.engStats.Yields += eng.stats.Yields
	w.eng.Store(nil)
	w.drainPending()
	var first []error
	for r, err := range errs {
		if err != nil {
			first = append(first, fmt.Errorf("rank %d: %w", r, err))
			if len(first) == 4 {
				first = append(first, fmt.Errorf("... further rank errors suppressed"))
				break
			}
		}
	}
	if len(first) > 0 {
		return joinErrors(first)
	}
	return nil
}

func joinErrors(errs []error) error {
	if len(errs) == 1 {
		return errs[0]
	}
	msg := errs[0].Error()
	for _, e := range errs[1:] {
		msg += "; " + e.Error()
	}
	return fmt.Errorf("%s", msg)
}

// drainPending processes reliability traffic still sitting in
// mailboxes after every rank's function has returned: acks (and stale
// retransmitted copies) pushed after their destination's last poll.
// The set of packets ever sent is deterministic, but which of them a
// rank's final poll happens to catch is a host-scheduling race — so
// without this drain, counters like AcksReceived would vary run to
// run. Only the reliability layer's bookkeeping runs here (ack
// settlement, duplicate suppression, re-acking); payload delivery is
// never attempted, the ranks are done. Draining one rank can push
// fresh acks into another's mailbox, hence the fixpoint loop; rank
// order keeps it deterministic.
// In fault-tolerant worlds the drain has a second job: a dead rank's
// mailbox keeps accumulating traffic after its death (peers that had
// not yet learned, acks, detector notices), and every payload-class
// packet must still pass the reliability layer's admission exactly as
// it would have in life — generating the ack the sender's protocol
// settled on. The NIC acks posthumously: without this, whether a
// sender's counters see an ack would depend on when the victim died
// relative to host scheduling. Packets admitted at a dead rank are
// counted as dead letters; nothing is delivered. Detector notices and
// revocations are processed here too, so knowledge counters reach the
// same fixpoint whether a rank saw them in life or not.
func (w *World) drainPending() {
	if w.fab.Faults() == nil && !w.ft {
		return
	}
	for {
		again := false
		for _, p := range w.procs {
			_, dead := w.deathAt[p.rank]
			for {
				pkt, ok := p.mb.tryPop()
				if !ok {
					break
				}
				again = true
				if p.flow != nil && pkt.fcGrant > 0 && pkt.src != p.rank {
					// Apply straggler credit grants so the flow counters
					// reach the same fixpoint regardless of when each
					// rank's last poll ran.
					p.fcApplyGrant(pkt)
				}
				switch pkt.kind {
				case pktAck:
					p.handleAck(pkt)
				case pktAbort:
					// The job is already past the point of aborting.
				case pktFailNotice:
					p.handleFailNotice(pkt)
				case pktRevoke:
					p.handleRevoke(pkt)
				case pktCredit:
					// Grant already applied above; the frame has no
					// reliability image to admit.
				default:
					if dead {
						w.deadLetters++
						w.met.Add(p.rank, "ft", "dead_letters", 1)
					}
					if p.rel != nil {
						p.admit(pkt)
					}
				}
			}
		}
		if !again {
			return
		}
	}
}
