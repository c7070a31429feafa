package nativempi

import (
	"fmt"
	"strconv"

	"mv2j/internal/vtime"
)

// Collective algorithm identifiers. Which one runs for a given
// (message size, communicator size) is the library's tuning decision —
// the paper attributes the MVAPICH2-J vs Open MPI-J collective gaps
// "largely to the performance differences of the native libraries",
// and algorithm selection plus per-message software overhead is where
// those differences live. Reduce, allgather, alltoall and barrier have
// one algorithm each (binomial, ring, pairwise, dissemination), which
// both libraries share.
type (
	BcastAlg     int
	AllreduceAlg int
	GatherAlg    int
	ScatterAlg   int
)

// The zero BcastAlg and AllreduceAlg name no algorithm, so the zero
// Rule selects nothing.
const (
	// BcastKnomial is a k-ary tree over all ranks, k from the rule;
	// radix 2 is the classic log2(p)-step binomial tree.
	BcastKnomial BcastAlg = iota + 1
	// BcastScatterAllgather is the van de Geijn large-message
	// algorithm: scatter then ring allgather, moving ~2n bytes per
	// rank instead of n·log(p).
	BcastScatterAllgather
	// BcastBinaryTree is a non-segmented binary tree: every internal
	// hop forwards the full payload — cheap to implement, slow for
	// large messages.
	BcastBinaryTree
	// BcastFlat has the root send to every rank in turn.
	BcastFlat
	// BcastShmAware is the two-level leader-based broadcast: k-nomial
	// among one representative per node over the network (the root
	// stands in for its own node), then k-nomial fan-out over shared
	// memory from each representative — MVAPICH2's multi-node strategy.
	// It is not BcastMultiLeader with one section: the root's node fans
	// out from the root, not from its lowest rank.
	BcastShmAware
	// BcastMultiLeader is the three-level scale-out broadcast: k-nomial
	// among node representatives over the network, k-nomial among each
	// node's SECTION leaders over shared memory, then k-nomial within
	// each section — MVAPICH2's multi-leader design for fat nodes,
	// which keeps several network streams and several memory ports busy
	// per node instead of funnelling everything through one leader.
	BcastMultiLeader
)

const (
	// AllreduceRecursiveDoubling: log2(p) exchange-and-combine steps.
	AllreduceRecursiveDoubling AllreduceAlg = iota + 1
	// AllreduceRabenseifner: reduce-scatter + allgather; optimal
	// bandwidth for large payloads.
	AllreduceRabenseifner
	// AllreduceReduceBcast: naive composition of a reduce and a bcast.
	AllreduceReduceBcast
	// AllreduceShmAware: intra-node reduce onto node leaders, recursive
	// doubling among leaders, k-nomial intra-node broadcast — exactly
	// AllreduceMultiLeader with one section per node.
	AllreduceShmAware
	// AllreduceMultiLeader: each node's ranks are split into four
	// sections (fewer when a node has fewer ranks); sections reduce onto
	// their leader, same-index leaders recursive-double ACROSS nodes
	// concurrently (multiple network streams per node), the node's
	// section leaders combine intra-node, and sections broadcast back
	// k-nomially. The multi-leader shape MVAPICH2 uses once
	// single-leader trees saturate at scale.
	AllreduceMultiLeader
)

const (
	GatherBinomial GatherAlg = iota
	GatherLinear
)

const (
	ScatterBinomial ScatterAlg = iota
	ScatterLinear
)

var (
	bcastNames = [...]string{BcastKnomial: "knomial", BcastScatterAllgather: "scatter-allgather",
		BcastBinaryTree: "binary-tree", BcastFlat: "flat", BcastShmAware: "shm-aware", BcastMultiLeader: "multi-leader"}
	allreduceNames = [...]string{AllreduceRecursiveDoubling: "recursive-doubling", AllreduceRabenseifner: "rabenseifner",
		AllreduceReduceBcast: "reduce-bcast", AllreduceShmAware: "shm-aware", AllreduceMultiLeader: "multi-leader"}
	rootedNames = [...]string{GatherBinomial: "binomial", GatherLinear: "linear"}
)

// algName names algorithm a from names; ok is false for an unknown one.
func algName(names []string, a int) (name string, ok bool) {
	if a >= 0 && a < len(names) && names[a] != "" {
		return names[a], true
	}
	return fmt.Sprintf("alg(%d)", a), false
}

func (a BcastAlg) String() string     { s, _ := algName(bcastNames[:], int(a)); return s }
func (a AllreduceAlg) String() string { s, _ := algName(allreduceNames[:], int(a)); return s }
func (a GatherAlg) String() string    { s, _ := algName(rootedNames[:], int(a)); return s }
func (a ScatterAlg) String() string   { s, _ := algName(rootedNames[:], int(a)); return s }

func (a BcastAlg) known() bool     { _, ok := algName(bcastNames[:], int(a)); return ok }
func (a AllreduceAlg) known() bool { _, ok := algName(allreduceNames[:], int(a)); return ok }

// takesRadix reports whether the algorithm's trees are k-nomial.
func (a BcastAlg) takesRadix() bool {
	return a == BcastKnomial || a == BcastShmAware || a == BcastMultiLeader
}

func (a AllreduceAlg) takesRadix() bool {
	return a == AllreduceShmAware || a == AllreduceMultiLeader
}

// tunedAlg is an algorithm whose choice depends on payload size and
// communicator size, and so is made by a Table.
type tunedAlg interface {
	BcastAlg | AllreduceAlg
	fmt.Stringer
	known() bool
	takesRadix() bool
}

// Rule is one row of a collective's tuning table: on a communicator of
// at least MinRanks ranks, a payload of at most MaxBytes bytes (0: any
// size) runs Alg, whose k-nomial trees have radix Radix (0 for an
// algorithm without one).
type Rule[A tunedAlg] struct {
	MinRanks int
	MaxBytes int
	Alg      A
	Radix    int
}

// maxRules is a Table's capacity. Tables are arrays, not slices, so a
// Profile stays comparable with ==.
const maxRules = 8

// Table is a first-match tuning table, the shape of MVAPICH2's: the
// first row whose bounds admit a call picks its algorithm and radix.
// The rows are the prefix up to the trailing zero rows, and an empty
// table selects the library default (see normalize). Validate requires
// the last row to bound neither ranks nor bytes, so every call matches.
type Table[A tunedAlg] [maxRules]Rule[A]

type (
	BcastTable     = Table[BcastAlg]
	AllreduceTable = Table[AllreduceAlg]
)

// Pick returns the first rule admitting an nbytes payload on p ranks:
// the zero rule, which no collective runs, if none does. The pointer
// receiver keeps the table off the collectives' stack frames.
func (t *Table[A]) Pick(nbytes, p int) Rule[A] {
	for _, r := range t {
		if p >= r.MinRanks && (r.MaxBytes == 0 || nbytes <= r.MaxBytes) {
			return r
		}
	}
	return Rule[A]{}
}

func (t Table[A]) rows() []Rule[A] {
	n := len(t)
	for n > 0 && t[n-1] == (Rule[A]{}) {
		n--
	}
	return t[:n]
}

// String prints a rule the way MVAPICH2's tuning tables read —
// {min ranks, max bytes, algorithm, radix} — with "any" for no size
// bound and "-" for no radix.
func (r Rule[A]) String() string {
	maxBytes, radix := "any", "-"
	if r.MaxBytes != 0 {
		maxBytes = strconv.Itoa(r.MaxBytes)
	}
	if r.Radix != 0 {
		radix = strconv.Itoa(r.Radix)
	}
	return fmt.Sprintf("{%d %s %v %s}", r.MinRanks, maxBytes, r.Alg, radix)
}

// String prints the table's rows, first match first.
func (t Table[A]) String() string { return fmt.Sprint(t.rows()) }

// validate rejects a table that can leave a call without an algorithm
// or that states a radix no algorithm uses.
func (t Table[A]) validate(coll string) error {
	rows := t.rows()
	for i, r := range rows {
		switch {
		case !r.Alg.known():
			return fmt.Errorf("%s rule %d %v: unknown algorithm", coll, i, r)
		case r.Alg.takesRadix() && r.Radix < 2:
			return fmt.Errorf("%s rule %d %v: k-nomial radix %d is below 2", coll, i, r, r.Radix)
		case !r.Alg.takesRadix() && r.Radix != 0:
			return fmt.Errorf("%s rule %d %v: %v takes no radix", coll, i, r, r.Alg)
		}
	}
	if n := len(rows); n > 0 && (rows[n-1].MinRanks != 0 || rows[n-1].MaxBytes != 0) {
		return fmt.Errorf("%s table %v is not total: its last rule must bound neither ranks nor bytes", coll, t)
	}
	return nil
}

// The runtime's fixed model values. No profile, command, example or
// workload varies them, so each is a constant with its provenance;
// Profile carries only what a caller sets. "Assumption" marks a value
// that no measurement calibrates.
const (
	// Reliability sublayer (fault plans only): the first ack timeout,
	// multiplied per unacknowledged attempt; after maxRetransmits
	// attempts the peer is declared failed (MPI_Abort, or
	// ErrProcFailed under fault tolerance).
	retransmitRTO     = 25 * vtime.Microsecond // assumption: well above a small-message round trip
	retransmitBackoff = 2                      // assumption: the classic exponential doubling
	maxRetransmits    = 12                     // assumption: ~100 ms of waiting before a peer is failed

	// Failure detector (fault-tolerant worlds only): a silent peer is
	// suspected after suspectBeats missed heartbeats and confirmed dead
	// one beat later, charged to virtual clocks.
	heartbeatPeriod = 20 * vtime.Microsecond // assumption: on the order of the retransmission timeout
	suspectBeats    = 3                      // assumption: tolerates two late beats

	// Pin-down registration cache (MVAPICH2's regcache): capacity in
	// entries and bytes, LRU eviction, and the driver/NIC cost of a
	// registration and a deregistration; then the chunk one-sided
	// operations are staged in when the RDMA channel is off.
	regCacheEntries = 128                    // assumption: an MVAPICH2-scale cache
	regCacheBytes   = 64 << 20               // assumption: as regCacheEntries
	registerBase    = 5 * vtime.Microsecond  // pin-down cost, MPICH2 over InfiniBand (PAPERS.md)
	registerPerPage = 200 * vtime.Nanosecond // per-4-KiB-page pin cost, MPICH2 over InfiniBand (PAPERS.md)
	deregisterBase  = 2 * vtime.Microsecond  // unpin cost, MPICH2 over InfiniBand (PAPERS.md)
	rdmaStageChunk  = 16 << 10               // chunk of the staged one-sided fallback when RDMA is off; assumption

	// Datatypes and threads.
	ddtPackRun          = 15 * vtime.Nanosecond  // per-run CPU cost of packing a strided eager payload; assumption
	lockArbitrationCost = 150 * vtime.Nanosecond // contended entry-lock hand-off under MPI_THREAD_MULTIPLE; assumption
	injectEndpoints     = 4                      // NIC send queues MULTIPLE threads fan out over; assumption
)

// Profile is a native library's tuning personality: software overheads
// layered on the raw fabric costs, protocol thresholds, and collective
// algorithm selection. internal/profile provides the MVAPICH2-like and
// OpenMPI-like instances used throughout the evaluation.
type Profile struct {
	Name string

	// Per-message software overhead the library adds at the sender and
	// receiver, by channel class. This is stack depth: request
	// allocation, header matching, completion bookkeeping.
	IntraSendOverhead vtime.Duration
	IntraRecvOverhead vtime.Duration
	InterSendOverhead vtime.Duration
	InterRecvOverhead vtime.Duration

	// EagerIntra/EagerInter override the fabric's protocol thresholds
	// when positive.
	EagerIntra int
	EagerInter int

	// CollMsgOverhead is extra per-message software cost inside
	// collective algorithms (argument checking, schedule interpretation
	// — notably higher in Open MPI's libnbc-style framework).
	CollMsgOverhead vtime.Duration

	// ReduceBandwidth is the local elementwise-combine rate in
	// bytes/second for reduction computation.
	ReduceBandwidth float64

	// FramedDatapath pins the rendezvous data phase to the framed
	// wire-image leg: the sender gathers the payload into a pooled wire
	// buffer and the receiver copies it out — two host memcpys, no
	// payload reference ever crossing ranks. That leg is what runs under
	// a fault plan or fault tolerance (retransmission and corruption
	// need a mutable framed image; a failure sweep could orphan a
	// borrow or a remote key), and it is the reference the differential
	// suites compare the direct legs against — the only reason to set
	// this. False (the default) selects the direct legs wherever they
	// are safe: a placement write into the receiver's registered landing
	// on the RDMA tier, a read-only borrow of the sender's payload
	// below it, contiguous or strided alike. HOST data movement only:
	// every virtual timestamp is computed identically on both settings,
	// so traces, metrics and measured times are byte-identical.
	FramedDatapath bool

	// RDMA transport tuning. Rendezvous messages of at least
	// RDMAThreshold bytes complete via a single remote-memory placement
	// (an RDMA write issued after the RTS/CTS key exchange) instead of a
	// receiver-side DATA landing: both endpoints register their buffers
	// — cost charged to virtual time, amortized by the pin-down
	// registration cache (regcache.go) — and the completion bypasses the
	// receiver's protocol stack (fabric.Params.RDMAFinOverhead replaces
	// RecvOverhead plus software receive overhead). A rendezvous BELOW
	// the threshold is also promoted to RDMA when the sender's buffer is
	// already registered — the adaptive switch keyed on cache state,
	// since a warm registration makes the RDMA path strictly cheaper.
	// Zero selects the 256 KiB default; negative disables the RDMA
	// protocol entirely. A fault plan or fault tolerance disables it
	// too: remote placement cannot be framed, checksummed, or
	// retransmitted, and a failure sweep could orphan a remote key.
	RDMAThreshold int

	// Credit-based eager flow control (MVAPICH2's RC-channel credit
	// scheme). EagerCredits is the per-peer budget of eager messages a
	// sender may have outstanding — injected but not yet consumed by a
	// matching receive at the destination. Zero (the default) disables
	// flow control entirely: eager senders inject without limit, as
	// before. When positive, a sender that exhausts its budget parks in
	// virtual time with exponential receiver-not-ready backoff (polling
	// at retransmitRTO, ×retransmitBackoff per probe) until the receiver
	// returns credit. Credits travel back piggybacked on every frame
	// the receiver sends toward the sender (payloads and reliability
	// acks alike); CreditBatch bounds the staleness for one-sided
	// traffic — after that many consumptions with no piggyback
	// opportunity the receiver emits an explicit CREDIT frame. Zero
	// selects half of EagerCredits (at least one). Like acks, credit
	// frames are NIC-autonomous: they charge no CPU time, so below the
	// credit limit a flow-controlled run is byte-identical to an
	// uncontrolled one.
	EagerCredits int
	CreditBatch  int

	// UnexpectedQueueBytes is the receiver's backpressure watermark:
	// when the unexpected-message queue holds at least half this many
	// payload bytes, returned credits carry a demote signal and the
	// affected senders route further eager-sized messages through the
	// rendezvous handshake (payload stays at the sender until a receive
	// is posted), so a sustained flood degrades into sender-side stalls
	// instead of unbounded receiver memory. Zero selects
	// EagerCredits * 64 KiB when flow control is on; ignored when off.
	UnexpectedQueueBytes int64

	// ThreadLevel is the highest MPI threading level this library build
	// supports — the `threads=single|funneled|serialized|multiple`
	// variant of an MVAPICH2 build. InitThread negotiates downward:
	// provided = min(required, ThreadLevel). Zero selects
	// ThreadMultiple (the variant a Java-HPC deployment builds with).
	ThreadLevel ThreadLevel

	// Collective algorithm choice. Bcast and Allreduce depend on payload
	// and communicator size, so each is a first-match Table; an empty
	// table selects the default (see normalize). Gather and Scatter are
	// fixed per library.
	Bcast     BcastTable
	Allreduce AllreduceTable
	Gather    GatherAlg
	Scatter   ScatterAlg
}

// normalize fills unset fields with safe defaults.
func (pr Profile) normalize() Profile {
	if pr.Name == "" {
		pr.Name = "generic"
	}
	if pr.ReduceBandwidth <= 0 {
		pr.ReduceBandwidth = 8e9
	}
	if pr.EagerCredits > 0 {
		if pr.CreditBatch <= 0 {
			pr.CreditBatch = max(1, pr.EagerCredits/2)
		}
		if pr.UnexpectedQueueBytes <= 0 {
			pr.UnexpectedQueueBytes = int64(pr.EagerCredits) * (64 << 10)
		}
	}
	if pr.ThreadLevel == 0 {
		pr.ThreadLevel = ThreadMultiple
	}
	if pr.RDMAThreshold == 0 {
		pr.RDMAThreshold = 256 << 10
	}
	if pr.Bcast == (BcastTable{}) {
		pr.Bcast = BcastTable{
			{MinRanks: 256, MaxBytes: 8 << 10, Alg: BcastMultiLeader, Radix: 4},
			{MinRanks: 256, Alg: BcastMultiLeader, Radix: 2},
			{MaxBytes: 64 << 10, Alg: BcastKnomial, Radix: 2},
			{Alg: BcastScatterAllgather},
		}
	}
	if pr.Allreduce == (AllreduceTable{}) {
		pr.Allreduce = AllreduceTable{
			{MinRanks: 256, Alg: AllreduceMultiLeader, Radix: 4},
			{MaxBytes: 64 << 10, Alg: AllreduceRecursiveDoubling},
			{Alg: AllreduceRabenseifner},
		}
	}
	return pr
}

// Validate rejects knob combinations that normalize would otherwise
// paper over with a silent clamp but that almost certainly indicate a
// misconfigured run. The zero-means-default convention is preserved:
// zero values are always valid. core.Run calls this before any rank
// starts, so a typo fails the launch with a message instead of quietly
// running a different experiment.
func (pr Profile) Validate() error {
	if pr.EagerCredits < 0 {
		return fmt.Errorf("profile %q: EagerCredits %d is negative (0 disables flow control)", pr.Name, pr.EagerCredits)
	}
	if pr.CreditBatch < 0 {
		return fmt.Errorf("profile %q: CreditBatch %d is negative (0 selects half of EagerCredits)", pr.Name, pr.CreditBatch)
	}
	if pr.EagerCredits == 0 && pr.CreditBatch > 0 {
		return fmt.Errorf("profile %q: CreditBatch %d set but flow control is off (EagerCredits 0)", pr.Name, pr.CreditBatch)
	}
	if pr.EagerCredits > 0 && pr.CreditBatch > pr.EagerCredits {
		return fmt.Errorf("profile %q: CreditBatch %d exceeds EagerCredits %d; a parked sender could wait forever for a grant",
			pr.Name, pr.CreditBatch, pr.EagerCredits)
	}
	if pr.UnexpectedQueueBytes < 0 {
		return fmt.Errorf("profile %q: UnexpectedQueueBytes %d is negative", pr.Name, pr.UnexpectedQueueBytes)
	}
	if pr.EagerCredits == 0 && pr.UnexpectedQueueBytes > 0 {
		return fmt.Errorf("profile %q: UnexpectedQueueBytes %d set but flow control is off (EagerCredits 0)", pr.Name, pr.UnexpectedQueueBytes)
	}
	if pr.EagerIntra < 0 || pr.EagerInter < 0 {
		return fmt.Errorf("profile %q: negative eager threshold (intra %d, inter %d)", pr.Name, pr.EagerIntra, pr.EagerInter)
	}
	if pr.RDMAThreshold > 0 {
		if lim := max(pr.EagerIntra, pr.EagerInter); lim > 0 && pr.RDMAThreshold <= lim {
			return fmt.Errorf("profile %q: RDMAThreshold %d is at or below the eager limit %d; such messages would be eager and RDMA at once",
				pr.Name, pr.RDMAThreshold, lim)
		}
	}
	if pr.ThreadLevel < 0 || pr.ThreadLevel > ThreadMultiple {
		return fmt.Errorf("profile %q: ThreadLevel %d is not a threading level (0 selects MULTIPLE; valid: %d..%d)",
			pr.Name, pr.ThreadLevel, ThreadSingle, ThreadMultiple)
	}
	if err := pr.Bcast.validate("bcast"); err != nil {
		return fmt.Errorf("profile %q: %w", pr.Name, err)
	}
	if err := pr.Allreduce.validate("allreduce"); err != nil {
		return fmt.Errorf("profile %q: %w", pr.Name, err)
	}
	if _, ok := algName(rootedNames[:], int(pr.Gather)); !ok {
		return fmt.Errorf("profile %q: unknown gather algorithm %v", pr.Name, pr.Gather)
	}
	if _, ok := algName(rootedNames[:], int(pr.Scatter)); !ok {
		return fmt.Errorf("profile %q: unknown scatter algorithm %v", pr.Name, pr.Scatter)
	}
	return nil
}
