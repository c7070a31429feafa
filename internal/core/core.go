// Package core implements MVAPICH2-J: Java bindings for the (simulated)
// native MVAPICH2 library, following the Open MPI Java bindings API —
// the paper's primary contribution. The design goal, as in the paper,
// is to keep the "Java" layer as minimal as possible: every MPI
// primitive is one JNI downcall into the native runtime, plus the
// buffer-management glue that the two user-visible buffer kinds need:
//
//   - direct ByteBuffers: a stable off-heap address is obtained through
//     GetDirectBufferAddress and handed to the native library — zero
//     copies (paper Fig. 4);
//   - Java arrays: the payload is staged through the mpjbuf buffering
//     layer's pool of direct ByteBuffers (paper Fig. 3) — one bulk copy
//     on each side, but no per-message direct-buffer allocation and no
//     GC hazard.
//
// A bindings Flavor selects MVAPICH2-J or the Open MPI-J behaviour the
// paper compares against, including Open MPI-J's API gaps (no Java
// arrays with non-blocking point-to-point) and its
// Get<Type>ArrayElements copy-in/copy-out array path.
package core

import (
	"errors"
	"fmt"

	"mv2j/internal/cluster"
	"mv2j/internal/fabric"
	"mv2j/internal/faults"
	"mv2j/internal/jni"
	"mv2j/internal/jvm"
	"mv2j/internal/metrics"
	"mv2j/internal/mpjbuf"
	"mv2j/internal/nativempi"
	"mv2j/internal/trace"
	"mv2j/internal/vtime"
)

// Errors specific to the bindings layer.
var (
	// ErrUnsupported marks operations a bindings flavor does not offer
	// (e.g. Open MPI-J's non-blocking point-to-point with Java arrays,
	// which is why the paper's bandwidth figures have no
	// "Open MPI-J arrays" series).
	ErrUnsupported = errors.New("core: operation not supported by these bindings")
	// ErrBufferType reports a message buffer that is neither a
	// jvm.Array nor a *jvm.ByteBuffer.
	ErrBufferType = errors.New("core: buffer must be a jvm.Array or *jvm.ByteBuffer")
	// ErrCount reports invalid counts/extents.
	ErrCount = errors.New("core: invalid count")
)

// Wildcards, re-exported from the native layer.
const (
	AnySource = nativempi.AnySource
	AnyTag    = nativempi.AnyTag
)

// Flavor selects the bindings implementation being simulated.
type Flavor int

const (
	// MVAPICH2J is the paper's library: buffering-layer array staging,
	// arrays allowed everywhere, offset extension available.
	MVAPICH2J Flavor = iota
	// OpenMPIJ reproduces the Open MPI Java bindings: arrays use JNI
	// Get/Release<Type>ArrayElements (full copy in and out), and
	// non-blocking point-to-point rejects arrays.
	OpenMPIJ
)

func (f Flavor) String() string {
	if f == OpenMPIJ {
		return "OpenMPI-J"
	}
	return "MVAPICH2-J"
}

// bindingOverhead is the per-call software cost of the bindings layer
// itself (argument checking, handle resolution) on top of the JNI
// crossing. MVAPICH2-J's thinner layer is what gives it the smaller
// Java overhead in the paper's Fig. 11.
func (f Flavor) bindingOverhead() vtime.Duration {
	if f == OpenMPIJ {
		return vtime.Nanos(680)
	}
	return vtime.Nanos(520)
}

// Config describes one simulated job.
type Config struct {
	// Nodes and PPN shape the cluster (default 1x2).
	Nodes, PPN int
	// Lib is the native library profile (default profile.MVAPICH2()
	// must be passed explicitly by callers; zero value = generic).
	Lib nativempi.Profile
	// ThreadLevel, when non-zero, overrides the profile's built thread
	// support level (MPI_THREAD_SINGLE..MULTIPLE) — the job-launch
	// knob, as opposed to Lib.ThreadLevel which models how the native
	// library was compiled. InitThread can only downgrade from here.
	ThreadLevel ThreadLevel
	// Flavor selects the bindings personality (default MVAPICH2J).
	Flavor Flavor
	// HeapSize/ArenaSize configure each rank's simulated JVM.
	HeapSize, ArenaSize int
	// Intra/Inter override the fabric channels when non-nil.
	Intra, Inter *fabric.Params
	// Faults attaches a fault-injection plan to the fabric; the native
	// runtime then engages its reliability sublayer (checksums, acks,
	// retransmission). Nil = lossless fabric.
	Faults *faults.Plan
	// FT enables the ULFM-style failure policy: a rank crash (or an
	// exhausted retransmit budget) surfaces as an ErrProcFailed-class
	// error with Revoke/Shrink/AgreeFT recovery available, instead of
	// aborting the job.
	FT bool
	// UnpooledBuffers disables the mpjbuf pool (ablation: a fresh
	// direct buffer is allocated and destroyed per array message).
	UnpooledBuffers bool
	// Trace, when non-nil, records every native communication event
	// with virtual timestamps (see internal/trace).
	Trace *trace.Recorder
	// Metrics, when non-nil, aggregates counters, gauges and latency/
	// size histograms across every layer of the run (see
	// internal/metrics). Scraped once after the job completes, so the
	// registry contents are deterministic per seed.
	Metrics *metrics.Registry
	// HostStats, when non-nil, receives the world's aggregated
	// host-side reuse/queue counters after the run (mailbox batching,
	// scratch-arena traffic). Host observability only — these numbers
	// depend on host scheduling and never enter Metrics or Trace.
	HostStats *nativempi.HostStats
	// EngineWorkers sets the phase-stepped scheduler's worker-pool
	// width: 0 = GOMAXPROCS (the scale-out default), 1 = serial
	// reference execution. Every width produces byte-identical virtual
	// artifacts; the knob trades host parallelism only.
	EngineWorkers int
}

func (c Config) withDefaults() Config {
	if c.Nodes == 0 {
		c.Nodes = 1
	}
	if c.PPN == 0 {
		c.PPN = 2
	}
	return c
}

// MPI is one rank's bindings environment: the object the SPMD main
// receives, playing the role Java's static MPI class plays in the
// Open MPI bindings.
type MPI struct {
	proc    *nativempi.Proc
	machine *jvm.Machine
	env     *jni.Env
	pool    *mpjbuf.Pool
	world   *Comm
	flavor  Flavor

	// vecPath enables the non-contiguous zero-copy datapath: committed
	// derived-type array messages are described to the native runtime as
	// an iovec over a pinned (JNI-critical) view of the array instead of
	// being packed through the buffering layer. MVAPICH2-J only, and off
	// whenever the reliability sublayer may frame payloads (faults/FT) —
	// the framed pack path is the fault-tolerance fallback.
	vecPath bool

	// collPool stages collective array payloads. The prototype's
	// collective path (§IV-D) creates its staging direct buffer per
	// call instead of borrowing from the point-to-point pool — the
	// cost structure behind the paper's collective array factors
	// (2.2x/1.62x) being much smaller than its buffer factors
	// (6.2x/2.76x).
	collPool *mpjbuf.Pool
}

// Run launches the SPMD job: one goroutine per rank, each with its own
// simulated JVM, JNI environment, and buffer pool (MPI.Init +
// mpirun in one call). It returns when every rank's main returns,
// after releasing every rank's JVM (jvm.Machine.Release): values a
// caller needs from Java objects must be copied out inside main. A
// profile that fails nativempi.Profile.Validate fails the launch
// before any rank starts.
func Run(cfg Config, main func(mpi *MPI) error) error {
	if err := cfg.Lib.Validate(); err != nil {
		return err
	}
	cfg = cfg.withDefaults()
	topo := cluster.New(cfg.Nodes, cfg.PPN)
	intra, inter := fabric.FronteraShm(), fabric.FronteraIB()
	if cfg.Intra != nil {
		intra = *cfg.Intra
	}
	if cfg.Inter != nil {
		inter = *cfg.Inter
	}
	fab := fabric.New(topo, intra, inter)
	if cfg.Faults != nil {
		fab.WithFaults(cfg.Faults)
	}
	if cfg.ThreadLevel != 0 {
		cfg.Lib.ThreadLevel = cfg.ThreadLevel
	}
	world := nativempi.NewWorld(topo, fab, cfg.Lib)
	world.SetEngineWorkers(cfg.EngineWorkers)
	if cfg.FT {
		world.EnableFT()
	}
	world.SetRecorder(cfg.Trace)
	world.SetMetrics(cfg.Metrics)
	// Each rank parks its MPI object here (indexed by rank, so writes
	// never contend); the post-run metrics scrape walks the slice after
	// world.Run has returned and all trailing ack traffic has drained,
	// which keeps the aggregates deterministic.
	mpis := make([]*MPI, topo.Size())
	err := world.Run(func(p *nativempi.Proc) error { // per-world closure
		machine := jvm.NewMachine(p.Clock(), jvm.Options{
			HeapSize:  cfg.HeapSize,
			ArenaSize: cfg.ArenaSize,
		})
		machine.SetGCObserver(gcObserver(world, p.Rank())) // per-world closure
		env := jni.New(machine)
		var pool *mpjbuf.Pool
		if cfg.UnpooledBuffers {
			pool = mpjbuf.NewUnpooled(machine)
		} else {
			pool = mpjbuf.NewPool(machine)
		}
		mpi := &MPI{
			proc:     p,
			machine:  machine,
			env:      env,
			pool:     pool,
			collPool: mpjbuf.NewUnpooled(machine),
			flavor:   cfg.Flavor,
			vecPath:  cfg.Flavor == MVAPICH2J && cfg.Faults == nil && !cfg.FT,
		}
		mpi.world = &Comm{mpi: mpi, native: p.CommWorld()}
		mpis[p.Rank()] = mpi
		return main(mpi)
	})
	scrapeMetrics(cfg.Metrics, mpis)
	if cfg.HostStats != nil {
		*cfg.HostStats = world.HostStats()
	}
	// From here no rank, engine worker, RDMA placement or borrowed
	// payload can touch a rank's Java objects, so their storage goes back
	// to the jvm free list for the next world. Java objects do not
	// outlive Run: using one afterwards fails with jvm.ErrStale.
	for _, mpi := range mpis {
		if mpi != nil {
			mpi.machine.Release()
		}
	}
	return err
}

// CommWorld returns this rank's MPI.COMM_WORLD.
func (m *MPI) CommWorld() *Comm { return m.world }

// JVM returns the rank's simulated JVM, used to allocate the Java
// arrays and ByteBuffers that message calls accept.
func (m *MPI) JVM() *jvm.Machine { return m.machine }

// JNI returns the rank's JNI environment (exposed for the ablation
// benchmarks that compare boundary strategies).
func (m *MPI) JNI() *jni.Env { return m.env }

// Pool returns the rank's mpjbuf buffer pool.
func (m *MPI) Pool() *mpjbuf.Pool { return m.pool }

// Flavor reports which bindings personality is running.
func (m *MPI) Flavor() Flavor { return m.flavor }

// Clock returns the rank's virtual clock (benchmark timing).
func (m *MPI) Clock() *vtime.Clock { return m.proc.Clock() }

// Proc exposes the native process, used by the "no Java layer"
// baseline in the Fig. 11 overhead experiment.
func (m *MPI) Proc() *nativempi.Proc { return m.proc }

// Abort terminates the whole job (MPI_Abort): peers blocked in MPI
// calls are woken and unwound, and Run reports the reason.
func (m *MPI) Abort(reason string) {
	m.proc.World().Abort(m.proc.Rank(), reason)
}

// Wtime returns the rank's virtual time in seconds — MPI_Wtime for
// the simulated cluster (deterministic, unlike the real thing).
func (m *MPI) Wtime() float64 {
	return vtime.Duration(m.proc.Clock().Now()).Seconds()
}

// enterNative charges what one bindings call costs before reaching
// native code: the bindings logic plus one JNI crossing.
func (m *MPI) enterNative() {
	m.machine.Charge(m.flavor.bindingOverhead())
	m.env.CallNative()
}

// checkCount validates an element count against a buffer capacity.
func checkCount(count, capacity int, what string) error {
	if count < 0 {
		return fmt.Errorf("%w: negative %s count %d", ErrCount, what, count)
	}
	if count > capacity {
		return fmt.Errorf("%w: %s count %d exceeds buffer capacity %d", ErrCount, what, count, capacity)
	}
	return nil
}
