package mv2j_test

// Ablation benchmarks for the design decisions the paper argues for.
// Each reports virtual-time costs as custom metrics:
//
//   - AblationBufferPool: the buffering layer's pooled direct buffers
//     vs allocating a direct buffer per message (§IV-A's motivation);
//   - AblationJNIStrategy: Get<Type>ArrayElements copy-in/copy-out vs
//     GetPrimitiveArrayCritical pinning vs direct-buffer address
//     (§IV-B's three data paths);
//   - AblationCriticalGCStall: the hidden cost of the critical path —
//     a deferred collection bursting at region exit;
//   - AblationEagerThreshold: where the eager/rendezvous knee falls;
//   - AblationOffsetExtension: subset sends through the offset
//     argument vs staging a full copy (§IV-B).

import (
	"fmt"
	"testing"

	"mv2j/internal/core"
	"mv2j/internal/fabric"
	"mv2j/internal/jni"
	"mv2j/internal/jvm"
	"mv2j/internal/omb"
	"mv2j/internal/profile"
	"mv2j/internal/vtime"
)

// BenchmarkAblationBufferPool compares array-mode latency with the
// mpjbuf pool enabled vs a fresh allocateDirect per message.
func BenchmarkAblationBufferPool(b *testing.B) {
	o := benchOpts(1, 65536)
	var pooledUs, unpooledUs float64
	for i := 0; i < b.N; i++ {
		cfg := benchCfg("mvapich2", core.MVAPICH2J, 2, 1, omb.ModeArrays, o)
		pooled := mustRun(b, "latency", cfg)
		cfg.Core.UnpooledBuffers = true
		unpooled := mustRun(b, "latency", cfg)
		pooledUs = at(pooled, 8).LatencyUs
		unpooledUs = at(unpooled, 8).LatencyUs
	}
	b.ReportMetric(pooledUs, "pooled-8B-us")
	b.ReportMetric(unpooledUs, "unpooled-8B-us")
	b.ReportMetric(unpooledUs/pooledUs, "pool-speedup-x")
}

// BenchmarkAblationJNIStrategy measures the virtual cost of reaching a
// 64KB payload from native code through each JNI path.
func BenchmarkAblationJNIStrategy(b *testing.B) {
	const n = 64 << 10
	var copyUs, criticalUs, directUs float64
	for i := 0; i < b.N; i++ {
		clock := vtime.NewClock()
		m := jvm.NewMachine(clock, jvm.Options{HeapSize: 8 << 20, ArenaSize: 8 << 20})
		env := jni.New(m)
		arr := m.MustArray(jvm.Byte, n)
		direct := m.MustAllocateDirect(n)

		t0 := clock.Now()
		elems := env.GetArrayElements(arr)
		env.ReleaseArrayElements(arr, elems, jni.CopyBack)
		copyUs = clock.Now().Sub(t0).Micros()

		t1 := clock.Now()
		view := env.GetPrimitiveArrayCritical(arr)
		_ = view
		env.ReleasePrimitiveArrayCritical(arr)
		criticalUs = clock.Now().Sub(t1).Micros()

		t2 := clock.Now()
		_ = env.GetDirectBufferAddress(direct)
		directUs = clock.Now().Sub(t2).Micros()
	}
	b.ReportMetric(copyUs, "copy-path-us")
	b.ReportMetric(criticalUs, "critical-path-us")
	b.ReportMetric(directUs, "direct-path-us")
}

// BenchmarkAblationCriticalGCStall shows why the critical path is "not
// recommended": a collection requested while the region is open lands
// as a burst at release time.
func BenchmarkAblationCriticalGCStall(b *testing.B) {
	var stallUs float64
	for i := 0; i < b.N; i++ {
		clock := vtime.NewClock()
		m := jvm.NewMachine(clock, jvm.Options{HeapSize: 1 << 20, ArenaSize: 1 << 20})
		env := jni.New(m)
		arr := m.MustArray(jvm.Byte, 64<<10)
		// Open the critical region, then create allocation pressure
		// that wants a collection.
		_ = env.GetPrimitiveArrayCritical(arr)
		for j := 0; j < 64; j++ {
			tmp, err := m.NewArray(jvm.Byte, 64<<10)
			if err != nil {
				break // heap saturated: the GC request is now pending
			}
			tmp.Discard()
		}
		t0 := clock.Now()
		env.ReleasePrimitiveArrayCritical(arr) // deferred GC runs here
		stallUs = clock.Now().Sub(t0).Micros()
	}
	b.ReportMetric(stallUs, "release-stall-us")
}

// BenchmarkAblationEagerThreshold sweeps the protocol threshold to
// expose the rendezvous knee in point-to-point latency.
func BenchmarkAblationEagerThreshold(b *testing.B) {
	const msg = 32 << 10
	var eagerUs, rndvUs float64
	for i := 0; i < b.N; i++ {
		run := func(threshold int) float64 {
			inter := fabric.FronteraIB()
			inter.EagerThreshold = threshold
			o := benchOpts(msg, msg)
			cfg := benchCfg("mvapich2", core.MVAPICH2J, 2, 1, omb.ModeBuffer, o)
			cfg.Core.Inter = &inter
			// Profile override must not mask the fabric threshold.
			cfg.Core.Lib.EagerInter = threshold
			rows := mustRun(b, "latency", cfg)
			return at(rows, msg).LatencyUs
		}
		eagerUs = run(64 << 10) // message below threshold: eager
		rndvUs = run(1 << 10)   // message above threshold: rendezvous
	}
	b.ReportMetric(eagerUs, "eager-32KB-us")
	b.ReportMetric(rndvUs, "rendezvous-32KB-us")
	b.ReportMetric(rndvUs-eagerUs, "handshake-cost-us")
}

// BenchmarkAblationKnomialRadix sweeps the knomial tree arity of the
// MVAPICH2 shm-aware broadcast at 64 ranks: wide trees amortise
// per-message overheads for small payloads, up to the point where the
// root's sequential sends dominate. The sweep rewrites the radix of the
// bcast table's rows for payloads up to 8 KiB.
func BenchmarkAblationKnomialRadix(b *testing.B) {
	radixUs := map[int]float64{}
	for i := 0; i < b.N; i++ {
		for _, k := range []int{2, 4, 8, 16} {
			prof := profile.MVAPICH2()
			for r := range prof.Bcast {
				if prof.Bcast[r].MaxBytes == 8<<10 {
					prof.Bcast[r].Radix = k
				}
			}
			o := benchOpts(64, 64)
			o.Iters = 10
			cfg := omb.Config{
				Core: core.Config{Nodes: 4, PPN: 16, Lib: prof, Flavor: core.MVAPICH2J},
				Mode: omb.ModeBuffer,
				Opts: o,
			}
			rows := mustRun(b, "bcast", cfg)
			radixUs[k] = at(rows, 64).LatencyUs
		}
	}
	for _, k := range []int{2, 4, 8, 16} {
		b.ReportMetric(radixUs[k], fmt.Sprintf("radix%d-us", k))
	}
}

// BenchmarkAblationOffsetExtension compares sending a 1KB subset of a
// 1MB array through the offset argument (stage only the subset) vs the
// Open MPI-J route (marshal, then send, with no offset support — the
// caller must copy the subset to a fresh array first).
func BenchmarkAblationOffsetExtension(b *testing.B) {
	const (
		arrayLen = 1 << 20
		subset   = 1024
		offset   = 4096
	)
	var subsetUs, copyFirstUs float64
	for i := 0; i < b.N; i++ {
		prof := profile.MVAPICH2()
		err := core.Run(core.Config{Nodes: 2, PPN: 1, Lib: prof, Flavor: core.MVAPICH2J,
			HeapSize: 8 << 20, ArenaSize: 8 << 20},
			func(mpi *core.MPI) error {
				world := mpi.CommWorld()
				me := world.Rank()
				big := mpi.JVM().MustArray(jvm.Byte, arrayLen)
				small := mpi.JVM().MustArray(jvm.Byte, subset)
				const iters = 20
				if me == 0 {
					sw := vtime.StartStopwatch(mpi.Clock())
					for k := 0; k < iters; k++ {
						if err := world.SendRange(big, offset, subset, core.BYTE, 1, 0); err != nil {
							return err
						}
					}
					subsetUs = sw.Elapsed().Micros() / iters

					sw = vtime.StartStopwatch(mpi.Clock())
					for k := 0; k < iters; k++ {
						// Without the offset argument: copy the subset
						// into a message-sized array, then send it.
						big.CopyOutBytes(offset, make([]byte, subset)) // user-level System.arraycopy
						small.CopyInBytes(0, make([]byte, subset))
						if err := world.Send(small, subset, core.BYTE, 1, 1); err != nil {
							return err
						}
					}
					copyFirstUs = sw.Elapsed().Micros() / iters
					return nil
				}
				buf := mpi.JVM().MustArray(jvm.Byte, subset)
				for k := 0; k < iters; k++ {
					if _, err := world.Recv(buf, subset, core.BYTE, 0, 0); err != nil {
						return err
					}
				}
				for k := 0; k < iters; k++ {
					if _, err := world.Recv(buf, subset, core.BYTE, 0, 1); err != nil {
						return err
					}
				}
				return nil
			})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(subsetUs, "offset-send-us")
	b.ReportMetric(copyFirstUs, "copy-then-send-us")
}
