package main

import (
	"time"

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

// A probe calls one layer's public functions directly, at the sizes and
// counts the workload issues, and reports the host cost per call. It is
// the only way to time a layer the OMB-J suites never expose.

// probeSink keeps the compiler from deleting a probed call whose result
// nothing else uses.
var probeSink vtime.Duration

// perCall times batches of n calls of fn and returns the median batch's
// nanoseconds per call; quick (the smoke run) cuts the work fifty-fold.
func perCall(quick bool, n int, fn func()) float64 {
	batches := 5
	if quick {
		batches, n = 1, n/50+1
	}
	var per []float64
	for b := 0; b < batches; b++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(per)
}

// calibrate is a fixed CPU and memcpy loop, timed before and after each
// traced workload: a witness of how fast the machine was running,
// reported and never used to normalise anything.
func calibrate() float64 {
	src, dst := make([]byte, 1<<20), make([]byte, 1<<20)
	t0 := time.Now()
	x := uint64(1)
	for i := 0; i < 8_000_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	src[0] = byte(x)
	for i := 0; i < 32; i++ {
		copy(dst, src)
	}
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}

// probeSizes are the sizes the workload's probes run at.
type probeSizes struct {
	heapBytes int // per-rank heap (= arena) of the first step
	msgBytes  int // largest message of the first step
	maxNP     int // widest world of the op
	plan      *faults.Plan
}

func sizesFor(w workload) probeSizes {
	first := w.Steps[0]
	ps := probeSizes{
		heapBytes: jvmBytes(first.Cfg.Core.Nodes*first.Cfg.Core.PPN, payloadFor(first)),
		msgBytes:  first.sizes()[len(first.sizes())-1],
	}
	for _, s := range w.Steps {
		ps.maxNP = max(ps.maxNP, s.Cfg.Core.Nodes*s.Cfg.Core.PPN)
		if ps.plan == nil {
			ps.plan = s.Cfg.Core.Faults
		}
	}
	return ps
}

// runProbes measures every probe metric; each probe is one span.
func runProbes(w workload, tr *tracer, parent int, quick bool, set func(name string, v float64)) {
	ps := sizesFor(w)
	perCall := func(n int, fn func()) float64 { return perCall(quick, n, fn) }
	probe := func(layer, name string, fn func() float64) {
		id := tr.begin(parent, name, layer, 0, -1)
		v := fn()
		tr.end(id)
		set(name, v)
	}
	n := ps.msgBytes

	probe("jvm", "jvm.new_machine_ms", func() float64 {
		reps := min(max((64<<20)/ps.heapBytes, 1), 50)
		return perCall(reps, func() {
			jvm.NewMachine(vtime.NewClock(), jvm.Options{HeapSize: ps.heapBytes, ArenaSize: ps.heapBytes})
		}) / 1e6
	})

	// One warm machine serves the per-call probes below.
	m := jvm.NewMachine(vtime.NewClock(), jvm.Options{HeapSize: 8*n + 16<<20, ArenaSize: 8*n + 16<<20})
	env := jni.New(m)
	arr := m.MustArray(jvm.Byte, n)
	bb := m.MustAllocateDirect(n)
	calls := min(max((256<<20)/n, 16), 20000) // bound the bytes a bandwidth probe moves

	probe("jvm", "jvm.alloc_direct_ns", func() float64 {
		return perCall(calls, func() { m.MustAllocateDirect(n).Free() })
	})
	probe("jvm", "jvm.new_array_ns", func() float64 {
		return perCall(calls, func() { m.MustArray(jvm.Byte, n).Discard() })
	})
	probe("jvm", "jvm.array_elem_ns", func() float64 {
		els := min(n, 64<<10)
		return perCall(8, func() {
			for i := 0; i < els; i++ {
				arr.SetInt(i, arr.Int(i)+1)
			}
		}) / float64(2*els)
	})
	probe("jvm", "jvm.bytebuffer_elem_ns", func() float64 {
		els := min(n, 64<<10)
		return perCall(8, func() {
			for i := 0; i < els; i++ {
				bb.PutByteAt(i, bb.ByteAt(i)+1)
			}
		}) / float64(2*els)
	})
	probe("jvm", "jvm.bulk_copy_gbps", func() float64 {
		return ratio(float64(n), perCall(calls, func() {
			bb.Clear()
			bb.PutArray(arr, 0, n)
		}))
	})

	probe("jni", "jni.crossing_ns", func() float64 { return perCall(200000, env.CallNative) })
	probe("jni", "jni.array_copy_gbps", func() float64 {
		return ratio(float64(2*n), perCall(calls, func() {
			env.ReleaseArrayElements(arr, env.GetArrayElements(arr), jni.CopyBack)
		}))
	})
	probe("jni", "jni.direct_addr_ns", func() float64 {
		return perCall(200000, func() { env.GetDirectBufferAddress(bb) })
	})

	pool := mpjbuf.NewPool(m)
	probe("mpjbuf", "mpjbuf.get_free_ns", func() float64 {
		return perCall(20000, func() {
			b, err := pool.Get(n)
			if err != nil {
				panic(err) // the probe machine was sized for this request
			}
			b.Free()
		})
	})
	staged, err := pool.Get(n)
	if err != nil {
		panic(err)
	}
	probe("mpjbuf", "mpjbuf.write_read_gbps", func() float64 {
		return ratio(float64(2*n), perCall(calls, func() {
			must(staged.Clear())
			must(staged.Write(arr, 0, n))
			must(staged.Commit())
			must(staged.Read(arr, 0, n))
		}))
	})
	probe("mpjbuf", "mpjbuf.pack_runs_gbps", func() float64 {
		// The ddt suites' layout: 16-int blocks every 32 ints, 50 % dense.
		blocks := max(n/64, 1)
		ints := m.MustArray(jvm.Int, blocks*32)
		runs := make([]mpjbuf.Run, blocks)
		for b := range runs {
			runs[b] = mpjbuf.Run{Off: b * 32, Els: 16}
		}
		return ratio(float64(blocks*64), perCall(calls, func() {
			must(staged.Clear())
			must(staged.WriteRuns(ints, 0, runs))
		}))
	})

	probe("nativempi", "nativempi.world_setup_ms", func() float64 {
		topo := cluster.New(1, ps.maxNP)
		if ps.maxNP >= 64 {
			topo = cluster.New(ps.maxNP/32, 32)
		}
		return perCall(3, func() {
			world := nativempi.NewWorld(topo, fabric.Default(topo), w.Steps[0].Cfg.Core.Lib)
			must(world.Run(func(*nativempi.Proc) error { return nil }))
		}) / 1e6
	})

	topo := cluster.New(2, 1)
	fab := fabric.Default(topo)
	if ps.plan != nil {
		fab.WithFaults(ps.plan)
	}
	seq := uint64(0)
	probe("fabric", "fabric.verdict_ns", func() float64 {
		return perCall(200000, func() {
			seq++
			fab.DataVerdict(0, 1, faults.StreamMatch, seq, 0)
		})
	})
	probe("fabric", "fabric.burst_verdicts_ns", func() float64 {
		var vs []faults.Verdict
		return perCall(200000, func() {
			seq++
			vs, _ = fab.BurstVerdicts(0, 1, faults.StreamBulk, seq, 8, vs[:0])
		})
	})
	probe("fabric", "fabric.transfer_time_ns", func() float64 {
		ib := fabric.FronteraIB()
		return perCall(1000000, func() { probeSink += ib.TransferTime(n) })
	})

	probe("cluster", "cluster.new_topology_us", func() float64 {
		return perCall(20, func() { cluster.New(32, 32) }) / 1e3
	})
	probe("vtime", "vtime.advance_ns", func() float64 {
		clock := vtime.NewClock()
		return perCall(1000000, func() { clock.Advance(1) })
	})
	probe("trace", "trace.record_ns", func() float64 {
		rec := trace.New(1 << 20) // five batches of 100 000 stay under the bound
		return perCall(100000, func() {
			rec.Record(trace.Event{Rank: 0, Kind: trace.KindSend, Peer: 1, Bytes: n, Start: 1, End: 2})
		})
	})
	probe("metrics", "metrics.observe_ns", func() float64 {
		reg := metrics.NewRegistry()
		return perCall(200000, func() { reg.Observe(0, "probe", "ps", int64(n)) })
	})
}

// must turns an error from a probe's own well-formed call into a panic:
// only a bug in the probe can produce one.
func must(err error) {
	if err != nil {
		panic(err)
	}
}
