package main

import (
	"fmt"
	"runtime"

	"mv2j/internal/core"
	"mv2j/internal/fabric"
	"mv2j/internal/faults"
	"mv2j/internal/nativempi"
	"mv2j/internal/omb"
	"mv2j/internal/profile"
	"mv2j/internal/vtime"
)

// rowKind says how one omb.Result row converts to virtual microseconds
// per message.
type rowKind int

const (
	rowLatency   rowKind = iota // LatencyUs is the figure
	rowBandwidth                // MBps is bytes/µs: size/MBps
	rowRate                     // MBps carries messages/s: 1e6/rate
)

// step is one simulated world of an op: one omb.RunBenchmark call.
type step struct {
	Name  string
	Slot  int // which omb.step_wall_s.<slot> the step's wall time feeds
	Bench string
	Rows  rowKind
	Cfg   omb.Config
}

// sizes is the row plan the step must return.
func (s step) sizes() []int {
	if s.Bench == "kvservice" {
		return []int{32} // one row: the fixed request size
	}
	return s.Cfg.Opts.Sizes()
}

// mirrorKind selects which of the benchmark's own rank mains mirrors
// the workload's message pattern in the traced run.
type mirrorKind int

const (
	mirrorPingPong  mirrorKind = iota // osu_latency loop between ranks 0 and 1
	mirrorStream                      // osu_bw window loop, first half -> second half
	mirrorAllreduce                   // osu_allreduce loop on every rank
)

// mirrorPlan is the traced run's stand-in for one step of the workload:
// the step's message pattern at the step's shape and sizes, driven by the
// benchmark's own rank mains so that every layer crossing can be wrapped
// in a span and repeated at native, buffer and arrays depth.
type mirrorPlan struct {
	Kind          mirrorKind
	Step          int // index of the mirrored step
	Nodes, PPN    int
	Lib           nativempi.Profile
	Intra, Inter  fabric.Params // the step's links, seeded jitter included
	Faults        *faults.Plan
	Sizes         []int
	Iters, Warmup int
	Window        int
	// Scale is how many of the mirror's loops the step's loop is worth:
	// the ratio of their iteration counts (and of simulated threads,
	// which the mirror cannot have).
	Scale float64
}

// mirrorOf builds the mirror of step no with its own iteration counts.
func mirrorOf(w workload, no int, kind mirrorKind, iters, warmup int) mirrorPlan {
	s := w.Steps[no]
	c, o := s.Cfg.Core, s.Cfg.Opts
	threads := 1
	if s.Bench == "mr-mt" {
		threads = o.Threads
	}
	return mirrorPlan{
		Kind: kind, Step: no, Nodes: c.Nodes, PPN: c.PPN, Lib: c.Lib,
		Intra: *c.Intra, Inter: *c.Inter, Faults: c.Faults,
		Sizes: o.Sizes(), Iters: iters, Warmup: warmup, Window: o.Window,
		Scale: float64((o.Iters+o.Warmup)*threads) / float64(iters+warmup),
	}
}

// workload is one named set of inputs. An op runs Steps in order.
type workload struct {
	Name   string
	Steps  []step
	Mirror mirrorPlan
}

// workloadNames is the fixed order of the six workloads.
var workloadNames = []string{
	"pingpong-small", "stream-large", "coll-scale", "short-jobs", "lossy-stream", "service-mt",
}

var workloadWhy = map[string]string{
	"pingpong-small": "one long 1x2 world of 176k small eager messages: the per-message fast path dominates, set-up and bytes moved do not",
	"stream-large":   "256 KiB-4 MiB windows: bytes-moved bound (JNI array copies, mpjbuf staging, zero-copy rendezvous, RDMA placement, iovec)",
	"coll-scale":     "np=1024 and np=256 collectives: engine phases, multi-leader k-nomial, scratch arenas and 1024 per-rank JVMs",
	"short-jobs":     "15 tiny worlds across both libraries and both buffer kinds: world and JVM set-up are half the op, the largest named share",
	"lossy-stream":   "1% drop plus a rank crash under FT: CRC framing, acks, retransmits, verdict hashing, detection and shrink; the direct datapaths are off",
	"service-mt":     "kvservice and mr-mt under MPI_THREAD_MULTIPLE: baton scheduler, entry lock, credit flow control, waitany, tag-lane matching",
}

// procsFor is the GOMAXPROCS a workload runs at; EngineWorkers stays 0
// (the GOMAXPROCS default). Both are recorded in every report. The
// sandbox has two cores; capping at four keeps numbers from a larger
// machine comparable in kind. pingpong-small runs on one P: a 1x2
// ping-pong is serial by construction (one rank runs while the other
// waits), and on two Ps the Go scheduler bounces the two rank goroutines
// between OS threads, 12 000 futex wake-ups per op, which makes the op's
// time the platform's wake-up latency: 1.6x slower and +-12 % from run to
// run on the sizing machine, against +-2 % on one P. The cross-thread
// hand-off stays measured where ranks do run in parallel: on the other
// five workloads.
func procsFor(workload string) int {
	if workload == "pingpong-small" {
		return 1
	}
	return min(runtime.NumCPU(), 4)
}

// sweep builds the options of one power-of-two sweep and applies the
// seed. The generated sizes are (lo-d)*2^k with 1 <= d <= lo/64 whenever
// lo >= 64: every seed leaves the power-of-two grid the same way, just
// below it, so that each row stays in the pool size class and on the
// protocol tier it has for every other seed, and the bytes moved differ
// by under 1.6 % between seeds. MaxSize gets a seeded slack that changes
// buffer and heap sizing but never the row count.
func sweep(h uint64, lo, hi, iters, warmup, window int) omb.Options {
	if span := lo / 64; span > 0 {
		lo -= 1 + int(derive(h, 1)%uint64(span))
	}
	if slack := hi / 128; slack > 0 {
		hi += int(derive(h, 2) % uint64(slack))
	}
	return omb.Options{
		MinSize: lo, MaxSize: hi,
		Iters: iters, Warmup: warmup,
		// Every size runs the same iteration count: the large-message
		// cut-back would make the op's work depend on where d lands.
		LargeThreshold: 1 << 30, LargeIters: iters,
		Window: window,
	}
}

// world builds one step's config. The simulated links carry a seeded
// latency jitter below 0.1 %: host work is the same for every seed, but
// the model's output depends on the seed on every workload, also those
// whose sweeps start at 1 byte and cannot be moved off the grid.
func world(h uint64, nodes, ppn int, mode omb.Mode, o omb.Options) omb.Config {
	intra, inter := fabric.FronteraShm(), fabric.FronteraIB()
	intra.Latency += vtime.Duration(derive(h, 3) % uint64(intra.Latency/1000))
	inter.Latency += vtime.Duration(derive(h, 4) % uint64(inter.Latency/1000))
	return omb.Config{
		Core: core.Config{Nodes: nodes, PPN: ppn, Lib: profile.MVAPICH2(), Flavor: core.MVAPICH2J,
			Intra: &intra, Inter: &inter},
		Mode: mode,
		Opts: o,
	}
}

func faultPlan(spec string) (*faults.Plan, error) {
	p, err := faults.ParseSpec(spec)
	if err != nil {
		return nil, fmt.Errorf("fault plan %q: %w", spec, err)
	}
	return p, nil
}

// buildWorkload generates the workload's inputs from the seed. The
// program under test receives only the omb.Configs built here.
func buildWorkload(name string, seed uint64) (workload, error) {
	w := workload{Name: name}
	idx := uint64(0)
	for i, n := range workloadNames {
		if n == name {
			idx = uint64(i + 1)
		}
	}
	if idx == 0 {
		return w, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	h := func(stepNo int) uint64 { return derive(seed, idx, uint64(stepNo)) }

	switch name {
	case "pingpong-small":
		o := sweep(h(1), 1, 1<<10, 8000, 10, 64)
		w.Steps = []step{{"latency", 1, "latency", rowLatency, world(h(1), 1, 2, omb.ModeBuffer, o)}}
		w.Mirror = mirrorOf(w, 0, mirrorPingPong, 1000, 10)

	case "stream-large":
		bwA := sweep(h(1), 256<<10, 4<<20, 5, 1, 16)
		bwB := sweep(h(2), 256<<10, 4<<20, 5, 1, 16)
		ddt := sweep(h(3), 64<<10, 1<<20, 8, 1, 4)
		w.Steps = []step{
			{"bw-arrays", 1, "bw", rowBandwidth, world(h(1), 1, 2, omb.ModeArrays, bwA)},
			{"bw-rdma", 2, "bw", rowBandwidth, world(h(2), 2, 1, omb.ModeBuffer, bwB)},
			{"ddt-pack", 3, "ddt-pack", rowLatency, world(h(3), 2, 1, omb.ModeArrays, ddt)},
		}
		w.Mirror = mirrorOf(w, 0, mirrorStream, 2, 1)

	case "coll-scale":
		scale := sweep(h(1), 512, 2<<10, 3, 1, 0)
		bcast := sweep(h(2), 512, 2<<10, 3, 1, 0)
		arr := sweep(h(3), 8, 16<<10, 5, 1, 0)
		w.Steps = []step{
			{"allreduce-1024", 1, "allreduce", rowLatency, world(h(1), 32, 32, omb.ModeBuffer, scale)},
			{"bcast-1024", 2, "bcast", rowLatency, world(h(2), 32, 32, omb.ModeBuffer, bcast)},
			{"allreduce-256-arrays", 3, "allreduce", rowLatency, world(h(3), 16, 16, omb.ModeArrays, arr)},
		}
		w.Mirror = mirrorOf(w, 2, mirrorAllreduce, 5, 1)

	case "short-jobs":
		n := 0
		for _, lib := range []string{"mvapich2", "openmpi"} {
			for _, mode := range []omb.Mode{omb.ModeBuffer, omb.ModeArrays} {
				for slot, bench := range []string{"latency", "bw", "bcast", "allreduce"} {
					if lib == "openmpi" && bench == "bw" && mode == omb.ModeArrays {
						continue // Open MPI-J has no arrays with non-blocking pt2pt: correctly ErrUnsupported
					}
					n++
					ppn, rows := 2, rowLatency
					switch bench {
					case "bw":
						rows = rowBandwidth
					case "bcast", "allreduce":
						ppn = 8
					}
					cfg := world(h(n), 1, ppn, mode, sweep(h(n), 1, 4<<10, 10, 2, 64))
					if lib == "openmpi" {
						cfg.Core.Lib = profile.OpenMPI()
						cfg.Core.Flavor = core.OpenMPIJ
					}
					w.Steps = append(w.Steps, step{
						Name: fmt.Sprintf("%s-%s-%s", bench, lib, mode), Slot: slot + 1,
						Bench: bench, Rows: rows, Cfg: cfg,
					})
				}
			}
		}
		w.Mirror = mirrorOf(w, 0, mirrorPingPong, 10, 2)

	case "lossy-stream":
		s := derive(seed, idx, 99) % 1_000_000
		lossy, err := faultPlan(fmt.Sprintf("seed=%d,drop=0.01", s))
		if err != nil {
			return w, err
		}
		crash, err := faultPlan(fmt.Sprintf("seed=%d,drop=0.01,crash=3@200us", s))
		if err != nil {
			return w, err
		}
		bw := world(h(1), 2, 1, omb.ModeBuffer, sweep(h(1), 1<<10, 1<<20, 8, 1, 32))
		bw.Core.Faults = lossy
		ft := world(h(2), 2, 4, omb.ModeBuffer, sweep(h(2), 8, 64<<10, 40, 2, 0))
		ft.Core.Faults = crash
		ft.Core.FT = true
		ft.Opts.FT = true
		w.Steps = []step{
			{"bw-lossy", 1, "bw", rowBandwidth, bw},
			{"allreduce-ft", 2, "allreduce", rowLatency, ft},
		}
		w.Mirror = mirrorOf(w, 0, mirrorStream, 2, 1)

	case "service-mt":
		kv := world(h(1), 2, 4, omb.ModeBuffer, omb.Options{Iters: 3, Window: 32, Threads: 2, Clients: 16384})
		kv.Core.Lib.EagerCredits = 8
		kv.Core.Lib.UnexpectedQueueBytes = 128
		mt := sweep(h(2), 1, 1<<10, 20, 2, 64)
		mt.Threads = 4
		w.Steps = []step{
			{"kvservice", 1, "kvservice", rowRate, kv},
			{"mr-mt", 2, "mr-mt", rowRate, world(h(2), 2, 4, omb.ModeBuffer, mt)},
		}
		// Simulated threads cannot be wrapped from outside RunThreads: the
		// mirror of mr-mt is its windowed message-rate pattern with one
		// thread per rank.
		w.Mirror = mirrorOf(w, 1, mirrorStream, 20, 2)
	}
	return w, nil
}
