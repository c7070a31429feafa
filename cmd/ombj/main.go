// Command ombj is the OMB-J benchmark runner: the Java-bindings
// counterpart of the OSU Micro-Benchmarks CLI, for the simulated
// cluster. It mirrors OMB's flag conventions where they make sense.
//
// Examples:
//
//	ombj -b latency -nodes 2 -ppn 1 -lib mvapich2 -mode buffer
//	ombj -b bcast -nodes 4 -ppn 16 -lib openmpi -mode arrays -m 1:1048576
//	ombj -b latency -validate -m 1:4194304      # the Fig. 18 experiment
//	ombj -list
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"mv2j/internal/core"
	"mv2j/internal/faults"
	"mv2j/internal/obs"
	"mv2j/internal/omb"
	"mv2j/internal/profile"
)

func main() {
	var (
		bench    = flag.String("b", "latency", "benchmark name (see -list): point-to-point (latency, bw, bibw, mbw, mr), collectives (bcast, allreduce, ... and v-variants, barrier), non-blocking (ibcast, iallreduce, ibarrier), one-sided (put, get, acc)")
		lib      = flag.String("lib", "mvapich2", "native library profile: mvapich2 | openmpi")
		flavor   = flag.String("bindings", "", "bindings flavor: mv2j | ompij (defaults to match -lib)")
		mode     = flag.String("mode", "buffer", "payload container: buffer | arrays | native")
		nodes    = flag.Int("nodes", 2, "simulated nodes")
		ppn      = flag.Int("ppn", 1, "ranks per node")
		msgRange = flag.String("m", "1:4194304", "message size range min:max (bytes, powers of two)")
		iters    = flag.Int("i", 50, "iterations per size")
		warmup   = flag.Int("x", 5, "warmup iterations per size")
		window   = flag.Int("w", 64, "bandwidth window size")
		validate = flag.Bool("validate", false, "populate and verify payloads inside the timed region")
		ft       = flag.Bool("ft", false, "run collectives under the fault-tolerant driver: injected rank crashes shrink the communicator and the sweep resumes from the last agreed iteration instead of aborting (pair with -faults \"crash=R@T\")")
		faultS   = flag.String("faults", "", `fault-injection plan, e.g. "seed=42,drop=0.01" or "inter.drop=0.05,target=drop:2>5:match:3" (see internal/faults)`)
		list     = flag.Bool("list", false, "list benchmarks and exit")

		threads = flag.Int("threads", 0, "simulated threads per rank for the MPI_THREAD_MULTIPLE benchmarks (mr-mt, kvservice; 0 = benchmark default)")
		clients = flag.Int("clients", 0, "simulated client population for kvservice (0 = benchmark default)")

		credits     = flag.Int("credits", 0, "per-peer eager send credits: senders with no credit park until the receiver returns some (0 = flow control off)")
		creditBatch = flag.Int("credit-batch", 0, "consumed messages per explicit credit grant (0 = credits/2)")
		unexpBytes  = flag.Int64("unexp-queue-bytes", 0, "receiver unexpected-queue byte bound; past half of it eager senders demote to rendezvous (0 = credits x 64KiB)")
	)
	var sink obs.Sink
	sink.AddFlags()
	flag.Parse()

	if *list {
		for _, b := range omb.Benchmarks() {
			fmt.Println(b)
		}
		return
	}

	minSize, maxSize, err := parseRange(*msgRange)
	if err != nil {
		fatal(err)
	}
	prof, ok := profile.ByName(*lib)
	if !ok {
		fatal(fmt.Errorf("unknown library %q (mvapich2 | openmpi)", *lib))
	}
	if *credits != 0 {
		prof.EagerCredits = *credits
	}
	if *creditBatch != 0 {
		prof.CreditBatch = *creditBatch
	}
	if *unexpBytes != 0 {
		prof.UnexpectedQueueBytes = *unexpBytes
	}
	flv := core.MVAPICH2J
	switch *flavor {
	case "":
		if prof.Name == "openmpi" {
			flv = core.OpenMPIJ
		}
	case "mv2j", "mvapich2-j":
		flv = core.MVAPICH2J
	case "ompij", "openmpi-j":
		flv = core.OpenMPIJ
	default:
		fatal(fmt.Errorf("unknown bindings flavor %q", *flavor))
	}
	var md omb.Mode
	switch *mode {
	case "buffer":
		md = omb.ModeBuffer
	case "arrays":
		md = omb.ModeArrays
	case "native":
		md = omb.ModeNative
	default:
		fatal(fmt.Errorf("unknown mode %q (buffer | arrays | native)", *mode))
	}

	var plan *faults.Plan
	if *faultS != "" {
		if plan, err = faults.ParseSpec(*faultS); err != nil {
			fatal(err)
		}
	}

	sink.PPN = *ppn
	cfg := omb.Config{
		Core: core.Config{Nodes: *nodes, PPN: *ppn, Lib: prof, Flavor: flv, Faults: plan,
			Trace: sink.Recorder(), Metrics: sink.Registry()},
		Mode: md,
		Opts: omb.Options{
			MinSize: minSize, MaxSize: maxSize,
			Iters: *iters, Warmup: *warmup,
			LargeThreshold: 64 << 10, LargeIters: max(2, *iters/5),
			Window: *window, Validate: *validate,
			FT:      *ft,
			Threads: *threads, Clients: *clients,
		},
	}

	rows, err := omb.RunBenchmark(*bench, cfg)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("# OMB-J %s: %s / %s / %s, %d nodes x %d ppn\n",
		*bench, prof.Name, flv, md, *nodes, *ppn)
	if *validate {
		fmt.Println("# data validation enabled")
	}
	if plan != nil {
		fmt.Printf("# fault injection: %s\n", *faultS)
	}
	if *ft {
		fmt.Println("# fault tolerance: shrink-and-continue")
	}
	isBW := *bench == "bw" || *bench == "bibw" || *bench == "mbw"
	isRate := *bench == "mr" || *bench == "mr-overload" || *bench == "mr-mt" || *bench == "kvservice"
	switch {
	case isBW:
		fmt.Printf("%-12s%16s\n", "# Size", "Bandwidth (MB/s)")
	case isRate:
		fmt.Printf("%-12s%16s\n", "# Size", "Messages/s")
	default:
		fmt.Printf("%-12s%16s\n", "# Size", "Latency (us)")
	}
	for _, r := range rows {
		if isBW || isRate {
			fmt.Printf("%-12d%16.2f\n", r.Size, r.MBps)
		} else {
			fmt.Printf("%-12d%16.2f\n", r.Size, r.LatencyUs)
		}
	}
	if err := sink.Flush(os.Stdout); err != nil {
		fatal(err)
	}
}

func parseRange(s string) (int, int, error) {
	parts := strings.SplitN(s, ":", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("bad range %q, want min:max", s)
	}
	lo, err := strconv.Atoi(parts[0])
	if err != nil {
		return 0, 0, fmt.Errorf("bad range minimum %q", parts[0])
	}
	hi, err := strconv.Atoi(parts[1])
	if err != nil {
		return 0, 0, fmt.Errorf("bad range maximum %q", parts[1])
	}
	if lo < 1 || hi < lo {
		return 0, 0, fmt.Errorf("range %d:%d out of order", lo, hi)
	}
	return lo, hi, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ombj:", err)
	os.Exit(1)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
