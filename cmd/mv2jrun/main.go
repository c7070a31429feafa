// Command mv2jrun is the mpirun of the simulated cluster: it launches
// one of the bundled demo programs on a chosen topology and library.
//
//	mv2jrun -app hello -nodes 2 -ppn 4
//	mv2jrun -app ring -nodes 4 -ppn 2 -lib openmpi
//	mv2jrun -app stats -nodes 2 -ppn 8
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"sync"

	"mv2j/internal/core"
	"mv2j/internal/faults"
	"mv2j/internal/jvm"
	"mv2j/internal/obs"
	"mv2j/internal/profile"
	"mv2j/internal/trace"
)

var stdout sync.Mutex

func say(format string, args ...any) {
	stdout.Lock()
	defer stdout.Unlock()
	fmt.Printf(format+"\n", args...)
}

// apps maps names to SPMD bodies.
var apps = map[string]func(mpi *core.MPI) error{
	"hello":     hello,
	"ring":      ring,
	"stats":     stats,
	"resilient": resilient,
}

func main() {
	app := flag.String("app", "hello", "demo program: hello | ring | stats | resilient")
	nodes := flag.Int("nodes", 2, "simulated nodes")
	ppn := flag.Int("ppn", 2, "ranks per node")
	lib := flag.String("lib", "mvapich2", "native library: mvapich2 | openmpi")
	doTrace := flag.Bool("trace", false, "print the virtual-time event timeline after the run")
	faultS := flag.String("faults", "", `fault-injection plan, e.g. "seed=42,drop=0.01" or "crash=2@60us" (see internal/faults)`)
	ft := flag.Bool("ft", false, "enable ULFM-style fault tolerance: rank crashes surface as recoverable errors (Revoke/Shrink/AgreeShrink) instead of aborting; try -app resilient -ft -faults crash=2@60us")
	credits := flag.Int("credits", 0, "per-peer eager send credits: senders with no credit park until the receiver returns some (0 = flow control off)")
	creditBatch := flag.Int("credit-batch", 0, "consumed messages per explicit credit grant (0 = credits/2)")
	unexpBytes := flag.Int64("unexp-queue-bytes", 0, "receiver unexpected-queue byte bound; past half of it eager senders demote to rendezvous (0 = credits x 64KiB)")
	var sink obs.Sink
	sink.AddFlags()
	flag.Parse()

	body, ok := apps[*app]
	if !ok {
		var names []string
		for n := range apps {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "mv2jrun: unknown app %q (have %v)\n", *app, names)
		os.Exit(2)
	}
	prof, ok := profile.ByName(*lib)
	if !ok {
		fmt.Fprintf(os.Stderr, "mv2jrun: unknown library %q\n", *lib)
		os.Exit(2)
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
	flavor := core.MVAPICH2J
	if prof.Name == "openmpi" {
		flavor = core.OpenMPIJ
	}
	cfg := core.Config{Nodes: *nodes, PPN: *ppn, Lib: prof, Flavor: flavor, FT: *ft}
	if *faultS != "" {
		plan, err := faults.ParseSpec(*faultS)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mv2jrun:", err)
			os.Exit(2)
		}
		cfg.Faults = plan
	}
	sink.PPN = *ppn
	var rec *trace.Recorder
	if *doTrace {
		rec = sink.ForceRecorder()
	}
	cfg.Trace = sink.Recorder()
	cfg.Metrics = sink.Registry()
	if err := core.Run(cfg, body); err != nil {
		fmt.Fprintln(os.Stderr, "mv2jrun:", err)
		os.Exit(1)
	}
	if err := sink.Flush(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mv2jrun:", err)
		os.Exit(1)
	}
	if rec != nil {
		fmt.Printf("\n--- trace (%d events) ---\n", rec.Len())
		if err := rec.Timeline(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "mv2jrun: trace:", err)
		}
		fmt.Println("--- summary ---")
		summary := rec.Summary()
		kinds := make([]string, 0, len(summary))
		for kind := range summary {
			kinds = append(kinds, string(kind))
		}
		sort.Strings(kinds) // map order would be the one nondeterministic line of output
		for _, kind := range kinds {
			s := summary[trace.Kind(kind)]
			fmt.Printf("  %-8s count=%-6d bytes=%-10d time=%v\n", kind, s.Count, s.Bytes, s.Time)
		}
	}
}

// hello prints a greeting per rank with node placement.
func hello(mpi *core.MPI) error {
	world := mpi.CommWorld()
	topo := mpi.Proc().World().Topology()
	say("hello from rank %d/%d on node %d (local rank %d)",
		world.Rank(), world.Size(), topo.NodeOf(world.Rank()), topo.LocalRank(world.Rank()))
	return world.Barrier()
}

// ring circulates a counter once around the ranks, each incrementing.
func ring(mpi *core.MPI) error {
	world := mpi.CommWorld()
	me, p := world.Rank(), world.Size()
	token := mpi.JVM().MustArray(jvm.Long, 1)
	if me == 0 {
		token.SetInt(0, 1)
		if err := world.Send(token, 1, core.LONG, (me+1)%p, 0); err != nil {
			return err
		}
		if _, err := world.Recv(token, 1, core.LONG, p-1, 0); err != nil {
			return err
		}
		say("ring complete: token=%d after %d hops (virtual time %v)",
			token.Int(0), p, mpi.Clock().Now())
		if token.Int(0) != int64(p) {
			return fmt.Errorf("ring token %d, want %d", token.Int(0), p)
		}
		return nil
	}
	if _, err := world.Recv(token, 1, core.LONG, me-1, 0); err != nil {
		return err
	}
	token.SetInt(0, token.Int(0)+1)
	return world.Send(token, 1, core.LONG, (me+1)%p, 0)
}

// resilient iterates an allreduce and survives injected rank crashes
// with the ULFM recipe: revoke the broken communicator, shrink it via
// one agreement, agree on the rollback iteration with a MIN reduction,
// and continue on the survivors. Run it with
//
//	mv2jrun -app resilient -ft -faults crash=2@60us -nodes 1 -ppn 4
//
// Without -ft the same crash aborts the whole job, as plain MPI would.
func resilient(mpi *core.MPI) error {
	world := mpi.CommWorld()
	comm := world
	me := world.Rank()
	send := mpi.JVM().MustArray(jvm.Long, 1)
	recv := mpi.JVM().MustArray(jvm.Long, 1)
	const iters = 8
	for iter := 0; iter < iters; {
		send.SetInt(0, int64(me+1))
		err := comm.Allreduce(send, recv, 1, core.LONG, core.SUM)
		if err == nil {
			if comm.Rank() == 0 {
				say("iter %d: %d ranks, sum=%d (t=%v)", iter, comm.Size(), recv.Int(0), mpi.Clock().Now())
			}
			iter++
			continue
		}
		if !core.IsFailure(err) {
			return err
		}
		for {
			if err := comm.Revoke(); err != nil {
				return err
			}
			_, nc, failed, aerr := comm.AgreeShrink(^uint64(0))
			if aerr != nil {
				if core.IsFailure(aerr) {
					continue
				}
				return aerr
			}
			send.SetInt(0, int64(iter))
			if merr := nc.Allreduce(send, recv, 1, core.LONG, core.MIN); merr != nil {
				if core.IsFailure(merr) {
					comm = nc
					continue
				}
				return merr
			}
			say("rank %d: recovered — lost %v, %d survivors, rolling back to iteration %d",
				me, failed, nc.Size(), recv.Int(0))
			comm, iter = nc, int(recv.Int(0))
			break
		}
	}
	return nil
}

// stats runs a few collectives and prints per-rank runtime counters.
func stats(mpi *core.MPI) error {
	world := mpi.CommWorld()
	buf := mpi.JVM().MustAllocateDirect(4096)
	for i := 0; i < 10; i++ {
		if err := world.Bcast(buf, 4096, core.BYTE, 0); err != nil {
			return err
		}
	}
	arr := mpi.JVM().MustArray(jvm.Double, 64)
	out := mpi.JVM().MustArray(jvm.Double, 64)
	if err := world.Allreduce(arr, out, 64, core.DOUBLE, core.SUM); err != nil {
		return err
	}
	ps := mpi.Proc().Stats()
	js := mpi.JNI().Stats()
	pool := mpi.Pool().Stats()
	say("rank %d: sent=%d msgs/%d bytes (eager %d, rndv %d), jni calls=%d copies=%dB, pool hits/misses=%d/%d, vtime=%v",
		world.Rank(), ps.MsgsSent, ps.BytesSent, ps.EagerSends, ps.RndvSends,
		js.Calls, js.CopiedBytes, pool.Hits, pool.Misses, mpi.Clock().Now())
	return nil
}
