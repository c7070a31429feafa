package nativempi

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"mv2j/internal/cluster"
	"mv2j/internal/fabric"
	"mv2j/internal/faults"
	"mv2j/internal/metrics"
	"mv2j/internal/trace"
	"mv2j/internal/vtime"
)

func thrWorld(nodes, ppn int, prof Profile) *World {
	topo := cluster.New(nodes, ppn)
	return NewWorld(topo, fabric.Default(topo), prof)
}

// TestInitThreadDowngrade: provided = min(required, build level), and
// a rank that never calls InitThread is SINGLE.
func TestInitThreadDowngrade(t *testing.T) {
	cases := []struct {
		build    ThreadLevel
		required ThreadLevel
		want     ThreadLevel
	}{
		{ThreadSingle, ThreadMultiple, ThreadSingle},
		{ThreadFunneled, ThreadMultiple, ThreadFunneled},
		{ThreadSerialized, ThreadSerialized, ThreadSerialized},
		{ThreadMultiple, ThreadMultiple, ThreadMultiple},
		{ThreadMultiple, ThreadFunneled, ThreadFunneled},
		{0, ThreadMultiple, ThreadMultiple}, // zero build level defaults to MULTIPLE
	}
	for _, tc := range cases {
		w := thrWorld(1, 1, Profile{ThreadLevel: tc.build})
		err := w.Run(func(p *Proc) error {
			if got := p.ThreadLevelProvided(); got != ThreadSingle {
				return fmt.Errorf("before InitThread: provided %v, want %v", got, ThreadSingle)
			}
			if got := p.InitThread(tc.required); got != tc.want {
				return fmt.Errorf("build %v, required %v: provided %v, want %v", tc.build, tc.required, got, tc.want)
			}
			return nil
		})
		if err != nil {
			t.Error(err)
		}
	}
}

// TestRunThreadsGates: the launch preconditions fail with errors, not
// panics — SINGLE level, nesting, bad arguments.
func TestRunThreadsGates(t *testing.T) {
	w := thrWorld(1, 1, Profile{ThreadLevel: ThreadSingle})
	err := w.Run(func(p *Proc) error {
		p.InitThread(ThreadMultiple) // downgraded to SINGLE
		if err := p.RunThreads(2, func(int) error { return nil }); err == nil {
			return fmt.Errorf("RunThreads(2) under SINGLE did not fail")
		}
		if err := p.RunThreads(0, func(int) error { return nil }); err == nil {
			return fmt.Errorf("RunThreads(0) did not fail")
		}
		if err := p.RunThreads(1, nil); err == nil {
			return fmt.Errorf("RunThreads with nil body did not fail")
		}
		// n == 1 runs inline regardless of level.
		ran := false
		if err := p.RunThreads(1, func(tid int) error { ran = tid == 0; return nil }); err != nil {
			return err
		}
		if !ran {
			return fmt.Errorf("RunThreads(1) did not run the body inline")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	w = thrWorld(1, 1, Profile{})
	err = w.Run(func(p *Proc) error {
		p.InitThread(ThreadMultiple)
		return p.RunThreads(2, func(tid int) error {
			if err := p.RunThreads(2, func(int) error { return nil }); err == nil {
				return fmt.Errorf("nested RunThreads did not fail")
			}
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}

// thrArtifacts captures the full deterministic surface of one run.
type thrArtifacts struct {
	recvs  [][]byte
	clocks []vtime.Time
	trace  []byte
	met    []byte
	host   HostStats
}

func captureThrArtifacts(w *World, n int, body func(p *Proc, out *[][]byte) error) (thrArtifacts, error) {
	rec := trace.New(0)
	met := metrics.NewRegistry()
	w.SetRecorder(rec)
	w.SetMetrics(met)
	a := thrArtifacts{recvs: make([][]byte, n), clocks: make([]vtime.Time, n)}
	err := w.Run(func(p *Proc) error {
		if err := body(p, &a.recvs); err != nil {
			return err
		}
		a.clocks[p.Rank()] = p.Clock().Now()
		return nil
	})
	if err != nil {
		return a, err
	}
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		return a, err
	}
	a.trace = append([]byte(nil), buf.Bytes()...)
	buf.Reset()
	if err := met.WriteJSON(&buf); err != nil {
		return a, err
	}
	a.met = buf.Bytes()
	a.host = w.HostStats()
	return a, nil
}

func sameArtifacts(t *testing.T, label string, a, b thrArtifacts) {
	t.Helper()
	for r := range a.recvs {
		if !bytes.Equal(a.recvs[r], b.recvs[r]) {
			t.Errorf("%s: rank %d receive payloads differ", label, r)
		}
		if a.clocks[r] != b.clocks[r] {
			t.Errorf("%s: rank %d final clock %d vs %d", label, r, a.clocks[r], b.clocks[r])
		}
	}
	if !bytes.Equal(a.trace, b.trace) {
		t.Errorf("%s: trace JSONL differs", label)
	}
	if !bytes.Equal(a.met, b.met) {
		t.Errorf("%s: metrics JSON differs", label)
	}
}

// singleThreadedWorkload is a fixed mixed eager/rendezvous/collective
// program that never calls RunThreads.
func singleThreadedWorkload(p *Proc, out *[][]byte) error {
	c := p.CommWorld()
	me := p.Rank()
	n := c.Size()
	next := (me + 1) % n
	prev := (me - 1 + n) % n
	big := pattern(256<<10, byte(me+1)) // rendezvous-sized
	rbuf := make([]byte, len(big))
	sreq, err := c.Isend(big, next, 7)
	if err != nil {
		return err
	}
	rreq, err := c.Irecv(rbuf, prev, 7)
	if err != nil {
		return err
	}
	if _, err := sreq.Wait(); err != nil {
		return err
	}
	if _, err := rreq.Wait(); err != nil {
		return err
	}
	small := pattern(64, byte(0x20+me))
	sink := make([]byte, 64)
	if _, err := c.Sendrecv(small, next, 9, sink, prev, 9); err != nil {
		return err
	}
	if err := c.Barrier(); err != nil {
		return err
	}
	(*out)[me] = append(append([]byte(nil), rbuf[:128]...), sink...)
	return nil
}

// TestThreadLevelDifferential: a single-threaded program produces
// byte-identical artifacts whatever ThreadLevel the library was built
// with — including when it formally wraps itself in InitThread and a
// one-thread RunThreads. The thread machinery must cost nothing until
// threads actually contend.
func TestThreadLevelDifferential(t *testing.T) {
	levels := []ThreadLevel{ThreadSingle, ThreadFunneled, ThreadSerialized, ThreadMultiple}
	var base thrArtifacts
	for i, lvl := range levels {
		w := thrWorld(2, 2, Profile{ThreadLevel: lvl})
		a, err := captureThrArtifacts(w, 4, singleThreadedWorkload)
		if err != nil {
			t.Fatalf("level %v: %v", lvl, err)
		}
		if i == 0 {
			base = a
			continue
		}
		sameArtifacts(t, fmt.Sprintf("%v vs %v", lvl, levels[0]), a, base)
	}

	// Same program under MULTIPLE, wrapped in RunThreads(1) and an
	// explicit InitThread: still byte-identical.
	w := thrWorld(2, 2, Profile{ThreadLevel: ThreadMultiple})
	a, err := captureThrArtifacts(w, 4, func(p *Proc, out *[][]byte) error {
		if got := p.InitThread(ThreadMultiple); got != ThreadMultiple {
			return fmt.Errorf("provided %v", got)
		}
		return p.RunThreads(1, func(int) error { return singleThreadedWorkload(p, out) })
	})
	if err != nil {
		t.Fatal(err)
	}
	sameArtifacts(t, "RunThreads(1) vs bare", a, base)
}

// mtWorkload is a multithreaded exchange: every rank runs T threads,
// each thread streams a window of eager messages to the same thread id
// on the next rank and receives from the previous rank — a miniature
// of the mr-mt benchmark, with enough traffic to contend the entry
// lock.
func mtWorkload(T int) func(p *Proc, out *[][]byte) error {
	return func(p *Proc, out *[][]byte) error {
		c := p.CommWorld()
		me := p.Rank()
		n := c.Size()
		next := (me + 1) % n
		prev := (me - 1 + n) % n
		if got := p.InitThread(ThreadMultiple); got != ThreadMultiple {
			return fmt.Errorf("provided %v", got)
		}
		sums := make([][]byte, T)
		err := p.RunThreads(T, func(tid int) error {
			const window = 8
			buf := pattern(512, byte(me*T+tid+1))
			rbuf := make([]byte, 512)
			sum := make([]byte, 0, window)
			reqs := make([]*Request, 0, 2*window)
			for i := 0; i < window; i++ {
				sreq, err := c.Isend(buf, next, 100+tid)
				if err != nil {
					return err
				}
				rreq, err := c.Irecv(rbuf, prev, 100+tid)
				if err != nil {
					return err
				}
				if _, err := sreq.Wait(); err != nil {
					return err
				}
				if _, err := rreq.Wait(); err != nil {
					return err
				}
				sum = append(sum, rbuf[0])
			}
			_ = reqs
			sums[tid] = sum
			return nil
		})
		if err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		var all []byte
		for _, s := range sums {
			all = append(all, s...)
		}
		(*out)[me] = all
		return nil
	}
}

// TestThreadMultipleDeterministic: a multithreaded run's artifacts are
// a pure function of virtual state — byte-stable across repeats and
// engine worker-pool widths (the host knobs most likely to perturb a
// schedule-dependent implementation).
func TestThreadMultipleDeterministic(t *testing.T) {
	run := func(workers int) thrArtifacts {
		t.Helper()
		w := thrWorld(2, 2, Profile{ThreadLevel: ThreadMultiple})
		w.lockArbitration = 200 * vtime.Nanosecond
		w.SetEngineWorkers(workers)
		a, err := captureThrArtifacts(w, 4, mtWorkload(4))
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	base := run(0)
	for _, workers := range []int{1, 2, 0} {
		sameArtifacts(t, fmt.Sprintf("workers=%d", workers), run(workers), base)
	}
	if base.host.Threads.Groups == 0 || base.host.Threads.Handoffs == 0 {
		t.Errorf("thread multiplexer saw no activity: %+v", base.host.Threads)
	}
}

// TestThreadArbitrationCharged: contended entries pay the arbitration
// cost, show up in HostStats and the deterministic thread/* metrics,
// and raising the cost moves virtual time.
func TestThreadArbitrationCharged(t *testing.T) {
	elapsed := func(cost vtime.Duration) (vtime.Time, HostStats, []byte) {
		w := thrWorld(2, 2, Profile{ThreadLevel: ThreadMultiple})
		w.lockArbitration = cost
		met := metrics.NewRegistry()
		w.SetMetrics(met)
		var max vtime.Time
		clocks := make([]vtime.Time, 4)
		err := w.Run(func(p *Proc) error {
			out := make([][]byte, 4)
			if err := mtWorkload(4)(p, &out); err != nil {
				return err
			}
			clocks[p.Rank()] = p.Clock().Now()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range clocks {
			if c > max {
				max = c
			}
		}
		var buf bytes.Buffer
		if err := met.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return max, w.HostStats(), buf.Bytes()
	}
	cheapT, cheapHS, _ := elapsed(vtime.Nanosecond)
	dearT, dearHS, dearMet := elapsed(10 * vtime.Microsecond)
	if cheapHS.Threads.Contended == 0 || dearHS.Threads.Contended == 0 {
		t.Fatalf("expected contended entries: cheap %+v dear %+v", cheapHS.Threads, dearHS.Threads)
	}
	if dearT <= cheapT {
		t.Errorf("raising the arbitration cost did not move virtual time: %d vs %d", dearT, cheapT)
	}
	if dearHS.Threads.ArbWaitPs <= cheapHS.Threads.ArbWaitPs {
		t.Errorf("ArbWaitPs did not grow with the cost: %d vs %d", dearHS.Threads.ArbWaitPs, cheapHS.Threads.ArbWaitPs)
	}
	if !bytes.Contains(dearMet, []byte(`"thread"`)) {
		t.Errorf("deterministic registry is missing the thread/* series")
	}
}

// TestThreadFunneledViolation: an MPI call from a non-main thread
// under FUNNELED panics deterministically; the job aborts with the
// violation in the error.
func TestThreadFunneledViolation(t *testing.T) {
	w := thrWorld(1, 2, Profile{ThreadLevel: ThreadFunneled})
	err := w.Run(func(p *Proc) error {
		c := p.CommWorld()
		p.InitThread(ThreadFunneled)
		return p.RunThreads(2, func(tid int) error {
			if tid != 1 {
				return nil
			}
			_, _, err := c.Iprobe(AnySource, AnyTag) // any MPI call must trip the gate
			return err
		})
	})
	if err == nil || !strings.Contains(err.Error(), "MPI_THREAD_FUNNELED") {
		t.Fatalf("expected a FUNNELED violation abort, got %v", err)
	}
}

// TestThreadSerializedOverlap: two threads inside MPI at once under
// SERIALIZED is an application error and panics deterministically.
func TestThreadSerializedOverlap(t *testing.T) {
	w := thrWorld(1, 2, Profile{ThreadLevel: ThreadSerialized})
	err := w.Run(func(p *Proc) error {
		c := p.CommWorld()
		me := p.Rank()
		p.InitThread(ThreadSerialized)
		if me == 1 {
			// Peer rank: plain single-threaded echo traffic (it may be
			// aborted mid-call when rank 0 trips the gate).
			buf := make([]byte, 16)
			for i := 0; i < 2; i++ {
				if _, err := c.Recv(buf, 0, i); err != nil {
					return err
				}
			}
			return nil
		}
		return p.RunThreads(2, func(tid int) error {
			// Both threads issue blocking sends: the first parks inside
			// its call (rendezvous wait), the second's entry overlaps it.
			buf := pattern(256<<10, byte(tid+1))
			return c.Send(buf, 1, tid)
		})
	})
	if err == nil || !strings.Contains(err.Error(), "MPI_THREAD_SERIALIZED") {
		t.Fatalf("expected a SERIALIZED overlap abort, got %v", err)
	}
}

// TestThreadEndpointFanOut: under MULTIPLE with several injection
// endpoints, concurrent threads' rendezvous data phases stop
// serializing on one NIC cursor — wall-clock (virtual) time beats the
// single-endpoint run. Rendezvous traffic is the path where fan-out
// can show: the data phase is CTS-driven (start = max(cts arrival,
// endpoint cursor)), outside the entry-lock critical section. Eager
// blocking sends inject inside the lock, so the arbitration order
// already serializes their clocks and endpoint count cannot matter —
// an honest property of the coarse-lock model, not a plumbing gap.
func TestThreadEndpointFanOut(t *testing.T) {
	run := func(endpoints int) vtime.Time {
		t.Helper()
		w := thrWorld(2, 1, Profile{ThreadLevel: ThreadMultiple, EagerInter: 1 << 10, EagerIntra: 1 << 10})
		w.injectEndpoints = endpoints
		var maxT vtime.Time
		clocks := make([]vtime.Time, 2)
		err := w.Run(func(p *Proc) error {
			c := p.CommWorld()
			me := p.Rank()
			p.InitThread(ThreadMultiple)
			const T = 4
			err := p.RunThreads(T, func(tid int) error {
				buf := pattern(64<<10, byte(tid+1))
				rbuf := make([]byte, len(buf))
				for i := 0; i < 4; i++ {
					if me == 0 {
						if err := c.Send(buf, 1, 300+tid); err != nil {
							return err
						}
					} else {
						if _, err := c.Recv(rbuf, 0, 300+tid); err != nil {
							return err
						}
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			clocks[me] = p.Clock().Now()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range clocks {
			if c > maxT {
				maxT = c
			}
		}
		return maxT
	}
	one := run(1)
	four := run(4)
	if four >= one {
		t.Errorf("4 endpoints (%v) not faster than 1 (%v)", four, one)
	}
}

// TestProfileValidateThreading: nonsensical thread-level combinations
// are rejected with errors naming the field.
func TestProfileValidateThreading(t *testing.T) {
	bad := []Profile{
		{ThreadLevel: -1},
		{ThreadLevel: 5},
	}
	for i, pr := range bad {
		if err := pr.Validate(); err == nil {
			t.Errorf("case %d (%+v): Validate accepted a nonsensical combo", i, pr)
		}
	}
	good := []Profile{
		{},
		{ThreadLevel: ThreadMultiple},
		{ThreadLevel: ThreadFunneled},
		{ThreadLevel: ThreadSingle},
	}
	for i, pr := range good {
		if err := pr.Validate(); err != nil {
			t.Errorf("case %d: Validate rejected a valid profile: %v", i, err)
		}
	}
}

// TestRunThreadsUnderFaults: thread groups refuse to launch with
// ErrUnsupported when the fabric carries a fault plan or the world is
// fault tolerant (the reliability timers and failure sweeps assume one
// timeline per rank).
func TestRunThreadsUnderFaults(t *testing.T) {
	plan, err := faults.ParseSpec("seed=1,drop=0.01")
	if err != nil {
		t.Fatal(err)
	}
	worlds := map[string]func() *World{
		"faults": func() *World {
			topo := cluster.New(1, 2)
			return NewWorld(topo, fabric.Default(topo).WithFaults(plan), Profile{})
		},
		"ft": func() *World {
			w := thrWorld(1, 2, Profile{})
			w.EnableFT()
			return w
		},
	}
	for name, mk := range worlds {
		err := mk().Run(func(p *Proc) error {
			p.InitThread(ThreadMultiple)
			if err := p.RunThreads(2, func(int) error { return nil }); !errors.Is(err, ErrUnsupported) {
				return fmt.Errorf("RunThreads: err=%v, want ErrUnsupported", err)
			}
			return nil
		})
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
