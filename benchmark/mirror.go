package main

import (
	"fmt"
	"time"

	"mv2j/internal/cluster"
	"mv2j/internal/core"
	"mv2j/internal/fabric"
	"mv2j/internal/jvm"
	"mv2j/internal/nativempi"
	"mv2j/internal/vtime"
)

// depth is how much of the stack a mirror run drives, as in the paper's
// Fig. 11: the native library alone, the bindings over direct
// ByteBuffers, the bindings over Java arrays (which adds the staging
// copies). Differencing the same loop at adjacent depths assigns time to
// the layer in between.
type depth int

const (
	depthNative depth = iota
	depthBuffer
	depthArrays
)

func (d depth) String() string { return [...]string{"native", "buffer", "arrays"}[d] }

const (
	mirrorTagData = 1
	mirrorTagAck  = 2
)

// mirrorRun is what one mirror world measured.
type mirrorRun struct {
	Wall     time.Duration // Run called -> Run returned
	Setup    time.Duration // Run called -> every rank main entered
	Teardown time.Duration // last rank main returned -> Run returned
	Loop     time.Duration // rank 0's message loop
	Bytes    int64         // payload bytes the rank mains handed to send and collective calls
	VirtUs   float64       // rank 0's virtual microseconds per message, mean over sizes
	Host     nativempi.HostStats
	WorldID  int // the world's span, 0 when untraced
}

// mbuf is a payload container at one depth.
type mbuf struct {
	raw []byte // native depth
	obj any    // *jvm.ByteBuffer or jvm.Array
}

// rankEnv adapts one rank to the depth, wrapping every call the mirror
// makes across a layer boundary in a call span.
type rankEnv struct {
	d  depth
	m  *core.MPI // nil at native depth
	p  *nativempi.Proc
	tr *rankTracer
}

func (e rankEnv) newBuf(n int) (mbuf, error) {
	var b mbuf
	switch e.d {
	case depthNative:
		b.raw = make([]byte, n)
		return b, nil
	case depthBuffer:
		return b, e.tr.call("jvm", "AllocateDirect", n, func() error {
			bb, err := e.m.JVM().AllocateDirect(n)
			b.obj = bb
			return err
		})
	default:
		return b, e.tr.call("jvm", "NewArray", n, func() error {
			arr, err := e.m.JVM().NewArray(jvm.Byte, n)
			b.obj = arr
			return err
		})
	}
}

func (e rankEnv) send(b mbuf, n, dst, tag int) error {
	if e.d == depthNative {
		return e.tr.call("nativempi", "Send", n, func() error { return e.p.CommWorld().Send(b.raw[:n], dst, tag) })
	}
	return e.tr.call("core", "Send", n, func() error { return e.m.CommWorld().Send(b.obj, n, core.BYTE, dst, tag) })
}

func (e rankEnv) recv(b mbuf, n, src, tag int) error {
	if e.d == depthNative {
		return e.tr.call("nativempi", "Recv", n, func() error {
			_, err := e.p.CommWorld().Recv(b.raw[:n], src, tag)
			return err
		})
	}
	return e.tr.call("core", "Recv", n, func() error {
		_, err := e.m.CommWorld().Recv(b.obj, n, core.BYTE, src, tag)
		return err
	})
}

// waiter is an in-flight non-blocking operation at either depth.
type waiter struct {
	nat *nativempi.Request
	jav *core.Request
}

func (e rankEnv) isend(b mbuf, n, dst, tag int) (waiter, error) {
	var w waiter
	if e.d == depthNative {
		return w, e.tr.call("nativempi", "Isend", n, func() (err error) {
			w.nat, err = e.p.CommWorld().Isend(b.raw[:n], dst, tag)
			return err
		})
	}
	return w, e.tr.call("core", "Isend", n, func() (err error) {
		w.jav, err = e.m.CommWorld().Isend(b.obj, n, core.BYTE, dst, tag)
		return err
	})
}

func (e rankEnv) irecv(b mbuf, n, src, tag int) (waiter, error) {
	var w waiter
	if e.d == depthNative {
		return w, e.tr.call("nativempi", "Irecv", n, func() (err error) {
			w.nat, err = e.p.CommWorld().Irecv(b.raw[:n], src, tag)
			return err
		})
	}
	return w, e.tr.call("core", "Irecv", n, func() (err error) {
		w.jav, err = e.m.CommWorld().Irecv(b.obj, n, core.BYTE, src, tag)
		return err
	})
}

func (e rankEnv) wait(w waiter, n int) error {
	if w.nat != nil {
		return e.tr.call("nativempi", "Wait", n, func() error { _, err := w.nat.Wait(); return err })
	}
	return e.tr.call("core", "Wait", n, func() error { _, err := w.jav.Wait(); return err })
}

func (e rankEnv) barrier() error {
	if e.d == depthNative {
		return e.tr.call("nativempi", "Barrier", 0, func() error { return e.p.CommWorld().Barrier() })
	}
	return e.tr.call("core", "Barrier", 0, func() error { return e.m.CommWorld().Barrier() })
}

func (e rankEnv) allreduce(s, r mbuf, n int) error {
	if e.d == depthNative {
		return e.tr.call("nativempi", "Allreduce", n, func() error {
			return e.p.CommWorld().Allreduce(s.raw[:n], r.raw[:n], jvm.Byte, core.SUM)
		})
	}
	return e.tr.call("core", "Allreduce", n, func() error {
		return e.m.CommWorld().Allreduce(s.obj, r.obj, n, core.BYTE, core.SUM)
	})
}

// loopStats is what rank 0's message loop reports.
type loopStats struct {
	wall   time.Duration
	virtUs float64 // virtual microseconds per message, mean over sizes
	bytes  int64   // payload this rank handed to send and collective calls
}

// mirrorMain runs the plan's loop on one rank: a mirror of the OMB-J
// loops of the same name, written against rankEnv.
func mirrorMain(e rankEnv, plan mirrorPlan) (loopStats, error) {
	var st loopStats
	np, me := e.p.World().Size(), e.p.CommWorld().Rank()
	maxSize := plan.Sizes[len(plan.Sizes)-1]
	pairs := np / 2
	sbuf, err := e.newBuf(maxSize)
	if err != nil {
		return st, err
	}
	rbuf, err := e.newBuf(maxSize)
	if err != nil {
		return st, err
	}
	ack, err := e.newBuf(4)
	if err != nil {
		return st, err
	}
	// Messages rank 0's clock sees per iteration: a round trip is two, a
	// window is Window, a collective call counts as one.
	perIter := 1
	switch plan.Kind {
	case mirrorPingPong:
		perIter = 2
	case mirrorStream:
		perIter = plan.Window
	}
	loopStart := time.Now()
	var virt []float64
	ws := make([]waiter, 0, plan.Window)
	for _, size := range plan.Sizes {
		var sw vtime.Stopwatch
		for i := -plan.Warmup; i < plan.Iters; i++ {
			if i == 0 {
				sw = vtime.StartStopwatch(e.p.Clock())
			}
			var err error
			switch {
			case plan.Kind == mirrorAllreduce:
				st.bytes += int64(size)
				err = e.allreduce(sbuf, rbuf, size)
			case plan.Kind == mirrorPingPong && me == 0:
				st.bytes += int64(size)
				if err = e.send(sbuf, size, 1, mirrorTagData); err == nil {
					err = e.recv(rbuf, size, 1, mirrorTagData)
				}
			case plan.Kind == mirrorPingPong && me == 1:
				st.bytes += int64(size)
				if err = e.recv(rbuf, size, 0, mirrorTagData); err == nil {
					err = e.send(sbuf, size, 0, mirrorTagData)
				}
			case plan.Kind == mirrorStream:
				if me < pairs {
					st.bytes += int64(size) * int64(plan.Window)
				}
				ws, err = streamWindow(e, plan, ws[:0], sbuf, rbuf, ack, size, me, pairs)
			}
			if err != nil {
				return st, err
			}
		}
		if plan.Iters > 0 {
			virt = append(virt, sw.Elapsed().Micros()/float64(plan.Iters*perIter))
		}
		if err := e.barrier(); err != nil {
			return st, err
		}
	}
	st.wall = time.Since(loopStart)
	st.virtUs = mean(virt)
	return st, nil
}

// streamWindow is one osu_bw iteration: the first half of the ranks
// stream a window of non-blocking sends to their partner in the second
// half, which acknowledges the window.
func streamWindow(e rankEnv, plan mirrorPlan, ws []waiter, sbuf, rbuf, ack mbuf, size, me, pairs int) ([]waiter, error) {
	sender := me < pairs
	partner := (me + pairs) % (2 * pairs)
	for k := 0; k < plan.Window; k++ {
		var w waiter
		var err error
		if sender {
			w, err = e.isend(sbuf, size, partner, mirrorTagData)
		} else {
			w, err = e.irecv(rbuf, size, partner, mirrorTagData)
		}
		if err != nil {
			return ws, err
		}
		ws = append(ws, w)
	}
	for _, w := range ws {
		if err := e.wait(w, size); err != nil {
			return ws, err
		}
	}
	if sender {
		return ws, e.recv(ack, 4, partner, mirrorTagAck)
	}
	return ws, e.send(ack, 4, partner, mirrorTagAck)
}

// jvmBytes mirrors omb's heap sizing rule (it is not exported): eight
// times the payload plus a floor that splits a 512 MiB budget across
// wide jobs, between 512 KiB and 16 MiB per rank.
func jvmBytes(np, payload int) int {
	floor := 16 << 20
	if np > 0 {
		floor = max(min(floor, (512<<20)/np), 512<<10)
	}
	return 8*payload + floor
}

// payloadFor is the payload each omb suite hands to that sizing rule.
func payloadFor(s step) int {
	o := s.Cfg.Opts
	window, threads := o.Window, o.Threads
	if window <= 0 {
		window = 64
	}
	if threads <= 0 {
		threads = 4
	}
	switch s.Bench {
	case "bw":
		return (window/4 + 2) * o.MaxSize
	case "mr-mt":
		return (window/4 + 2) * o.MaxSize * threads
	case "kvservice":
		return (4*window + 2*(s.Cfg.Core.Nodes*s.Cfg.Core.PPN+2)) * 32 * threads
	case "ddt-pack":
		return 2 * o.MaxSize
	default:
		return o.MaxSize
	}
}

// runMirror runs the plan once at one depth. tr == nil runs it untraced.
func runMirror(plan mirrorPlan, d depth, tr *tracer, parent, op int) (mirrorRun, error) {
	var run mirrorRun
	np := plan.Nodes * plan.PPN
	if plan.Kind != mirrorAllreduce && np%2 != 0 {
		return run, fmt.Errorf("mirror needs an even rank count, got %d", np)
	}
	entered := make([]time.Time, np)
	left := make([]time.Time, np)
	var loop loopStats
	sent := make([]int64, np)
	worldID := 0
	if tr != nil {
		worldID = tr.begin(parent, "world-"+d.String(), "bench", op, -1)
	}
	rankMain := func(e rankEnv) error {
		me := e.p.CommWorld().Rank()
		entered[me] = time.Now() // first statement: the world is set up for this rank
		defer func() { left[me] = time.Now() }()
		if tr != nil {
			id := tr.begin(worldID, "rank-main", "bench", op, me)
			e.tr = tr.forRank(id, op, me)
			defer func() { e.tr.flush(); tr.end(id) }()
		}
		st, err := mirrorMain(e, plan)
		sent[me] = st.bytes
		if me == 0 {
			loop = st
		}
		return err
	}

	payload := plan.Sizes[len(plan.Sizes)-1]
	if plan.Kind == mirrorStream {
		payload *= plan.Window/4 + 2
	}
	start := time.Now()
	var err error
	if d == depthNative {
		topo := cluster.NewMapped(plan.Nodes, plan.PPN, cluster.Block)
		fab := fabric.New(topo, plan.Intra, plan.Inter)
		if plan.Faults != nil {
			fab.WithFaults(plan.Faults)
		}
		world := nativempi.NewWorld(topo, fab, plan.Lib)
		err = world.Run(func(p *nativempi.Proc) error { return rankMain(rankEnv{d: d, p: p}) })
		run.Host = world.HostStats()
	} else {
		cfg := core.Config{
			Nodes: plan.Nodes, PPN: plan.PPN, Lib: plan.Lib, Flavor: core.MVAPICH2J,
			HeapSize: jvmBytes(np, payload), ArenaSize: jvmBytes(np, payload),
			Intra: &plan.Intra, Inter: &plan.Inter, Faults: plan.Faults, HostStats: &run.Host,
		}
		err = core.Run(cfg, func(m *core.MPI) error { return rankMain(rankEnv{d: d, m: m, p: m.Proc()}) })
	}
	end := time.Now()
	if tr != nil {
		tr.end(worldID)
	}
	if err != nil {
		return run, fmt.Errorf("mirror at %s depth: %w", d, err)
	}
	lastIn, lastOut := start, start
	for i := range entered {
		if entered[i].After(lastIn) {
			lastIn = entered[i]
		}
		if left[i].After(lastOut) {
			lastOut = left[i]
		}
	}
	run.Wall = end.Sub(start)
	run.Setup = lastIn.Sub(start)
	run.Teardown = end.Sub(lastOut)
	run.Loop = loop.wall
	run.VirtUs = loop.virtUs
	for _, b := range sent {
		run.Bytes += b
	}
	run.WorldID = worldID
	return run, nil
}
