package nativempi

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"mv2j/internal/cluster"
	"mv2j/internal/fabric"
	"mv2j/internal/faults"
	"mv2j/internal/metrics"
	"mv2j/internal/mpjbuf"
	"mv2j/internal/trace"
	"mv2j/internal/vtime"
)

// faultyWorld builds a world over a fabric carrying the given fault
// plan (attach before NewWorld: the runtime decides at construction
// time whether the reliability sublayer is engaged).
func faultyWorld(nodes, ppn int, plan *faults.Plan, prof Profile) *World {
	topo := cluster.New(nodes, ppn)
	return NewWorld(topo, fabric.Default(topo).WithFaults(plan), prof)
}

func worldStats(w *World) ProcStats {
	var total ProcStats
	for r := 0; r < w.Size(); r++ {
		s := w.Proc(r).Stats()
		total.Retransmits += s.Retransmits
		total.FaultDrops += s.FaultDrops
		total.FaultCorrupts += s.FaultCorrupts
		total.FaultDups += s.FaultDups
		total.FaultDelays += s.FaultDelays
		total.CorruptDrops += s.CorruptDrops
		total.DupDrops += s.DupDrops
		total.AcksSent += s.AcksSent
		total.AcksReceived += s.AcksReceived
		total.PeerFailures += s.PeerFailures
	}
	return total
}

func TestEagerRecoveryUnderDrops(t *testing.T) {
	w := faultyWorld(2, 1, faults.Uniform(99, 0.2), Profile{})
	const msgs = 50
	err := w.Run(func(p *Proc) error {
		c := p.CommWorld()
		if p.Rank() == 0 {
			for i := 0; i < msgs; i++ {
				if err := c.Send(pattern(128, byte(i)), 1, i); err != nil {
					return err
				}
			}
			return nil
		}
		buf := make([]byte, 128)
		for i := 0; i < msgs; i++ {
			st, err := c.Recv(buf, 0, i)
			if err != nil {
				return err
			}
			if st.Tag != i || !bytes.Equal(buf, pattern(128, byte(i))) {
				return fmt.Errorf("message %d corrupted or reordered (tag %d)", i, st.Tag)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st := worldStats(w)
	if st.FaultDrops == 0 || st.Retransmits == 0 {
		t.Fatalf("20%% drop plan injected nothing: %+v", st)
	}
	if st.AcksSent == 0 {
		t.Fatal("no acknowledgements flowed")
	}
}

func TestChecksumRejectsCorruption(t *testing.T) {
	plan := &faults.Plan{
		Seed:  4,
		Intra: faults.Rates{Corrupt: 0.3},
		Inter: faults.Rates{Corrupt: 0.3},
	}
	w := faultyWorld(1, 2, plan, Profile{})
	err := w.Run(func(p *Proc) error {
		c := p.CommWorld()
		if p.Rank() == 0 {
			for i := 0; i < 40; i++ {
				if err := c.Send(pattern(256, byte(i)), 1, i); err != nil {
					return err
				}
			}
			return nil
		}
		buf := make([]byte, 256)
		for i := 0; i < 40; i++ {
			if _, err := c.Recv(buf, 0, i); err != nil {
				return err
			}
			if !bytes.Equal(buf, pattern(256, byte(i))) {
				return fmt.Errorf("corrupted payload reached the application at message %d", i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st := worldStats(w)
	if st.FaultCorrupts == 0 {
		t.Fatal("corruption plan injected nothing")
	}
	if st.CorruptDrops == 0 {
		t.Fatal("no frame was rejected on checksum")
	}
}

func TestTargetedDropRecoveredByRetransmit(t *testing.T) {
	// Drop exactly the 3rd eager message from rank 0 to rank 1; the
	// retransmission recovers it and delivery order is preserved.
	plan := &faults.Plan{
		Seed: 1,
		Targets: []faults.Target{
			{Kind: faults.Drop, Src: 0, Dst: 1, Stream: faults.StreamMatch, Nth: 3},
		},
	}
	w := faultyWorld(1, 2, plan, Profile{})
	err := w.Run(func(p *Proc) error {
		c := p.CommWorld()
		if p.Rank() == 0 {
			for i := 0; i < 5; i++ {
				if err := c.Send(pattern(64, byte(i)), 1, i); err != nil {
					return err
				}
			}
			return nil
		}
		buf := make([]byte, 64)
		for i := 0; i < 5; i++ {
			if _, err := c.Recv(buf, 0, i); err != nil {
				return err
			}
			if !bytes.Equal(buf, pattern(64, byte(i))) {
				return fmt.Errorf("message %d corrupted", i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st := worldStats(w)
	if st.FaultDrops != 1 || st.Retransmits != 1 {
		t.Fatalf("one-shot target should cost exactly one drop and one retransmit, got %+v", st)
	}
}

func TestRendezvousUnderDrops(t *testing.T) {
	w := faultyWorld(2, 1, faults.Uniform(31, 0.1), Profile{})
	msg := pattern(256*1024, 5) // well above the 16K inter-node eager threshold
	err := w.Run(func(p *Proc) error {
		c := p.CommWorld()
		if p.Rank() == 0 {
			return c.Send(msg, 1, 0)
		}
		buf := make([]byte, len(msg))
		if _, err := c.Recv(buf, 0, 0); err != nil {
			return err
		}
		if !bytes.Equal(buf, msg) {
			return fmt.Errorf("rendezvous payload corrupted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRMAUnderDrops(t *testing.T) {
	w := faultyWorld(1, 2, faults.Uniform(77, 0.15), Profile{})
	err := w.Run(func(p *Proc) error {
		c := p.CommWorld()
		window := make([]byte, 512)
		win, err := c.WinCreate(window)
		if err != nil {
			return err
		}
		if p.Rank() == 0 {
			if err := win.Put(pattern(256, 9), 1, 0); err != nil {
				return err
			}
		}
		if err := win.Fence(); err != nil {
			return err
		}
		if p.Rank() == 1 && !bytes.Equal(window[:256], pattern(256, 9)) {
			return fmt.Errorf("put payload corrupted under loss")
		}
		got := make([]byte, 256)
		if p.Rank() == 1 {
			if err := win.Get(got, 0, 0); err != nil {
				return err
			}
		}
		if err := win.Fence(); err != nil {
			return err
		}
		if p.Rank() == 0 {
			copy(window, pattern(512, 3)) // not part of the epoch; just exercise memory
		}
		return win.Free()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAnySourceDuplicateNotMatchedTwice(t *testing.T) {
	// Every transmission is duplicated. A wildcard (ANY_SOURCE,
	// ANY_TAG) receive matches the original; the duplicate must be
	// suppressed by the reliability layer rather than completing the
	// next wildcard receive with a stale copy.
	plan := &faults.Plan{
		Seed:  5,
		Intra: faults.Rates{Duplicate: 1},
		Inter: faults.Rates{Duplicate: 1},
	}
	w := faultyWorld(1, 2, plan, Profile{})
	err := w.Run(func(p *Proc) error {
		c := p.CommWorld()
		if p.Rank() == 1 {
			if err := c.Send(pattern(32, 1), 0, 1); err != nil {
				return err
			}
			return c.Send(pattern(32, 2), 0, 2)
		}
		b1 := make([]byte, 32)
		b2 := make([]byte, 32)
		r1, err := c.Irecv(b1, AnySource, AnyTag)
		if err != nil {
			return err
		}
		st1, err := r1.Wait()
		if err != nil {
			return err
		}
		r2, err := c.Irecv(b2, AnySource, AnyTag)
		if err != nil {
			return err
		}
		st2, err := r2.Wait()
		if err != nil {
			return err
		}
		if st1.Tag == st2.Tag {
			return fmt.Errorf("duplicate matched twice: tags %d and %d", st1.Tag, st2.Tag)
		}
		if !bytes.Equal(b1, pattern(32, byte(st1.Tag))) || !bytes.Equal(b2, pattern(32, byte(st2.Tag))) {
			return fmt.Errorf("wildcard receive payload mismatch")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := worldStats(w); st.DupDrops == 0 {
		t.Fatal("no duplicate was suppressed")
	}
}

func TestWaitanyWaitsomeWithRetransmittedDuplicates(t *testing.T) {
	// Waitany/Waitsome over wildcard receives while the fabric both
	// drops (forcing retransmissions) and duplicates traffic: each
	// posted receive must complete exactly once, with distinct
	// messages.
	plan := &faults.Plan{
		Seed:  21,
		Intra: faults.Rates{Drop: 0.3, Duplicate: 0.5},
		Inter: faults.Rates{Drop: 0.3, Duplicate: 0.5},
	}
	w := faultyWorld(1, 2, plan, Profile{})
	const msgs = 6
	err := w.Run(func(p *Proc) error {
		c := p.CommWorld()
		if p.Rank() == 1 {
			for i := 0; i < msgs; i++ {
				if err := c.Send(pattern(48, byte(i)), 0, i); err != nil {
					return err
				}
			}
			return nil
		}
		bufs := make([][]byte, msgs)
		reqs := make([]*Request, msgs)
		for i := range reqs {
			bufs[i] = make([]byte, 48)
			r, err := c.Irecv(bufs[i], AnySource, AnyTag)
			if err != nil {
				return err
			}
			reqs[i] = r
		}
		seen := map[int]bool{}
		// Half through Waitany, the rest through Waitsome.
		for len(seen) < msgs/2 {
			i, st, err := Waitany(reqs)
			if err != nil {
				return err
			}
			if seen[st.Tag] {
				return fmt.Errorf("tag %d completed twice (req %d)", st.Tag, i)
			}
			seen[st.Tag] = true
		}
		for len(seen) < msgs {
			idxs, err := Waitsome(reqs)
			if err != nil {
				return err
			}
			for _, i := range idxs {
				tag := reqs[i].status.Tag
				if seen[tag] {
					return fmt.Errorf("tag %d completed twice (req %d)", tag, i)
				}
				seen[tag] = true
			}
		}
		// Posted receives match in FIFO order against the sender's
		// program order, so request i holds message i.
		for i := range reqs {
			if !bytes.Equal(bufs[i], pattern(48, byte(i))) {
				return fmt.Errorf("request %d payload mismatch", i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllDropsEscalateToAbort(t *testing.T) {
	// A fully black-holed fabric must abort the job through the
	// peer-failure path, not deadlock it.
	w := faultyWorld(2, 1, faults.Uniform(8, 1.0), Profile{})
	err := w.Run(func(p *Proc) error {
		c := p.CommWorld()
		if p.Rank() == 0 {
			return c.Send(pattern(64, 1), 1, 0)
		}
		buf := make([]byte, 64)
		_, err := c.Recv(buf, 0, 0)
		return err
	})
	if err == nil {
		t.Fatal("black-holed fabric did not abort")
	}
	if !strings.Contains(err.Error(), "unreachable") {
		t.Fatalf("abort reason should name the unreachable peer, got: %v", err)
	}
	if st := worldStats(w); st.PeerFailures == 0 {
		t.Fatal("peer-failure counter not bumped")
	}
}

func TestFaultyRunsDeterministic(t *testing.T) {
	// Identical seeds must give identical virtual end times, message
	// counts, and fault counters across runs — regardless of host
	// goroutine scheduling.
	run := func() (vtime.Time, ProcStats) {
		w := faultyWorld(2, 2, faults.Uniform(2024, 0.1), Profile{})
		err := w.Run(func(p *Proc) error {
			c := p.CommWorld()
			buf := make([]byte, 4096)
			for i := 0; i < 10; i++ {
				if err := c.Bcast(buf, 0); err != nil {
					return err
				}
				if err := c.Barrier(); err != nil {
					return err
				}
			}
			right := (p.Rank() + 1) % c.Size()
			left := (p.Rank() + c.Size() - 1) % c.Size()
			_, err := c.Sendrecv(pattern(512, 1), right, 0, buf[:512], left, 0)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return w.MaxClock(), worldStats(w)
	}
	t1, s1 := run()
	t2, s2 := run()
	if t1 != t2 {
		t.Fatalf("virtual end time differs across runs: %v vs %v", t1, t2)
	}
	if s1 != s2 {
		t.Fatalf("fault counters differ across runs:\n%+v\nvs\n%+v", s1, s2)
	}
}

// framedStreamSizes are the payloads TestFramedStreamUnderEveryFault
// streams: 1 B, 1000 B, and around every wire-pool class from 64 B to
// 128 KiB the exact power of two plus the two payloads whose frame
// (RelHeaderSize bytes longer) exactly fills the class or spills one
// byte into the next. Both eager thresholds (8 KiB shm, 16 KiB network)
// lie inside the range, so eager frames and framed rendezvous DATA both
// cross every boundary.
func framedStreamSizes() []int {
	sizes := []int{1, 1000}
	for k := 6; k <= 17; k++ {
		sizes = append(sizes, 1<<k, 1<<k-mpjbuf.RelHeaderSize, 1<<k-mpjbuf.RelHeaderSize+1)
	}
	return sizes
}

// runFramedStream has the two ranks of w exchange one message per size
// (both directions at once, so one side's eager copy often lands
// unexpected), validates every payload, and captures the deterministic
// artifacts: a per-rank SHA-256 over everything received, final clocks,
// trace JSONL and metrics JSON.
func runFramedStream(w *World, sizes []int) (zcArtifacts, error) {
	rec := trace.New(0)
	met := metrics.NewRegistry()
	w.SetRecorder(rec)
	w.SetMetrics(met)
	a := zcArtifacts{recvs: make([][]byte, 2), clocks: make([]vtime.Time, 2)}
	err := w.Run(func(p *Proc) error {
		c := p.CommWorld()
		me, peer := p.Rank(), 1-p.Rank()
		digest := sha256.New()
		for i, n := range sizes {
			sreq, err := c.Isend(pattern(n, byte(me*64+i)), peer, i)
			if err != nil {
				return err
			}
			buf := make([]byte, n)
			rreq, err := c.Irecv(buf, peer, i)
			if err != nil {
				return err
			}
			if _, err := sreq.Wait(); err != nil {
				return err
			}
			if _, err := rreq.Wait(); err != nil {
				return err
			}
			if !bytes.Equal(buf, pattern(n, byte(peer*64+i))) {
				return fmt.Errorf("rank %d: %d-byte payload corrupted", me, n)
			}
			digest.Write(buf)
		}
		a.recvs[me] = digest.Sum(nil)
		a.clocks[me] = p.Clock().Now()
		return nil
	})
	if err != nil {
		return a, err
	}
	return a, a.export(w, rec, met)
}

// TestFramedStreamUnderEveryFault streams payloads around every wire
// pool class boundary through the reliability framing while the fabric
// drops, corrupts, duplicates and delays, first cold and then again in
// the same process after a world of heavy corrupt and duplicate traffic
// has left the pools full of dirty buffers. Every artifact must match:
// a frame that inherited a stale byte (the reserved byte, the checksum
// field) or a duplicate that shared its original's frame would be
// rejected, misdelivered, or recycled twice, and show up here.
func TestFramedStreamUnderEveryFault(t *testing.T) {
	every := faults.Rates{Drop: 0.05, Corrupt: 0.1, Duplicate: 0.1, Delay: 0.1}
	plan := &faults.Plan{Seed: 30, Intra: every, Inter: every}
	noisy := faults.Rates{Corrupt: 0.5, Duplicate: 0.5}
	dirty := &faults.Plan{Seed: 31, Intra: noisy, Inter: noisy}
	sizes := framedStreamSizes()
	for _, sh := range []struct{ nodes, ppn int }{{1, 2}, {2, 1}} {
		sh := sh
		t.Run(fmt.Sprintf("%dx%d", sh.nodes, sh.ppn), func(t *testing.T) {
			w := faultyWorld(sh.nodes, sh.ppn, plan, Profile{})
			cold, err := runFramedStream(w, sizes)
			if err != nil {
				t.Fatal(err)
			}
			st := worldStats(w)
			if st.FaultDrops == 0 || st.FaultCorrupts == 0 || st.FaultDups == 0 || st.FaultDelays == 0 ||
				st.CorruptDrops == 0 || st.DupDrops == 0 {
				t.Fatalf("fault plan left a path unexercised: %+v", st)
			}
			if cold.host.Copy.FramedRndv == 0 {
				t.Fatal("no rendezvous took the framed leg")
			}
			if _, err := runFramedStream(faultyWorld(sh.nodes, sh.ppn, dirty, Profile{}), sizes); err != nil {
				t.Fatal(err)
			}
			warm, err := runFramedStream(faultyWorld(sh.nodes, sh.ppn, plan, Profile{}), sizes)
			if err != nil {
				t.Fatal(err)
			}
			assertSameArtifacts(t, cold, warm)
		})
	}
}

func TestZeroRatePlanStillChecksums(t *testing.T) {
	// Engaged-but-clean reliability: frames flow with headers and
	// checksums, nothing is dropped, and payloads survive exactly.
	w := faultyWorld(1, 2, faults.Uniform(1, 0), Profile{})
	err := w.Run(func(p *Proc) error {
		c := p.CommWorld()
		if p.Rank() == 0 {
			return c.Send(pattern(1024, 7), 1, 0)
		}
		buf := make([]byte, 1024)
		if _, err := c.Recv(buf, 0, 0); err != nil {
			return err
		}
		if !bytes.Equal(buf, pattern(1024, 7)) {
			return fmt.Errorf("payload corrupted on clean reliable path")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st := worldStats(w)
	if st.AcksSent == 0 {
		t.Fatal("reliability layer not engaged under zero-rate plan")
	}
	if st.FaultDrops != 0 || st.Retransmits != 0 || st.CorruptDrops != 0 {
		t.Fatalf("zero-rate plan injected faults: %+v", st)
	}
}
