package nativempi

import (
	"bytes"
	"errors"
	"testing"

	"mv2j/internal/cluster"
	"mv2j/internal/fabric"
	"mv2j/internal/jvm"
	"mv2j/internal/vtime"
)

// testWorld builds a world with the generic profile.
func testWorld(nodes, ppn int) *World {
	topo := cluster.New(nodes, ppn)
	return NewWorld(topo, fabric.Default(topo), Profile{})
}

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i*7)
	}
	return b
}

func TestBlockingSendRecvEager(t *testing.T) {
	w := testWorld(1, 2)
	msg := pattern(64, 3)
	err := w.Run(func(p *Proc) error {
		c := p.CommWorld()
		switch p.Rank() {
		case 0:
			return c.Send(msg, 1, 7)
		default:
			buf := make([]byte, 64)
			st, err := c.Recv(buf, 0, 7)
			if err != nil {
				return err
			}
			if !bytes.Equal(buf, msg) {
				t.Error("payload corrupted")
			}
			if st.Source != 0 || st.Tag != 7 || st.Bytes != 64 {
				t.Errorf("status = %+v", st)
			}
			return nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBlockingSendRecvRendezvous(t *testing.T) {
	w := testWorld(2, 1) // inter-node, eager threshold 16K
	msg := pattern(256*1024, 9)
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
			t.Error("rendezvous payload corrupted")
		}
		if p.Stats().MsgsReceived != 1 {
			t.Errorf("MsgsReceived = %d", p.Stats().MsgsReceived)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.Proc(0).Stats().RndvSends != 1 || w.Proc(0).Stats().EagerSends != 0 {
		t.Fatalf("protocol selection wrong: %+v", w.Proc(0).Stats())
	}
}

// TestRendezvousAlignedSenderIDs: request ids are a per-rank counter,
// so two senders in their first rendezvous carry the same id. With
// both transfers pending at one receiver, the pending-receive table
// must key by (source, id) — keyed by id alone, the entries collide:
// the first DATA completes the wrong request and the second panics
// with "DATA for unknown request".
func TestRendezvousAlignedSenderIDs(t *testing.T) {
	w := testWorld(3, 1) // inter-node, so 256 KiB goes rendezvous
	msgs := [3][]byte{nil, pattern(256*1024, 1), pattern(256*1024, 2)}
	err := w.Run(func(p *Proc) error {
		c := p.CommWorld()
		if p.Rank() != 0 {
			r, err := c.Isend(msgs[p.Rank()], 0, 5)
			if err != nil {
				return err
			}
			_, err = r.Wait()
			return err
		}
		bufs := [2][]byte{make([]byte, 256*1024), make([]byte, 256*1024)}
		reqs := make([]*Request, 2)
		// Post both receives before waiting so both rendezvous are
		// in flight — and in recvPending — at the same time.
		for i, src := range []int{1, 2} {
			r, err := c.Irecv(bufs[i], src, 5)
			if err != nil {
				return err
			}
			reqs[i] = r
		}
		if err := Waitall(reqs); err != nil {
			return err
		}
		for i, src := range []int{1, 2} {
			if !bytes.Equal(bufs[i], msgs[src]) {
				t.Errorf("payload from rank %d corrupted", src)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Proc(1).Stats().RndvSends; got != 1 {
		t.Fatalf("sender 1 should have gone rendezvous: %+v", w.Proc(1).Stats())
	}
}

func TestEagerProtocolSelected(t *testing.T) {
	w := testWorld(2, 1)
	err := w.Run(func(p *Proc) error {
		c := p.CommWorld()
		if p.Rank() == 0 {
			return c.Send(make([]byte, 1024), 1, 0)
		}
		_, err := c.Recv(make([]byte, 1024), 0, 0)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.Proc(0).Stats().EagerSends != 1 {
		t.Fatalf("1KB inter-node should be eager: %+v", w.Proc(0).Stats())
	}
}

func TestNonBlockingWaitall(t *testing.T) {
	w := testWorld(1, 2)
	const k = 16
	err := w.Run(func(p *Proc) error {
		c := p.CommWorld()
		if p.Rank() == 0 {
			reqs := make([]*Request, k)
			for i := 0; i < k; i++ {
				r, err := c.Isend(pattern(128, byte(i)), 1, i)
				if err != nil {
					return err
				}
				reqs[i] = r
			}
			return Waitall(reqs)
		}
		reqs := make([]*Request, k)
		bufs := make([][]byte, k)
		for i := 0; i < k; i++ {
			bufs[i] = make([]byte, 128)
			r, err := c.Irecv(bufs[i], 0, i)
			if err != nil {
				return err
			}
			reqs[i] = r
		}
		if err := Waitall(reqs); err != nil {
			return err
		}
		for i := 0; i < k; i++ {
			if !bytes.Equal(bufs[i], pattern(128, byte(i))) {
				t.Errorf("message %d corrupted", i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMessageOrderingSameTag(t *testing.T) {
	// Non-overtaking: two same-tag messages must arrive in send order.
	w := testWorld(1, 2)
	err := w.Run(func(p *Proc) error {
		c := p.CommWorld()
		if p.Rank() == 0 {
			if err := c.Send([]byte{1}, 1, 5); err != nil {
				return err
			}
			return c.Send([]byte{2}, 1, 5)
		}
		a := make([]byte, 1)
		b := make([]byte, 1)
		if _, err := c.Recv(a, 0, 5); err != nil {
			return err
		}
		if _, err := c.Recv(b, 0, 5); err != nil {
			return err
		}
		if a[0] != 1 || b[0] != 2 {
			t.Errorf("overtaking: got %d then %d", a[0], b[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAnySourceAnyTag(t *testing.T) {
	w := testWorld(1, 3)
	err := w.Run(func(p *Proc) error {
		c := p.CommWorld()
		switch p.Rank() {
		case 0:
			got := map[int]bool{}
			for i := 0; i < 2; i++ {
				buf := make([]byte, 4)
				st, err := c.Recv(buf, AnySource, AnyTag)
				if err != nil {
					return err
				}
				got[st.Source] = true
				if st.Tag != st.Source*10 {
					t.Errorf("tag %d from source %d", st.Tag, st.Source)
				}
			}
			if !got[1] || !got[2] {
				t.Errorf("wildcard receive missed a source: %v", got)
			}
			return nil
		default:
			return c.Send(pattern(4, 0), 0, p.Rank()*10)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTruncation(t *testing.T) {
	w := testWorld(1, 2)
	err := w.Run(func(p *Proc) error {
		c := p.CommWorld()
		if p.Rank() == 0 {
			return c.Send(make([]byte, 100), 1, 0)
		}
		buf := make([]byte, 10)
		_, err := c.Recv(buf, 0, 0)
		if !errors.Is(err, ErrTruncated) {
			t.Errorf("err = %v, want ErrTruncated", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestValidationErrors(t *testing.T) {
	w := testWorld(1, 2)
	err := w.Run(func(p *Proc) error {
		c := p.CommWorld()
		if _, err := c.Isend(nil, 5, 0); !errors.Is(err, ErrRank) {
			t.Errorf("bad rank: %v", err)
		}
		if _, err := c.Isend(nil, 0, -3); !errors.Is(err, ErrTag) {
			t.Errorf("bad tag: %v", err)
		}
		if _, err := c.Irecv(nil, 9, 0); !errors.Is(err, ErrRank) {
			t.Errorf("bad recv rank: %v", err)
		}
		if _, err := c.Irecv(nil, 0, -2); !errors.Is(err, ErrTag) {
			t.Errorf("bad recv tag: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendrecvExchange(t *testing.T) {
	w := testWorld(1, 2)
	err := w.Run(func(p *Proc) error {
		c := p.CommWorld()
		other := 1 - p.Rank()
		out := pattern(2048, byte(p.Rank()))
		in := make([]byte, 2048)
		if p.Rank() == 0 {
			// A bad leg must fail before anything is posted: a receive
			// left behind would swallow the peer's message into orphan
			// and the corrected retry below would deadlock.
			orphan := make([]byte, 2048)
			for _, bad := range []struct {
				dst, sendTag, src, recvTag int
				want                       error
			}{
				{7, 1, other, 1, ErrRank},
				{other, -3, other, 1, ErrTag},
				{other, 1, 7, 1, ErrRank},
				{other, 1, other, -5, ErrTag},
			} {
				if _, err := c.Sendrecv(out, bad.dst, bad.sendTag, orphan, bad.src, bad.recvTag); !errors.Is(err, bad.want) {
					t.Errorf("Sendrecv%+v: got %v, want %v", bad, err, bad.want)
				}
			}
			if p.posted.pending() != 0 {
				t.Errorf("rank 0: %d receives still posted after rejected Sendrecv calls", p.posted.pending())
			}
			defer func() {
				if !bytes.Equal(orphan, make([]byte, 2048)) {
					t.Error("a rejected Sendrecv's buffer received the peer's message")
				}
			}()
		}
		if _, err := c.Sendrecv(out, other, 1, in, other, 1); err != nil {
			return err
		}
		if !bytes.Equal(in, pattern(2048, byte(other))) {
			t.Errorf("rank %d: exchange corrupted", p.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLargeSendrecvBothDirections(t *testing.T) {
	// Simultaneous rendezvous in both directions must not deadlock
	// when posted via Sendrecv.
	w := testWorld(2, 1)
	err := w.Run(func(p *Proc) error {
		c := p.CommWorld()
		other := 1 - p.Rank()
		out := pattern(1<<20, byte(p.Rank()+1))
		in := make([]byte, 1<<20)
		if _, err := c.Sendrecv(out, other, 0, in, other, 0); err != nil {
			return err
		}
		if !bytes.Equal(in, pattern(1<<20, byte(other+1))) {
			t.Errorf("rank %d: large exchange corrupted", p.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestProbe(t *testing.T) {
	w := testWorld(1, 2)
	err := w.Run(func(p *Proc) error {
		c := p.CommWorld()
		if p.Rank() == 0 {
			return c.Send(make([]byte, 48), 1, 3)
		}
		st, err := c.Probe(0, 3)
		if err != nil {
			return err
		}
		if st.Bytes != 48 || st.Source != 0 || st.Tag != 3 {
			t.Errorf("probe status %+v", st)
		}
		// The message is still there to receive.
		buf := make([]byte, 48)
		_, err = c.Recv(buf, 0, 3)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIprobeMiss(t *testing.T) {
	w := testWorld(1, 2)
	err := w.Run(func(p *Proc) error {
		c := p.CommWorld()
		if p.Rank() == 1 {
			if _, ok, err := c.Iprobe(0, 99); err != nil || ok {
				t.Errorf("Iprobe hit nothing-sent: ok=%v err=%v", ok, err)
			}
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRequestNilSafety(t *testing.T) {
	var r *Request
	if _, err := r.Wait(); !errors.Is(err, ErrRequest) {
		t.Fatalf("nil Wait: %v", err)
	}
	if _, _, err := r.Test(); !errors.Is(err, ErrRequest) {
		t.Fatalf("nil Test: %v", err)
	}
}

func TestStatusCount(t *testing.T) {
	st := Status{Bytes: 32}
	if n, err := st.Count(kindInt()); err != nil || n != 8 {
		t.Fatalf("Count = %d, %v", n, err)
	}
	st.Bytes = 33
	if _, err := st.Count(kindInt()); err == nil {
		t.Fatal("non-multiple byte count must error")
	}
}

// --- virtual-time behaviour ---

func pingPongLatency(t *testing.T, w *World, n int) vtime.Duration {
	t.Helper()
	var lat vtime.Duration
	err := w.Run(func(p *Proc) error {
		c := p.CommWorld()
		buf := make([]byte, n)
		const iters = 10
		if p.Rank() == 0 {
			sw := vtime.StartStopwatch(p.Clock())
			for i := 0; i < iters; i++ {
				if err := c.Send(buf, 1, 0); err != nil {
					return err
				}
				if _, err := c.Recv(buf, 1, 0); err != nil {
					return err
				}
			}
			lat = vtime.Duration(int64(sw.Elapsed()) / (2 * iters))
			return nil
		}
		for i := 0; i < iters; i++ {
			if _, err := c.Recv(buf, 0, 0); err != nil {
				return err
			}
			if err := c.Send(buf, 0, 0); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return lat
}

func TestIntraNodeFasterThanInterNode(t *testing.T) {
	intra := pingPongLatency(t, testWorld(1, 2), 8)
	inter := pingPongLatency(t, testWorld(2, 1), 8)
	if intra >= inter {
		t.Fatalf("intra %v should beat inter %v for small messages", intra, inter)
	}
	if inter < vtime.Micros(0.5) || inter > vtime.Micros(3) {
		t.Fatalf("native inter-node small latency %v outside [0.5us,3us]", inter)
	}
}

func TestLatencyGrowsWithSize(t *testing.T) {
	small := pingPongLatency(t, testWorld(2, 1), 8)
	large := pingPongLatency(t, testWorld(2, 1), 1<<20)
	if large < 10*small {
		t.Fatalf("1MB latency %v should dwarf 8B latency %v", large, small)
	}
	// 1MB at 12.5 GB/s is ~84us of pure wire time, one way.
	if large < vtime.Micros(80) {
		t.Fatalf("1MB latency %v below wire time", large)
	}
}

func TestDeterministicTimes(t *testing.T) {
	// The same workload must produce bit-identical virtual times on
	// every run, whatever the host scheduler does.
	run := func() vtime.Duration { return pingPongLatency(t, testWorld(2, 1), 4096) }
	first := run()
	for i := 0; i < 5; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d: latency %v != %v — simulation is non-deterministic", i, got, first)
		}
	}
}

func TestBandwidthSaturation(t *testing.T) {
	// A windowed stream of large messages must approach the link
	// bandwidth (12.5 GB/s inter-node), not exceed it.
	w := testWorld(2, 1)
	const (
		msg    = 1 << 20
		window = 32
	)
	var mbps float64
	err := w.Run(func(p *Proc) error {
		c := p.CommWorld()
		if p.Rank() == 0 {
			buf := make([]byte, msg)
			sw := vtime.StartStopwatch(p.Clock())
			reqs := make([]*Request, window)
			for i := range reqs {
				r, err := c.Isend(buf, 1, 0)
				if err != nil {
					return err
				}
				reqs[i] = r
			}
			if err := Waitall(reqs); err != nil {
				return err
			}
			ack := make([]byte, 1)
			if _, err := c.Recv(ack, 1, 1); err != nil {
				return err
			}
			elapsed := sw.Elapsed().Seconds()
			mbps = float64(msg) * window / elapsed / 1e6
			return nil
		}
		buf := make([]byte, msg)
		reqs := make([]*Request, window)
		for i := range reqs {
			r, err := c.Irecv(buf, 0, 0)
			if err != nil {
				return err
			}
			reqs[i] = r
		}
		if err := Waitall(reqs); err != nil {
			return err
		}
		return c.Send(make([]byte, 1), 0, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if mbps > 12500 {
		t.Fatalf("measured %0.f MB/s exceeds the 12500 MB/s link", mbps)
	}
	if mbps < 8000 {
		t.Fatalf("measured %0.f MB/s; windowed large messages should approach link rate", mbps)
	}
}

func TestUnexpectedMessageCopyCost(t *testing.T) {
	// A message that hit the wire before the receive was posted sat in
	// a bounce buffer and pays an extra copy at Recv time — so the
	// Recv-call cost of an already-queued message must grow with its
	// size at roughly the channel copy rate.
	lateRecvCost := func(n int) vtime.Duration {
		w := testWorld(1, 2)
		var cost vtime.Duration
		err := w.Run(func(p *Proc) error {
			c := p.CommWorld()
			if p.Rank() == 0 {
				return c.Send(make([]byte, n), 1, 0)
			}
			// Stall in virtual time so the message is certainly on the
			// unexpected queue (in virtual terms) before posting.
			p.Clock().Advance(vtime.Micros(500))
			sw := vtime.StartStopwatch(p.Clock())
			buf := make([]byte, n)
			if _, err := c.Recv(buf, 0, 0); err != nil {
				return err
			}
			cost = sw.Elapsed()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return cost
	}
	small := lateRecvCost(64)
	big := lateRecvCost(8192)
	grow := big - small
	wire := vtime.PerByte(8192-64, fabric.FronteraShm().Bandwidth)
	if grow < wire*9/10 {
		t.Fatalf("unexpected-copy growth %v below expected copy cost %v (small=%v big=%v)",
			grow, wire, small, big)
	}
}

func kindInt() jvm.Kind { return jvm.Int }
