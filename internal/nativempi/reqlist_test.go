package nativempi

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"mv2j/internal/faults"
)

// TestReleasedRequestsUnreachable checks the free-list invariant
// behind request recycling: a request goes back to its rank's free
// list only once it is done, and a request is marked done only after
// it has left posted, sendPending, recvPending and finPending. After
// each world of the zero-copy, RDMA, chaos, fault-tolerance and thread
// suites, and in the blocking worlds after every message size as well,
// no request on any rank's free list may still be reachable from those
// four places, and none may be listed twice.
func TestReleasedRequestsUnreachable(t *testing.T) {
	const size = 128 << 10 // rendezvous on every shape, RDMA above 64 KiB
	worlds := []struct {
		name string
		run  func(t *testing.T) (*World, error)
	}{
		{"zerocopy/direct", func(t *testing.T) (*World, error) {
			w := datapathWorld(2, 2, false, nil, Profile{})
			_, err := runZCWorkload(w, size)
			return w, err
		}},
		{"zerocopy/framed", func(t *testing.T) (*World, error) {
			w := datapathWorld(2, 2, true, nil, Profile{})
			_, err := runZCWorkload(w, size)
			return w, err
		}},
		{"zerocopy/direct-blocking", func(t *testing.T) (*World, error) {
			w := datapathWorld(1, 2, false, nil, Profile{})
			return w, runBlockingStream(w)
		}},
		{"zerocopy/framed-blocking", func(t *testing.T) (*World, error) {
			w := datapathWorld(1, 2, true, nil, Profile{})
			return w, runBlockingStream(w)
		}},
		{"rdma/clean-blocking", func(t *testing.T) (*World, error) {
			w := rdmaWorld(t, "clean", 2, 1, false)
			return w, runBlockingStream(w)
		}},
		{"rdma/loss-blocking", func(t *testing.T) (*World, error) {
			w := rdmaWorld(t, "loss", 2, 1, false)
			return w, runBlockingStream(w)
		}},
		{"rdma/clean", func(t *testing.T) (*World, error) {
			w := rdmaWorld(t, "clean", 2, 2, false)
			_, err := runZCWorkload(w, size)
			return w, err
		}},
		{"rdma/loss", func(t *testing.T) (*World, error) {
			w := rdmaWorld(t, "loss", 2, 2, false)
			_, err := runZCWorkload(w, size)
			return w, err
		}},
		{"rdma/crash", func(t *testing.T) (*World, error) {
			w := rdmaWorld(t, "crash", 2, 2, false)
			_, err := runCrashWorkload(w)
			return w, err
		}},
		{"chaos/lossy", func(t *testing.T) (*World, error) {
			w := fcWorld(8, fcProfile(4, 7*4*1024, 2048), faults.Uniform(0xC4A05, 0.03), false, 1)
			_, err := runFlood(w, 16, 1024)
			return w, err
		}},
		{"chaos/crash", func(t *testing.T) (*World, error) {
			plan, err := faults.ParseSpec("crash=5:op10")
			if err != nil {
				t.Fatal(err)
			}
			w := fcWorld(8, fcProfile(4, 7*4*1024, 2048), plan, true, 1)
			_, err = runFlood(w, 16, 1024)
			return w, err
		}},
		{"ft/shrink", func(t *testing.T) (*World, error) {
			w := ftWorld(t, 1, 4, "crash=2:op6")
			err := runGuarded(t, w, func(p *Proc) error {
				_, _, err := ftAllreduceSum(p, 4)
				return err
			})
			return w, err
		}},
		{"thread/single", func(t *testing.T) (*World, error) {
			w := thrWorld(2, 2, Profile{})
			_, err := captureThrArtifacts(w, 4, singleThreadedWorkload)
			return w, err
		}},
		{"thread/multiple", func(t *testing.T) (*World, error) {
			w := thrWorld(2, 2, Profile{ThreadLevel: ThreadMultiple})
			_, err := captureThrArtifacts(w, 4, mtWorkload(4))
			return w, err
		}},
	}
	total := 0
	for _, wc := range worlds {
		t.Run(wc.name, func(t *testing.T) {
			w, err := wc.run(t)
			if err != nil {
				t.Fatal(err)
			}
			bad, free := w.freeListLinked()
			for _, b := range bad {
				t.Error(b)
			}
			total += free
		})
	}
	if total == 0 {
		t.Fatal("no world left a request on a free list: the check inspected nothing")
	}

	// A second Release of the same request must not list it twice: two
	// later operations would share one struct.
	t.Run("double-release", func(t *testing.T) {
		w := thrWorld(1, 2, Profile{})
		err := w.Run(func(p *Proc) error {
			c := p.CommWorld()
			if p.Rank() == 1 {
				_, err := c.Recv(make([]byte, 8), 0, 0)
				return err
			}
			req, err := c.Isend(make([]byte, 8), 1, 0)
			if err != nil {
				return err
			}
			if _, err := req.Wait(); err != nil {
				return err
			}
			base := len(p.reqFree)
			req.Release()
			req.Release()
			if got := len(p.reqFree) - base; got != 1 {
				return fmt.Errorf("two Releases listed the request %d times, want 1", got)
			}
			if a, b := p.getReq(), p.getReq(); a == b {
				return fmt.Errorf("two getReq calls after a double Release returned the same request %p", a)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// runBlockingStream has the two ranks of w trade one message per
// framedStreamSizes size through the blocking calls, whose requests go
// back to the free list: a Sendrecv in both directions, then a Send
// answered by a Recv each way. After each size every rank checks its
// own free list, so a request released while still linked is caught
// before a later call hands it out again.
func runBlockingStream(w *World) error {
	return w.Run(func(p *Proc) error {
		c := p.CommWorld()
		me, peer := p.Rank(), 1-p.Rank()
		for i, n := range framedStreamSizes() {
			buf := make([]byte, n)
			if _, err := c.Sendrecv(pattern(n, byte(me+i)), peer, i, buf, peer, i); err != nil {
				return err
			}
			if !bytes.Equal(buf, pattern(n, byte(peer+i))) {
				return fmt.Errorf("rank %d: %d-byte Sendrecv payload corrupted", me, n)
			}
			for sender := 0; sender < 2; sender++ {
				if me == sender {
					if err := c.Send(pattern(n, byte(i)), peer, i); err != nil {
						return err
					}
				} else if _, err := c.Recv(buf, peer, i); err != nil {
					return err
				}
			}
			bad, free := p.freeListLinked()
			if len(bad) > 0 {
				return fmt.Errorf("after the %d-byte exchange: %s", n, strings.Join(bad, "; "))
			}
			if free == 0 {
				return fmt.Errorf("rank %d: no request on the free list after the %d-byte exchange: the check inspected nothing", me, n)
			}
		}
		return nil
	})
}
