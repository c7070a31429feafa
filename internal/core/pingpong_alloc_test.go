package core

import (
	"runtime"
	"testing"
)

// TestBlockingPingPongAllocatesNothing pins the blocking small-message
// path as garbage-free: every native request a blocking Send or Recv
// takes goes back to its rank's free list once its status is read, so
// a 1x2 world of 8-byte round trips between direct ByteBuffers
// allocates nothing per message. Set-up cost is the same whatever the
// trip count, so the difference between a world of 2N round trips and
// one of N isolates the 2N extra messages.
func TestBlockingPingPongAllocatesNothing(t *testing.T) {
	const n = 4000
	world := func(trips int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := Run(mv2Config(1, 2), func(m *MPI) error {
			c := m.CommWorld()
			buf := m.JVM().MustAllocateDirect(8)
			peer := 1 - c.Rank()
			for i := 0; i < trips; i++ {
				if c.Rank() == 0 {
					if err := c.Send(buf, 8, BYTE, peer, 0); err != nil {
						return err
					}
				}
				if _, err := c.Recv(buf, 8, BYTE, peer, 0); err != nil {
					return err
				}
				if c.Rank() == 1 {
					if err := c.Send(buf, 8, BYTE, peer, 0); err != nil {
						return err
					}
				}
			}
			return nil
		})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.Mallocs - before.Mallocs
	}
	world(n) // warm the process-wide packet and wire pools
	once, twice := world(n), world(2*n)
	per := (float64(twice) - float64(once)) / float64(2*n)
	t.Logf("mallocs: %d round trips %d, %d round trips %d; %.4f per message", n, once, 2*n, twice, per)
	if raceEnabled {
		t.Skip("race detector randomly discards sync.Pool puts; the budget only holds in a normal build")
	}
	if per >= 0.01 {
		t.Errorf("blocking 8-byte ping-pong allocates %.4f objects per message, want < 0.01", per)
	}
}
