package nativempi

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"

	"mv2j/internal/jvm"
)

// Scale-out coverage: the phase-stepped engine plus the multi-leader
// collectives must carry np=1024 jobs in CI-feasible wall time, and
// the multi-leader algorithms must agree value-for-value with the
// reference algorithms on the same communicator.

// sumLongs runs one long-vector allreduce and checks every rank got
// the exact global sum.
func sumLongs(t *testing.T, w *World, elems int, allreduce func(c *Comm, send, recv []byte) error) {
	t.Helper()
	n := w.Size()
	err := w.Run(func(p *Proc) error {
		c := p.CommWorld()
		send := make([]byte, elems*8)
		for i := 0; i < elems; i++ {
			binary.LittleEndian.PutUint64(send[i*8:], uint64(p.Rank()+i))
		}
		recv := make([]byte, elems*8)
		if err := allreduce(c, send, recv); err != nil {
			return err
		}
		for i := 0; i < elems; i++ {
			want := uint64(n*(n-1)/2 + i*n)
			if got := binary.LittleEndian.Uint64(recv[i*8:]); got != want {
				return fmt.Errorf("rank %d elem %d: got %d want %d", p.Rank(), i, got, want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestScaleAllreduce1024 drives the default MVAPICH2-shaped selector
// at np=1024 (32 nodes x 32 ppn), which routes through the
// multi-leader hierarchy, under the full worker pool.
func TestScaleAllreduce1024(t *testing.T) {
	if testing.Short() {
		t.Skip("np=1024 job in -short mode")
	}
	w := worldWith(Profile{}, 32, 32)
	sumLongs(t, w, 16, func(c *Comm, send, recv []byte) error {
		return c.Allreduce(send, recv, jvm.Long, OpSum)
	})
}

// TestScaleBcast1024 checks the three-level multi-leader broadcast at
// np=1024 with a root away from rank 0.
func TestScaleBcast1024(t *testing.T) {
	if testing.Short() {
		t.Skip("np=1024 job in -short mode")
	}
	const root = 777
	w := worldWith(Profile{}, 32, 32)
	want := pattern(4096, byte(root%251))
	err := w.Run(func(p *Proc) error {
		c := p.CommWorld()
		buf := make([]byte, len(want))
		if p.Rank() == root {
			copy(buf, want)
		}
		if err := c.Bcast(buf, root); err != nil {
			return err
		}
		if !bytes.Equal(buf, want) {
			return fmt.Errorf("rank %d: bcast payload corrupted", p.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMultiLeaderMatchesReference pins the multi-leader algorithms
// value-for-value against the reference algorithms at np=64 and
// np=256: same inputs, same reduced vector and broadcast payload on
// every rank, whatever the schedule shape.
func TestMultiLeaderMatchesReference(t *testing.T) {
	shapes := []struct{ nodes, ppn int }{{8, 8}, {16, 16}}
	for _, sh := range shapes {
		sh := sh
		t.Run(fmt.Sprintf("np%d", sh.nodes*sh.ppn), func(t *testing.T) {
			run := func(prof Profile) [][]byte {
				w := worldWith(prof, sh.nodes, sh.ppn)
				out := make([][]byte, w.Size())
				err := w.Run(func(p *Proc) error {
					c := p.CommWorld()
					send := pattern(64, byte(p.Rank()+3))
					recv := make([]byte, 64)
					if err := c.Allreduce(send, recv, jvm.Int, OpMax); err != nil {
						return err
					}
					bc := make([]byte, 100)
					if p.Rank() == 5 {
						copy(bc, pattern(100, 0x5a))
					}
					if err := c.Bcast(bc, 5); err != nil {
						return err
					}
					out[p.Rank()] = append(recv, bc...)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				return out
			}
			ml := run(Profile{
				Bcast:     BcastTable{{Alg: BcastMultiLeader, Radix: 4}},
				Allreduce: AllreduceTable{{Alg: AllreduceMultiLeader, Radix: 4}},
			})
			ref := run(Profile{
				Bcast:     BcastTable{{Alg: BcastKnomial, Radix: 2}},
				Allreduce: AllreduceTable{{Alg: AllreduceRecursiveDoubling}},
			})
			for r := range ml {
				if !bytes.Equal(ml[r], ref[r]) {
					t.Errorf("rank %d: multi-leader result differs from reference", r)
				}
			}
		})
	}
}

// TestMultiLeaderLeadersKnob checks the multi-leader allreduce's
// section width: every width yields the same values, and widths beyond
// the node size are capped rather than dropping sections.
func TestMultiLeaderLeadersKnob(t *testing.T) {
	for _, L := range []int{1, 2, 4, 7, 64} {
		L := L
		t.Run(fmt.Sprintf("L%d", L), func(t *testing.T) {
			sumLongs(t, worldWith(Profile{}, 4, 6), 8, func(c *Comm, send, recv []byte) error {
				return c.allreduceMultiLeader(send, recv, jvm.Long, OpSum, 4, L)
			})
		})
	}
}

// TestWorldSetupBytesPerRankFlat pins world set-up as O(np) in total:
// MPI_COMM_WORLD's member list and node partition are built once per
// World and shared, so the Go heap bytes a barrier-only world costs per
// rank stay flat — within 1.2× — from np=256 to np=1024. A per-rank
// copy of either makes the per-rank cost grow with np.
func TestWorldSetupBytesPerRankFlat(t *testing.T) {
	perRank := func(nodes, ppn int) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		w := worldWith(Profile{}, nodes, ppn)
		err := w.Run(func(p *Proc) error { return p.CommWorld().Barrier() })
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(nodes*ppn)
	}
	perRank(32, 32) // warm the process-wide packet and wire pools for both sizes
	small, large := perRank(8, 32), perRank(32, 32)
	t.Logf("set-up bytes per rank: np=256 %.0f, np=1024 %.0f", small, large)
	if raceEnabled {
		t.Skip("race detector randomly discards sync.Pool puts; the budget only holds in a normal build")
	}
	if large > 1.2*small {
		t.Errorf("set-up bytes per rank grow with np: %.0f at np=256, %.0f at np=1024 (limit 1.2x)", small, large)
	}
}
