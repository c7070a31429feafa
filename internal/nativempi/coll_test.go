package nativempi

import (
	"bytes"
	"fmt"
	"testing"

	"mv2j/internal/cluster"
	"mv2j/internal/fabric"
	"mv2j/internal/jvm"
	"mv2j/internal/metrics"
	"mv2j/internal/trace"
	"mv2j/internal/vtime"
)

// profiles under test: every collective must be correct under every
// algorithm selection, so we sweep both library personalities plus
// forced-algorithm profiles.
func collProfiles() map[string]Profile {
	force := func(name string, b BcastAlg, bk int, a AllreduceAlg, ak int) Profile {
		return Profile{
			Name:      name,
			Bcast:     BcastTable{{Alg: b, Radix: bk}},
			Allreduce: AllreduceTable{{Alg: a, Radix: ak}},
		}
	}
	// hier forces a leader-based pair with the shipped tables' radix
	// drop above 8 KiB, so both radices run.
	hier := func(name string, b BcastAlg, a AllreduceAlg) Profile {
		pr := force(name, b, 2, a, 4)
		pr.Bcast = BcastTable{{MaxBytes: 8 << 10, Alg: b, Radix: 4}, {Alg: b, Radix: 2}}
		return pr
	}
	return map[string]Profile{
		"default":           {},
		"binomial-recdbl":   force("f1", BcastKnomial, 2, AllreduceRecursiveDoubling, 0),
		"knomial-ring":      force("f2", BcastKnomial, 4, AllreduceRabenseifner, 0),
		"scatterag-redbc":   force("f3", BcastScatterAllgather, 0, AllreduceReduceBcast, 0),
		"binarytree":        force("f4", BcastBinaryTree, 0, AllreduceRecursiveDoubling, 0),
		"flat":              force("f5", BcastFlat, 0, AllreduceReduceBcast, 0),
		"shmaware":          hier("f6", BcastShmAware, AllreduceShmAware),
		"multileader":       hier("f7", BcastMultiLeader, AllreduceMultiLeader),
		"linear-everything": {Name: "lin", Gather: GatherLinear, Scatter: ScatterLinear},
	}
}

func worldWith(prof Profile, nodes, ppn int) *World {
	topo := cluster.New(nodes, ppn)
	return NewWorld(topo, fabric.Default(topo), prof)
}

// sizes exercised: straddle header/chunk boundaries and both
// protocols; communicator sizes include non-powers of two.
var collSizes = []int{0, 8, 64, 1000, 65536}

func forEachConfig(t *testing.T, fn func(t *testing.T, w func() *World, p int)) {
	shapes := [][2]int{{1, 4}, {2, 3}, {4, 4}, {1, 7}}
	for name, prof := range collProfiles() {
		for _, sh := range shapes {
			prof, sh := prof, sh
			t.Run(fmt.Sprintf("%s/%dx%d", name, sh[0], sh[1]), func(t *testing.T) {
				fn(t, func() *World { return worldWith(prof, sh[0], sh[1]) }, sh[0]*sh[1])
			})
		}
	}
}

func TestBcastCorrectness(t *testing.T) {
	forEachConfig(t, func(t *testing.T, mk func() *World, p int) {
		for _, n := range collSizes {
			for _, root := range []int{0, p - 1, p / 2} {
				w := mk()
				want := pattern(n, byte(root+1))
				err := w.Run(func(pr *Proc) error {
					c := pr.CommWorld()
					buf := make([]byte, n)
					if pr.Rank() == root {
						copy(buf, want)
					}
					if err := c.Bcast(buf, root); err != nil {
						return err
					}
					if !bytes.Equal(buf, want) {
						return fmt.Errorf("rank %d: bcast payload wrong (n=%d root=%d)", pr.Rank(), n, root)
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			}
		}
	})
}

func encodeInts(vals []int64) []byte {
	b := make([]byte, 8*len(vals))
	for i, v := range vals {
		putIntNative(b, i*8, jvm.Long, v)
	}
	return b
}

func decodeInts(b []byte) []int64 {
	out := make([]int64, len(b)/8)
	for i := range out {
		out[i] = getIntNative(b, i*8, jvm.Long)
	}
	return out
}

func TestReduceAndAllreduceSum(t *testing.T) {
	forEachConfig(t, func(t *testing.T, mk func() *World, p int) {
		const elems = 17
		w := mk()
		err := w.Run(func(pr *Proc) error {
			c := pr.CommWorld()
			vals := make([]int64, elems)
			for i := range vals {
				vals[i] = int64(pr.Rank()*100 + i)
			}
			send := encodeInts(vals)
			recv := make([]byte, len(send))

			// Reduce to root 0.
			if err := c.Reduce(send, recv, jvm.Long, OpSum, 0); err != nil {
				return err
			}
			if pr.Rank() == 0 {
				got := decodeInts(recv)
				for i := range got {
					want := int64(0)
					for r := 0; r < p; r++ {
						want += int64(r*100 + i)
					}
					if got[i] != want {
						return fmt.Errorf("reduce[%d] = %d, want %d", i, got[i], want)
					}
				}
			}

			// Allreduce: everyone gets the same totals.
			recv2 := make([]byte, len(send))
			if err := c.Allreduce(send, recv2, jvm.Long, OpSum); err != nil {
				return err
			}
			got := decodeInts(recv2)
			for i := range got {
				want := int64(0)
				for r := 0; r < p; r++ {
					want += int64(r*100 + i)
				}
				if got[i] != want {
					return fmt.Errorf("rank %d: allreduce[%d] = %d, want %d", pr.Rank(), i, got[i], want)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestAllreduceLargeRing(t *testing.T) {
	// Force the ring algorithm on a payload big enough to chunk.
	prof := Profile{Allreduce: AllreduceTable{{Alg: AllreduceRabenseifner}}}
	w := worldWith(prof, 2, 3)
	const elems = 4096
	err := w.Run(func(pr *Proc) error {
		c := pr.CommWorld()
		vals := make([]int64, elems)
		for i := range vals {
			vals[i] = int64(pr.Rank() + i)
		}
		send := encodeInts(vals)
		recv := make([]byte, len(send))
		if err := c.Allreduce(send, recv, jvm.Long, OpSum); err != nil {
			return err
		}
		got := decodeInts(recv)
		p := c.Size()
		for i := range got {
			want := int64(p*i) + int64(p*(p-1)/2)
			if got[i] != want {
				return fmt.Errorf("rank %d: ring allreduce[%d] = %d, want %d", pr.Rank(), i, got[i], want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceOps(t *testing.T) {
	w := testWorld(1, 4)
	type c struct {
		op   Op
		want int64 // over ranks 1,2,3,4 (rank+1)
	}
	cases := []c{
		{OpSum, 10}, {OpProd, 24}, {OpMax, 4}, {OpMin, 1},
		{OpBAnd, 0}, {OpBOr, 7}, {OpBXor, 4}, {OpLAnd, 1}, {OpLOr, 1},
	}
	err := w.Run(func(pr *Proc) error {
		comm := pr.CommWorld()
		for _, tc := range cases {
			send := encodeInts([]int64{int64(pr.Rank() + 1)})
			recv := make([]byte, 8)
			if err := comm.Allreduce(send, recv, jvm.Long, tc.op); err != nil {
				return err
			}
			if got := decodeInts(recv)[0]; got != tc.want {
				return fmt.Errorf("%v = %d, want %d", tc.op, got, tc.want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFloatReduce(t *testing.T) {
	w := testWorld(1, 3)
	err := w.Run(func(pr *Proc) error {
		c := pr.CommWorld()
		send := make([]byte, 8)
		putFloatNative(send, 0, jvm.Double, float64(pr.Rank())+0.5)
		recv := make([]byte, 8)
		if err := c.Allreduce(send, recv, jvm.Double, OpSum); err != nil {
			return err
		}
		if got := getFloatNative(recv, 0, jvm.Double); got != 4.5 {
			return fmt.Errorf("float sum = %v, want 4.5", got)
		}
		if err := c.Allreduce(send, recv, jvm.Double, OpMax); err != nil {
			return err
		}
		if got := getFloatNative(recv, 0, jvm.Double); got != 2.5 {
			return fmt.Errorf("float max = %v, want 2.5", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGatherScatterCorrectness(t *testing.T) {
	forEachConfig(t, func(t *testing.T, mk func() *World, p int) {
		const n = 24
		for _, root := range []int{0, p - 1} {
			w := mk()
			err := w.Run(func(pr *Proc) error {
				c := pr.CommWorld()
				// Gather
				send := pattern(n, byte(pr.Rank()))
				var recv []byte
				if pr.Rank() == root {
					recv = make([]byte, n*p)
				}
				if err := c.Gather(send, recv, root); err != nil {
					return err
				}
				if pr.Rank() == root {
					for r := 0; r < p; r++ {
						if !bytes.Equal(recv[r*n:(r+1)*n], pattern(n, byte(r))) {
							return fmt.Errorf("gather block %d corrupted (root=%d)", r, root)
						}
					}
				}
				// Scatter back
				out := make([]byte, n)
				if err := c.Scatter(recv, out, root); err != nil {
					return err
				}
				if !bytes.Equal(out, pattern(n, byte(pr.Rank()))) {
					return fmt.Errorf("rank %d: scatter block corrupted (root=%d)", pr.Rank(), root)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	})
}

func TestAllgatherCorrectness(t *testing.T) {
	forEachConfig(t, func(t *testing.T, mk func() *World, p int) {
		const n = 16
		w := mk()
		err := w.Run(func(pr *Proc) error {
			c := pr.CommWorld()
			recv := make([]byte, n*p)
			if err := c.Allgather(pattern(n, byte(pr.Rank())), recv); err != nil {
				return err
			}
			for r := 0; r < p; r++ {
				if !bytes.Equal(recv[r*n:(r+1)*n], pattern(n, byte(r))) {
					return fmt.Errorf("rank %d: allgather block %d corrupted", pr.Rank(), r)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestAlltoallCorrectness(t *testing.T) {
	forEachConfig(t, func(t *testing.T, mk func() *World, p int) {
		const n = 8
		w := mk()
		err := w.Run(func(pr *Proc) error {
			c := pr.CommWorld()
			send := make([]byte, n*p)
			for r := 0; r < p; r++ {
				copy(send[r*n:(r+1)*n], pattern(n, byte(pr.Rank()*16+r)))
			}
			recv := make([]byte, n*p)
			if err := c.Alltoall(send, recv); err != nil {
				return err
			}
			for r := 0; r < p; r++ {
				want := pattern(n, byte(r*16+pr.Rank()))
				if !bytes.Equal(recv[r*n:(r+1)*n], want) {
					return fmt.Errorf("rank %d: alltoall block from %d corrupted", pr.Rank(), r)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestBarrierSynchronises(t *testing.T) {
	forEachConfig(t, func(t *testing.T, mk func() *World, p int) {
		w := mk()
		err := w.Run(func(pr *Proc) error {
			// Rank p-1 arrives late; after the barrier everyone's clock
			// must be at least its arrival time.
			if pr.Rank() == pr.CommWorld().Size()-1 {
				pr.Clock().Advance(vtime.Micros(777))
			}
			if err := pr.CommWorld().Barrier(); err != nil {
				return err
			}
			if pr.Clock().Now() < vtime.Time(vtime.Micros(777)) {
				return fmt.Errorf("rank %d left the barrier at %v, before the last arrival",
					pr.Rank(), pr.Clock().Now())
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestVectorCollectives(t *testing.T) {
	w := testWorld(2, 2)
	rec := trace.New(0)
	met := metrics.NewRegistry()
	w.SetRecorder(rec)
	w.SetMetrics(met)
	defer func() {
		// Every vectored call is one coll span per rank (and one pass
		// through the thread gate). Allgatherv's inner Gatherv and Bcast
		// are calls of their own, like Allgather's.
		calls := map[string]int{"gatherv": 2, "scatterv": 1, "allgatherv": 1, "alltoallv": 1}
		spans := map[string]int{}
		for _, ev := range rec.Events() {
			if ev.Kind == trace.KindColl {
				spans[ev.Detail]++
			}
		}
		for name, n := range calls {
			if spans[name] != n*w.Size() {
				t.Errorf("%d coll/%s trace events, want %d per rank", spans[name], name, n)
			}
			for r := 0; r < w.Size(); r++ {
				if h := met.HistogramSnapshot(r, "coll", name+"_bytes"); h.Count != int64(n) {
					t.Errorf("rank %d: coll/%s_bytes has %d samples, want %d", r, name, h.Count, n)
				}
			}
		}
	}()
	err := w.Run(func(pr *Proc) error {
		c := pr.CommWorld()
		p := c.Size()
		me := pr.Rank()
		// Rank r contributes r+1 bytes.
		counts := make([]int, p)
		displs := make([]int, p)
		total := 0
		for r := 0; r < p; r++ {
			counts[r] = r + 1
			displs[r] = total
			total += counts[r]
		}
		send := pattern(me+1, byte(me+40))

		// Gatherv to root 1.
		var gbuf []byte
		if me == 1 {
			gbuf = make([]byte, total)
		}
		if err := c.Gatherv(send, gbuf, counts, displs, 1); err != nil {
			return err
		}
		if me == 1 {
			for r := 0; r < p; r++ {
				if !bytes.Equal(gbuf[displs[r]:displs[r]+counts[r]], pattern(r+1, byte(r+40))) {
					return fmt.Errorf("gatherv block %d corrupted", r)
				}
			}
		}

		// Scatterv from root 1.
		out := make([]byte, me+1)
		if err := c.Scatterv(gbuf, counts, displs, out, 1); err != nil {
			return err
		}
		if !bytes.Equal(out, send) {
			return fmt.Errorf("rank %d: scatterv round-trip corrupted", me)
		}

		// Allgatherv.
		abuf := make([]byte, total)
		if err := c.Allgatherv(send, abuf, counts, displs); err != nil {
			return err
		}
		for r := 0; r < p; r++ {
			if !bytes.Equal(abuf[displs[r]:displs[r]+counts[r]], pattern(r+1, byte(r+40))) {
				return fmt.Errorf("rank %d: allgatherv block %d corrupted", me, r)
			}
		}

		// Alltoallv: rank s sends s+r+1 bytes to rank r.
		sc := make([]int, p)
		sd := make([]int, p)
		tot := 0
		for r := 0; r < p; r++ {
			sc[r] = me + r + 1
			sd[r] = tot
			tot += sc[r]
		}
		sbuf := make([]byte, tot)
		for r := 0; r < p; r++ {
			copy(sbuf[sd[r]:sd[r]+sc[r]], pattern(sc[r], byte(me*8+r)))
		}
		rc := make([]int, p)
		rd := make([]int, p)
		tot = 0
		for r := 0; r < p; r++ {
			rc[r] = r + me + 1
			rd[r] = tot
			tot += rc[r]
		}
		rbuf := make([]byte, tot)
		if err := c.Alltoallv(sbuf, sc, sd, rbuf, rc, rd); err != nil {
			return err
		}
		for r := 0; r < p; r++ {
			if !bytes.Equal(rbuf[rd[r]:rd[r]+rc[r]], pattern(rc[r], byte(r*8+me))) {
				return fmt.Errorf("rank %d: alltoallv block from %d corrupted", me, r)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestVectorValidation(t *testing.T) {
	w := testWorld(1, 2)
	err := w.Run(func(pr *Proc) error {
		c := pr.CommWorld()
		bad := []int{1, 1, 1} // wrong length
		displs := []int{0, 1}
		if pr.Rank() == 0 {
			err := c.Gatherv(make([]byte, 1), make([]byte, 2), bad, displs, 0)
			if err == nil {
				return fmt.Errorf("Gatherv accepted mismatched counts")
			}
			// Out-of-range displacement.
			err = c.Gatherv(make([]byte, 1), make([]byte, 2), []int{1, 5}, displs, 0)
			if err == nil {
				return fmt.Errorf("Gatherv accepted out-of-range slice")
			}
			// Consume the send rank 1 issued for the first (failed on
			// root, but rank 1 doesn't know) call... rank 1 sends
			// nothing because the calls validate before communicating
			// on the root; non-roots validate only their own args.
			return nil
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSuccessiveCollectivesDoNotInterfere(t *testing.T) {
	// Back-to-back collectives with different payloads must not
	// cross-match (rolling tags).
	w := testWorld(1, 4)
	err := w.Run(func(pr *Proc) error {
		c := pr.CommWorld()
		for round := 0; round < 20; round++ {
			buf := make([]byte, 32)
			want := pattern(32, byte(round))
			if pr.Rank() == round%4 {
				copy(buf, want)
			}
			if err := c.Bcast(buf, round%4); err != nil {
				return err
			}
			if !bytes.Equal(buf, want) {
				return fmt.Errorf("round %d corrupted on rank %d", round, pr.Rank())
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcastInvalidRoot(t *testing.T) {
	w := testWorld(1, 2)
	err := w.Run(func(pr *Proc) error {
		if err := pr.CommWorld().Bcast(nil, 5); err == nil {
			return fmt.Errorf("Bcast accepted invalid root")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSelfCommCollectives(t *testing.T) {
	w := testWorld(1, 1)
	err := w.Run(func(pr *Proc) error {
		c := pr.CommWorld()
		if err := c.Bcast(make([]byte, 8), 0); err != nil {
			return err
		}
		send := encodeInts([]int64{42})
		recv := make([]byte, 8)
		if err := c.Allreduce(send, recv, jvm.Long, OpSum); err != nil {
			return err
		}
		if decodeInts(recv)[0] != 42 {
			return fmt.Errorf("single-rank allreduce wrong")
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}
