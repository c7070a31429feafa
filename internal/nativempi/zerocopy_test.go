package nativempi

import (
	"bytes"
	"fmt"
	"testing"

	"mv2j/internal/cluster"
	"mv2j/internal/fabric"
	"mv2j/internal/faults"
	"mv2j/internal/jvm"
	"mv2j/internal/metrics"
	"mv2j/internal/trace"
	"mv2j/internal/vtime"
)

// zcArtifacts is everything a run is allowed to produce that the
// deterministic contract covers: receive payloads, per-rank final
// clocks, the trace JSONL, and the metrics JSON. Which host datapath
// leg carried the payloads must not move a single byte of any of them.
type zcArtifacts struct {
	recvs  [][]byte
	clocks []vtime.Time
	trace  []byte
	met    []byte
	host   HostStats
}

// runZCWorkload drives a mixed eager/rendezvous workload — a ring of
// nonblocking large sends, a small eager exchange with rank 0, and an
// allreduce — and captures every deterministic artifact plus the
// host-side counters.
func runZCWorkload(w *World, size int) (zcArtifacts, error) {
	n := w.Size()
	rec := trace.New(0)
	met := metrics.NewRegistry()
	w.SetRecorder(rec)
	w.SetMetrics(met)
	a := zcArtifacts{
		recvs:  make([][]byte, n),
		clocks: make([]vtime.Time, n),
	}
	err := w.Run(func(p *Proc) error {
		c := p.CommWorld()
		me := p.Rank()
		next := (me + 1) % n
		prev := (me - 1 + n) % n

		// Ring shift at the sweep size (rendezvous when size is above
		// the eager limit).
		big := pattern(size, byte(me+1))
		rbuf := make([]byte, size)
		sreq, err := c.Isend(big, next, 11)
		if err != nil {
			return err
		}
		rreq, err := c.Irecv(rbuf, prev, 11)
		if err != nil {
			return err
		}
		if _, err := sreq.Wait(); err != nil {
			return err
		}
		if _, err := rreq.Wait(); err != nil {
			return err
		}
		if want := pattern(size, byte(prev+1)); !bytes.Equal(rbuf, want) {
			return fmt.Errorf("rank %d: ring payload corrupted", me)
		}

		// Small eager exchange against rank 0 (n=2 degenerates to one
		// pair, still exercising unexpected-queue traffic).
		small := pattern(32, byte(0x40+me))
		sink := make([]byte, 32)
		if me == 0 {
			for r := 1; r < n; r++ {
				if _, err := c.Recv(sink, r, 13); err != nil {
					return err
				}
			}
			for r := 1; r < n; r++ {
				if err := c.Send(small, r, 14); err != nil {
					return err
				}
			}
		} else {
			if err := c.Send(small, 0, 13); err != nil {
				return err
			}
			if _, err := c.Recv(sink, 0, 14); err != nil {
				return err
			}
		}

		// One collective on top, so the indexed matcher sees the
		// collTag stream too.
		acc := make([]byte, 8)
		if err := c.Allreduce(pattern(8, byte(me)), acc, jvm.Long, OpSum); err != nil {
			return err
		}

		a.recvs[me] = append(append([]byte(nil), rbuf...), acc...)
		a.clocks[me] = p.Clock().Now()
		return nil
	})
	if err != nil {
		return a, err
	}
	return a, a.export(w, rec, met)
}

// export captures w's trace JSONL, metrics JSON and host counters once
// Run has returned.
func (a *zcArtifacts) export(w *World, rec *trace.Recorder, met *metrics.Registry) error {
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		return err
	}
	a.trace = append([]byte(nil), buf.Bytes()...)
	buf.Reset()
	if err := met.WriteJSON(&buf); err != nil {
		return err
	}
	a.met = buf.Bytes()
	a.host = w.HostStats()
	return nil
}

// datapathWorld builds one side of a direct-vs-framed differential:
// prof with the single host-datapath selector set, over a clean fabric
// or one carrying plan.
func datapathWorld(nodes, ppn int, framed bool, plan *faults.Plan, prof Profile) *World {
	topo := cluster.New(nodes, ppn)
	fab := fabric.Default(topo)
	if plan != nil {
		fab = fab.WithFaults(plan)
	}
	prof.FramedDatapath = framed
	return NewWorld(topo, fab, prof)
}

// assertSameArtifacts checks the full deterministic surface of two runs
// matches (direct vs framed datapath, engine widths, cold vs warm pools).
func assertSameArtifacts(t *testing.T, a, b zcArtifacts) {
	t.Helper()
	for r := range a.recvs {
		if !bytes.Equal(a.recvs[r], b.recvs[r]) {
			t.Errorf("rank %d: receive payload differs between the two runs", r)
		}
		if a.clocks[r] != b.clocks[r] {
			t.Errorf("rank %d: final clock %d vs %d", r, a.clocks[r], b.clocks[r])
		}
	}
	if !bytes.Equal(a.trace, b.trace) {
		t.Error("trace JSONL differs between the two runs")
	}
	if !bytes.Equal(a.met, b.met) {
		t.Error("metrics JSON differs between the two runs")
	}
}

// assertFramedOnly pins the fallback counters of a run whose direct
// datapath was taken away (fault plan, FT, or FramedDatapath): every
// rendezvous took the framed leg and says so, nothing was borrowed or
// placed.
func assertFramedOnly(t *testing.T, what string, a zcArtifacts) {
	t.Helper()
	if a.host.Copy.FramedRndv == 0 {
		t.Errorf("%s: no rendezvous counted on the framed leg", what)
	}
	if a.host.Copy.CopiesElided != 0 || a.host.RDMA.Writes != 0 {
		t.Errorf("%s: direct legs engaged (%d copies elided, %d placement writes), want 0",
			what, a.host.Copy.CopiesElided, a.host.RDMA.Writes)
	}
}

// TestZeroCopyDifferential is the borrow leg's guarantee: below the
// RDMA threshold a direct run borrows the sender's payload where the
// framed reference copies it through a wire image, and that changes
// host counters ONLY. Every virtual artifact — receive buffers, final
// clocks, trace JSONL, metrics JSON — is byte-identical at np∈{2,4,8}
// (shm rendezvous at np2, shm + inter-node above).
func TestZeroCopyDifferential(t *testing.T) {
	const size = 128 << 10 // above both eager thresholds
	shapes := []struct{ nodes, ppn int }{{1, 2}, {2, 2}, {2, 4}}
	for _, sh := range shapes {
		sh := sh
		t.Run(fmt.Sprintf("np%d", sh.nodes*sh.ppn), func(t *testing.T) {
			direct, err := runZCWorkload(datapathWorld(sh.nodes, sh.ppn, false, nil, Profile{}), size)
			if err != nil {
				t.Fatal(err)
			}
			framed, err := runZCWorkload(datapathWorld(sh.nodes, sh.ppn, true, nil, Profile{}), size)
			if err != nil {
				t.Fatal(err)
			}
			assertSameArtifacts(t, direct, framed)
			if direct.host.Copy.CopiesElided == 0 {
				t.Error("direct: no copies elided")
			}
			if direct.host.Copy.FramedRndv != 0 {
				t.Errorf("direct: %d rendezvous fell back to the framed leg on a clean fabric", direct.host.Copy.FramedRndv)
			}
			assertFramedOnly(t, "framed", framed)
			if direct.host.Copy.BytesCopied >= framed.host.Copy.BytesCopied {
				t.Errorf("direct copied %d bytes, framed copied %d — elision saved nothing",
					direct.host.Copy.BytesCopied, framed.host.Copy.BytesCopied)
			}
		})
	}
}

// FuzzZeroCopyEquivalence drives the same differential over shared
// memory across the (message size × eager limit × fault plan) space:
// whatever the protocol boundary, the direct and framed datapaths must
// agree on every virtual artifact.
func FuzzZeroCopyEquivalence(f *testing.F) {
	f.Add(uint32(64), uint32(0), false)
	f.Add(uint32(16<<10), uint32(0), false)
	f.Add(uint32(128<<10), uint32(0), false)
	f.Add(uint32(8192), uint32(8192), false)
	f.Add(uint32(8193), uint32(8192), true)
	f.Add(uint32(200_000), uint32(1), true)
	f.Fuzz(func(t *testing.T, rawSize, rawEager uint32, faulty bool) {
		size := int(rawSize%(256<<10)) + 1
		eager := int(rawEager % (64 << 10)) // 0 = fabric default
		prof := Profile{EagerInter: eager, EagerIntra: eager}
		var plan *faults.Plan
		if faulty {
			plan = faults.Uniform(uint64(rawSize^rawEager), 0.05)
		}
		direct, err := runZCWorkload(datapathWorld(1, 2, false, plan, prof), size)
		if err != nil {
			t.Fatal(err)
		}
		framed, err := runZCWorkload(datapathWorld(1, 2, true, plan, prof), size)
		if err != nil {
			t.Fatal(err)
		}
		assertSameArtifacts(t, direct, framed)
		if faulty && direct.host.Copy.CopiesElided != 0 {
			t.Errorf("fault plan active but %d copies elided", direct.host.Copy.CopiesElided)
		}
		if framed.host.Copy.CopiesElided != 0 {
			t.Errorf("framed datapath but %d copies elided", framed.host.Copy.CopiesElided)
		}
	})
}
