package nativempi

import (
	"bytes"
	"fmt"
	"testing"

	"mv2j/internal/cluster"
	"mv2j/internal/fabric"
	"mv2j/internal/faults"
	"mv2j/internal/metrics"
	"mv2j/internal/trace"
	"mv2j/internal/vtime"
)

// The RDMA channel's differential contract, mirroring the zero-copy
// suite: the host datapath selects HOW payload bytes move (a direct
// remote-memory write into the receiver's buffer versus a framed DATA
// packet), while every virtual-time consequence of the protocol —
// registration charges, CTS delay, completion arithmetic — is decided
// by the protocol alone. Direct versus framed may change host counters
// only; the deterministic artifacts may not move by one byte.

// rdmaWorld builds a differential world: clean fabric, lossy fabric
// (reliability layer engaged), or crash-fault FT world, on the direct
// or the framed datapath, with a threshold low enough that the
// zero-copy workload's ring traffic crosses it.
func rdmaWorld(t *testing.T, mode string, nodes, ppn int, framed bool) *World {
	t.Helper()
	var plan *faults.Plan
	switch mode {
	case "clean":
	case "loss":
		plan = faults.Uniform(42, 0.05)
	case "crash":
		var err error
		if plan, err = faults.ParseSpec("crash=1:op3"); err != nil {
			t.Fatal(err)
		}
	default:
		t.Fatalf("unknown mode %q", mode)
	}
	w := datapathWorld(nodes, ppn, framed, plan, Profile{RDMAThreshold: 64 << 10})
	if mode == "crash" {
		w.EnableFT()
	}
	return w
}

// TestRDMADifferential is the placement leg's guarantee: across
// np ∈ {2,4,8}, worker-pool widths {1,8}, and clean / lossy / crash
// fabrics, a direct run and a framed run produce byte-identical receive
// payloads, final clocks, trace JSONL, and metrics JSON. Faulty fabrics
// disable the protocol entirely (retransmission needs a stable framed
// payload; FT needs revocable channels), so those legs also pin the
// fallback: zero placements, zero registrations, and the framed-leg
// counter saying why.
func TestRDMADifferential(t *testing.T) {
	shapes := []struct{ nodes, ppn int }{{1, 2}, {2, 2}, {2, 4}}
	modes := []string{"clean", "loss", "crash"}
	const size = 128 << 10 // above eager limits and the 64 KiB threshold
	for _, sh := range shapes {
		for _, mode := range modes {
			sh, mode := sh, mode
			np := sh.nodes * sh.ppn
			t.Run(fmt.Sprintf("np%d/%s", np, mode), func(t *testing.T) {
				run := func(workers int, framed bool) zcArtifacts {
					w := rdmaWorld(t, mode, sh.nodes, sh.ppn, framed)
					w.SetEngineWorkers(workers)
					var a zcArtifacts
					var err error
					if mode == "crash" {
						a, err = runCrashWorkload(w)
					} else {
						a, err = runZCWorkload(w, size)
					}
					if err != nil {
						t.Fatalf("workers=%d framed=%v: %v", workers, framed, err)
					}
					return a
				}
				direct, framed := run(1, false), run(1, true)
				assertSameArtifacts(t, direct, framed)
				assertSameArtifacts(t, direct, run(8, false))
				assertSameArtifacts(t, direct, run(8, true))

				if mode == "clean" {
					if direct.host.RDMA.Writes < int64(np) {
						t.Errorf("direct: %d remote writes, want >= %d", direct.host.RDMA.Writes, np)
					}
					if direct.host.Copy.FramedRndv != 0 {
						t.Errorf("direct: %d rendezvous fell back to the framed leg on a clean fabric", direct.host.Copy.FramedRndv)
					}
					if direct.host.Reg.Misses == 0 {
						t.Error("clean RDMA run registered nothing")
					}
					// Registration is protocol state: identical economics
					// whichever way the bytes moved.
					if direct.host.Reg != framed.host.Reg {
						t.Errorf("registration stats differ: direct %+v, framed %+v", direct.host.Reg, framed.host.Reg)
					}
					assertFramedOnly(t, "framed", framed)
					return
				}
				if direct.host.Reg.Misses != 0 || direct.host.RDMA.Writes != 0 {
					t.Errorf("%s fabric: protocol active (reg misses %d, writes %d), want fallback",
						mode, direct.host.Reg.Misses, direct.host.RDMA.Writes)
				}
				if mode == "loss" { // the crash workload is eager-only: nothing to frame
					assertFramedOnly(t, "loss fabric", direct)
				}
			})
		}
	}
}

// TestRDMAWarmColdCounters pins the cache economics end to end over
// the wire protocol: a repeated large transfer registers both ends
// exactly once (cold misses) and rides warm hits thereafter, with the
// placement datapath writing every payload and the counters surfacing
// in HostStats and the deterministic metrics JSON.
func TestRDMAWarmColdCounters(t *testing.T) {
	w := rdmaWorld(t, "clean", 2, 1, false)
	const size = 512 << 10
	a, err := runRepeatSend(w, size, 3)
	if err != nil {
		t.Fatal(err)
	}
	hs := a.host
	if hs.RDMA.Writes != 3 || hs.RDMA.BytesPlaced != 3*size {
		t.Errorf("placement: %d writes / %d bytes, want 3 / %d", hs.RDMA.Writes, hs.RDMA.BytesPlaced, 3*size)
	}
	// Iteration 1 registers the send buffer and the receive buffer
	// (cold misses); iterations 2 and 3 hit both.
	if hs.Reg.Misses != 2 {
		t.Errorf("cold misses %d, want 2", hs.Reg.Misses)
	}
	if hs.Reg.Hits != 4 {
		t.Errorf("warm hits %d, want 4", hs.Reg.Hits)
	}
	if hs.Reg.Evictions != 0 {
		t.Errorf("evictions %d, want 0", hs.Reg.Evictions)
	}
	// PinnedBytes sums across ranks (each end pins its buffer);
	// PinnedPeak is the per-rank high-water maximum.
	if hs.Reg.PinnedBytes != 2*size || hs.Reg.PinnedPeak != size {
		t.Errorf("pinned %d/%d, want %d/%d", hs.Reg.PinnedBytes, hs.Reg.PinnedPeak, 2*size, size)
	}
	for _, counter := range []string{"reg_hits", "reg_misses"} {
		if !bytes.Contains(a.met, []byte(counter)) {
			t.Errorf("metrics JSON missing %q", counter)
		}
	}
}

// runRepeatSend drives iters sequential rank0→rank1 transfers of the
// SAME buffers, the warm-cache workload, capturing the artifacts.
func runRepeatSend(w *World, size, iters int) (zcArtifacts, error) {
	a, err := captureArtifacts(w, func(p *Proc) error {
		c := p.CommWorld()
		if p.Rank() == 0 {
			buf := pattern(size, 0x5a)
			for k := 0; k < iters; k++ {
				if err := c.Send(buf, 1, 7); err != nil {
					return err
				}
			}
			return nil
		}
		rbuf := make([]byte, size)
		for k := 0; k < iters; k++ {
			if _, err := c.Recv(rbuf, 0, 7); err != nil {
				return err
			}
			if want := pattern(size, 0x5a); !bytes.Equal(rbuf, want) {
				return fmt.Errorf("iter %d: payload corrupted", k)
			}
		}
		a := rbuf // keep the buffer's address live across iterations
		_ = a
		return nil
	})
	return a, err
}

// TestRDMAAdaptivePromotion pins the adaptive protocol switch: a
// rendezvous message BELOW the RDMA threshold still rides the RDMA
// channel when its buffer is already covered by a live registration —
// the transfer is free to place — while a fresh sub-threshold buffer
// stays on the framed rendezvous path.
func TestRDMAAdaptivePromotion(t *testing.T) {
	topo := cluster.New(2, 1)
	w := NewWorld(topo, fabric.Default(topo), Profile{}) // default 256 KiB threshold
	const big = 512 << 10
	const small = 64 << 10 // rendezvous (above eager), below the threshold
	err := w.Run(func(p *Proc) error {
		c := p.CommWorld()
		if p.Rank() == 0 {
			buf := pattern(big, 1)
			if err := c.Send(buf, 1, 1); err != nil { // above threshold: registers buf
				return err
			}
			if err := c.Send(buf[:small], 1, 2); err != nil { // covered: promoted
				return err
			}
			return c.Send(pattern(small, 3), 1, 3) // fresh buffer: framed rendezvous
		}
		rbuf := make([]byte, big)
		for tag := 1; tag <= 3; tag++ {
			n := big
			if tag > 1 {
				n = small
			}
			if _, err := c.Recv(rbuf[:n], 0, tag); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := w.HostStats()
	if hs.RDMA.Writes != 2 {
		t.Errorf("remote writes %d, want 2 (threshold send + promoted warm send)", hs.RDMA.Writes)
	}
	if hs.Reg.Hits != 2 || hs.Reg.Misses != 2 {
		t.Errorf("reg counters h%d m%d, want h2 m2", hs.Reg.Hits, hs.Reg.Misses)
	}
}

// TestRDMAFallbackUnderFaults pins the fallback on both protocol tiers:
// a fault plan forces the framed leg (retransmission needs a stable
// payload image) whether the message would have been a borrow (below
// the RDMA threshold) or a placement write (above it), the counters say
// so, and the artifacts still match a FramedDatapath world byte for
// byte under the same plan.
func TestRDMAFallbackUnderFaults(t *testing.T) {
	const size = 96 << 10
	for _, tc := range []struct {
		name   string
		thresh int
	}{{"borrow-tier", 0}, {"rdma-tier", 64 << 10}} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			run := func(framed bool) zcArtifacts {
				w := datapathWorld(2, 1, framed, faults.Uniform(5, 0.05), Profile{RDMAThreshold: tc.thresh})
				a, err := runZCWorkload(w, size)
				if err != nil {
					t.Fatal(err)
				}
				return a
			}
			def := run(false)
			assertFramedOnly(t, "fault plan", def)
			if def.host.Reg.Misses != 0 {
				t.Errorf("fault plan active but %d registrations", def.host.Reg.Misses)
			}
			assertSameArtifacts(t, def, run(true))
		})
	}
}

// TestRMACrossover demonstrates the protocol trade the rebase of
// rma.go exists to expose, as exact virtual-time arithmetic: below the
// eager limit a fence-bounded put epoch LOSES to plain send/recv (the
// epoch synchronisation costs more than the two-sided handshake), and
// at RDMA sizes it WINS (the window's standing registration plus
// one-sided placement beat the per-message rendezvous round trip).
func TestRMACrossover(t *testing.T) {
	const iters = 8
	perTransfer := func(size int) (put, p2p vtime.Duration) {
		topo := cluster.New(2, 1)
		w := NewWorld(topo, fabric.Default(topo), Profile{})
		var putSpan, p2pSpan [2]vtime.Duration
		err := w.Run(func(p *Proc) error {
			c := p.CommWorld()
			me := p.Rank()
			src := pattern(size, 9)
			exposed := make([]byte, size)

			win, err := c.WinCreate(exposed)
			if err != nil {
				return err
			}
			// Warm-up epoch and exchange: first-touch registration
			// charges land here, outside the measured phases, so both
			// variants are measured with a warm cache.
			if me == 0 {
				if err := win.Put(src, 1, 0); err != nil {
					return err
				}
			}
			if err := win.Fence(); err != nil {
				return err
			}
			if me == 0 {
				if err := c.Send(src, 1, 99); err != nil {
					return err
				}
			} else if _, err := c.Recv(exposed, 0, 99); err != nil {
				return err
			}

			if err := c.Barrier(); err != nil {
				return err
			}
			start := p.Clock().Now()
			if me == 0 {
				for k := 0; k < iters; k++ {
					if err := win.Put(src, 1, 0); err != nil {
						return err
					}
				}
			}
			if err := win.Fence(); err != nil {
				return err
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			putSpan[me] = p.Clock().Now().Sub(start)

			if err := c.Barrier(); err != nil {
				return err
			}
			start = p.Clock().Now()
			for k := 0; k < iters; k++ {
				if me == 0 {
					if err := c.Send(src, 1, 100+k); err != nil {
						return err
					}
				} else if _, err := c.Recv(exposed, 0, 100+k); err != nil {
					return err
				}
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			p2pSpan[me] = p.Clock().Now().Sub(start)
			return win.Free()
		})
		if err != nil {
			t.Fatal(err)
		}
		putMax, p2pMax := putSpan[0], p2pSpan[0]
		if putSpan[1] > putMax {
			putMax = putSpan[1]
		}
		if p2pSpan[1] > p2pMax {
			p2pMax = p2pSpan[1]
		}
		return putMax / iters, p2pMax / iters
	}

	smallPut, smallP2P := perTransfer(1 << 10)   // eager on both paths
	largePut, largeP2P := perTransfer(512 << 10) // RDMA put vs rendezvous send
	if smallPut <= smallP2P {
		t.Errorf("1 KiB: put+fence %v <= send/recv %v; epoch sync should dominate", smallPut, smallP2P)
	}
	if largePut >= largeP2P {
		t.Errorf("512 KiB: put+fence %v >= send/recv %v; one-sided placement should win", largePut, largeP2P)
	}
	t.Logf("crossover: 1KiB put %v vs p2p %v; 512KiB put %v vs p2p %v",
		smallPut, smallP2P, largePut, largeP2P)
}

// captureArtifacts runs body under a fresh recorder/registry and
// captures the full artifact surface, like runZCWorkload but for
// custom workloads.
func captureArtifacts(w *World, body func(*Proc) error) (zcArtifacts, error) {
	rec := trace.New(0)
	met := metrics.NewRegistry()
	w.SetRecorder(rec)
	w.SetMetrics(met)
	n := w.Size()
	a := zcArtifacts{recvs: make([][]byte, n), clocks: make([]vtime.Time, n)}
	err := w.Run(func(p *Proc) error {
		if err := body(p); err != nil {
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

// FuzzRDMAEquivalence drives the differential between nodes across the
// (message size × eager limit × RDMA threshold × cache capacity ×
// fault plan) space: whatever protocol tier each message lands in and
// however hard the cache churns, the direct and framed datapaths must
// agree on every virtual artifact.
func FuzzRDMAEquivalence(f *testing.F) {
	f.Add(uint32(64), uint32(0), uint32(0), uint32(0), false)
	f.Add(uint32(128<<10), uint32(0), uint32(64<<10), uint32(0), false)
	f.Add(uint32(200_000), uint32(8192), uint32(100), uint32(2), false)
	f.Add(uint32(96<<10), uint32(1), uint32(1), uint32(1), true)
	f.Add(uint32(256<<10), uint32(32<<10), uint32(300<<10), uint32(3), false)
	f.Fuzz(func(t *testing.T, rawSize, rawEager, rawThresh, rawCache uint32, faulty bool) {
		size := int(rawSize%(256<<10)) + 1
		eager := int(rawEager % (64 << 10)) // 0 = fabric default
		prof := Profile{
			RDMAThreshold: int(rawThresh%(320<<10)) - 1, // -1 disables the protocol
			EagerInter:    eager,
			EagerIntra:    eager,
		}
		var plan *faults.Plan
		if faulty {
			plan = faults.Uniform(uint64(rawSize)^uint64(rawThresh)<<32, 0.05)
		}
		run := func(framed bool) zcArtifacts {
			w := datapathWorld(2, 1, framed, plan, prof)
			if entries := int(rawCache % 9); entries > 0 { // 0 = default capacity
				for r := 0; r < w.Size(); r++ {
					w.Proc(r).reg.maxEntries = entries
				}
			}
			a, err := runZCWorkload(w, size)
			if err != nil {
				t.Fatal(err)
			}
			return a
		}
		direct, framed := run(false), run(true)
		assertSameArtifacts(t, direct, framed)
		if faulty && direct.host.RDMA.Writes != 0 {
			t.Errorf("fault plan active but %d placements", direct.host.RDMA.Writes)
		}
		if framed.host.RDMA.Writes != 0 || framed.host.Copy.CopiesElided != 0 {
			t.Errorf("framed datapath but %d placements, %d copies elided", framed.host.RDMA.Writes, framed.host.Copy.CopiesElided)
		}
		if direct.host.Reg != framed.host.Reg {
			t.Errorf("registration stats differ: direct %+v, framed %+v", direct.host.Reg, framed.host.Reg)
		}
	})
}
