package core

import (
	"mv2j/internal/metrics"
	"mv2j/internal/mpjbuf"
	"mv2j/internal/nativempi"
	"mv2j/internal/trace"
	"mv2j/internal/vtime"
)

// Observability glue for the bindings layer. Three responsibilities:
//
//   - copy-in/copy-out spans: a send's stage and a receive's
//     staged.finish (buf.go) are the two staging copies of the array
//     path (paper Fig. 3); bracketing them in virtual time lets a
//     transfer's end-to-end latency be split into copy-in / wire /
//     copy-out / ack / retransmit phases (trace.PhasesByRank);
//   - GC spans: the simulated JVM reports each stop-the-world pause;
//   - the post-run scrape: per-rank counters from every layer (native
//     runtime, buffer pools, JVM, JNI) flow into the metrics registry
//     once, AFTER World.Run has drained trailing ack traffic — the
//     only point where their values are independent of host
//     scheduling.
//
// None of the hooks advance a virtual clock: instrumented and bare
// runs report identical times.

// recordCopy emits one staging-copy span ending now. Zero-duration
// staging (direct buffers, empty messages) is not an event.
func (m *MPI) recordCopy(kind trace.Kind, bytes int, start vtime.Time) {
	w := m.proc.World()
	rec, met := w.Recorder(), w.Metrics()
	if rec == nil && met == nil {
		return
	}
	end := m.proc.Clock().Now()
	if end <= start {
		return
	}
	if rec != nil {
		rec.Record(trace.Event{
			Rank: m.proc.Rank(), Kind: kind, Peer: -1, Bytes: bytes,
			Start: start, End: end,
		})
	}
	label := "in"
	if kind == trace.KindCopyOut {
		label = "out"
	}
	met.Observe(m.proc.Rank(), "copy", label+"_ps", int64(end.Sub(start)))
	met.Observe(m.proc.Rank(), "copy", label+"_bytes", int64(bytes))
}

// gcObserver builds the per-rank callback the simulated JVM invokes
// after each collection.
func gcObserver(w *nativempi.World, rank int) func(live int, start, end vtime.Time) {
	return func(live int, start, end vtime.Time) { // per-world closure
		if rec := w.Recorder(); rec != nil {
			rec.Record(trace.Event{
				Rank: rank, Kind: trace.KindGC, Detail: "stw-compact", Peer: -1,
				Bytes: live, Start: start, End: end,
			})
		}
		w.Metrics().Observe(rank, "jvm", "gc_pause_ps", int64(end.Sub(start)))
		w.Metrics().Observe(rank, "jvm", "gc_live_bytes", int64(live))
	}
}

// scrapeMetrics folds every layer's counters into the registry, one
// rank at a time. Ranks that never initialised (nil entries after an
// early abort) are skipped.
func scrapeMetrics(reg *metrics.Registry, mpis []*MPI) {
	if reg == nil {
		return
	}
	for rank, m := range mpis {
		if m == nil {
			continue
		}
		ps := m.proc.Stats()
		for _, c := range []struct {
			label string
			v     int64
		}{
			{"msgs_sent", ps.MsgsSent},
			{"bytes_sent", ps.BytesSent},
			{"eager_sends", ps.EagerSends},
			{"rndv_sends", ps.RndvSends},
			{"msgs_received", ps.MsgsReceived},
			{"unexpected", ps.Unexpected},
			{"retransmits", ps.Retransmits},
			{"fault_drops", ps.FaultDrops},
			{"fault_corrupts", ps.FaultCorrupts},
			{"fault_dups", ps.FaultDups},
			{"fault_delays", ps.FaultDelays},
			{"corrupt_drops", ps.CorruptDrops},
			{"dup_drops", ps.DupDrops},
			{"acks_sent", ps.AcksSent},
			{"acks_received", ps.AcksReceived},
			{"peer_failures", ps.PeerFailures},
			{"peer_suspects", ps.PeerSuspects},
			{"peer_confirms", ps.PeerConfirms},
			{"revokes_seen", ps.RevokesSeen},
		} {
			reg.Add(rank, "proc", c.label, c.v)
		}

		scrapePool(reg, rank, "pool", m.pool)
		scrapePool(reg, rank, "collpool", m.collPool)

		js := m.machine.Stats()
		reg.Add(rank, "jvm", "heap_allocs", js.HeapAllocs)
		reg.Add(rank, "jvm", "heap_alloc_bytes", js.HeapAllocBytes)
		reg.Add(rank, "jvm", "direct_allocs", js.DirectAllocs)
		reg.Add(rank, "jvm", "direct_bytes", js.DirectBytes)
		reg.Add(rank, "jvm", "collections", js.Collections)
		reg.Add(rank, "jvm", "gc_bytes_moved", js.BytesMoved)
		reg.Add(rank, "jvm", "gc_pause_total_ps", int64(js.GCPause))
		reg.SetGauge(rank, "jvm", "heap_used", int64(m.machine.HeapUsed()))
		reg.SetGauge(rank, "jvm", "live_bytes", int64(m.machine.LiveBytes()))

		ns := m.env.Stats()
		reg.Add(rank, "jni", "calls", ns.Calls)
		reg.Add(rank, "jni", "array_copy_out", ns.ArrayCopyOut)
		reg.Add(rank, "jni", "array_copy_back", ns.ArrayCopyBack)
		reg.Add(rank, "jni", "copied_bytes", ns.CopiedBytes)
		reg.Add(rank, "jni", "critical_enters", ns.CriticalEnters)
	}
}

// scrapePool folds one buffer pool's counters into the registry. The
// gauges use SetMaxGauge so an unordered scrape of many ranks still
// produces one deterministic per-rank value.
func scrapePool(reg *metrics.Registry, rank int, kind string, p *mpjbuf.Pool) {
	s := p.Stats()
	reg.Add(rank, kind, "gets", s.Gets)
	reg.Add(rank, kind, "hits", s.Hits)
	reg.Add(rank, kind, "misses", s.Misses)
	reg.Add(rank, kind, "frees", s.Frees)
	reg.Add(rank, kind, "allocated", s.Allocated)
	reg.SetGauge(rank, kind, "held_bytes", s.HeldBytes)
	reg.SetGauge(rank, kind, "in_use_bytes", s.InUseBytes)
	reg.SetMaxGauge(rank, kind, "high_water_bytes", s.HighWaterBytes)
}
