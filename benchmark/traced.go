package main

import (
	"fmt"
	"strings"
	"time"

	"mv2j/internal/core"
	"mv2j/internal/metrics"
	"mv2j/internal/nativempi"
	"mv2j/internal/omb"
	"mv2j/internal/trace"
	"mv2j/internal/vtime"
)

// perLayer are the single-layer metrics of the traced run, grouped by
// the module that is the layer. They have no bound: they say where an
// end-to-end number comes from, they are not themselves gated. README.md
// lists which end-to-end metric each should move, on which workload.
var perLayer = []metricDef{
	// omb: the op itself, decomposed by step.
	{Name: "omb.ops", Unit: "count", Better: "higher"},
	{Name: "omb.op_wall_s_p25", Unit: "s", Better: "lower"},
	{Name: "omb.op_wall_s_p75", Unit: "s", Better: "lower"},
	{Name: "omb.op_wall_s_max", Unit: "s", Better: "lower"},
	{Name: "omb.step_wall_s.1", Unit: "s", Better: "lower"},
	{Name: "omb.step_wall_s.2", Unit: "s", Better: "lower"},
	{Name: "omb.step_wall_s.3", Unit: "s", Better: "lower"},
	{Name: "omb.step_wall_s.4", Unit: "s", Better: "lower"},
	// core: the bindings, by depth differencing.
	{Name: "core.setup_ms_per_world", Unit: "ms", Better: "lower"},
	{Name: "core.teardown_ms_per_world", Unit: "ms", Better: "lower"},
	{Name: "core.java_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "core.staging_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "core.staging_ns_per_kib", Unit: "ns", Better: "lower"},
	// jvm
	{Name: "jvm.new_machine_ms", Unit: "ms", Better: "lower"},
	{Name: "jvm.heap_bytes_per_world", Unit: "B", Better: "lower"},
	{Name: "jvm.alloc_direct_ns", Unit: "ns", Better: "lower"},
	{Name: "jvm.new_array_ns", Unit: "ns", Better: "lower"},
	{Name: "jvm.array_elem_ns", Unit: "ns", Better: "lower"},
	{Name: "jvm.bytebuffer_elem_ns", Unit: "ns", Better: "lower"},
	{Name: "jvm.bulk_copy_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "jvm.gc_collections_per_op", Unit: "count", Better: "lower"},
	{Name: "jvm.gc_bytes_moved_per_op", Unit: "B", Better: "lower"},
	// jni
	{Name: "jni.calls_per_op", Unit: "count", Better: "lower"},
	{Name: "jni.copied_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "jni.arrays_pinned_per_op", Unit: "count", Better: "higher"},
	{Name: "jni.crossing_ns", Unit: "ns", Better: "lower"},
	{Name: "jni.array_copy_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "jni.direct_addr_ns", Unit: "ns", Better: "lower"},
	// mpjbuf
	{Name: "mpjbuf.gets_per_op", Unit: "count", Better: "lower"},
	{Name: "mpjbuf.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "mpjbuf.allocated_per_op", Unit: "count", Better: "lower"},
	{Name: "mpjbuf.high_water_bytes", Unit: "B", Better: "lower"},
	{Name: "mpjbuf.get_free_ns", Unit: "ns", Better: "lower"},
	{Name: "mpjbuf.write_read_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "mpjbuf.pack_runs_gbps", Unit: "GB/s", Better: "higher"},
	// nativempi
	{Name: "nativempi.native_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "nativempi.delivered_per_op", Unit: "count", Better: "lower"},
	{Name: "nativempi.engine_phases_per_op", Unit: "count", Better: "lower"},
	{Name: "nativempi.msgs_per_phase", Unit: "count", Better: "higher"},
	{Name: "nativempi.engine_handoffs_per_op", Unit: "count", Better: "lower"},
	{Name: "nativempi.engine_yields_per_op", Unit: "count", Better: "lower"},
	{Name: "nativempi.engine_parallel_speedup", Unit: "ratio", Better: "higher"},
	{Name: "nativempi.mailbox_pushes_per_op", Unit: "count", Better: "lower"},
	{Name: "nativempi.mailbox_batch_ratio", Unit: "ratio", Better: "higher"},
	{Name: "nativempi.match_probes_per_lookup", Unit: "ratio", Better: "lower"},
	{Name: "nativempi.unexp_depth_hiwater", Unit: "count", Better: "lower"},
	{Name: "nativempi.copies_per_msg", Unit: "ratio", Better: "lower"},
	{Name: "nativempi.bytes_copied_per_op", Unit: "B", Better: "lower"},
	{Name: "nativempi.bytes_elided_per_op", Unit: "B", Better: "higher"},
	{Name: "nativempi.arena_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "nativempi.reg_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "nativempi.rdma_writes_per_op", Unit: "count", Better: "higher"},
	{Name: "nativempi.rdma_bytes_placed_per_op", Unit: "B", Better: "higher"},
	{Name: "nativempi.flow_rnr_parks_per_op", Unit: "count", Better: "lower"},
	{Name: "nativempi.flow_demoted_sends_per_op", Unit: "count", Better: "lower"},
	{Name: "nativempi.flow_credit_frames_per_op", Unit: "count", Better: "lower"},
	{Name: "nativempi.thread_handoffs_per_op", Unit: "count", Better: "lower"},
	{Name: "nativempi.thread_contended_per_op", Unit: "count", Better: "lower"},
	{Name: "nativempi.retransmits_per_op", Unit: "count", Better: "lower"},
	{Name: "nativempi.ft_recoveries_per_op", Unit: "count", Better: "lower"},
	{Name: "nativempi.world_setup_ms", Unit: "ms", Better: "lower"},
	// fabric, faults, cluster, vtime
	{Name: "fabric.verdict_ns", Unit: "ns", Better: "lower"},
	{Name: "fabric.burst_verdicts_ns", Unit: "ns", Better: "lower"},
	{Name: "fabric.transfer_time_ns", Unit: "ns", Better: "lower"},
	{Name: "faults.drops_per_op", Unit: "count", Better: "lower"},
	{Name: "cluster.new_topology_us", Unit: "us", Better: "lower"},
	{Name: "vtime.advance_ns", Unit: "ns", Better: "lower"},
	// trace, metrics, obs: the price of the repo's own recorders.
	{Name: "trace.record_ns", Unit: "ns", Better: "lower"},
	{Name: "trace.events_per_op", Unit: "count", Better: "lower"},
	{Name: "trace.dropped_per_op", Unit: "count", Better: "lower"},
	{Name: "trace.export_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "metrics.observe_ns", Unit: "ns", Better: "lower"},
	{Name: "metrics.series_per_op", Unit: "count", Better: "lower"},
	{Name: "obs.recorders_on_ratio", Unit: "ratio", Better: "lower"},
	// virt: the model's own decomposition, deterministic per seed.
	{Name: "virt.copyin_us", Unit: "us/msg", Better: "lower"},
	{Name: "virt.wire_us", Unit: "us/msg", Better: "lower"},
	{Name: "virt.copyout_us", Unit: "us/msg", Better: "lower"},
	{Name: "virt.ack_us", Unit: "us/msg", Better: "lower"},
	{Name: "virt.retransmit_us", Unit: "us/msg", Better: "lower"},
	{Name: "virt.flow_us", Unit: "us/msg", Better: "lower"},
	{Name: "virt.gc_us", Unit: "us/msg", Better: "lower"},
	{Name: "virt.coll_us_per_call", Unit: "us/call", Better: "lower"},
	{Name: "virt.recovery_us_per_op", Unit: "us/op", Better: "lower"},
	{Name: "virt.java_overhead_us", Unit: "us/msg", Better: "lower"},
	{Name: "virt.arrays_overhead_us", Unit: "us/msg", Better: "lower"},
	// attr: shares of op_wall_s; bench: the instrument's own cost.
	{Name: "attr.setup_share", Unit: "ratio", Better: "lower"},
	{Name: "attr.native_share", Unit: "ratio", Better: "lower"},
	{Name: "attr.java_share", Unit: "ratio", Better: "lower"},
	{Name: "attr.staging_share", Unit: "ratio", Better: "lower"},
	{Name: "attr.unattributed_share", Unit: "ratio", Better: "lower"},
	{Name: "bench.span_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "bench.calib_ms", Unit: "ms", Better: "lower"},
}

// tracedCounts is how many ops of each kind the traced run makes.
type tracedCounts struct {
	warmups, plain, recorded, setupReps, mirrorReps int
}

// capture attaches the repo's own recorders to every step of the
// recorded ops and keeps what they collected.
type capture struct {
	host []*nativempi.HostStats
	regs []*metrics.Registry
	recs []*trace.Recorder
}

func (c *capture) decorate(cfg *omb.Config) {
	hs, reg, rec := &nativempi.HostStats{}, metrics.NewRegistry(), trace.New(0)
	c.host, c.regs, c.recs = append(c.host, hs), append(c.regs, reg), append(c.recs, rec)
	cfg.Core.HostStats, cfg.Core.Metrics, cfg.Core.Trace = hs, reg, rec
}

// counts is everything the recorders counted, summed over the ranks,
// steps and ops of the recorded ops.
type counts struct {
	host       nativempi.HostStats // sums; UnexpDepthHiWater is a maximum
	counter    map[string]int64    // registry counters by "kind/label"
	gaugeMax   map[string]int64
	series     int
	events     int64
	dropped    int64
	phases     trace.Phases
	byKind     map[trace.Kind]trace.Stat
	exportByte int64
	exportTime time.Duration
}

type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

func (c *capture) sum() (counts, error) {
	out := counts{counter: map[string]int64{}, gaugeMax: map[string]int64{}, byKind: map[trace.Kind]trace.Stat{}}
	for _, hs := range c.host {
		h := &out.host
		h.Mailbox.Pushes += hs.Mailbox.Pushes
		h.Mailbox.Swaps += hs.Mailbox.Swaps
		h.Mailbox.Batched += hs.Mailbox.Batched
		h.Arena.Borrows += hs.Arena.Borrows
		h.Arena.Hits += hs.Arena.Hits
		h.Copy.Copies += hs.Copy.Copies
		h.Copy.BytesCopied += hs.Copy.BytesCopied
		h.Copy.BytesElided += hs.Copy.BytesElided
		h.Match.PostedLookups += hs.Match.PostedLookups
		h.Match.PostedProbes += hs.Match.PostedProbes
		h.Match.UnexpLookups += hs.Match.UnexpLookups
		h.Match.UnexpProbes += hs.Match.UnexpProbes
		h.Match.UnexpDepthHiWater = max(h.Match.UnexpDepthHiWater, hs.Match.UnexpDepthHiWater)
		h.Engine.Phases += hs.Engine.Phases
		h.Engine.Delivered += hs.Engine.Delivered
		h.Engine.Handoffs += hs.Engine.Handoffs
		h.Engine.Yields += hs.Engine.Yields
		h.Reg.Hits += hs.Reg.Hits
		h.Reg.Misses += hs.Reg.Misses
		h.RDMA.Writes += hs.RDMA.Writes
		h.RDMA.BytesPlaced += hs.RDMA.BytesPlaced
		h.Flow.RNRParks += hs.Flow.RNRParks
		h.Flow.DemotedSends += hs.Flow.DemotedSends
		h.Flow.CreditFrames += hs.Flow.CreditFrames
		h.Threads.Handoffs += hs.Threads.Handoffs
		h.Threads.Contended += hs.Threads.Contended
	}
	for _, reg := range c.regs {
		snap := reg.Snapshot()
		out.series += len(snap.Counters) + len(snap.Gauges) + len(snap.Histograms)
		for _, s := range snap.Counters {
			out.counter[s.Kind+"/"+s.Label] += s.Value
		}
		for _, s := range snap.Gauges {
			k := s.Kind + "/" + s.Label
			out.gaugeMax[k] = max(out.gaugeMax[k], s.Value)
		}
	}
	for _, rec := range c.recs {
		events := rec.Events()
		out.events += int64(len(events))
		out.dropped += rec.Dropped()
		for _, ph := range trace.PhasesByRank(events) {
			out.phases.CopyIn += ph.CopyIn
			out.phases.Wire += ph.Wire
			out.phases.CopyOut += ph.CopyOut
			out.phases.Ack += ph.Ack
			out.phases.Retransmit += ph.Retransmit
			out.phases.Flow += ph.Flow
			out.phases.GC += ph.GC
			out.phases.Coll += ph.Coll
			out.phases.Recovery += ph.Recovery
		}
		for k, st := range trace.Rollup(events) {
			agg := out.byKind[k.Kind]
			agg.Count += st.Count
			agg.Bytes += st.Bytes
			agg.Time += st.Time
			out.byKind[k.Kind] = agg
		}
		var cw countingWriter
		t0 := time.Now()
		if err := rec.WriteJSONL(&cw); err != nil {
			return out, fmt.Errorf("trace export: %w", err)
		}
		out.exportTime += time.Since(t0)
		out.exportByte += cw.n
	}
	// The satellite's conservation check: the additive virt.* parts,
	// taken per kind from trace.Rollup, must equal Phases.Sum() taken
	// from trace.PhasesByRank, to the picosecond.
	var parts vtime.Duration
	for _, k := range []trace.Kind{trace.KindCopyIn, trace.KindSend, trace.KindRecv, trace.KindRMA,
		trace.KindCopyOut, trace.KindAck, trace.KindRetransmit, trace.KindFlow, trace.KindGC} {
		parts += out.byKind[k].Time
	}
	if parts != out.phases.Sum() {
		return out, fmt.Errorf("virt parts sum to %d ps, Phases.Sum() is %d ps", int64(parts), int64(out.phases.Sum()))
	}
	return out, nil
}

// emptyWorld runs the step's world with a rank main that returns at
// once: everything the step costs before and after its first message.
func emptyWorld(s step) (time.Duration, error) {
	cfg := s.Cfg.Core
	bytes := jvmBytes(cfg.Nodes*cfg.PPN, payloadFor(s))
	cfg.HeapSize, cfg.ArenaSize = bytes, bytes
	t0 := time.Now()
	err := core.Run(cfg, func(*core.MPI) error { return nil })
	return time.Since(t0), err
}

// addOpSpans places the ops of one timed run, and their steps, in the
// span file.
func addOpSpans(tr *tracer, parent int, kind string, w workload, run timedRun, firstOp int) {
	for i, start := range run.OpStart {
		op := firstOp + i
		at := start
		id := tr.add(parent, kind, "bench", op, at, time.Duration(run.OpWall[i]*float64(time.Second)))
		for j, s := range w.Steps {
			d := time.Duration(run.StepWall[j][i] * float64(time.Second))
			tr.add(id, "step:"+s.Name, "omb", op, at, d)
			at = at.Add(d)
		}
	}
}

// runTraced is the --trace 1 run: a few ops of the workload untraced,
// the same with the repo's recorders attached, one at EngineWorkers=1,
// the set-up of every step alone, the mirror at three depths with spans,
// and the probes. It fills rep with every per-layer metric.
func runTraced(o options, rep *report) error {
	n := tracedCounts{warmups: 1, plain: 5, recorded: 3, setupReps: 3, mirrorReps: 3}
	if o.Smoke {
		n = tracedCounts{warmups: 0, plain: 1, recorded: 1, setupReps: 1, mirrorReps: 1}
	}
	set := func(name string, v float64) { rep.set(perLayer, name, v) }
	fail := func(format string, args ...any) {
		rep.Result.Failed++
		rep.Failures = append(rep.Failures, fmt.Sprintf(format, args...))
	}

	tr := newTracer()
	root := tr.begin(0, "traced-run:"+o.Workload, "bench", 0, -1)
	calib := []float64{calibrate()}
	w, err := setUp(o.Workload, o.Seed, n.warmups, false)
	if err != nil {
		return err
	}

	// 1. Plain ops: the untraced baseline the ratios below divide by.
	plain := timeOps(w, 0, n.plain, nil)
	addOpSpans(tr, root, "op", w, plain, 1)
	if len(plain.OpWall) == 0 {
		return fmt.Errorf("%s: no plain op succeeded: %s", o.Workload, strings.Join(plain.Failures, "; "))
	}
	opWall := median(plain.OpWall)
	set("omb.ops", float64(len(plain.OpWall)))
	set("omb.op_wall_s_p25", quantile(plain.OpWall, 0.25))
	set("omb.op_wall_s_p75", quantile(plain.OpWall, 0.75))
	set("omb.op_wall_s_max", maxOf(plain.OpWall))
	slots := make([]float64, 4)
	for i, s := range w.Steps {
		slots[s.Slot-1] += median(plain.StepWall[i])
	}
	for i, v := range slots {
		set(fmt.Sprintf("omb.step_wall_s.%d", i+1), v)
	}

	// 2. Recorded ops: HostStats, metrics registry and trace recorder on.
	var recs capture
	recorded := timeOps(w, 0, n.recorded, recs.decorate)
	addOpSpans(tr, root, "op-recorded", w, recorded, 1+plain.Attempted)
	if len(recorded.OpWall) == 0 {
		return fmt.Errorf("%s: no recorded op succeeded: %s", o.Workload, strings.Join(recorded.Failures, "; "))
	}
	if err := sameRows(w, plain.First, recorded.First); err != nil {
		fail("recorded ops: virtual rows differ from the untraced ones: %v", err)
	}
	c, err := recs.sum()
	if err != nil {
		fail("%v", err)
	}
	ops := float64(recorded.Attempted)
	perOp := func(v int64) float64 { return float64(v) / ops }
	h := c.host
	set("obs.recorders_on_ratio", ratio(median(recorded.OpWall), opWall))
	set("nativempi.delivered_per_op", perOp(h.Engine.Delivered))
	set("nativempi.engine_phases_per_op", perOp(h.Engine.Phases))
	set("nativempi.msgs_per_phase", ratio(float64(h.Engine.Delivered), float64(h.Engine.Phases)))
	set("nativempi.engine_handoffs_per_op", perOp(h.Engine.Handoffs))
	set("nativempi.engine_yields_per_op", perOp(h.Engine.Yields))
	set("nativempi.mailbox_pushes_per_op", perOp(h.Mailbox.Pushes))
	set("nativempi.mailbox_batch_ratio", ratio(float64(h.Mailbox.Batched), float64(h.Mailbox.Swaps)))
	set("nativempi.match_probes_per_lookup", ratio(float64(h.Match.PostedProbes+h.Match.UnexpProbes), float64(h.Match.PostedLookups+h.Match.UnexpLookups)))
	set("nativempi.unexp_depth_hiwater", float64(h.Match.UnexpDepthHiWater))
	set("nativempi.copies_per_msg", ratio(float64(h.Copy.Copies), float64(h.Engine.Delivered)))
	set("nativempi.bytes_copied_per_op", perOp(h.Copy.BytesCopied))
	set("nativempi.bytes_elided_per_op", perOp(h.Copy.BytesElided))
	set("nativempi.arena_hit_ratio", ratio(float64(h.Arena.Hits), float64(h.Arena.Borrows)))
	set("nativempi.reg_hit_ratio", ratio(float64(h.Reg.Hits), float64(h.Reg.Hits+h.Reg.Misses)))
	set("nativempi.rdma_writes_per_op", perOp(h.RDMA.Writes))
	set("nativempi.rdma_bytes_placed_per_op", perOp(h.RDMA.BytesPlaced))
	set("nativempi.flow_rnr_parks_per_op", perOp(h.Flow.RNRParks))
	set("nativempi.flow_demoted_sends_per_op", perOp(h.Flow.DemotedSends))
	set("nativempi.flow_credit_frames_per_op", perOp(h.Flow.CreditFrames))
	set("nativempi.thread_handoffs_per_op", perOp(h.Threads.Handoffs))
	set("nativempi.thread_contended_per_op", perOp(h.Threads.Contended))
	set("nativempi.retransmits_per_op", perOp(c.counter["proc/retransmits"]))
	set("nativempi.ft_recoveries_per_op", perOp(int64(c.byKind[trace.KindRecovery].Count)))
	set("faults.drops_per_op", perOp(c.counter["proc/fault_drops"]))
	set("jvm.gc_collections_per_op", perOp(c.counter["jvm/collections"]))
	set("jvm.gc_bytes_moved_per_op", perOp(c.counter["jvm/gc_bytes_moved"]))
	set("jni.calls_per_op", perOp(c.counter["jni/calls"]))
	set("jni.copied_bytes_per_op", perOp(c.counter["jni/copied_bytes"]))
	set("jni.arrays_pinned_per_op", perOp(c.counter["jni/critical_enters"]))
	gets := c.counter["pool/gets"] + c.counter["collpool/gets"]
	set("mpjbuf.gets_per_op", perOp(gets))
	set("mpjbuf.hit_ratio", ratio(float64(c.counter["pool/hits"]+c.counter["collpool/hits"]), float64(gets)))
	set("mpjbuf.allocated_per_op", perOp(c.counter["pool/allocated"]+c.counter["collpool/allocated"]))
	set("mpjbuf.high_water_bytes", float64(max(c.gaugeMax["pool/high_water_bytes"], c.gaugeMax["collpool/high_water_bytes"])))
	set("trace.events_per_op", perOp(c.events))
	set("trace.dropped_per_op", perOp(c.dropped))
	set("trace.export_mb_per_s", ratio(float64(c.exportByte)/1e6, c.exportTime.Seconds()))
	set("metrics.series_per_op", float64(c.series)/ops)
	perMsg := func(d vtime.Duration) float64 { return ratio(d.Micros(), float64(h.Engine.Delivered)) }
	set("virt.copyin_us", perMsg(c.phases.CopyIn))
	set("virt.wire_us", perMsg(c.phases.Wire))
	set("virt.copyout_us", perMsg(c.phases.CopyOut))
	set("virt.ack_us", perMsg(c.phases.Ack))
	set("virt.retransmit_us", perMsg(c.phases.Retransmit))
	set("virt.flow_us", perMsg(c.phases.Flow))
	set("virt.gc_us", perMsg(c.phases.GC))
	set("virt.coll_us_per_call", ratio(c.phases.Coll.Micros(), float64(c.byKind[trace.KindColl].Count)))
	set("virt.recovery_us_per_op", c.phases.Recovery.Micros()/ops)

	// 3. One op at EngineWorkers=1, the plain serial baseline.
	serial := timeOps(w, 0, 1, func(cfg *omb.Config) { cfg.Core.EngineWorkers = 1 })
	addOpSpans(tr, root, "op-serial", w, serial, 1+plain.Attempted+recorded.Attempted)
	if len(serial.OpWall) == 1 {
		set("nativempi.engine_parallel_speedup", ratio(serial.OpWall[0], opWall))
		if err := sameRows(w, plain.First, serial.First); err != nil {
			fail("serial op: virtual rows differ: %v", err)
		}
	} else {
		set("nativempi.engine_parallel_speedup", 0)
	}
	for _, run := range []timedRun{plain, recorded, serial} {
		rep.Result.Attempted += run.Attempted
		rep.Result.Failed += run.Failed
		rep.Failures = append(rep.Failures, run.Failures...)
	}

	// 4. Every step's world with an empty rank main: the op's set-up.
	setupWall, heapBytes := 0.0, 0.0
	for _, s := range w.Steps {
		id := tr.begin(root, "setup-world:"+s.Name, "core", 0, -1)
		var walls []float64
		for i := 0; i < n.setupReps; i++ {
			d, err := emptyWorld(s)
			if err != nil {
				return fmt.Errorf("empty world of step %s: %w", s.Name, err)
			}
			walls = append(walls, d.Seconds())
		}
		tr.end(id)
		setupWall += median(walls)
		np := s.Cfg.Core.Nodes * s.Cfg.Core.PPN
		heapBytes += float64(2 * np * jvmBytes(np, payloadFor(s)))
	}
	set("jvm.heap_bytes_per_world", heapBytes/float64(len(w.Steps)))

	// 5. The mirror at three depths. The traced repetitions fill the span
	// file; the timings come from untraced repetitions, because two clock
	// reads per call are a third of what a small message costs.
	depths := []depth{depthNative, depthBuffer, depthArrays}
	var tracedWall []float64
	for i := 0; i < n.mirrorReps; i++ {
		id := tr.begin(root, "mirror-op", "bench", i+1, -1)
		for _, d := range depths {
			run, err := runMirror(w.Mirror, d, tr, id, i+1)
			if err != nil {
				return err
			}
			if d == depthBuffer {
				tracedWall = append(tracedWall, run.Wall.Seconds())
			}
		}
		tr.end(id)
	}
	var nativeNs, javaNs, stagingNs, stagingKiBNs, setupMs, teardownMs, untracedWall []float64
	var virt [3]float64
	var loops [3][]float64 // seconds, rank 0's message loop by depth
	for i := 0; i < n.mirrorReps; i++ {
		var runs [3]mirrorRun
		for _, d := range depths {
			if runs[d], err = runMirror(w.Mirror, d, nil, 0, 0); err != nil {
				return err
			}
			virt[d] = runs[d].VirtUs // deterministic: every repetition reads the same
			loops[d] = append(loops[d], runs[d].Loop.Seconds())
		}
		nat, buf, arr := runs[depthNative], runs[depthBuffer], runs[depthArrays]
		nativeNs = append(nativeNs, ratio(float64(nat.Loop), float64(nat.Host.Engine.Delivered)))
		javaNs = append(javaNs, ratio(float64(buf.Loop-nat.Loop), float64(buf.Host.Engine.Delivered)))
		stagingNs = append(stagingNs, ratio(float64(arr.Loop-buf.Loop), float64(arr.Host.Engine.Delivered)))
		stagingKiBNs = append(stagingKiBNs, ratio(float64(arr.Loop-buf.Loop), float64(arr.Bytes)/1024))
		setupMs = append(setupMs, buf.Setup.Seconds()*1e3, arr.Setup.Seconds()*1e3)
		teardownMs = append(teardownMs, buf.Teardown.Seconds()*1e3, arr.Teardown.Seconds()*1e3)
		untracedWall = append(untracedWall, buf.Wall.Seconds())
	}
	set("nativempi.native_ns_per_msg", median(nativeNs))
	set("core.java_ns_per_msg", median(javaNs))
	set("core.staging_ns_per_msg", median(stagingNs))
	set("core.staging_ns_per_kib", median(stagingKiBNs))
	set("core.setup_ms_per_world", median(setupMs))
	set("core.teardown_ms_per_world", median(teardownMs))
	set("bench.span_overhead_ratio", ratio(median(tracedWall), median(untracedWall)))
	set("virt.java_overhead_us", virt[depthBuffer]-virt[depthNative])
	set("virt.arrays_overhead_us", virt[depthArrays]-virt[depthBuffer])

	// 6. The probes.
	probes := tr.begin(root, "probes", "bench", 0, -1)
	runProbes(w, tr, probes, o.Smoke, set)
	tr.end(probes)

	// Shares of op_wall_s. The mirror's loop, scaled to the mirrored
	// step's iteration count, estimates that step's messaging time at each
	// depth; the other steps' messaging, and whatever the mirror does not
	// mirror (simulated threads, the suites' own bookkeeping), stays
	// unattributed.
	share := func(seconds float64) float64 { return ratio(seconds, opWall) }
	loopS := func(d depth) float64 { return median(loops[d]) * w.Mirror.Scale }
	setupShare := share(setupWall)
	nativeShare := share(loopS(depthNative))
	javaShare := share(loopS(depthBuffer) - loopS(depthNative))
	stagingShare := 0.0
	if w.Steps[w.Mirror.Step].Cfg.Mode == omb.ModeArrays {
		stagingShare = share(loopS(depthArrays) - loopS(depthBuffer))
	}
	set("attr.setup_share", setupShare)
	set("attr.native_share", nativeShare)
	set("attr.java_share", javaShare)
	set("attr.staging_share", stagingShare)
	set("attr.unattributed_share", 1-setupShare-nativeShare-javaShare-stagingShare)

	calib = append(calib, calibrate())
	set("bench.calib_ms", mean(calib))
	tr.end(root)
	if err := tr.write(o.Out); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	rep.Result.Correct = rep.Result.Failed == 0
	return rep.complete(perLayer)
}
