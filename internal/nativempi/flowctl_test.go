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

// The flow-control differential contract, in two halves:
//
//   - BELOW the credit limit, enabling flow control must change
//     nothing: receive payloads, final clocks, trace JSONL, and
//     metrics JSON byte-identical to a flow-off run. Credits ride as
//     metadata and credit frames are NIC-autonomous, so the only
//     permitted difference is host-side FlowStats bookkeeping.
//   - SATURATED, runs must stay deterministic across worker widths and
//     fault scenarios, and the receiver's unexpected-queue bytes
//     high-water must stay within UnexpectedQueueBytes — while the
//     same flood with flow control off blows straight through it.

// fcProfile builds the flow-control test profile. credits=0 turns the
// subsystem off; eager bounds both channel classes so message size
// alone selects the protocol.
func fcProfile(credits int, qbytes int64, eager int) Profile {
	return Profile{
		EagerCredits:         credits,
		UnexpectedQueueBytes: qbytes,
		EagerIntra:           eager,
		EagerInter:           eager,
	}
}

func fcWorld(np int, prof Profile, plan *faults.Plan, ft bool, workers int) *World {
	topo := cluster.New(1, np)
	fab := fabric.Default(topo)
	if plan != nil {
		fab = fab.WithFaults(plan)
	}
	w := NewWorld(topo, fab, prof)
	if ft {
		w.EnableFT()
	}
	w.SetEngineWorkers(workers)
	return w
}

// runFlood drives the many-to-one overload workload: every rank except
// 0 sends msgs eager-sized messages to rank 0; rank 0 receives them
// round-robin, tolerating sender deaths in fault-tolerant runs. The
// full deterministic artifact set is captured (zcArtifacts is shared
// with the zero-copy differential suite).
func runFlood(w *World, msgs, msgSize int) (zcArtifacts, error) {
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
		if me == 0 {
			buf := make([]byte, msgSize)
			dead := make([]bool, n)
			var sum byte
			var got int
			for i := 0; i < msgs; i++ {
				for s := 1; s < n; s++ {
					if dead[s] {
						continue
					}
					if _, err := c.Recv(buf, s, 7); err != nil {
						if isFailure(err) {
							dead[s] = true
							continue
						}
						return err
					}
					sum ^= buf[0] ^ buf[msgSize-1]
					got++
				}
			}
			a.recvs[0] = []byte{sum, byte(got), byte(got >> 8)}
		} else {
			msg := pattern(msgSize, byte(me+1))
			for i := 0; i < msgs; i++ {
				if err := c.Send(msg, 0, 7); err != nil {
					if isFailure(err) {
						break
					}
					return err
				}
			}
		}
		a.clocks[me] = p.Clock().Now()
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

// TestFlowControlDifferential is the tentpole acceptance test.
func TestFlowControlDifferential(t *testing.T) {
	const (
		np      = 4
		msgSize = 1024
		eager   = 2048
	)

	t.Run("below-limit-identical", func(t *testing.T) {
		// Each sender's total (8 messages) never exhausts its 16
		// credits and the watermark is unreachable, so flow control has
		// nothing to do — and must visibly do nothing.
		const msgs, credits = 8, 16
		on, err := runFlood(fcWorld(np, fcProfile(credits, 1<<30, eager), nil, false, 0), msgs, msgSize)
		if err != nil {
			t.Fatal(err)
		}
		off, err := runFlood(fcWorld(np, fcProfile(0, 0, eager), nil, false, 0), msgs, msgSize)
		if err != nil {
			t.Fatal(err)
		}
		assertSameArtifacts(t, on, off)
		if on.host.Flow.RNRParks != 0 {
			t.Errorf("below the credit limit but %d RNR parks", on.host.Flow.RNRParks)
		}
		if on.host.Flow.DemotedSends != 0 {
			t.Errorf("below the watermark but %d demoted sends", on.host.Flow.DemotedSends)
		}
		// The flood is one-sided, so credits return as explicit frames.
		// (Senders finish before the frames land, so GrantsApplied may
		// legitimately be zero — the receiver-side emission counter is
		// the witness that the machinery ran.)
		if on.host.Flow.CreditFrames == 0 {
			t.Error("flow control on: receiver emitted no credit frames")
		}
	})

	// Saturated: 64 messages per sender against 8 credits. The bound
	// is exactly what credit accounting guarantees: at most credits
	// un-consumed messages per sender may occupy the receiver's queue,
	// (np-1) * credits * msgSize = UnexpectedQueueBytes.
	const (
		msgs    = 64
		credits = 8
		qbytes  = int64((np - 1) * credits * msgSize)
	)
	prof := fcProfile(credits, qbytes, eager)
	scenarios := []struct {
		name string
		plan func() *faults.Plan
		ft   bool
	}{
		{name: "clean", plan: func() *faults.Plan { return nil }},
		{name: "lossy", plan: func() *faults.Plan { return faults.Uniform(0xF10DE, 0.05) }},
		{name: "crash", plan: func() *faults.Plan {
			plan, err := faults.ParseSpec("crash=2:op30")
			if err != nil {
				t.Fatalf("ParseSpec: %v", err)
			}
			return plan
		}, ft: true},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run("saturated-"+sc.name, func(t *testing.T) {
			w1, err := runFlood(fcWorld(np, prof, sc.plan(), sc.ft, 1), msgs, msgSize)
			if err != nil {
				t.Fatal(err)
			}
			w8, err := runFlood(fcWorld(np, prof, sc.plan(), sc.ft, 8), msgs, msgSize)
			if err != nil {
				t.Fatal(err)
			}
			assertSameArtifacts(t, w1, w8) // worker width must be invisible
			if w8.host.Flow.RNRParks == 0 {
				t.Error("saturated flood produced no RNR parks")
			}
			if hw := w8.host.Match.UnexpBytesHiWater; hw > qbytes {
				t.Errorf("flow on: unexpected-queue bytes high-water %d exceeds bound %d", hw, qbytes)
			}
			off, err := runFlood(fcWorld(np, fcProfile(0, 0, eager), sc.plan(), sc.ft, 8), msgs, msgSize)
			if err != nil {
				t.Fatal(err)
			}
			if hw := off.host.Match.UnexpBytesHiWater; hw <= qbytes {
				t.Errorf("flow off: high-water %d did not exceed bound %d — flood too small to prove anything", hw, qbytes)
			}
		})
	}
}

// TestFlowControlOverloadDegradation pins the eager→rendezvous tier:
// a saturated receiver pushes the queue past the demote watermark, the
// senders are demoted, and demoted traffic reroutes through rendezvous
// (visible as demoted_sends and a rendezvous count in a flood that
// would otherwise be all-eager).
func TestFlowControlOverloadDegradation(t *testing.T) {
	const (
		np, msgs, msgSize, eager = 4, 64, 1024, 2048
		credits                  = 8
	)
	// A tight queue bound (demote watermark at qbytes/2 = two queued
	// messages) guarantees the flood crosses it while credits alone
	// would still admit up to credits*(np-1) queued messages.
	qbytes := int64(4 * msgSize)
	a, err := runFlood(fcWorld(np, fcProfile(credits, qbytes, eager), nil, false, 0), msgs, msgSize)
	if err != nil {
		t.Fatal(err)
	}
	if a.host.Flow.DemotedSends == 0 {
		t.Error("saturated flood past the watermark demoted no sends")
	}
	if a.host.Flow.CreditFrames == 0 {
		t.Error("one-sided flood returned no explicit credit frames")
	}
	if a.host.Flow.RNRWaitPs == 0 {
		t.Error("RNR parks recorded no virtual wait time")
	}
	// The trace must carry the stall time as flow spans, and the phase
	// rollup must bank them in the Flow phase.
	events, _, err := trace.ParseJSONL(bytes.NewReader(a.trace))
	if err != nil {
		t.Fatal(err)
	}
	phases := trace.PhasesByRank(events)
	var flowTime vtime.Duration
	for _, ph := range phases {
		flowTime += ph.Flow
	}
	if int64(flowTime) != a.host.Flow.RNRWaitPs {
		t.Errorf("trace flow phase %d ps != host RNR wait %d ps", int64(flowTime), a.host.Flow.RNRWaitPs)
	}
}

// TestFlowControlDeadSenderPark pins the fault-tolerance bailout: a
// sender parked on credit toward a peer that is then confirmed dead
// must resume (the dead peer's credits become infinite) instead of
// waiting forever. Rank 1 floods rank 0, which dies early; the flood
// must complete without hanging the world.
func TestFlowControlDeadSenderPark(t *testing.T) {
	const msgs, msgSize, eager = 32, 512, 2048
	plan, err := faults.ParseSpec("crash=0:op5")
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	w := fcWorld(2, fcProfile(4, 1<<20, eager), plan, true, 0)
	err = runGuarded(t, w, func(p *Proc) error {
		c := p.CommWorld()
		if p.Rank() == 0 {
			buf := make([]byte, msgSize)
			for {
				if _, err := c.Recv(buf, 1, 7); err != nil {
					return err
				}
			}
		}
		msg := pattern(msgSize, 3)
		for i := 0; i < msgs; i++ {
			if err := c.Send(msg, 0, 7); err != nil {
				if isFailure(err) {
					return nil
				}
				return err
			}
		}
		return nil
	})
	if err != nil && !isFailure(err) {
		t.Fatalf("flood against dying receiver: %v", err)
	}
}

// TestFlowControlChaosOverload is the CI chaos-overload leg: a np=16
// many-to-one flood crossed with message loss and a rank crash, under
// flow control tight enough that every sender parks repeatedly. Each
// scenario must be deterministic across worker widths, and the root's
// queue must honor the byte bound whatever the fabric does to the
// traffic.
func TestFlowControlChaosOverload(t *testing.T) {
	const (
		np, msgs, msgSize, eager = 16, 32, 1024, 2048
		credits                  = 4
	)
	qbytes := int64((np - 1) * credits * msgSize)
	prof := fcProfile(credits, qbytes, eager)
	scenarios := []struct {
		name string
		plan func() *faults.Plan
		ft   bool
	}{
		{name: "clean", plan: func() *faults.Plan { return nil }},
		{name: "lossy", plan: func() *faults.Plan { return faults.Uniform(0xC4A05, 0.03) }},
		{name: "crash", plan: func() *faults.Plan {
			plan, err := faults.ParseSpec("crash=7:op20")
			if err != nil {
				t.Fatalf("ParseSpec: %v", err)
			}
			return plan
		}, ft: true},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			w1, err := runFlood(fcWorld(np, prof, sc.plan(), sc.ft, 1), msgs, msgSize)
			if err != nil {
				t.Fatal(err)
			}
			w8, err := runFlood(fcWorld(np, prof, sc.plan(), sc.ft, 8), msgs, msgSize)
			if err != nil {
				t.Fatal(err)
			}
			assertSameArtifacts(t, w1, w8)
			if w8.host.Flow.RNRParks == 0 {
				t.Error("np=16 incast produced no RNR parks")
			}
			if hw := w8.host.Match.UnexpBytesHiWater; hw > qbytes {
				t.Errorf("unexpected-queue bytes high-water %d exceeds bound %d", hw, qbytes)
			}
		})
	}
}

// FuzzFlowControlEquivalence drives the differential across the
// (credits × eager limit × queue bound × fault plan) space:
// determinism across worker widths always; full on/off artifact
// identity whenever the traffic is provably below both the credit
// limit and the demote watermark.
func FuzzFlowControlEquivalence(f *testing.F) {
	f.Add(uint32(16), uint32(2048), uint32(1<<20), false)
	f.Add(uint32(2), uint32(1024), uint32(4096), false)
	f.Add(uint32(4), uint32(512), uint32(2048), true)
	f.Add(uint32(1), uint32(64), uint32(1024), true)
	f.Add(uint32(31), uint32(4096), uint32(512), false)
	f.Fuzz(func(t *testing.T, rawCredits, rawEager, rawQBytes uint32, faulty bool) {
		const np, msgs = 3, 12
		credits := int(rawCredits%32) + 1
		eager := int(rawEager%4096) + 64
		msgSize := max(1, eager/2)
		qbytes := int64(rawQBytes%(1<<20)) + 1024
		var plan *faults.Plan
		if faulty {
			plan = faults.Uniform(uint64(rawCredits)<<32|uint64(rawEager), 0.05)
		}
		prof := fcProfile(credits, qbytes, eager)
		on1, err := runFlood(fcWorld(np, prof, plan, false, 1), msgs, msgSize)
		if err != nil {
			t.Fatal(err)
		}
		on8, err := runFlood(fcWorld(np, prof, plan, false, 8), msgs, msgSize)
		if err != nil {
			t.Fatal(err)
		}
		assertSameArtifacts(t, on1, on8)
		belowLimit := msgs <= credits &&
			int64((np-1)*msgs*msgSize) < qbytes/2
		if belowLimit {
			off, err := runFlood(fcWorld(np, fcProfile(0, 0, eager), plan, false, 8), msgs, msgSize)
			if err != nil {
				t.Fatal(err)
			}
			assertSameArtifacts(t, on8, off)
			if on8.host.Flow.RNRParks != 0 {
				t.Errorf("below limit but %d parks", on8.host.Flow.RNRParks)
			}
		}
	})
}

// TestProfileValidate covers the reject table: each bad combination
// must fail with a profile-naming error, and the zero-value profile
// (every knob defaulted) plus a sane flow-control setup must pass.
func TestProfileValidate(t *testing.T) {
	good := []Profile{
		{},
		{EagerCredits: 32},
		{EagerCredits: 32, CreditBatch: 32, UnexpectedQueueBytes: 1 << 20},
		{RDMAThreshold: 256 << 10, EagerInter: 16 << 10},
		{RDMAThreshold: -1},
	}
	for i, pr := range good {
		if err := pr.Validate(); err != nil {
			t.Errorf("good[%d]: unexpected Validate error: %v", i, err)
		}
	}
	bad := []Profile{
		{EagerCredits: -1},
		{CreditBatch: -2},
		{CreditBatch: 4},                  // batch without flow control
		{EagerCredits: 4, CreditBatch: 5}, // batch exceeds credits: grant starvation
		{UnexpectedQueueBytes: -1},
		{UnexpectedQueueBytes: 4096}, // bound without flow control
		{EagerIntra: -1},
		{EagerInter: -1},
		{RDMAThreshold: 8192, EagerInter: 16 << 10}, // RDMA below eager limit
	}
	for i, pr := range bad {
		err := pr.Validate()
		if err == nil {
			t.Errorf("bad[%d]: Validate accepted %+v", i, pr)
			continue
		}
		if want := fmt.Sprintf("profile %q", pr.Name); !bytes.Contains([]byte(err.Error()), []byte(want)) {
			t.Errorf("bad[%d]: error %q does not name the profile", i, err)
		}
	}
}
