package nativempi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"mv2j/internal/cluster"
	"mv2j/internal/fabric"
	"mv2j/internal/faults"
	"mv2j/internal/jvm"
	"mv2j/internal/metrics"
	"mv2j/internal/trace"
	"mv2j/internal/vtime"
)

// ftWorld builds a fault-tolerant world, optionally with a fault spec
// ("crash=1:op1", "seed=7,drop=0.05,crash=2@40us", ...).
func ftWorld(t *testing.T, nodes, ppn int, spec string) *World {
	t.Helper()
	topo := cluster.New(nodes, ppn)
	fab := fabric.Default(topo)
	if spec != "" {
		plan, err := faults.ParseSpec(spec)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", spec, err)
		}
		fab.WithFaults(plan)
	}
	w := NewWorld(topo, fab, Profile{})
	w.EnableFT()
	return w
}

// runGuarded runs the world with a hang guard: a recovery bug that
// deadlocks survivors must fail the test, not wedge the suite.
func runGuarded(t *testing.T, w *World, fn func(p *Proc) error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- w.Run(fn) }()
	select {
	case err := <-done:
		return err
	case <-time.After(60 * time.Second):
		t.Fatal("fault-tolerant run hung")
		return nil
	}
}

// isFailure mirrors what a fault-tolerant application tests for.
func isFailure(err error) bool {
	return errors.Is(err, ErrProcFailed) || errors.Is(err, ErrRevoked)
}

// ftAllreduceSum is the canonical shrink-and-continue loop the OMB FT
// driver uses, reduced to its skeleton: run iterations of a validated
// allreduce; on a failure-class error revoke, shrink, agree on the
// slowest survivor's iteration (checkpoint rollback), and continue on
// the shrunken communicator. Each rank contributes its world rank + 1,
// so the expected sum identifies exactly which members took part.
func ftAllreduceSum(p *Proc, iters int) (*Comm, uint64, error) {
	c := p.CommWorld()
	contrib := uint64(p.Rank() + 1)
	var last uint64
	for iter := 0; iter < iters; {
		var send, recv [8]byte
		binary.LittleEndian.PutUint64(send[:], contrib)
		err := c.Allreduce(send[:], recv[:], jvm.Long, OpSum)
		if err == nil {
			last = binary.LittleEndian.Uint64(recv[:])
			iter++
			continue
		}
		if !isFailure(err) {
			return nil, 0, err
		}
		for {
			if err := c.Revoke(); err != nil {
				return nil, 0, err
			}
			nc, serr := c.Shrink()
			if serr != nil {
				if isFailure(serr) {
					continue
				}
				return nil, 0, serr
			}
			// Roll back to the slowest survivor's iteration boundary.
			var ib, ob [8]byte
			binary.LittleEndian.PutUint64(ib[:], uint64(iter))
			if aerr := nc.Allreduce(ib[:], ob[:], jvm.Long, OpMin); aerr != nil {
				if isFailure(aerr) {
					c = nc
					continue
				}
				return nil, 0, aerr
			}
			c = nc
			iter = int(binary.LittleEndian.Uint64(ob[:]))
			break
		}
	}
	return c, last, nil
}

// sumOfRanksPlusOne is the expected allreduce result for a member set.
func sumOfRanksPlusOne(ranks []int) uint64 {
	var s uint64
	for _, r := range ranks {
		s += uint64(r + 1)
	}
	return s
}

// The failure detector must wake a survivor blocked in a matched
// receive from the dead rank, exactly one heartbeat period after the
// suspect transition, charged to the virtual clock.
func TestFTDetectorWakesBlockedRecv(t *testing.T) {
	w := ftWorld(t, 1, 2, "crash=1:op1")
	var recvErr error
	var errAt vtime.Time
	err := runGuarded(t, w, func(p *Proc) error {
		c := p.CommWorld()
		buf := make([]byte, 8)
		if p.Rank() == 1 {
			return c.Send(buf, 0, 7) // dies on entry to its first operation
		}
		_, recvErr = c.Recv(buf, 1, 7)
		errAt = p.Clock().Now()
		if recvErr == nil {
			return errors.New("receive from crashed rank succeeded")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !errors.Is(recvErr, ErrProcFailed) {
		t.Fatalf("recv error = %v, want ErrProcFailed", recvErr)
	}
	detect := (suspectBeats + 1) * heartbeatPeriod
	if min := vtime.Time(0).Add(detect); errAt < min {
		t.Fatalf("failure surfaced at %v, before the detector could confirm (min %v)", errAt, min)
	}
	if got := w.FailedRanks(); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("FailedRanks = %v, want [1]", got)
	}
	st := w.Proc(0).Stats()
	if st.PeerSuspects != 1 || st.PeerConfirms != 1 {
		t.Fatalf("suspects/confirms = %d/%d, want 1/1", st.PeerSuspects, st.PeerConfirms)
	}
}

// Without EnableFT the same crash must abort the job exactly as any
// unrecoverable failure does today.
func TestFTCrashWithoutFTAborts(t *testing.T) {
	topo := cluster.New(1, 2)
	fab := fabric.Default(topo)
	plan, err := faults.ParseSpec("crash=1:op1")
	if err != nil {
		t.Fatal(err)
	}
	fab.WithFaults(plan)
	w := NewWorld(topo, fab, Profile{}) // FT deliberately not enabled
	runErr := runGuarded(t, w, func(p *Proc) error {
		c := p.CommWorld()
		buf := make([]byte, 8)
		if p.Rank() == 1 {
			return c.Send(buf, 0, 7)
		}
		_, rerr := c.Recv(buf, 1, 7)
		return rerr
	})
	if runErr == nil {
		t.Fatal("crash without FT did not abort the job")
	}
	if !strings.Contains(runErr.Error(), "crashed") || !strings.Contains(runErr.Error(), "no fault tolerance") {
		t.Fatalf("abort reason %q does not name the crash", runErr)
	}
}

// Eager sends toward a confirmed-dead destination complete locally and
// evaporate (MPI buffered-send semantics); the payload is drained as a
// dead letter after the run.
func TestFTEagerSendToDeadPeerVanishes(t *testing.T) {
	w := ftWorld(t, 1, 2, "crash=1:op1")
	var sendErr error
	err := runGuarded(t, w, func(p *Proc) error {
		c := p.CommWorld()
		if p.Rank() == 1 {
			return c.Send(make([]byte, 4), 0, 1)
		}
		if _, rerr := c.Recv(make([]byte, 4), 1, 1); !errors.Is(rerr, ErrProcFailed) {
			return fmt.Errorf("recv error = %v, want ErrProcFailed", rerr)
		}
		// Rank 1 is now confirmed dead; a small send must still succeed.
		sendErr = c.Send(make([]byte, 8), 1, 2)
		return nil
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if sendErr != nil {
		t.Fatalf("eager send to dead peer failed: %v", sendErr)
	}
	if w.DeadLetters() == 0 {
		t.Fatal("no dead letters drained from the dead rank's mailbox")
	}
}

// Revoke must wake a peer blocked in a receive that no one will ever
// match — the mechanism that flushes survivors out of half-finished
// collectives.
func TestFTRevokeWakesBlockedPeer(t *testing.T) {
	w := ftWorld(t, 1, 2, "")
	var recvErr error
	err := runGuarded(t, w, func(p *Proc) error {
		c := p.CommWorld()
		if p.Rank() == 0 {
			_, recvErr = c.Recv(make([]byte, 4), 1, 9)
			if recvErr == nil {
				return errors.New("revoked receive succeeded")
			}
			return nil
		}
		if err := c.Revoke(); err != nil {
			return err
		}
		if !c.Revoked() {
			return errors.New("revoking rank does not see the communicator revoked")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !errors.Is(recvErr, ErrRevoked) {
		t.Fatalf("recv error = %v, want ErrRevoked", recvErr)
	}
}

// Revoke without EnableFT is a configuration error, not a silent no-op.
func TestFTRevokeRequiresFT(t *testing.T) {
	topo := cluster.New(1, 2)
	w := NewWorld(topo, fabric.Default(topo), Profile{})
	err := runGuarded(t, w, func(p *Proc) error {
		if p.Rank() != 0 {
			return nil
		}
		if err := p.CommWorld().Revoke(); err == nil {
			return errors.New("Revoke succeeded without EnableFT")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
}

// AgreeFT returns the bitwise AND of every contribution when nobody
// fails.
func TestFTAgreeANDSemantics(t *testing.T) {
	w := ftWorld(t, 1, 4, "")
	out := make([]uint64, 4)
	err := runGuarded(t, w, func(p *Proc) error {
		flag := ^uint64(0) &^ (uint64(1) << uint(p.Rank()))
		v, aerr := p.CommWorld().AgreeFT(flag)
		if aerr != nil {
			return aerr
		}
		out[p.Rank()] = v
		return nil
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	want := ^uint64(0) &^ 0xF
	for r, v := range out {
		if v != want {
			t.Fatalf("rank %d agreed %#x, want %#x", r, v, want)
		}
	}
}

// AgreeShrink with no failure returns the original communicator; the
// flag still carries the AND.
func TestFTAgreeShrinkNoFailureKeepsComm(t *testing.T) {
	w := ftWorld(t, 1, 3, "")
	err := runGuarded(t, w, func(p *Proc) error {
		c := p.CommWorld()
		out, nc, failed, aerr := c.AgreeShrink(^uint64(0) &^ 2)
		if aerr != nil {
			return aerr
		}
		if nc != c {
			return errors.New("failure-free AgreeShrink replaced the communicator")
		}
		if len(failed) != 0 {
			return fmt.Errorf("failure-free AgreeShrink reported failed = %v", failed)
		}
		if out != ^uint64(0)&^2 {
			return fmt.Errorf("agreed flag = %#x", out)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
}

// The full recovery path: a rank dies inside an allreduce; survivors
// revoke, shrink, roll back to the slowest survivor's iteration, and
// finish with results validated against the surviving membership.
func TestFTShrinkAndContinueAllreduce(t *testing.T) {
	w := ftWorld(t, 1, 4, "crash=2:op6")
	rec := trace.New(0)
	w.SetRecorder(rec)
	sums := make([]uint64, 4)
	groups := make([][]int, 4)
	err := runGuarded(t, w, func(p *Proc) error {
		c, last, ferr := ftAllreduceSum(p, 4)
		if ferr != nil {
			return ferr
		}
		sums[p.Rank()] = last
		groups[p.Rank()] = c.Group()
		return nil
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := w.FailedRanks(); !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("FailedRanks = %v, want [2]", got)
	}
	survivors := []int{0, 1, 3}
	want := sumOfRanksPlusOne(survivors)
	for _, r := range survivors {
		if sums[r] != want {
			t.Errorf("rank %d final sum = %d, want %d (survivors only)", r, sums[r], want)
		}
		if !reflect.DeepEqual(groups[r], survivors) {
			t.Errorf("rank %d final group = %v, want %v", r, groups[r], survivors)
		}
	}
	var detects, shrinks, agrees int
	for _, ev := range rec.Events() {
		switch {
		case ev.Kind == trace.KindDetect:
			detects++
		case ev.Kind == trace.KindRecovery && strings.HasPrefix(ev.Detail, "shrink"):
			shrinks++
		case ev.Kind == trace.KindRecovery && strings.HasPrefix(ev.Detail, "agree"):
			agrees++
		}
	}
	if detects == 0 || shrinks == 0 || agrees == 0 {
		t.Fatalf("recovery trace incomplete: %d detect, %d shrink, %d agree events", detects, shrinks, agrees)
	}
	// Survivors' reliability protocol settled against the corpse too.
	for _, r := range survivors {
		if n := w.Proc(r).UnackedSends(); n != 0 {
			t.Errorf("rank %d still has %d unacked sends after drain", r, n)
		}
	}
}

// A second crash taking out the recovery coordinator (world rank 0,
// the lowest rank, which coordinates the first shrink agreement) must
// not wedge the protocol: the remaining survivors re-agree under the
// next coordinator and finish on their own communicator.
func TestFTCoordinatorDeathDuringRecovery(t *testing.T) {
	w := ftWorld(t, 1, 4, "crash=3:op1,crash=0:op14")
	sums := make([]uint64, 4)
	groups := make([][]int, 4)
	err := runGuarded(t, w, func(p *Proc) error {
		c, last, ferr := ftAllreduceSum(p, 6)
		if ferr != nil {
			return ferr
		}
		sums[p.Rank()] = last
		groups[p.Rank()] = c.Group()
		return nil
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := w.FailedRanks(); !reflect.DeepEqual(got, []int{0, 3}) {
		t.Fatalf("FailedRanks = %v, want [0 3]", got)
	}
	survivors := []int{1, 2}
	want := sumOfRanksPlusOne(survivors)
	for _, r := range survivors {
		if sums[r] != want {
			t.Errorf("rank %d final sum = %d, want %d", r, sums[r], want)
		}
		if !reflect.DeepEqual(groups[r], survivors) {
			t.Errorf("rank %d final group = %v, want %v", r, groups[r], survivors)
		}
	}
}

// Leak regression (mailbox/teardown audit): after a recovered run, no
// rank — dead or alive — may hold queued packets, posted receives,
// rendezvous state, or unacked sends. The dead rank's mailbox must
// have been drained with its payload traffic accounted as dead
// letters.
func TestFTNoLeaksAfterRecovery(t *testing.T) {
	w := ftWorld(t, 1, 4, "crash=2:op6")
	err := runGuarded(t, w, func(p *Proc) error {
		_, _, ferr := ftAllreduceSum(p, 4)
		return ferr
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	dead := map[int]bool{}
	for _, r := range w.FailedRanks() {
		dead[r] = true
	}
	for r := 0; r < 4; r++ {
		p := w.Proc(r)
		if pkt, ok := p.mb.tryPop(); ok {
			t.Errorf("rank %d mailbox not drained: leftover %v packet from %d", r, pkt.kind, pkt.src)
		}
		if n := p.posted.pending(); n != 0 {
			t.Errorf("rank %d leaks %d posted receives", r, n)
		}
		if n := p.unexp.pendingFromLive(dead); n != 0 {
			t.Errorf("rank %d leaks %d unexpected packets from live ranks", r, n)
		}
		if n := len(p.finPending); n != 0 {
			t.Errorf("rank %d leaks %d zero-copy fences", r, n)
		}
		if n := len(p.recvPending); n != 0 {
			t.Errorf("rank %d leaks %d rendezvous receive states", r, n)
		}
		if n := len(p.sendPending); n != 0 {
			t.Errorf("rank %d leaks %d rendezvous send states", r, n)
		}
		if n := p.UnackedSends(); n != 0 {
			t.Errorf("rank %d leaks %d unacked sends", r, n)
		}
	}
}

// Determinism: the whole observable outcome of a single-crash recovery
// — trace events with virtual timestamps, per-rank counters (dead rank
// included), failure registry, dead letters, makespan, results — must
// be byte-identical across runs. The scenario keeps two survivors, so
// every packet a blocked rank can race on comes from one sender and
// mailbox FIFO order pins the outcome (see the failure-model notes in
// DESIGN.md for why wider jobs only promise value determinism).
func TestFTDeterministicRecoveryArtifacts(t *testing.T) {
	type snapshot struct {
		Events  []trace.Event
		Stats   []ProcStats
		Failed  []int
		Letters int64
		Max     vtime.Time
		Sums    []uint64
	}
	run := func() snapshot {
		w := ftWorld(t, 1, 3, "crash=2:op4")
		rec := trace.New(0)
		w.SetRecorder(rec)
		sums := make([]uint64, 3)
		err := runGuarded(t, w, func(p *Proc) error {
			_, last, ferr := ftAllreduceSum(p, 4)
			if ferr != nil {
				return ferr
			}
			sums[p.Rank()] = last
			return nil
		})
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		stats := make([]ProcStats, 3)
		for r := range stats {
			stats[r] = w.Proc(r).Stats()
		}
		return snapshot{rec.Events(), stats, w.FailedRanks(), w.DeadLetters(), w.MaxClock(), sums}
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("recovery artifacts differ across identical runs:\n%+v\nvs\n%+v", a, b)
	}
	want := sumOfRanksPlusOne([]int{0, 1})
	for _, r := range []int{0, 1} {
		if a.Sums[r] != want {
			t.Fatalf("rank %d final sum = %d, want %d", r, a.Sums[r], want)
		}
	}
	if a.Failed == nil || a.Failed[0] != 2 {
		t.Fatalf("FailedRanks = %v, want [2]", a.Failed)
	}
}

// Chaos soak: a crash on top of 5%% packet loss. Values must stay
// exact and the run must terminate; timing is not compared (loss
// retries interleave with recovery).
func TestFTChaosCrashUnderLoss(t *testing.T) {
	w := ftWorld(t, 1, 4, "seed=7,drop=0.05,crash=2@40us")
	sums := make([]uint64, 4)
	err := runGuarded(t, w, func(p *Proc) error {
		_, last, ferr := ftAllreduceSum(p, 6)
		if ferr != nil {
			return ferr
		}
		sums[p.Rank()] = last
		return nil
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := w.FailedRanks(); !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("FailedRanks = %v, want [2]", got)
	}
	want := sumOfRanksPlusOne([]int{0, 1, 3})
	for _, r := range []int{0, 1, 3} {
		if sums[r] != want {
			t.Errorf("rank %d final sum = %d, want %d", r, sums[r], want)
		}
	}
}

// A revoke purges a survivor's posted rendezvous receive after its CTS
// went out, so the sender's DATA arrives for a request the rank no
// longer knows. Under fault tolerance that late traffic is a dead
// letter, not a protocol violation: every survivor recovers, the job
// completes, and the dead-letter count is the same on every run.
func TestFTLateRendezvousAfterRevoke(t *testing.T) {
	run := func() []byte {
		w := ftWorld(t, 1, 3, "crash=0:op2")
		met := metrics.NewRegistry()
		w.SetMetrics(met)
		sizes := make([]int, 3)
		err := runGuarded(t, w, func(p *Proc) error {
			c := p.CommWorld()
			for _, n := range []int{8, 20000} {
				right, left := (c.Rank()+1)%c.Size(), (c.Rank()+c.Size()-1)%c.Size()
				_, err := c.Sendrecv(pattern(n, byte(p.Rank())), right, 0, make([]byte, n), left, 0)
				if err == nil {
					continue
				}
				if !isFailure(err) {
					return err
				}
				if err := c.Revoke(); err != nil {
					return err
				}
				if c, err = c.Shrink(); err != nil {
					return err
				}
				if err := c.Barrier(); err != nil {
					return err
				}
			}
			sizes[p.Rank()] = c.Size()
			// Agree before leaving, as the OMB FT driver does: a rank
			// that returns early would leave the others waiting in Shrink.
			_, err := c.AgreeFT(1)
			return err
		})
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		if got := w.FailedRanks(); !reflect.DeepEqual(got, []int{0}) {
			t.Fatalf("FailedRanks = %v, want [0]", got)
		}
		if sizes[1] != 2 || sizes[2] != 2 {
			t.Fatalf("survivor communicator sizes %v, want 2 at ranks 1 and 2", sizes)
		}
		if met.Counter(1, "ft", "dead_letters")+met.Counter(2, "ft", "dead_letters") == 0 {
			t.Fatal("no survivor counted the late rendezvous traffic as a dead letter")
		}
		var buf bytes.Buffer
		if err := met.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if a, b := run(), run(); !bytes.Equal(a, b) {
		t.Fatalf("metrics differ across identical runs:\n%s\nvs\n%s", a, b)
	}
}
