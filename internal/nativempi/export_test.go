package nativempi

import (
	"fmt"

	"mv2j/internal/vtime"
)

// Accessors that only the tests read.

// Waitsome blocks until at least one request completes, then finalizes
// and returns the indices of ALL currently-complete requests. Returns
// nil indices when no active requests remain (MPI_UNDEFINED).
func Waitsome(reqs []*Request) ([]int, error) {
	var p *Proc
	for _, r := range reqs {
		if r != nil && !r.waited {
			p = r.p
			break
		}
	}
	if p == nil {
		return nil, nil
	}
	p.poll()
	var idx []int
	var first error
	collect := func() {
		for i, r := range reqs {
			if r == nil || r.waited {
				continue
			}
			if r.done {
				if _, err := r.Wait(); err != nil && first == nil {
					first = err
				}
				idx = append(idx, i)
			}
		}
	}
	collect()
	for len(idx) == 0 {
		p.progressOnce()
		collect()
	}
	return idx, first
}

// MaxClock returns the latest virtual time across all ranks — the
// job's makespan after Run returns.
func (w *World) MaxClock() vtime.Time {
	var maxT vtime.Time
	for _, p := range w.procs {
		maxT = vtime.Max(maxT, p.clock.Now())
	}
	return maxT
}

// UnackedSends reports how many reliable sends are still awaiting
// their acknowledgement packet (their delivery is already settled;
// this is the in-flight ack view).
func (p *Proc) UnackedSends() int {
	if p.rel == nil {
		return 0
	}
	return len(p.rel.await)
}

// DeadLetters reports how many payload packets were drained from dead
// ranks' mailboxes after the run (see drainPending).
func (w *World) DeadLetters() int64 { return w.deadLetters }

// freeListLinked inspects every rank's request free list and reports
// each entry the engine can still reach through posted, sendPending,
// recvPending or finPending, and each entry listed twice — a request
// recycled while linked, or released twice, would be handed out to a
// second owner. free counts the entries inspected.
func (w *World) freeListLinked() (bad []string, free int) {
	for _, p := range w.procs {
		b, n := p.freeListLinked()
		bad = append(bad, b...)
		free += n
	}
	return bad, free
}

// freeListLinked is World.freeListLinked for one rank. The lists are
// the rank's own, so its goroutine may run the check mid-run.
func (p *Proc) freeListLinked() (bad []string, free int) {
	onList := make(map[*Request]bool, len(p.reqFree))
	for _, r := range p.reqFree {
		if onList[r] {
			bad = append(bad, fmt.Sprintf("rank %d: request %p is on the free list twice", p.rank, r))
		}
		onList[r] = true
	}
	check := func(where string, r *Request) {
		if onList[r] {
			bad = append(bad, fmt.Sprintf("rank %d: free request %p is still in %s", p.rank, r, where))
		}
	}
	for _, f := range p.posted.buckets {
		for _, e := range f.q[f.head:] {
			check("posted", e.req)
		}
	}
	for _, e := range p.posted.wild {
		check("posted", e.req)
	}
	for _, r := range p.sendPending {
		check("sendPending", r)
	}
	for _, r := range p.recvPending {
		check("recvPending", r)
	}
	for _, r := range p.finPending {
		check("finPending", r)
	}
	return bad, len(p.reqFree)
}
