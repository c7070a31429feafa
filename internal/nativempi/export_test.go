package nativempi

import "mv2j/internal/vtime"

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
