package nativempi

// Request-set completion operations (MPI_Waitany / MPI_Testall).
// Completed or nil entries follow the MPI convention of
// being skipped (inactive requests).

// Waitany blocks until at least one of the requests completes and
// returns its index and status. Nil or already-completed requests
// count as immediately ready (MPI returns any such index first). With
// no active requests it returns index -1, as MPI_UNDEFINED.
func Waitany(reqs []*Request) (int, Status, error) {
	var p *Proc
	for _, r := range reqs {
		if r != nil && !r.waited {
			p = r.p
			break
		}
	}
	if p == nil {
		return -1, Status{}, nil
	}
	p.poll()
	for {
		for i, r := range reqs {
			if r == nil || r.waited {
				continue // inactive: consumed by an earlier Wait
			}
			if r.done {
				st, err := r.Wait() // completes bookkeeping; no blocking
				return i, st, err
			}
		}
		p.progressOnce()
	}
}

// Testall reports whether every request has completed; when it returns
// true all requests are finalized.
func Testall(reqs []*Request) (bool, error) {
	var p *Proc
	for _, r := range reqs {
		if r != nil {
			p = r.p
			break
		}
	}
	if p == nil {
		return true, nil
	}
	p.poll()
	for _, r := range reqs {
		if r != nil && !r.done {
			p.engYield() // Testall spins must cooperate with the phase engine
			return false, nil
		}
	}
	return true, Waitall(reqs)
}
