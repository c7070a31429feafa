package core

// Helpers that only the tests use.

// WaitallColl completes a batch of non-blocking collectives as one
// bindings call.
func WaitallColl(reqs []*CollRequest) error {
	var first error
	charged := false
	for _, r := range reqs {
		if r == nil {
			continue
		}
		if !charged {
			r.mpi.enterNative()
			charged = true
		}
		if err := r.complete(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
