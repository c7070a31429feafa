package core

import (
	"errors"
	"fmt"

	"mv2j/internal/nativempi"
)

// Threading levels at the bindings layer. MVAPICH2-J inherits the
// native library's MPI_Init_thread contract: the job asks for a level
// and the library grants the minimum of the request and what it was
// built with. The constants alias the native runtime's so profiles
// and bindings code share one vocabulary.
type ThreadLevel = nativempi.ThreadLevel

const (
	ThreadSingle     = nativempi.ThreadSingle
	ThreadFunneled   = nativempi.ThreadFunneled
	ThreadSerialized = nativempi.ThreadSerialized
	ThreadMultiple   = nativempi.ThreadMultiple
)

// InitThread is MPI_Init_thread: request a threading level, receive
// the granted one (min of the request and the library's built level).
// Call before RunThreads; without it the rank is MPI_THREAD_SINGLE.
// Like every bindings call it charges one JNI crossing.
func (m *MPI) InitThread(required ThreadLevel) ThreadLevel {
	m.enterNative()
	return m.proc.InitThread(required)
}

// ThreadLevel reports the granted level (ThreadSingle if InitThread
// was never called).
func (m *MPI) ThreadLevel() ThreadLevel { return m.proc.ThreadLevelProvided() }

// RunThreads forks n simulated application threads on this rank and
// runs fn on each (tid 0..n-1), returning when all have finished —
// the bindings-level face of the native runtime's cooperative thread
// scheduler. Threads multiplex the rank's virtual clock and hand off
// at deterministic points only, so a multithreaded rank produces
// byte-identical artifacts on every host run; it also means the
// shared MPI object needs no host-level locking inside fn. Under
// MPI_THREAD_MULTIPLE, concurrent calls pay the library's
// lock-arbitration cost; under FUNNELED/SERIALIZED the simulated
// runtime enforces the call-pattern rules by deterministic panic.
// A refusal (threads under a fault plan or FT) satisfies errors.Is
// with both ErrUnsupported and nativempi.ErrUnsupported.
func (m *MPI) RunThreads(n int, fn func(tid int) error) error {
	err := m.proc.RunThreads(n, fn)
	if errors.Is(err, nativempi.ErrUnsupported) {
		return fmt.Errorf("%w: %w", ErrUnsupported, err)
	}
	return err
}
