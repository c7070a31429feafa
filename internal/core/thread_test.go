package core

import (
	"errors"
	"fmt"
	"testing"

	"mv2j/internal/nativempi"
)

// TestInitThreadBindings: the bindings-level MPI_Init_thread grants
// min(required, job level), and Config.ThreadLevel overrides the
// profile's built level.
func TestInitThreadBindings(t *testing.T) {
	cfg := mv2Config(1, 2)
	cfg.ThreadLevel = ThreadSerialized
	err := Run(cfg, func(m *MPI) error {
		if got := m.ThreadLevel(); got != ThreadSingle {
			return fmt.Errorf("before InitThread: %v, want SINGLE", got)
		}
		if got := m.InitThread(ThreadMultiple); got != ThreadSerialized {
			return fmt.Errorf("InitThread(MULTIPLE) = %v, want SERIALIZED", got)
		}
		if got := m.ThreadLevel(); got != ThreadSerialized {
			return fmt.Errorf("ThreadLevel() = %v, want SERIALIZED", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRunThreadsBindings: simulated threads drive the full bindings
// stack (JVM buffers, JNI crossings, native calls) deterministically —
// two runs produce the same virtual finish time and intact payloads.
func TestRunThreadsBindings(t *testing.T) {
	run := func() (float64, error) {
		var finish float64
		err := Run(mv2Config(2, 1), func(m *MPI) error {
			c := m.CommWorld()
			m.InitThread(ThreadMultiple)
			const T, n = 3, 2048
			err := m.RunThreads(T, func(tid int) error {
				buf := m.JVM().MustAllocateDirect(n)
				if c.Rank() == 0 {
					for i := 0; i < n; i++ {
						buf.PutByteAt(i, byte(i+tid))
					}
					return c.Send(buf, n, BYTE, 1, 40+tid)
				}
				if _, err := c.Recv(buf, n, BYTE, 0, 40+tid); err != nil {
					return err
				}
				for i := 0; i < n; i++ {
					if buf.ByteAt(i) != byte(i+tid) {
						return fmt.Errorf("tid %d: buf[%d] corrupted", tid, i)
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				finish = m.Wtime()
			}
			return nil
		})
		return finish, err
	}
	t0, err := run()
	if err != nil {
		t.Fatal(err)
	}
	t1, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if t0 != t1 || t0 <= 0 {
		t.Fatalf("nondeterministic multithreaded bindings run: %v vs %v", t0, t1)
	}
}

// TestRunThreadsUnderFT: the bindings pass the native refusal of
// threads in a fault-tolerant world on as the bindings' own
// ErrUnsupported, without losing the native sentinel.
func TestRunThreadsUnderFT(t *testing.T) {
	cfg := mv2Config(1, 2)
	cfg.FT = true
	err := Run(cfg, func(m *MPI) error {
		m.InitThread(ThreadMultiple)
		err := m.RunThreads(2, func(int) error { return nil })
		if !errors.Is(err, ErrUnsupported) || !errors.Is(err, nativempi.ErrUnsupported) {
			return fmt.Errorf("RunThreads under FT: err=%v, want core and nativempi ErrUnsupported", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
