package core

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"mv2j/internal/jvm"
	"mv2j/internal/profile"
)

func mv2Config(nodes, ppn int) Config {
	return Config{Nodes: nodes, PPN: ppn, Lib: profile.MVAPICH2(), Flavor: MVAPICH2J}
}

func ompiConfig(nodes, ppn int) Config {
	return Config{Nodes: nodes, PPN: ppn, Lib: profile.OpenMPI(), Flavor: OpenMPIJ}
}

// fillArray populates an integral array with a deterministic pattern.
func fillArray(a jvm.Array, seed int64) {
	for i := 0; i < a.Len(); i++ {
		a.SetInt(i, seed+int64(i))
	}
}

func checkArray(a jvm.Array, seed int64) error {
	for i := 0; i < a.Len(); i++ {
		if got := a.Int(i); got != seed+int64(i) {
			return fmt.Errorf("a[%d] = %d, want %d", i, got, seed+int64(i))
		}
	}
	return nil
}

// TestRunRejectsInvalidProfile: a CreditBatch above EagerCredits can
// park a sender forever waiting for a grant, so Run must refuse the
// profile before any rank starts, whichever front end built it.
func TestRunRejectsInvalidProfile(t *testing.T) {
	cfg := mv2Config(1, 2)
	cfg.Lib.EagerCredits, cfg.Lib.CreditBatch = 2, 4
	var started atomic.Bool
	err := Run(cfg, func(*MPI) error {
		started.Store(true)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "CreditBatch") {
		t.Fatalf("Run with CreditBatch > EagerCredits: err = %v, want a CreditBatch error", err)
	}
	if started.Load() {
		t.Fatal("Run started ranks with an invalid profile")
	}
}

func TestSendRecvArraysBothFlavors(t *testing.T) {
	for _, cfg := range []Config{mv2Config(1, 2), ompiConfig(1, 2)} {
		cfg := cfg
		t.Run(cfg.Flavor.String(), func(t *testing.T) {
			err := Run(cfg, func(m *MPI) error {
				c := m.CommWorld()
				const n = 100
				if c.Rank() == 0 {
					arr := m.JVM().MustArray(jvm.Int, n)
					fillArray(arr, 1000)
					return c.Send(arr, n, INT, 1, 0)
				}
				arr := m.JVM().MustArray(jvm.Int, n)
				st, err := c.Recv(arr, n, INT, 0, 0)
				if err != nil {
					return err
				}
				if cnt, err := st.Count(INT); err != nil || cnt != n {
					return fmt.Errorf("count = %d, %v", cnt, err)
				}
				return checkArray(arr, 1000)
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSendRecvDirectBuffers(t *testing.T) {
	err := Run(mv2Config(2, 1), func(m *MPI) error {
		c := m.CommWorld()
		const n = 4096
		buf := m.JVM().MustAllocateDirect(n)
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				buf.PutByteAt(i, byte(i*3))
			}
			return c.Send(buf, n, BYTE, 1, 9)
		}
		if _, err := c.Recv(buf, n, BYTE, 0, 9); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			if buf.ByteAt(i) != byte(i*3) {
				return fmt.Errorf("buf[%d] corrupted", i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvHeapBuffers(t *testing.T) {
	err := Run(mv2Config(1, 2), func(m *MPI) error {
		c := m.CommWorld()
		const n = 256
		buf, err := m.JVM().Allocate(n)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				buf.PutByteAt(i, byte(i))
			}
			return c.Send(buf, n, BYTE, 1, 0)
		}
		if _, err := c.Recv(buf, n, BYTE, 0, 0); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			if buf.ByteAt(i) != byte(i) {
				return fmt.Errorf("heap buffer recv corrupted at %d", i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMixedArrayToBufferWireCompatibility(t *testing.T) {
	// An array send must be byte-identical on the wire to a buffer
	// send: array sender, buffer receiver.
	err := Run(mv2Config(1, 2), func(m *MPI) error {
		c := m.CommWorld()
		const n = 64
		if c.Rank() == 0 {
			arr := m.JVM().MustArray(jvm.Int, n)
			fillArray(arr, -5)
			return c.Send(arr, n, INT, 1, 0)
		}
		buf := m.JVM().MustAllocateDirect(n * 4)
		if _, err := c.Recv(buf, n, INT, 0, 0); err != nil {
			return err
		}
		// Arrays are little-endian native layout on the wire.
		buf.SetOrder(jvm.LittleEndian)
		for i := 0; i < n; i++ {
			if got := buf.IntKindAt(jvm.Int, i*4); got != int64(-5+i) {
				return fmt.Errorf("wire[%d] = %d, want %d", i, got, -5+i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIsendIrecvBuffers(t *testing.T) {
	err := Run(mv2Config(2, 1), func(m *MPI) error {
		c := m.CommWorld()
		const n = 8192
		buf := m.JVM().MustAllocateDirect(n)
		if c.Rank() == 0 {
			req, err := c.Isend(buf, n, BYTE, 1, 0)
			if err != nil {
				return err
			}
			_, err = req.Wait()
			return err
		}
		req, err := c.Irecv(buf, n, BYTE, 0, 0)
		if err != nil {
			return err
		}
		st, err := req.Wait()
		if err != nil {
			return err
		}
		if st.Bytes != n {
			return fmt.Errorf("bytes = %d", st.Bytes)
		}
		// Repeated Wait is idempotent.
		if _, err := req.Wait(); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIsendArraysMV2JWorksOMPIJDoesNot(t *testing.T) {
	// The paper's API gap: Open MPI-J rejects Java arrays on
	// non-blocking point-to-point; MVAPICH2-J supports them via the
	// buffering layer.
	err := Run(mv2Config(1, 2), func(m *MPI) error {
		c := m.CommWorld()
		arr := m.JVM().MustArray(jvm.Double, 32)
		if c.Rank() == 0 {
			for i := 0; i < 32; i++ {
				arr.SetFloat(i, float64(i)/4)
			}
			req, err := c.Isend(arr, 32, DOUBLE, 1, 0)
			if err != nil {
				return err
			}
			_, err = req.Wait()
			return err
		}
		req, err := c.Irecv(arr, 32, DOUBLE, 0, 0)
		if err != nil {
			return err
		}
		if _, err := req.Wait(); err != nil {
			return err
		}
		for i := 0; i < 32; i++ {
			if arr.Float(i) != float64(i)/4 {
				return fmt.Errorf("arr[%d] = %v", i, arr.Float(i))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	err = Run(ompiConfig(1, 2), func(m *MPI) error {
		c := m.CommWorld()
		arr := m.JVM().MustArray(jvm.Int, 4)
		if _, err := c.Isend(arr, 4, INT, 1-c.Rank(), 0); !errors.Is(err, ErrUnsupported) {
			return fmt.Errorf("Isend(array) under OpenMPI-J: err=%v, want ErrUnsupported", err)
		}
		if _, err := c.Irecv(arr, 4, INT, 1-c.Rank(), 0); !errors.Is(err, ErrUnsupported) {
			return fmt.Errorf("Irecv(array) under OpenMPI-J: err=%v, want ErrUnsupported", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestOffsetExtension(t *testing.T) {
	// MVAPICH2-J's subset send: only elements [10, 20) travel.
	err := Run(mv2Config(1, 2), func(m *MPI) error {
		c := m.CommWorld()
		arr := m.JVM().MustArray(jvm.Int, 40)
		if c.Rank() == 0 {
			fillArray(arr, 0)
			return c.SendRange(arr, 10, 10, INT, 1, 0)
		}
		if _, err := c.RecvRange(arr, 5, 10, INT, 0, 0); err != nil {
			return err
		}
		for i := 0; i < 10; i++ {
			if got := arr.Int(5 + i); got != int64(10+i) {
				return fmt.Errorf("offset recv [%d] = %d, want %d", i, got, 10+i)
			}
		}
		if arr.Int(0) != 0 || arr.Int(20) != 0 {
			return fmt.Errorf("offset recv wrote outside the range")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Open MPI-J dropped the offset argument.
	err = Run(ompiConfig(1, 2), func(m *MPI) error {
		c := m.CommWorld()
		arr := m.JVM().MustArray(jvm.Int, 8)
		if err := c.SendRange(arr, 2, 2, INT, 1-c.Rank(), 0); !errors.Is(err, ErrUnsupported) {
			return fmt.Errorf("SendRange under OpenMPI-J: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestVectorDatatype(t *testing.T) {
	// A strided column out of a 8x8 matrix: vector(count=8, blocklen=1,
	// stride=8) — packed through the buffering layer.
	vec, err := Vector(DOUBLE, 8, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	err = Run(mv2Config(1, 2), func(m *MPI) error {
		c := m.CommWorld()
		if c.Rank() == 0 {
			mat := m.JVM().MustArray(jvm.Double, 64)
			for r := 0; r < 8; r++ {
				for col := 0; col < 8; col++ {
					mat.SetFloat(r*8+col, float64(r*8+col))
				}
			}
			// Send column 3: the offset extension shifts the strided
			// pattern to start at base element 3.
			return c.SendRange(mat, 3, 1, vec, 1, 0)
		}
		col := m.JVM().MustArray(jvm.Double, 8)
		if _, err := c.Recv(col, 8, DOUBLE, 0, 0); err != nil {
			return err
		}
		for r := 0; r < 8; r++ {
			if col.Float(r) != float64(r*8+3) {
				return fmt.Errorf("col[%d] = %v, want %v", r, col.Float(r), float64(r*8+3))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestVectorDatatypeRejectedOnBuffers(t *testing.T) {
	vec, err := Vector(INT, 2, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	err = Run(mv2Config(1, 2), func(m *MPI) error {
		c := m.CommWorld()
		buf := m.JVM().MustAllocateDirect(64)
		if err := c.Send(buf, 1, vec, 1-c.Rank(), 0); !errors.Is(err, ErrUnsupported) {
			return fmt.Errorf("derived type on ByteBuffer: %v, want ErrUnsupported", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBufferTypeValidation(t *testing.T) {
	err := Run(mv2Config(1, 2), func(m *MPI) error {
		c := m.CommWorld()
		if err := c.Send("not a buffer", 1, BYTE, 1-c.Rank(), 0); !errors.Is(err, ErrBufferType) {
			return fmt.Errorf("string buffer: %v", err)
		}
		arr := m.JVM().MustArray(jvm.Int, 4)
		if err := c.Send(arr, 8, INT, 1-c.Rank(), 0); !errors.Is(err, ErrCount) {
			return fmt.Errorf("oversized count: %v", err)
		}
		if err := c.Send(arr, 4, DOUBLE, 1-c.Rank(), 0); !errors.Is(err, ErrBufferType) {
			return fmt.Errorf("kind mismatch: %v", err)
		}
		if err := c.Send(arr, -1, INT, 1-c.Rank(), 0); !errors.Is(err, ErrCount) {
			return fmt.Errorf("negative count: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestZeroByteMessages(t *testing.T) {
	// Regression: a zero-count array message must not touch the pool
	// (Get(0) is invalid) — it bit the Alltoallv path when a rank owned
	// no data for some peer.
	err := Run(mv2Config(1, 2), func(m *MPI) error {
		c := m.CommWorld()
		arr := m.JVM().MustArray(jvm.Int, 4)
		if c.Rank() == 0 {
			if err := c.Send(arr, 0, INT, 1, 0); err != nil {
				return err
			}
		} else {
			st, err := c.Recv(arr, 0, INT, 0, 0)
			if err != nil {
				return err
			}
			if st.Bytes != 0 {
				return fmt.Errorf("zero-byte recv reported %d bytes", st.Bytes)
			}
		}
		// Irregular collective where one rank contributes nothing.
		counts := []int{0, 3}
		displs := []int{0, 0}
		send := m.JVM().MustArray(jvm.Int, 3)
		fillArray(send, 5)
		var recv jvm.Array
		var recvAny any
		if c.Rank() == 0 {
			recv = m.JVM().MustArray(jvm.Int, 3)
			recvAny = recv
		}
		n := counts[c.Rank()]
		if err := c.Gatherv(send, n, recvAny, counts, displs, INT, 0); err != nil {
			return err
		}
		if c.Rank() == 0 {
			return checkArray(recv, 5)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendrecvBindings(t *testing.T) {
	err := Run(mv2Config(1, 2), func(m *MPI) error {
		c := m.CommWorld()
		other := 1 - c.Rank()
		out := m.JVM().MustArray(jvm.Long, 16)
		in := m.JVM().MustArray(jvm.Long, 16)
		fillArray(out, int64(c.Rank()*100))
		if c.Rank() == 0 {
			// A bad leg is rejected before the receive is posted: nothing
			// stays staged, and the corrected call below still gets the
			// peer's message (an orphaned receive would swallow it).
			orphan := m.JVM().MustArray(jvm.Long, 16)
			for _, bad := range [][4]int{{7, 1, other, 1}, {other, -3, other, 1}, {other, 1, 7, 1}, {other, 1, other, -5}} {
				if _, err := c.Sendrecv(out, 16, LONG, bad[0], bad[1], orphan, 16, LONG, bad[2], bad[3]); err == nil {
					return fmt.Errorf("Sendrecv(dst=%d, sendTag=%d, src=%d, recvTag=%d) succeeded", bad[0], bad[1], bad[2], bad[3])
				}
				if ps := m.Pool().Stats(); ps.InUseBytes != 0 || ps.Gets != ps.Frees {
					return fmt.Errorf("after a rejected Sendrecv the pool holds %d bytes (%d gets, %d frees)", ps.InUseBytes, ps.Gets, ps.Frees)
				}
			}
			defer func() {
				if orphan.Int(0) != 0 {
					t.Error("a rejected Sendrecv's buffer received the peer's message")
				}
			}()
		}
		st, err := c.Sendrecv(out, 16, LONG, other, 1, in, 16, LONG, other, 1)
		if err != nil {
			return err
		}
		if st.Source != other {
			return fmt.Errorf("sendrecv status source %d", st.Source)
		}
		return checkArray(in, int64(other*100))
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestProbeBindings(t *testing.T) {
	err := Run(mv2Config(1, 2), func(m *MPI) error {
		c := m.CommWorld()
		if c.Rank() == 0 {
			arr := m.JVM().MustArray(jvm.Short, 10)
			return c.Send(arr, 10, SHORT, 1, 4)
		}
		st, err := c.Probe(0, 4)
		if err != nil {
			return err
		}
		n, err := st.Count(SHORT)
		if err != nil || n != 10 {
			return fmt.Errorf("probe count %d, %v", n, err)
		}
		arr := m.JVM().MustArray(jvm.Short, 10)
		_, err = c.Recv(arr, 10, SHORT, 0, 4)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}
