package core

import (
	"errors"
	"fmt"
	"testing"

	"mv2j/internal/jvm"
	"mv2j/internal/nativempi"
)

func TestIbcastBindings(t *testing.T) {
	err := Run(mv2Config(2, 2), func(m *MPI) error {
		c := m.CommWorld()
		const n = 40
		arr := m.JVM().MustArray(jvm.Int, n)
		if c.Rank() == 1 {
			fillArray(arr, 55)
		}
		req, err := c.Ibcast(arr, n, INT, 1)
		if err != nil {
			return err
		}
		if err := req.Wait(); err != nil {
			return err
		}
		if err := checkArray(arr, 55); err != nil {
			return fmt.Errorf("rank %d: %w", c.Rank(), err)
		}
		// Idempotent re-wait.
		return req.Wait()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIallreduceBindings(t *testing.T) {
	err := Run(mv2Config(1, 4), func(m *MPI) error {
		c := m.CommWorld()
		const n = 8
		p := c.Size()
		send := m.JVM().MustArray(jvm.Long, n)
		recv := m.JVM().MustArray(jvm.Long, n)
		for i := 0; i < n; i++ {
			send.SetInt(i, int64(c.Rank()+i))
		}
		req, err := c.Iallreduce(send, recv, n, LONG, SUM)
		if err != nil {
			return err
		}
		if err := req.Wait(); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			want := int64(p*i) + int64(p*(p-1)/2)
			if recv.Int(i) != want {
				return fmt.Errorf("iallreduce[%d] = %d, want %d", i, recv.Int(i), want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIreduceIallgatherIbarrierBindings(t *testing.T) {
	err := Run(mv2Config(2, 2), func(m *MPI) error {
		c := m.CommWorld()
		p := c.Size()

		// Ireduce to root 0 over direct buffers.
		sb := m.JVM().MustAllocateDirect(8)
		sb.SetOrder(jvm.LittleEndian)
		sb.PutIntKindAt(jvm.Long, 0, int64(c.Rank()+1))
		var rbAny any
		var rb *jvm.ByteBuffer
		if c.Rank() == 0 {
			rb = m.JVM().MustAllocateDirect(8)
			rb.SetOrder(jvm.LittleEndian)
			rbAny = rb
		}
		req, err := c.Ireduce(sb, rbAny, 1, LONG, SUM, 0)
		if err != nil {
			return err
		}
		if err := req.Wait(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			if got := rb.IntKindAt(jvm.Long, 0); got != int64(p*(p+1)/2) {
				return fmt.Errorf("ireduce = %d, want %d", got, p*(p+1)/2)
			}
		}

		// Iallgather arrays.
		send := m.JVM().MustArray(jvm.Int, 3)
		fillArray(send, int64(c.Rank()*7))
		recv := m.JVM().MustArray(jvm.Int, 3*p)
		agReq, err := c.Iallgather(send, 3, recv, 3, INT)
		if err != nil {
			return err
		}
		if err := agReq.Wait(); err != nil {
			return err
		}
		for r := 0; r < p; r++ {
			for i := 0; i < 3; i++ {
				if got := recv.Int(r*3 + i); got != int64(r*7+i) {
					return fmt.Errorf("iallgather[%d][%d] = %d", r, i, got)
				}
			}
		}

		// Ibarrier.
		bReq, err := c.Ibarrier()
		if err != nil {
			return err
		}
		return bReq.Wait()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWaitallCollBindings(t *testing.T) {
	err := Run(mv2Config(1, 4), func(m *MPI) error {
		c := m.CommWorld()
		var reqs []*CollRequest
		bufs := make([]jvm.Array, 4)
		for k := 0; k < 4; k++ {
			bufs[k] = m.JVM().MustArray(jvm.Int, 16)
			if c.Rank() == k {
				fillArray(bufs[k], int64(k*100))
			}
			req, err := c.Ibcast(bufs[k], 16, INT, k)
			if err != nil {
				return err
			}
			reqs = append(reqs, req)
		}
		reqs = append(reqs, nil) // nil entries are skipped
		// One request is completed early by Test-then-Wait; WaitallColl
		// must take it as already complete (same shared completion body).
		for done := false; !done; {
			var err error
			if done, err = reqs[3].Test(); err != nil {
				return err
			}
		}
		if err := reqs[3].Wait(); err != nil {
			return err
		}
		frees := m.collPool.Stats().Frees
		if err := WaitallColl(reqs); err != nil {
			return err
		}
		if got := m.collPool.Stats().Frees - frees; got != 3 {
			return fmt.Errorf("WaitallColl released %d stagings, want 3 (one was already complete)", got)
		}
		for k := 0; k < 4; k++ {
			if err := checkArray(bufs[k], int64(k*100)); err != nil {
				return fmt.Errorf("bcast %d: %w", k, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestOpenMPIJNonBlockingCollectiveArrayGap(t *testing.T) {
	err := Run(ompiConfig(1, 2), func(m *MPI) error {
		c := m.CommWorld()
		arr := m.JVM().MustArray(jvm.Int, 4)
		if _, err := c.Ibcast(arr, 4, INT, 0); !errors.Is(err, ErrUnsupported) {
			return fmt.Errorf("Ibcast(array) under OpenMPI-J: %v", err)
		}
		// Direct buffers are fine.
		buf := m.JVM().MustAllocateDirect(16)
		req, err := c.Ibcast(buf, 16, BYTE, 0)
		if err != nil {
			return err
		}
		return req.Wait()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCollRequestTestBindings(t *testing.T) {
	err := Run(mv2Config(1, 2), func(m *MPI) error {
		c := m.CommWorld()
		buf := m.JVM().MustAllocateDirect(64)
		req, err := c.Ibcast(buf, 64, BYTE, 0)
		if err != nil {
			return err
		}
		for {
			done, err := req.Test()
			if err != nil {
				return err
			}
			if done {
				break
			}
		}
		// Test, Wait and WaitallColl share one completion body: a staged
		// array request completed by Test is unpacked and released exactly
		// once, whatever is called on it afterwards.
		arr := m.JVM().MustArray(jvm.Int, 16)
		if c.Rank() == 0 {
			fillArray(arr, 300)
		}
		before := m.collPool.Stats()
		req, err = c.Ibcast(arr, 16, INT, 0)
		if err != nil {
			return err
		}
		for done := false; !done; {
			if done, err = req.Test(); err != nil {
				return err
			}
		}
		if err := checkArray(arr, 300); err != nil {
			return err
		}
		arr.SetInt(0, -1) // a second unpack would restore 300
		if err := req.Wait(); err != nil {
			return err
		}
		if err := WaitallColl([]*CollRequest{req}); err != nil {
			return err
		}
		if done, err := req.Test(); !done || err != nil {
			return fmt.Errorf("Test on a completed request: %v, %v", done, err)
		}
		after := m.collPool.Stats()
		if arr.Int(0) != -1 {
			return fmt.Errorf("completed request unpacked again: arr[0] = %d", arr.Int(0))
		}
		if after.Gets-before.Gets != 1 || after.Frees-before.Frees != 1 || after.InUseBytes != 0 {
			return fmt.Errorf("staging released %d times for %d gets (%d bytes in use)",
				after.Frees-before.Frees, after.Gets-before.Gets, after.InUseBytes)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var r *CollRequest
	if err := r.Wait(); !errors.Is(err, nativempi.ErrRequest) {
		t.Fatal("nil CollRequest.Wait must error")
	}
}
