package core

import (
	"fmt"
	"testing"

	"mv2j/internal/jvm"
)

func TestDimsCreate(t *testing.T) {
	cases := []struct {
		n, nd int
		want  []int
	}{
		{12, 2, []int{4, 3}},
		{16, 2, []int{4, 4}},
		{64, 3, []int{4, 4, 4}},
		{7, 2, []int{7, 1}},
		{6, 1, []int{6}},
	}
	for _, c := range cases {
		got, err := DimsCreate(c.n, c.nd)
		if err != nil {
			t.Fatalf("DimsCreate(%d,%d): %v", c.n, c.nd, err)
		}
		prod := 1
		for _, d := range got {
			prod *= d
		}
		if prod != c.n || len(got) != c.nd {
			t.Fatalf("DimsCreate(%d,%d) = %v", c.n, c.nd, got)
		}
		for i, d := range c.want {
			if got[i] != d {
				t.Fatalf("DimsCreate(%d,%d) = %v, want %v", c.n, c.nd, got, c.want)
			}
		}
	}
	if _, err := DimsCreate(0, 2); err == nil {
		t.Fatal("DimsCreate(0,2) accepted")
	}
}

func TestCartTopology(t *testing.T) {
	// 2x3 grid on 6 ranks, periodic in dim 1 only.
	err := Run(mv2Config(2, 3), func(m *MPI) error {
		c := m.CommWorld()
		cart, err := c.CreateCart([]int{2, 3}, []bool{false, true})
		if err != nil {
			return err
		}
		coords := cart.Coords()
		wantRow, wantCol := c.Rank()/3, c.Rank()%3
		if coords[0] != wantRow || coords[1] != wantCol {
			return fmt.Errorf("rank %d: coords %v, want [%d %d]", c.Rank(), coords, wantRow, wantCol)
		}
		back, err := cart.RankOf(coords)
		if err != nil {
			return err
		}
		if back != cart.Rank() {
			return fmt.Errorf("RankOf(Coords) = %d, want %d", back, cart.Rank())
		}

		// Vertical shift (non-periodic): top row has no up-neighbour.
		up, down, err := cart.Shift(0, 1)
		if err != nil {
			return err
		}
		if wantRow == 0 && up != ProcNull {
			return fmt.Errorf("rank %d: up = %d, want ProcNull", c.Rank(), up)
		}
		if wantRow == 1 && down != ProcNull {
			return fmt.Errorf("rank %d: down = %d, want ProcNull", c.Rank(), down)
		}

		// Horizontal shift (periodic): always wraps.
		left, right, err := cart.Shift(1, 1)
		if err != nil {
			return err
		}
		if left == ProcNull || right == ProcNull {
			return fmt.Errorf("rank %d: periodic shift gave ProcNull", c.Rank())
		}
		wantRight, _ := cart.RankOf([]int{wantRow, wantCol + 1})
		if right != wantRight {
			return fmt.Errorf("rank %d: right = %d, want %d", c.Rank(), right, wantRight)
		}

		// Halo exchange around the periodic ring: ProcNull legs are
		// no-ops, so no branching needed.
		token := m.JVM().MustArray(jvm.Int, 1)
		token.SetInt(0, int64(cart.Rank()))
		in := m.JVM().MustArray(jvm.Int, 1)
		if _, err := cart.Sendrecv(token, 1, INT, right, 0, in, 1, INT, left, 0); err != nil {
			return err
		}
		if int(in.Int(0)) != left {
			return fmt.Errorf("rank %d: ring got %d, want %d", cart.Rank(), in.Int(0), left)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCartExcessRanksGetNil(t *testing.T) {
	err := Run(mv2Config(1, 5), func(m *MPI) error {
		c := m.CommWorld()
		cart, err := c.CreateCart([]int{2, 2}, []bool{false, false})
		if err != nil {
			return err
		}
		if c.Rank() < 4 && cart == nil {
			return fmt.Errorf("rank %d should be in the grid", c.Rank())
		}
		if c.Rank() == 4 && cart != nil {
			return fmt.Errorf("rank 4 should get COMM_NULL")
		}
		if cart != nil {
			return cart.Barrier()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCartValidation(t *testing.T) {
	err := Run(mv2Config(1, 2), func(m *MPI) error {
		c := m.CommWorld()
		if _, err := c.CreateCart([]int{4, 4}, []bool{false, false}); err == nil {
			return fmt.Errorf("oversized grid accepted")
		}
		if _, err := c.CreateCart([]int{2}, []bool{false, true}); err == nil {
			return fmt.Errorf("mismatched periods accepted")
		}
		if _, err := c.CreateCart([]int{0}, []bool{false}); err == nil {
			return fmt.Errorf("zero dimension accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestProcNullPointToPoint(t *testing.T) {
	err := Run(mv2Config(1, 2), func(m *MPI) error {
		c := m.CommWorld()
		arr := m.JVM().MustArray(jvm.Int, 4)
		if err := c.Send(arr, 4, INT, ProcNull, 0); err != nil {
			return err
		}
		st, err := c.Recv(arr, 4, INT, ProcNull, 0)
		if err != nil {
			return err
		}
		if st.Source != ProcNull || st.Bytes != 0 {
			return fmt.Errorf("ProcNull recv status %+v", st)
		}

		// The non-blocking forms complete immediately too, and none of
		// the null operations costs a bindings crossing.
		before, calls := m.Clock().Now(), m.JNI().Stats().Calls
		sreq, err := c.Isend(arr, 4, INT, ProcNull, 3)
		if err != nil {
			return fmt.Errorf("Isend to ProcNull: %w", err)
		}
		if _, done, err := sreq.Test(); !done || err != nil {
			return fmt.Errorf("Isend to ProcNull: done %v, err %v", done, err)
		}
		rreq, err := c.Irecv(arr, 4, INT, ProcNull, 5)
		if err != nil {
			return fmt.Errorf("Irecv from ProcNull: %w", err)
		}
		st, err = rreq.Wait()
		if err != nil || st != (Status{Source: ProcNull, Tag: 5}) {
			return fmt.Errorf("Irecv from ProcNull: status %+v, err %v", st, err)
		}
		st, err = c.Sendrecv(arr, 4, INT, ProcNull, 0, arr, 4, INT, ProcNull, 6)
		if err != nil || st != (Status{Source: ProcNull, Tag: 6}) {
			return fmt.Errorf("Sendrecv with both legs null: status %+v, err %v", st, err)
		}
		if now, n := m.Clock().Now(), m.JNI().Stats().Calls; now != before || n != calls {
			return fmt.Errorf("ProcNull operations advanced the clock by %v over %d JNI calls", now.Sub(before), n-calls)
		}
		if err := Waitall([]*Request{sreq, rreq}); err != nil {
			return err
		}

		// Sendrecv with one null leg is the other leg's blocking call:
		// rank 0 only sends, rank 1 only receives.
		peer, me := 1-c.Rank(), c.Rank()
		out := m.JVM().MustArray(jvm.Int, 4)
		fillArray(out, int64(40+me))
		if me == 0 {
			st, err = c.Sendrecv(out, 4, INT, peer, 9, arr, 4, INT, ProcNull, 9)
			if err != nil || st.Source != ProcNull {
				return fmt.Errorf("Sendrecv with a null receive: status %+v, err %v", st, err)
			}
			return nil
		}
		st, err = c.Sendrecv(out, 4, INT, ProcNull, 9, arr, 4, INT, peer, 9)
		if err != nil || st.Source != peer || st.Bytes != 16 {
			return fmt.Errorf("Sendrecv with a null send: status %+v, err %v", st, err)
		}
		if got := arr.Int(0); got != 40 {
			return fmt.Errorf("Sendrecv with a null send: received %d, want 40", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
