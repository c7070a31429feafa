package core

import (
	"fmt"
	"testing"

	"mv2j/internal/jvm"
	"mv2j/internal/mpjbuf"
	"mv2j/internal/nativempi"
	"mv2j/internal/vtime"
)

// stageCell is one row of the staging table: a buffer kind under a
// flavor, staged in one direction through one pool.
type stageCell struct {
	kind  string
	recv  bool
	coll  bool
	iovec bool
	// Pinned from the parent commit (sendStage/recvStage/sendPayload/
	// recvPayload with collStaging toggled by hand): virtual time spent
	// in stage + finish + release, world-wide host bytes copied (the
	// peer is a direct ByteBuffer, which copies nothing in core, so
	// this is the cell's staging plus the transport's own two 24-byte
	// eager copies), and the pool's Get/Free counts.
	ps          vtime.Duration
	hostBytes   int64
	gets, frees int64
}

func (c stageCell) name() string {
	dir, pool := "send", "p2p"
	if c.recv {
		dir = "recv"
	}
	if c.coll {
		pool = "coll"
	}
	return fmt.Sprintf("%s/%s/%s", c.kind, dir, pool)
}

// stageTable is {8 buffer kinds} × {send, recv} × {p2p pool, collective
// pool}; the pinned iovec appears under the p2p pool only, because
// collectives never ask for one (§IV-D stages per call).
var stageTable = []stageCell{
	{kind: "direct-bb", ps: 12000, hostBytes: 48},
	{kind: "direct-bb", coll: true, ps: 12000, hostBytes: 48},
	{kind: "direct-bb", recv: true, ps: 12000, hostBytes: 48},
	{kind: "direct-bb", recv: true, coll: true, ps: 12000, hostBytes: 48},
	{kind: "heap-bb", ps: 41200, hostBytes: 72},
	{kind: "heap-bb", coll: true, ps: 41200, hostBytes: 72},
	{kind: "heap-bb", recv: true, ps: 41200, hostBytes: 72},
	{kind: "heap-bb", recv: true, coll: true, ps: 41200, hostBytes: 72},
	{kind: "mv2-contig", ps: 2293880, hostBytes: 72, gets: 1, frees: 1},
	{kind: "mv2-contig", coll: true, ps: 2693880, hostBytes: 72, gets: 1, frees: 1},
	{kind: "mv2-contig", recv: true, ps: 2293880, hostBytes: 72, gets: 1, frees: 1},
	{kind: "mv2-contig", recv: true, coll: true, ps: 2693880, hostBytes: 72, gets: 1, frees: 1},
	{kind: "mv2-packed", ps: 2493880, hostBytes: 72, gets: 1, frees: 1},
	{kind: "mv2-packed", coll: true, ps: 2893880, hostBytes: 72, gets: 1, frees: 1},
	{kind: "mv2-packed", recv: true, ps: 2493880, hostBytes: 72, gets: 1, frees: 1},
	{kind: "mv2-packed", recv: true, coll: true, ps: 2893880, hostBytes: 72, gets: 1, frees: 1},
	{kind: "mv2-pinned", iovec: true, ps: 280000, hostBytes: 48},
	{kind: "mv2-pinned", recv: true, iovec: true, ps: 280000, hostBytes: 48},
	{kind: "ompi-contig", ps: 536200, hostBytes: 72},
	{kind: "ompi-contig", coll: true, ps: 536200, hostBytes: 72},
	{kind: "ompi-contig", recv: true, ps: 536200, hostBytes: 72},
	{kind: "ompi-contig", recv: true, coll: true, ps: 536200, hostBytes: 72},
	{kind: "ompi-strided", ps: 578200, hostBytes: 112},
	{kind: "ompi-strided", coll: true, ps: 578200, hostBytes: 112},
	{kind: "ompi-strided", recv: true, ps: 760200, hostBytes: 152},
	{kind: "ompi-strided", recv: true, coll: true, ps: 760200, hostBytes: 152},
	{kind: "nil", ps: 0, hostBytes: 0},
	{kind: "nil", coll: true, ps: 0, hostBytes: 0},
	{kind: "nil", recv: true, ps: 0, hostBytes: 0},
	{kind: "nil", recv: true, coll: true, ps: 0, hostBytes: 0},
}

const (
	cellInts = 6  // payload: six ints, 101..106
	cellGap  = -7 // what every array slot outside the layout holds
)

// cellBuffer builds the user buffer of one cell on rank 0 and returns
// it with its (offset, count, datatype) and the positions — array
// indices, or byte offsets for ByteBuffers — where the six payload ints
// live.
func cellBuffer(m *MPI, kind string) (buf any, offset, count int, dt Datatype, at []int) {
	vec := TypeVector(INT, 3, 1, 2) // extent 5: ints at +0, +2, +4
	vec.Commit()
	switch kind {
	case "direct-bb", "heap-bb":
		bb := m.JVM().MustAllocateDirect(64)
		if kind == "heap-bb" {
			bb, _ = m.JVM().Allocate(64)
		}
		bb.SetOrder(jvm.LittleEndian)
		bb.SetPosition(8)
		for i := 0; i < cellInts; i++ {
			at = append(at, 12+4*i)
		}
		return bb, 1, cellInts, INT, at
	case "mv2-contig", "ompi-contig":
		offset = 3
		if kind == "ompi-contig" {
			offset = 0
		}
		for i := 0; i < cellInts; i++ {
			at = append(at, offset+i)
		}
		return m.JVM().MustArray(jvm.Int, 16), offset, cellInts, INT, at
	case "mv2-packed", "mv2-pinned", "ompi-strided":
		offset = 1
		if kind == "ompi-strided" {
			offset = 0
		}
		for e := 0; e < 2; e++ {
			for b := 0; b < 3; b++ {
				at = append(at, offset+e*5+b*2)
			}
		}
		return m.JVM().MustArray(jvm.Int, 16), offset, 2, vec, at
	}
	return nil, 0, 0, INT, nil
}

func cellPut(buf any, i int, v int64) {
	switch b := buf.(type) {
	case jvm.Array:
		b.SetInt(i, v)
	case *jvm.ByteBuffer:
		b.PutIntKindAt(jvm.Int, i, v)
	}
}

func cellGet(buf any, i int) int64 {
	switch b := buf.(type) {
	case jvm.Array:
		return b.Int(i)
	case *jvm.ByteBuffer:
		return b.IntKindAt(jvm.Int, i)
	}
	return 0
}

// TestStagedDescriptorTable drives every staging case through one
// native transfer against a direct-ByteBuffer peer: the bytes must
// round-trip (gap slots untouched), and the virtual time, host copies
// and pool traffic of stage + finish + release must equal what the
// parent commit's (raw, finish, free) closures produced.
func TestStagedDescriptorTable(t *testing.T) {
	for _, cell := range stageTable {
		t.Run(cell.name(), func(t *testing.T) {
			cfg := mv2Config(1, 2)
			if cell.kind == "ompi-contig" || cell.kind == "ompi-strided" {
				cfg = ompiConfig(1, 2)
			}
			var hs nativempi.HostStats
			cfg.HostStats = &hs
			cfg.HeapSize, cfg.ArenaSize = 1<<16, 1<<16
			var got stageCell
			err := Run(cfg, func(m *MPI) error {
				c := m.CommWorld()
				n := cellInts
				if cell.kind == "nil" {
					n = 0
				}
				if c.Rank() == 1 {
					// The peer: a direct ByteBuffer through the public API.
					bb := m.JVM().MustAllocateDirect(64)
					bb.SetOrder(jvm.LittleEndian) // arrays are native-endian
					if cell.recv {
						for i := 0; i < n; i++ {
							bb.PutIntKindAt(jvm.Int, 4*i, int64(101+i))
						}
						return c.Send(bb, n, INT, 0, 5)
					}
					if _, err := c.Recv(bb, n, INT, 0, 5); err != nil {
						return err
					}
					for i := 0; i < n; i++ {
						if v := bb.IntKindAt(jvm.Int, 4*i); v != int64(101+i) {
							return fmt.Errorf("peer int %d = %d, want %d", i, v, 101+i)
						}
					}
					return nil
				}

				buf, offset, count, dt, at := cellBuffer(m, cell.kind)
				if arr, ok := buf.(jvm.Array); ok {
					for i := 0; i < arr.Len(); i++ {
						arr.SetInt(i, cellGap)
					}
				}
				if !cell.recv {
					for i, pos := range at {
						cellPut(buf, pos, int64(101+i))
					}
				}
				pool := m.pool
				if cell.coll {
					pool = m.collPool
				}
				before, clock := pool.Stats(), m.Clock()

				t0 := clock.Now()
				view, finish, release, err := stageForTest(m, buf, offset, count, &dt, cell, pool)
				if err != nil {
					return err
				}
				staging := clock.Now().Sub(t0)
				var req *nativempi.Request
				if cell.recv {
					req, err = c.native.IrecvPayload(view, 1, 5)
				} else {
					req, err = c.native.IsendPayload(view, 1, 5)
				}
				if err != nil {
					return err
				}
				if _, err := req.Wait(); err != nil {
					return err
				}
				t1 := clock.Now()
				if err := finish(); err != nil {
					return err
				}
				release()
				got.ps = staging + clock.Now().Sub(t1)
				after := pool.Stats()
				got.gets, got.frees = after.Gets-before.Gets, after.Frees-before.Frees
				if after.InUseBytes != 0 {
					return fmt.Errorf("pool still holds %d bytes", after.InUseBytes)
				}

				if cell.recv {
					for i, pos := range at {
						if v := cellGet(buf, pos); v != int64(101+i) {
							return fmt.Errorf("landed int %d = %d, want %d", i, v, 101+i)
						}
					}
				}
				if arr, ok := buf.(jvm.Array); ok {
					payload := map[int]bool{}
					for _, pos := range at {
						payload[pos] = true
					}
					for i := 0; i < arr.Len(); i++ {
						if !payload[i] && arr.Int(i) != cellGap {
							return fmt.Errorf("gap slot %d overwritten with %d", i, arr.Int(i))
						}
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			got.hostBytes = hs.Copy.BytesCopied
			if got.ps != cell.ps || got.hostBytes != cell.hostBytes || got.gets != cell.gets || got.frees != cell.frees {
				t.Errorf("staging cost {ps: %d, hostBytes: %d, gets: %d, frees: %d}, parent commit pinned {ps: %d, hostBytes: %d, gets: %d, frees: %d}",
					got.ps, got.hostBytes, got.gets, got.frees, cell.ps, cell.hostBytes, cell.gets, cell.frees)
			}
		})
	}
}

// stageForTest stages one cell the way the bindings do.
func stageForTest(m *MPI, buf any, offset, count int, dt *Datatype, cell stageCell, pool *mpjbuf.Pool) (nativempi.Payload, func() error, func(), error) {
	dir := dirSend
	if cell.recv {
		dir = dirRecv
	}
	if cell.iovec {
		dir |= dirIovec
	}
	st, err := m.stage(buf, offset, count, dt, dir, pool)
	return st.view, st.finish, st.release, err
}

// TestStagingAllocatesNothing is the garbage guard for the descriptor:
// staging, finishing and releasing a buffer allocates no heap object in
// core — not for a direct ByteBuffer, and for a pooled array nothing
// beyond the mpjbuf.Buffer header the pool itself hands out per Get.
// (The closure triples this replaced cost 1 object per direct-buffer
// receive and 2 + 4 per pooled-array send + receive.)
func TestStagingAllocatesNothing(t *testing.T) {
	cfg := mv2Config(1, 2)
	cfg.HeapSize, cfg.ArenaSize = 1<<16, 1<<16
	err := Run(cfg, func(m *MPI) error {
		c := m.CommWorld()
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 { // rank 1 sits parked in the closing barrier
			dt := INT
			cycle := func(buf any) func() {
				return func() {
					for _, dir := range [...]stageDir{dirSend | dirIovec, dirRecv | dirIovec} {
						st, err := m.stage(buf, 0, 16, &dt, dir, m.pool)
						if err == nil {
							err = st.done(nil)
						}
						if err != nil {
							panic(err)
						}
					}
				}
			}
			poolHeader := testing.AllocsPerRun(100, func() {
				b, _ := m.pool.Get(64)
				b.Free()
			})
			if n := testing.AllocsPerRun(100, cycle(m.JVM().MustAllocateDirect(64))); n != 0 {
				t.Errorf("direct-buffer send+recv staging allocates %v objects, want 0", n)
			}
			if n := testing.AllocsPerRun(100, cycle(m.JVM().MustArray(jvm.Int, 16))); n != 2*poolHeader {
				t.Errorf("pooled-array send+recv staging allocates %v objects, want the pool's own %v", n, 2*poolHeader)
			}
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}
