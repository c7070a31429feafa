package core

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"testing"

	"mv2j/internal/jvm"
	"mv2j/internal/metrics"
	"mv2j/internal/nativempi"
	"mv2j/internal/trace"
	"mv2j/internal/vtime"
)

// recycleWorkload is one 2x2 world of the storage-recycling tests. Each
// has a JVM size class of its own in this package, so its first run
// takes fresh storage.
type recycleWorkload struct {
	name    string
	jvmSize int  // heap and arena bytes per rank
	arrays  bool // Java arrays staged through mpjbuf; else direct ByteBuffers
	msg     int  // bytes per message, above the inter-node RDMA threshold
	rounds  int
}

var recycleWorkloads = []recycleWorkload{
	// 8 rounds of a send and a slightly larger receive array overflow
	// the 3 MiB heap, so the collector runs and later arrays land on
	// compacted space.
	{name: "arrays", jvmSize: 3 << 20, arrays: true, msg: 320 << 10, rounds: 8},
	{name: "buffers", jvmSize: 7 << 18, msg: 384 << 10, rounds: 4},
}

// recvTail is how far each receive buffer extends past the message: bytes
// nothing writes, captured with the payload, so uncleared recycled
// storage would show.
const recvTail = 1 << 10

// runRecycleWorld runs w once and captures its artifacts. Every rank
// swaps one message per round with its counterpart on the other node.
func runRecycleWorld(w recycleWorkload) (worldArtifacts, error) {
	rec, met := trace.New(0), metrics.NewRegistry()
	var host nativempi.HostStats
	cfg := mv2Config(2, 2)
	cfg.HeapSize, cfg.ArenaSize = w.jvmSize, w.jvmSize
	cfg.Trace, cfg.Metrics, cfg.HostStats = rec, met, &host
	a := worldArtifacts{recvs: make([][]byte, 4), clocks: make([]vtime.Time, 4)}
	collections := make([]int64, 4)
	err := Run(cfg, func(m *MPI) error {
		c := m.CommWorld()
		me := c.Rank()
		peer := me ^ 2
		out := bytes.Repeat([]byte{byte(me + 1)}, w.msg)
		var digests []byte
		for r := 0; r < w.rounds; r++ {
			out[r] = byte(r)
			var send, recv any
			var raw func() []byte
			var free func()
			if w.arrays {
				s := m.JVM().MustArray(jvm.Byte, w.msg)
				d := m.JVM().MustArray(jvm.Byte, w.msg+recvTail)
				s.CopyInBytes(0, out)
				send, recv, raw = s, d, d.RawBytes
				free = func() { s.Discard(); d.Discard() }
			} else {
				s := m.JVM().MustAllocateDirect(w.msg)
				d := m.JVM().MustAllocateDirect(w.msg + recvTail)
				s.PutBytes(out)
				s.Clear()
				send, recv, raw = s, d, d.RawBytes
				free = func() { s.Free(); d.Free() }
			}
			if _, err := c.Sendrecv(send, w.msg, BYTE, peer, r, recv, w.msg, BYTE, peer, r); err != nil {
				return err
			}
			sum := sha256.Sum256(raw())
			digests = append(digests, sum[:]...)
			free()
		}
		a.recvs[me] = digests
		a.clocks[me] = m.Clock().Now()
		collections[me] = m.JVM().Stats().Collections
		return nil
	})
	if err != nil {
		return a, err
	}
	a.host = host
	if w.arrays && collections[0] == 0 {
		return a, fmt.Errorf("%s: no heap collection ran", w.name)
	}
	if host.RDMA.Writes == 0 {
		return a, fmt.Errorf("%s: no message took the RDMA tier", w.name)
	}
	err = a.export(rec, met)
	return a, err
}

// dirtyWorld runs a 1x5 world whose ranks fill their whole heap and
// arena with 0x5A. Its JVM size is the full size class of w, and five
// ranks release more slices than w's four take, so a following run of
// w gets nothing but dirty storage.
func dirtyWorld(w recycleWorkload) error {
	size := 1 << bits.Len(uint(w.jvmSize-1))
	cfg := mv2Config(1, 5)
	cfg.HeapSize, cfg.ArenaSize = size, size
	return Run(cfg, func(m *MPI) error {
		arr, err := m.JVM().NewArray(jvm.Byte, size)
		if err != nil {
			return err
		}
		arr.Fill(0x5A)
		buf, err := m.JVM().AllocateDirect(size)
		if err != nil {
			return err
		}
		buf.PutBytes(bytes.Repeat([]byte{0x5A}, size))
		return nil
	})
}

// TestRecycledStorageDeterminism pins "recycled memory is
// indistinguishable from fresh memory": one world run cold, again over
// storage a differently shaped world released full of non-zero bytes,
// and again concurrently with three other worlds sharing the free
// lists, produces byte-identical receive payloads, clocks, trace JSONL
// and metrics JSON. The arrays workload exercises heap reuse across a
// collection, the buffers workload arena reuse, and both the
// registration cache keyed by recycled addresses.
func TestRecycledStorageDeterminism(t *testing.T) {
	for i, w := range recycleWorkloads {
		other := recycleWorkloads[1-i]
		t.Run(w.name, func(t *testing.T) {
			cold, err := runRecycleWorld(w)
			if err != nil {
				t.Fatal(err)
			}
			if err := dirtyWorld(w); err != nil {
				t.Fatal(err)
			}
			warm, err := runRecycleWorld(w)
			if err != nil {
				t.Fatal(err)
			}
			assertSameArtifacts(t, cold, warm, "cold run and the run over dirty recycled storage")

			var concurrent worldArtifacts
			errs := make([]error, 4)
			var wg sync.WaitGroup
			for k, run := range []func() error{
				func() (err error) { concurrent, err = runRecycleWorld(w); return err },
				func() error { return dirtyWorld(w) },
				func() error { _, err := runRecycleWorld(w); return err },
				func() error { _, err := runRecycleWorld(other); return err },
			} {
				wg.Add(1)
				go func(k int, run func() error) {
					defer wg.Done()
					errs[k] = run()
				}(k, run)
			}
			wg.Wait()
			if err := errors.Join(errs...); err != nil {
				t.Fatal(err)
			}
			assertSameArtifacts(t, cold, concurrent, "cold run and the run beside three concurrent worlds")
		})
	}
}

// panicErr runs fn and returns the error it panicked with, if any.
func panicErr(fn func()) (err error) {
	defer func() { err, _ = recover().(error) }()
	fn()
	return nil
}

// TestJavaObjectsStaleAfterRun pins the lifecycle contract: Run releases
// every rank's JVM, after which its objects and allocations fail with
// jvm.ErrStale (panicking where the method panics on a stale handle,
// returning the error where it returns one). A machine built directly
// and never released is untouched by the worlds around it.
func TestJavaObjectsStaleAfterRun(t *testing.T) {
	const size = 1 << 16
	kept := jvm.NewMachine(vtime.NewClock(), jvm.Options{HeapSize: size, ArenaSize: size})
	keptArr := kept.MustArray(jvm.Int, 4)
	keptArr.SetInt(3, 42)
	keptBuf := kept.MustAllocateDirect(8)
	keptBuf.PutByteAt(7, 9)

	var (
		m          *jvm.Machine
		arr        jvm.Array
		dbuf, hbuf *jvm.ByteBuffer
	)
	cfg := mv2Config(1, 2)
	cfg.HeapSize, cfg.ArenaSize = size, size
	err := Run(cfg, func(mpi *MPI) error {
		if mpi.CommWorld().Rank() != 0 {
			return nil
		}
		m = mpi.JVM()
		arr = m.MustArray(jvm.Int, 4)
		dbuf = m.MustAllocateDirect(64)
		var err error
		hbuf, err = m.Allocate(64)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, use := range []struct {
		name string
		fn   func()
	}{
		{"Array.Int", func() { arr.Int(0) }},
		{"direct ByteBuffer.ByteAt", func() { dbuf.ByteAt(0) }},
		{"direct ByteBuffer.Slice().ByteAt", func() { dbuf.Slice().ByteAt(0) }},
		{"heap ByteBuffer.ByteAt", func() { hbuf.ByteAt(0) }},
		{"direct ByteBuffer.Free", func() { dbuf.Free() }},
	} {
		if err := panicErr(use.fn); !errors.Is(err, jvm.ErrStale) {
			t.Errorf("%s after Run panicked with %v, want jvm.ErrStale", use.name, err)
		}
	}
	for i := 0; i < 2; i++ { // the second pass follows a no-op second Release
		if _, err := m.NewArray(jvm.Byte, 8); !errors.Is(err, jvm.ErrStale) {
			t.Errorf("NewArray after Run: %v, want jvm.ErrStale", err)
		}
		if _, err := m.AllocateDirect(8); !errors.Is(err, jvm.ErrStale) {
			t.Errorf("AllocateDirect after Run: %v, want jvm.ErrStale", err)
		}
		m.Release()
	}

	if got := keptArr.Int(3); got != 42 {
		t.Errorf("never-released machine's array reads %d, want 42", got)
	}
	if got := keptBuf.ByteAt(7); got != 9 {
		t.Errorf("never-released machine's direct buffer reads %d, want 9", got)
	}
	if _, err := kept.NewArray(jvm.Long, 8); err != nil {
		t.Errorf("never-released machine cannot allocate: %v", err)
	}
}

// TestSecondWorldReusesJVMStorage is the recycler's host budget: a 1x8
// world run right after an identical one takes its sixteen 16 MiB heaps
// and arenas from the free list, so the Go heap it allocates stays
// below one such slice. Not parallel: TotalAlloc counts the whole
// process.
func TestSecondWorldReusesJVMStorage(t *testing.T) {
	const class = 16 << 20 // the default heap and arena size
	world := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := Run(mv2Config(1, 8), func(*MPI) error { return nil }); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	first, second := world(), world()
	t.Logf("Go heap allocated: first world %d B, second world %d B", first, second)
	if second >= class {
		t.Fatalf("second world allocated %d B, want < %d B: its JVM storage was not recycled", second, class)
	}
}
