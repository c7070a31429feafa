package nativempi_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mv2j/internal/cluster"
	"mv2j/internal/fabric"
	"mv2j/internal/faults"
	"mv2j/internal/nativempi"
)

// modelRow is one world of the model-constant golden: a tiny job whose
// virtual clocks are driven by one group of the runtime's fixed model
// values (retransmission timing, failure detection, registration
// costs, staged RMA, datatype packing, thread arbitration).
type modelRow struct {
	name       string
	nodes, ppn int
	spec       string // fault spec; "" for a lossless fabric
	ft         bool
	body       func(p *nativempi.Proc) error
}

// modelRows lists the golden's worlds. Each uses the generic profile,
// so every clock depends on the model's defaults and nothing else.
func modelRows() []modelRow {
	return []modelRow{
		// Retransmission timeout and backoff: a ping-pong of eager
		// messages over a link that loses 1% of frames and acks, plus
		// targeted first-attempt drops. A retransmission that is lost
		// too waits out the backed-off timeout.
		{name: "rto-backoff", nodes: 2, ppn: 1, spec: "seed=8,drop=0.01" + modelTargetedDrops(3, 31, 4),
			body: modelPingPong(150, 256)},
		// Retransmission budget: a black-holed link aborts the job once
		// the sender has exhausted its attempts.
		{name: "max-retransmits", nodes: 2, ppn: 1, spec: "seed=8,drop=1.0",
			body: func(p *nativempi.Proc) error {
				c := p.CommWorld()
				buf := make([]byte, 64)
				if p.Rank() == 0 {
					return c.Send(buf, 1, 0)
				}
				_, err := c.Recv(buf, 0, 0)
				return err
			}},
		// Failure detection: rank 2 dies on its first operation, and the
		// survivors' receives from it fail at confirm time.
		{name: "ft-detector", nodes: 1, ppn: 3, spec: "crash=2:op1", ft: true,
			body: func(p *nativempi.Proc) error {
				c := p.CommWorld()
				buf := make([]byte, 8)
				if p.Rank() == 2 {
					return c.Send(buf, 0, 1)
				}
				if _, err := c.Sendrecv(buf, 1-p.Rank(), 0, make([]byte, 8), 1-p.Rank(), 0); err != nil {
					return err
				}
				_, err := c.Recv(buf, 2, 1)
				return err
			}},
		// Registration cache: two passes of an RDMA send stream over
		// distinct base addresses. 129 buffers of 256 KiB overflow the
		// entry limit and eight of 8 MiB + 64 KiB the byte limit, so the
		// second pass of each misses on every send and the sender pays
		// registration, per-page and deregistration costs throughout.
		{name: "regcache", nodes: 2, ppn: 1, body: modelRegStream},
		// Staged RMA: fault tolerance disables the RDMA channel, so a
		// 64 KiB Put and Get take the chunked fallback.
		{name: "rma-staged", nodes: 2, ppn: 1, ft: true,
			body: func(p *nativempi.Proc) error {
				const n = 64 << 10
				c := p.CommWorld()
				win, err := c.WinCreate(make([]byte, n))
				if err != nil {
					return err
				}
				if p.Rank() == 0 {
					if err := win.Put(make([]byte, n), 1, 0); err != nil {
						return err
					}
				}
				if err := win.Fence(); err != nil {
					return err
				}
				if p.Rank() == 1 {
					if err := win.Get(make([]byte, n), 0, 0); err != nil {
						return err
					}
				}
				if err := win.Fence(); err != nil {
					return err
				}
				return win.Free()
			}},
		// Datatype packing: an eager message of 64 strided runs is
		// packed at the sender and unpacked into a strided landing.
		{name: "ddt-pack", nodes: 1, ppn: 2,
			body: func(p *nativempi.Proc) error {
				c := p.CommWorld()
				runs := make([]nativempi.Run, 64)
				for i := range runs {
					runs[i] = nativempi.Run{Off: 16 * i, Len: 8}
				}
				pl := nativempi.Strided(nativempi.NewIOVec(make([]byte, 16*64), runs))
				var req *nativempi.Request
				var err error
				if p.Rank() == 0 {
					req, err = c.IsendPayload(pl, 1, 0)
				} else {
					req, err = c.IrecvPayload(pl, 0, 0)
				}
				if err != nil {
					return err
				}
				_, err = req.Wait()
				return err
			}},
		// Thread arbitration and injection endpoints: four threads per
		// rank under MPI_THREAD_MULTIPLE contend for the entry lock and
		// fan rendezvous data phases out over the NIC endpoints.
		{name: "threads", nodes: 2, ppn: 2, body: modelThreads},
	}
}

// modelPingPong bounces iters messages of n bytes between ranks 0 and 1.
func modelPingPong(iters, n int) func(p *nativempi.Proc) error {
	return func(p *nativempi.Proc) error {
		c := p.CommWorld()
		buf := make([]byte, n)
		for i := 0; i < iters; i++ {
			if p.Rank() == 0 {
				if err := c.Send(buf, 1, i); err != nil {
					return err
				}
				if _, err := c.Recv(buf, 1, i); err != nil {
					return err
				}
				continue
			}
			if _, err := c.Recv(buf, 0, i); err != nil {
				return err
			}
			if err := c.Send(buf, 0, i); err != nil {
				return err
			}
		}
		return nil
	}
}

// modelTargetedDrops returns fault-spec targets that drop the first
// attempt of eager messages first, first+step, ... last in both
// directions between ranks 0 and 1.
func modelTargetedDrops(first, last, step int) string {
	var spec string
	for n := first; n <= last; n += step {
		spec += fmt.Sprintf(",target=drop:0>1:eager:%d,target=drop:1>0:eager:%d", n, n)
	}
	return spec
}

// modelRegStream sends from sub-slices of one backing array: each
// slice has its own base address, so each is its own registration,
// while the host footprint stays near the largest message.
func modelRegStream(p *nativempi.Proc) error {
	c := p.CommWorld()
	phases := []struct{ count, n, stride int }{
		{129, 256 << 10, 4 << 10},
		{8, 8<<20 + 64<<10, 4 << 10},
	}
	for _, ph := range phases {
		backing := make([]byte, ph.n+ph.count*ph.stride)
		for pass := 0; pass < 2; pass++ {
			for i := 0; i < ph.count; i++ {
				if p.Rank() == 0 {
					if err := c.Send(backing[i*ph.stride:i*ph.stride+ph.n], 1, 0); err != nil {
						return err
					}
				} else if _, err := c.Recv(backing[:ph.n], 0, 0); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// modelThreads runs four threads per rank; ranks 0 and 1 each stream
// 32 KiB rendezvous messages to the rank on the other node.
func modelThreads(p *nativempi.Proc) error {
	c := p.CommWorld()
	if got := p.InitThread(nativempi.ThreadMultiple); got != nativempi.ThreadMultiple {
		return fmt.Errorf("provided %v, want MULTIPLE", got)
	}
	peer := (p.Rank() + 2) % 4
	return p.RunThreads(4, func(tid int) error {
		buf := make([]byte, 32<<10)
		for i := 0; i < 4; i++ {
			if p.Rank() < 2 {
				if err := c.Send(buf, peer, 100+tid); err != nil {
					return err
				}
			} else if _, err := c.Recv(buf, peer, 100+tid); err != nil {
				return err
			}
		}
		return nil
	})
}

// modelErrClass names an error by its MPI class, or by its text when it
// has none.
func modelErrClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, nativempi.ErrProcFailed):
		return "ErrProcFailed"
	case errors.Is(err, nativempi.ErrRevoked):
		return "ErrRevoked"
	}
	return fmt.Sprintf("%q", err.Error())
}

// runModelRow runs r and appends one line per rank (its final clock and
// the error its body returned) plus one line for the job's outcome.
func runModelRow(t *testing.T, out *bytes.Buffer, r modelRow) {
	t.Helper()
	topo := cluster.New(r.nodes, r.ppn)
	fab := fabric.Default(topo)
	if r.spec != "" {
		plan, err := faults.ParseSpec(r.spec)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		fab.WithFaults(plan)
	}
	w := nativempi.NewWorld(topo, fab, nativempi.Profile{})
	if r.ft {
		w.EnableFT()
	}
	errs := make([]error, topo.Size())
	runErr := w.Run(func(p *nativempi.Proc) error {
		errs[p.Rank()] = r.body(p)
		if errors.Is(errs[p.Rank()], nativempi.ErrProcFailed) || errors.Is(errs[p.Rank()], nativempi.ErrRevoked) {
			return nil // a failure-class error is the row's outcome, not a job failure
		}
		return errs[p.Rank()]
	})
	for rank := range errs {
		fmt.Fprintf(out, "%s %d %d %s\n", r.name, rank, int64(w.Proc(rank).Clock().Now()), modelErrClass(errs[rank]))
	}
	fmt.Fprintf(out, "%s job - %s\n", r.name, modelErrClass(runErr))
}

// TestGoldenModelConstants locks down, to the picosecond, the virtual
// clocks of worlds driven by the runtime's fixed model values, so that
// a value that moves (or a refactor that reads it from somewhere else)
// shows up as a diff. Run with -update to re-record after an announced
// model change.
func TestGoldenModelConstants(t *testing.T) {
	var got bytes.Buffer
	fmt.Fprintln(&got, "# row rank clock_ps error (rank \"job\": the job's outcome)")
	for _, r := range modelRows() {
		runModelRow(t, &got, r)
	}
	path := filepath.Join("testdata", "model_clocks.txt")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run `go test ./internal/nativempi -run TestGoldenModelConstants -update`): %v", err)
	}
	gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("%s drifted at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("%s drifted: got %d lines, want %d", path, len(gl), len(wl))
	}
}
