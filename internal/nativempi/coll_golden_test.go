package nativempi_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"mv2j/internal/cluster"
	"mv2j/internal/fabric"
	"mv2j/internal/jvm"
	"mv2j/internal/nativempi"
	"mv2j/internal/profile"
	"mv2j/internal/vtime"
)

var update = flag.Bool("update", false, "rewrite the collective latency golden file")

// goldenColl is one blocking collective on n bytes per rank.
type goldenColl struct {
	// blocks is true when a buffer holds one n-byte block per rank.
	blocks bool
	run    func(c *nativempi.Comm, send, recv []byte, n int) error
}

var goldenColls = map[string]goldenColl{
	"bcast": {false, func(c *nativempi.Comm, send, _ []byte, n int) error { return c.Bcast(send[:n], 0) }},
	"allreduce": {false, func(c *nativempi.Comm, send, recv []byte, n int) error {
		return c.Allreduce(send[:n], recv[:n], jvm.Byte, nativempi.OpSum)
	}},
	"reduce": {false, func(c *nativempi.Comm, send, recv []byte, n int) error {
		return c.Reduce(send[:n], recv[:n], jvm.Byte, nativempi.OpSum, 0)
	}},
	"gather": {true, func(c *nativempi.Comm, send, recv []byte, n int) error {
		return c.Gather(send[:n], recv[:n*c.Size()], 0)
	}},
	"scatter": {true, func(c *nativempi.Comm, send, recv []byte, n int) error {
		return c.Scatter(send[:n*c.Size()], recv[:n], 0)
	}},
	"allgather": {true, func(c *nativempi.Comm, send, recv []byte, n int) error {
		return c.Allgather(send[:n], recv[:n*c.Size()])
	}},
	"alltoall": {true, func(c *nativempi.Comm, send, recv []byte, n int) error {
		return c.Alltoall(send[:n*c.Size()], recv[:n*c.Size()])
	}},
	"barrier": {false, func(c *nativempi.Comm, _, _ []byte, _ int) error { return c.Barrier() }},
}

// goldenRun is one world of the collective golden: a collective swept
// over sizes on a nodes × ppn job.
type goldenRun struct {
	coll       string
	nodes, ppn int
	sizes      []int
}

// goldenRuns covers every blocking collective at the paper's
// Figs. 14–17 shape (4 nodes × 16 ranks). Bcast and allreduce sweep
// every power of two from 1 B to 2 MiB, so each size band of both
// profiles' algorithm choice is hit, both sides of every threshold
// included; the other six take a few small sizes. Bcast and allreduce
// also run at 16 × 16 around 8 KiB, where the multi-leader algorithms
// take over.
func goldenRuns() []goldenRun {
	var sweep []int
	for n := 1; n <= 2<<20; n *= 2 {
		sweep = append(sweep, n)
	}
	small, wide := []int{8, 16, 32, 64}, []int{8 << 10, 16 << 10}
	var runs []goldenRun
	for _, c := range []string{"bcast", "allreduce"} {
		runs = append(runs, goldenRun{c, 4, 16, sweep})
	}
	for _, c := range []string{"reduce", "gather", "scatter", "allgather", "alltoall"} {
		runs = append(runs, goldenRun{c, 4, 16, small})
	}
	runs = append(runs, goldenRun{"barrier", 4, 16, []int{0}})
	for _, c := range []string{"bcast", "allreduce"} {
		runs = append(runs, goldenRun{c, 16, 16, wide})
	}
	return runs
}

// goldenLatencies runs r under prof and returns, per size, the virtual
// time one call takes summed over ranks: one warm-up call, then one
// timed call (virtual time is deterministic, so one pins as much as
// many), with a barrier between sizes.
func goldenLatencies(t *testing.T, prof nativempi.Profile, r goldenRun) []vtime.Duration {
	t.Helper()
	topo := cluster.New(r.nodes, r.ppn)
	w := nativempi.NewWorld(topo, fabric.Default(topo), prof)
	coll := goldenColls[r.coll]
	maxN := r.sizes[len(r.sizes)-1]
	if coll.blocks {
		maxN *= topo.Size()
	}
	took := make([][]vtime.Duration, topo.Size()) // [rank][size]
	err := w.Run(func(pr *nativempi.Proc) error {
		c := pr.CommWorld()
		send, recv := make([]byte, maxN), make([]byte, maxN)
		took[pr.Rank()] = make([]vtime.Duration, len(r.sizes))
		for i, n := range r.sizes {
			for iter := 0; iter < 2; iter++ {
				t0 := pr.Clock().Now()
				if err := coll.run(c, send, recv, n); err != nil {
					return err
				}
				took[pr.Rank()][i] = pr.Clock().Now().Sub(t0)
			}
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("%s %s %dx%d: %v", prof.Name, r.coll, r.nodes, r.ppn, err)
	}
	sum := make([]vtime.Duration, len(r.sizes))
	for i := range sum {
		for rank := range took {
			sum[i] += took[rank][i]
		}
	}
	return sum
}

// TestGoldenCollectives locks down the virtual latency of the blocking
// collectives under both library profiles, to the picosecond, at the
// native library's depth: each row is a pure function of the profile's
// algorithm choice, its software overheads and the fabric. Run with
// -update to re-record after an announced model change.
func TestGoldenCollectives(t *testing.T) {
	var got bytes.Buffer
	fmt.Fprintln(&got, "# lib shape collective bytes latency_ps (mean over ranks)")
	for _, prof := range []nativempi.Profile{profile.MVAPICH2(), profile.OpenMPI()} {
		for _, r := range goldenRuns() {
			for i, sum := range goldenLatencies(t, prof, r) {
				mean := float64(sum) / float64(r.nodes*r.ppn)
				fmt.Fprintf(&got, "%s %dx%d %s %d %s\n", prof.Name, r.nodes, r.ppn, r.coll, r.sizes[i],
					strconv.FormatFloat(mean, 'f', -1, 64))
			}
		}
	}
	path := filepath.Join("testdata", "coll_latency.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run `go test ./internal/nativempi -run TestGoldenCollectives -update`): %v", err)
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
