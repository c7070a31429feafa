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
	run    func(c *nativempi.Comm, send, recv []byte, n, root int) error
}

var goldenColls = map[string]goldenColl{
	"bcast": {false, func(c *nativempi.Comm, send, _ []byte, n, root int) error { return c.Bcast(send[:n], root) }},
	"allreduce": {false, func(c *nativempi.Comm, send, recv []byte, n, _ int) error {
		return c.Allreduce(send[:n], recv[:n], jvm.Byte, nativempi.OpSum)
	}},
	"reduce": {false, func(c *nativempi.Comm, send, recv []byte, n, root int) error {
		return c.Reduce(send[:n], recv[:n], jvm.Byte, nativempi.OpSum, root)
	}},
	"gather": {true, func(c *nativempi.Comm, send, recv []byte, n, root int) error {
		return c.Gather(send[:n], recv[:n*c.Size()], root)
	}},
	"scatter": {true, func(c *nativempi.Comm, send, recv []byte, n, root int) error {
		return c.Scatter(send[:n*c.Size()], recv[:n], root)
	}},
	"allgather": {true, func(c *nativempi.Comm, send, recv []byte, n, _ int) error {
		return c.Allgather(send[:n], recv[:n*c.Size()])
	}},
	"alltoall": {true, func(c *nativempi.Comm, send, recv []byte, n, _ int) error {
		return c.Alltoall(send[:n*c.Size()], recv[:n*c.Size()])
	}},
	"barrier": {false, func(c *nativempi.Comm, _, _ []byte, _, _ int) error { return c.Barrier() }},
}

// goldenRun is one world of the collective golden: a collective swept
// over sizes on a nodes × ppn job, rooted at comm rank root.
type goldenRun struct {
	coll       string
	nodes, ppn int
	sizes      []int
	root       int
}

// label names the run's collective in the golden: a root other than 0
// is appended as "@root".
func (r goldenRun) label() string {
	if r.root == 0 {
		return r.coll
	}
	return r.coll + "@" + strconv.Itoa(r.root)
}

// goldenRuns covers every blocking collective at the paper's
// Figs. 14–17 shape (4 nodes × 16 ranks). Bcast and allreduce sweep
// every power of two from 1 B to 2 MiB, so each size band of both
// profiles' algorithm choice is hit, both sides of every threshold
// included; the other six take a few small sizes. Bcast and allreduce
// also run at 16 × 16 around 8 KiB, where the multi-leader algorithms
// take over.
//
// The rest move the root and the shape. Root 17 is not the lowest rank
// of its node, so the node-leader trees must let it stand in for its
// node: bcast and reduce at 4 × 16, and bcast at 16 × 16 where the
// multi-leader bcast substitutes it. A 3 × 5 job has three node
// leaders, so their recursive doubling folds in a non-power-of-two
// group; bcast and reduce run there from roots 0 and 7 (7 is not its
// node's lowest rank either), and allreduce once.
func goldenRuns() []goldenRun {
	var sweep []int
	for n := 1; n <= 2<<20; n *= 2 {
		sweep = append(sweep, n)
	}
	small, wide := []int{8, 16, 32, 64}, []int{8 << 10, 16 << 10}
	rooted := []int{8, 8 << 10, 64 << 10}
	var runs []goldenRun
	for _, c := range []string{"bcast", "allreduce"} {
		runs = append(runs, goldenRun{c, 4, 16, sweep, 0})
	}
	for _, c := range []string{"reduce", "gather", "scatter", "allgather", "alltoall"} {
		runs = append(runs, goldenRun{c, 4, 16, small, 0})
	}
	runs = append(runs, goldenRun{"barrier", 4, 16, []int{0}, 0})
	for _, c := range []string{"bcast", "allreduce"} {
		runs = append(runs, goldenRun{c, 16, 16, wide, 0})
	}
	for _, c := range []string{"bcast", "reduce"} {
		runs = append(runs, goldenRun{c, 4, 16, rooted, 17})
	}
	runs = append(runs, goldenRun{"bcast", 16, 16, wide, 17})
	for _, c := range []string{"bcast", "reduce"} {
		for _, root := range []int{0, 7} {
			runs = append(runs, goldenRun{c, 3, 5, rooted, root})
		}
	}
	runs = append(runs, goldenRun{"allreduce", 3, 5, rooted, 0})
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
				if err := coll.run(c, send, recv, n, r.root); err != nil {
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
	fmt.Fprintln(&got, "# lib shape collective[@root] bytes latency_ps (mean over ranks)")
	for _, prof := range []nativempi.Profile{profile.MVAPICH2(), profile.OpenMPI()} {
		for _, r := range goldenRuns() {
			for i, sum := range goldenLatencies(t, prof, r) {
				mean := float64(sum) / float64(r.nodes*r.ppn)
				fmt.Fprintf(&got, "%s %dx%d %s %d %s\n", prof.Name, r.nodes, r.ppn, r.label(), r.sizes[i],
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
