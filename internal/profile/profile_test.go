package profile

import (
	"testing"

	"mv2j/internal/nativempi"
)

func TestByName(t *testing.T) {
	for _, name := range []string{"mvapich2", "mv2", "mvapich"} {
		p, ok := ByName(name)
		if !ok || p.Name != "mvapich2" {
			t.Fatalf("ByName(%q) = %q, %v", name, p.Name, ok)
		}
	}
	for _, name := range []string{"openmpi", "ompi"} {
		p, ok := ByName(name)
		if !ok || p.Name != "openmpi" {
			t.Fatalf("ByName(%q) = %q, %v", name, p.Name, ok)
		}
	}
	if _, ok := ByName("mpich"); ok {
		t.Fatal("unknown profile name accepted")
	}
}

func TestProfilesAreDistinctPersonalities(t *testing.T) {
	mv2, ompi := MVAPICH2(), OpenMPI()
	if mv2.IntraSendOverhead >= ompi.IntraSendOverhead {
		t.Fatal("MVAPICH2's intra-node software path must be leaner (Fig. 5)")
	}
	if mv2.CollMsgOverhead >= ompi.CollMsgOverhead {
		t.Fatal("MVAPICH2's collective per-message overhead must be lower")
	}
}

// bandSizes straddles every size threshold of the shipped algorithm
// choices: each threshold, then one byte past it.
var bandSizes = [...]int{
	256, 257, 4 << 10, 4<<10 + 1, 8 << 10, 8<<10 + 1, 32 << 10, 32<<10 + 1,
	64 << 10, 64<<10 + 1, 128 << 10, 128<<10 + 1, 1 << 20, 1<<20 + 1,
}

// TestAlgorithmSelection pins each profile's bcast and allreduce choice
// and the radix it runs on both sides of every size threshold, below
// and at the 256-rank switch to the multi-leader algorithms.
func TestAlgorithmSelection(t *testing.T) {
	mv2, ompi := MVAPICH2(), OpenMPI()
	const (
		shm  = nativempi.BcastShmAware
		sag  = nativempi.BcastScatterAllgather
		ml   = nativempi.BcastMultiLeader
		flat = nativempi.BcastFlat
		kn   = nativempi.BcastKnomial
		tree = nativempi.BcastBinaryTree
	)
	for _, tc := range []struct {
		prof  nativempi.Profile
		ps    []int
		want  [len(bandSizes)]nativempi.BcastAlg
		radix [len(bandSizes)]int
	}{
		{mv2, []int{64, 255},
			[...]nativempi.BcastAlg{shm, shm, shm, shm, shm, shm, shm, shm, shm, shm, shm, sag, sag, sag},
			[...]int{8, 8, 8, 8, 8, 2, 2, 2, 2, 2, 2, 0, 0, 0}},
		{mv2, []int{256},
			[...]nativempi.BcastAlg{ml, ml, ml, ml, ml, ml, ml, ml, ml, ml, ml, ml, ml, ml},
			[...]int{8, 8, 8, 8, 8, 2, 2, 2, 2, 2, 2, 2, 2, 2}},
		{ompi, []int{64, 255, 256},
			[...]nativempi.BcastAlg{flat, flat, flat, kn, kn, kn, kn, tree, tree, tree, tree, tree, tree, tree},
			[...]int{0, 0, 0, 2, 2, 2, 2, 0, 0, 0, 0, 0, 0, 0}},
	} {
		for _, p := range tc.ps {
			for i, n := range bandSizes {
				if r := tc.prof.Bcast.Pick(n, p); r.Alg != tc.want[i] || r.Radix != tc.radix[i] {
					t.Errorf("%s bcast n=%d p=%d: got %v radix %d, want %v radix %d",
						tc.prof.Name, n, p, r.Alg, r.Radix, tc.want[i], tc.radix[i])
				}
			}
		}
	}

	const (
		ashm = nativempi.AllreduceShmAware
		rab  = nativempi.AllreduceRabenseifner
		aml  = nativempi.AllreduceMultiLeader
		rd   = nativempi.AllreduceRecursiveDoubling
		rb   = nativempi.AllreduceReduceBcast
	)
	for _, tc := range []struct {
		prof  nativempi.Profile
		ps    []int
		want  [len(bandSizes)]nativempi.AllreduceAlg
		radix [len(bandSizes)]int
	}{
		{mv2, []int{64, 255},
			[...]nativempi.AllreduceAlg{ashm, ashm, ashm, ashm, ashm, ashm, ashm, rab, rab, rab, rab, rab, rab, rab},
			[...]int{8, 8, 8, 8, 8, 8, 8, 0, 0, 0, 0, 0, 0, 0}},
		{mv2, []int{256},
			[...]nativempi.AllreduceAlg{aml, aml, aml, aml, aml, aml, aml, aml, aml, aml, aml, aml, aml, aml},
			[...]int{8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8}},
		{ompi, []int{64, 255, 256},
			[...]nativempi.AllreduceAlg{rd, rb, rb, rb, rb, rb, rb, rb, rb, rb, rb, rb, rb, rab},
			[len(bandSizes)]int{}},
	} {
		for _, p := range tc.ps {
			for i, n := range bandSizes {
				if r := tc.prof.Allreduce.Pick(n, p); r.Alg != tc.want[i] || r.Radix != tc.radix[i] {
					t.Errorf("%s allreduce n=%d p=%d: got %v radix %d, want %v radix %d",
						tc.prof.Name, n, p, r.Alg, r.Radix, tc.want[i], tc.radix[i])
				}
			}
		}
	}

	if mv2.Gather != nativempi.GatherBinomial || mv2.Scatter != nativempi.ScatterBinomial {
		t.Errorf("mv2 gather/scatter = %v/%v, want binomial", mv2.Gather, mv2.Scatter)
	}
	if ompi.Gather != nativempi.GatherLinear || ompi.Scatter != nativempi.ScatterLinear {
		t.Errorf("ompi gather/scatter = %v/%v, want linear", ompi.Gather, ompi.Scatter)
	}
}

// TestProfilesValidate: the shipped tables are total and every radix
// sits on a k-nomial algorithm.
func TestProfilesValidate(t *testing.T) {
	for _, pr := range []nativempi.Profile{MVAPICH2(), OpenMPI()} {
		if err := pr.Validate(); err != nil {
			t.Errorf("%s: %v", pr.Name, err)
		}
	}
}

func TestEagerThresholds(t *testing.T) {
	mv2, ompi := MVAPICH2(), OpenMPI()
	if mv2.EagerInter <= ompi.EagerInter {
		t.Fatal("MVAPICH2's inter-node eager threshold should be the larger one")
	}
	if mv2.EagerIntra <= 0 || ompi.EagerIntra <= 0 {
		t.Fatal("profiles must pin explicit eager thresholds")
	}
}
