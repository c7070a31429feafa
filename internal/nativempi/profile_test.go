package nativempi

import (
	"strings"
	"testing"

	"mv2j/internal/jvm"
)

// bandSizes straddles every size threshold of the shipped algorithm
// choices: each threshold, then one byte past it.
var bandSizes = [...]int{
	256, 257, 4 << 10, 4<<10 + 1, 8 << 10, 8<<10 + 1, 32 << 10, 32<<10 + 1,
	64 << 10, 64<<10 + 1, 128 << 10, 128<<10 + 1, 1 << 20, 1<<20 + 1,
}

// TestDefaultAlgorithmSelection pins the zero profile's bcast and
// allreduce choice (what normalize fills in) and the radix it runs on
// both sides of every size threshold, below and at the 256-rank
// multi-leader switch.
func TestDefaultAlgorithmSelection(t *testing.T) {
	pr := Profile{}.normalize()
	const (
		kn  = BcastKnomial
		sag = BcastScatterAllgather
		ml  = BcastMultiLeader
	)
	for _, tc := range []struct {
		ps    []int
		want  [len(bandSizes)]BcastAlg
		radix [len(bandSizes)]int
	}{
		{[]int{64, 255},
			[...]BcastAlg{kn, kn, kn, kn, kn, kn, kn, kn, kn, sag, sag, sag, sag, sag},
			[...]int{2, 2, 2, 2, 2, 2, 2, 2, 2, 0, 0, 0, 0, 0}},
		{[]int{256},
			[...]BcastAlg{ml, ml, ml, ml, ml, ml, ml, ml, ml, ml, ml, ml, ml, ml},
			[...]int{4, 4, 4, 4, 4, 2, 2, 2, 2, 2, 2, 2, 2, 2}},
	} {
		for _, p := range tc.ps {
			for i, n := range bandSizes {
				if r := pr.Bcast.Pick(n, p); r.Alg != tc.want[i] || r.Radix != tc.radix[i] {
					t.Errorf("bcast n=%d p=%d: got %v radix %d, want %v radix %d", n, p, r.Alg, r.Radix, tc.want[i], tc.radix[i])
				}
			}
		}
	}

	const (
		rd  = AllreduceRecursiveDoubling
		rab = AllreduceRabenseifner
		aml = AllreduceMultiLeader
	)
	for _, tc := range []struct {
		ps    []int
		want  [len(bandSizes)]AllreduceAlg
		radix [len(bandSizes)]int
	}{
		{[]int{64, 255},
			[...]AllreduceAlg{rd, rd, rd, rd, rd, rd, rd, rd, rd, rab, rab, rab, rab, rab},
			[len(bandSizes)]int{}},
		{[]int{256},
			[...]AllreduceAlg{aml, aml, aml, aml, aml, aml, aml, aml, aml, aml, aml, aml, aml, aml},
			[...]int{4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4}},
	} {
		for _, p := range tc.ps {
			for i, n := range bandSizes {
				if r := pr.Allreduce.Pick(n, p); r.Alg != tc.want[i] || r.Radix != tc.radix[i] {
					t.Errorf("allreduce n=%d p=%d: got %v radix %d, want %v radix %d", n, p, r.Alg, r.Radix, tc.want[i], tc.radix[i])
				}
			}
		}
	}
}

// TestProfileComparable: with the algorithm choice held as data, two
// profiles compare with ==, and the defaults normalize fills in are a
// valid profile in their own right.
func TestProfileComparable(t *testing.T) {
	if (Profile{}) != (Profile{}) {
		t.Fatal("zero profiles differ")
	}
	a, b := Profile{}.normalize(), Profile{}.normalize()
	if a != b {
		t.Fatal("normalize is not a function of the profile")
	}
	b.Bcast[0].Radix = 8
	if a == b {
		t.Fatal("profiles with different bcast radices compare equal")
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("normalized zero profile: %v", err)
	}
}

// TestProfileValidateTables: Validate rejects the four table faults —
// a table some call falls through, an unknown algorithm, a k-nomial
// radix below 2, and a radix on an algorithm that takes none.
func TestProfileValidateTables(t *testing.T) {
	for _, tc := range []struct {
		name string
		pr   Profile
		want string
	}{
		{"bcast not total", Profile{Bcast: BcastTable{{MaxBytes: 4096, Alg: BcastFlat}}}, "not total"},
		{"allreduce not total", Profile{Allreduce: AllreduceTable{
			{MinRanks: 8, Alg: AllreduceRecursiveDoubling}}}, "not total"},
		{"bcast unknown", Profile{Bcast: BcastTable{{MaxBytes: 64}, {Alg: BcastFlat}}}, "unknown algorithm"},
		{"allreduce unknown", Profile{Allreduce: AllreduceTable{{Alg: 99}}}, "unknown algorithm"},
		{"gather unknown", Profile{Gather: 7}, "unknown gather"},
		{"scatter unknown", Profile{Scatter: -1}, "unknown scatter"},
		{"knomial radix 1", Profile{Bcast: BcastTable{{Alg: BcastKnomial, Radix: 1}}}, "below 2"},
		{"shm-aware no radix", Profile{Allreduce: AllreduceTable{{Alg: AllreduceShmAware}}}, "below 2"},
		{"radix on flat", Profile{Bcast: BcastTable{{Alg: BcastFlat, Radix: 4}}}, "takes no radix"},
		{"radix on rabenseifner", Profile{Allreduce: AllreduceTable{{Alg: AllreduceRabenseifner, Radix: 2}}}, "takes no radix"},
	} {
		err := tc.pr.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
	ok := Profile{
		Bcast:     BcastTable{{MinRanks: 16, MaxBytes: 1024, Alg: BcastKnomial, Radix: 3}, {Alg: BcastBinaryTree}},
		Allreduce: AllreduceTable{{Alg: AllreduceMultiLeader, Radix: 2}},
		Gather:    GatherLinear,
		Scatter:   ScatterLinear,
	}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid tables rejected: %v", err)
	}
}

// TestTableString: a table prints as its rows, first match first, the
// way MVAPICH2's tuning tables read.
func TestTableString(t *testing.T) {
	tab := BcastTable{
		{MinRanks: 256, MaxBytes: 8192, Alg: BcastMultiLeader, Radix: 8},
		{Alg: BcastScatterAllgather},
	}
	if got, want := tab.String(), "[{256 8192 multi-leader 8} {0 any scatter-allgather -}]"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	if got := (AllreduceTable{}).String(); got != "[]" {
		t.Errorf("empty table String = %q", got)
	}
}

// TestUnvalidatedTableFails: a profile that bypasses Validate and falls
// through its table fails the collective instead of running a default.
func TestUnvalidatedTableFails(t *testing.T) {
	prof := Profile{
		Bcast:     BcastTable{{MaxBytes: 8, Alg: BcastFlat}},
		Allreduce: AllreduceTable{{MaxBytes: 8, Alg: AllreduceRecursiveDoubling}},
		Gather:    5,
		Scatter:   5,
	}
	w := worldWith(prof, 1, 2)
	err := w.Run(func(pr *Proc) error {
		c := pr.CommWorld()
		buf := make([]byte, 16)
		for name, err := range map[string]error{
			"bcast":     c.Bcast(buf, 0),
			"allreduce": c.Allreduce(buf, make([]byte, 16), jvm.Byte, OpMax),
			"gather":    c.Gather(buf, make([]byte, 32), 0),
			"scatter":   c.Scatter(make([]byte, 32), buf, 0),
		} {
			if err == nil || !strings.Contains(err.Error(), "picks no "+name) {
				t.Errorf("rank %d: %s = %v, want a no-algorithm error", pr.Rank(), name, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
