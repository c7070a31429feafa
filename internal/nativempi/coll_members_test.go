package nativempi

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"mv2j/internal/jvm"
)

// TestTreeAlgorithmsOverMemberLists runs the k-nomial bcast, the
// binomial reduce and recursive doubling over member lists the
// topology-aware collectives never build: a random subset of a 3×5
// world's ranks, in random order, rooted at a random index. Every
// member's broadcast payload and OpSum result must match a direct
// computation; ranks outside the list take no part.
func TestTreeAlgorithmsOverMemberLists(t *testing.T) {
	const elems = 3
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := worldWith(Profile{}, 3, 5)
		members := rng.Perm(w.Size())[:1+rng.Intn(w.Size())]
		rootIdx := rng.Intn(len(members))
		k := 2 + rng.Intn(4)
		contrib := func(rank int) []byte {
			b := make([]byte, elems*8)
			for i := 0; i < elems; i++ {
				binary.LittleEndian.PutUint64(b[i*8:], uint64(rank*1000+i))
			}
			return b
		}
		sum := make([]byte, elems*8)
		for i := 0; i < elems; i++ {
			var s uint64
			for _, r := range members {
				s += uint64(r*1000 + i)
			}
			binary.LittleEndian.PutUint64(sum[i*8:], s)
		}
		payload := pattern(100, byte(seed))
		err := w.Run(func(p *Proc) error {
			c := p.CommWorld()
			bcastTag, reduceTag, allreduceTag := c.collTag(), c.collTag(), c.collTag()
			my := indexOf(members, c.myRank)
			if my < 0 {
				return nil
			}
			buf := make([]byte, len(payload))
			if c.myRank == members[rootIdx] {
				copy(buf, payload)
			}
			if err := c.bcastKnomial(buf, members, my, rootIdx, bcastTag, k); err != nil {
				return err
			}
			if !bytes.Equal(buf, payload) {
				return fmt.Errorf("rank %d: k-nomial (k=%d) payload differs", c.myRank, k)
			}
			acc := contrib(c.myRank)
			if err := c.reduceBinomial(acc, members, my, rootIdx, reduceTag, jvm.Long, OpSum); err != nil {
				return err
			}
			if c.myRank == members[rootIdx] && !bytes.Equal(acc, sum) {
				return fmt.Errorf("root %d: binomial reduce sum differs", c.myRank)
			}
			acc = contrib(c.myRank)
			if err := c.allreduceRecursiveDoubling(acc, members, my, allreduceTag, jvm.Long, OpSum); err != nil {
				return err
			}
			if !bytes.Equal(acc, sum) {
				return fmt.Errorf("rank %d: recursive-doubling sum differs", c.myRank)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("seed %d, members %v, root index %d: %v", seed, members, rootIdx, err)
		}
	}
}
