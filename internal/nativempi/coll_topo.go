package nativempi

import (
	"mv2j/internal/cluster"
	"mv2j/internal/jvm"
)

// Topology-aware (shared-memory-leader-based) collectives — the
// algorithms behind MVAPICH2's collective advantage on multi-node
// runs: stage inter-node traffic through one leader rank per node, so
// the expensive network carries O(nodes) messages while the cheap
// intra-node channel fans out within each node. Every phase is one of
// the tree algorithms in coll.go run over a member list.

// sectionsPerNode is the section count per node of the multi-leader
// collectives, capped by the smallest node's member count. Each
// section leader drives its own inter-node stream.
const sectionsPerNode = 4

func indexOf(list []int, v int) int {
	for i, x := range list {
		if x == v {
			return i
		}
	}
	return -1
}

// planNodeMembers partitions the communicator's members by node (see
// partitionByNode) and returns the partition, the caller's node (mine)
// and its index in that node's list (my). Memoized per Comm
// (membership is immutable; shrink builds a fresh Comm), because
// rebuilding it on every collective is O(p) per rank — O(p²) per
// operation across the job. MPI_COMM_WORLD's comes prebuilt from
// NewWorld, one partition shared by every rank.
func (c *Comm) planNodeMembers() (nodes [][]int, mine, my int) {
	if c.nodes == nil {
		c.nodes, c.myNode, c.myNodeIdx = partitionByNode(c.p.w.topo, c.group, c.myRank)
	}
	return c.nodes, c.myNode, c.myNodeIdx
}

// partitionByNode splits a member list (world ranks in comm-rank
// order) by node: one comm-rank list per node, members in comm order,
// node groups ordered by first appearance — deterministic and
// identical on every member. It also returns the node of comm rank me
// and me's index in that node's list. Nothing writes the result in
// place, so one partition can serve every member.
func partitionByNode(topo *cluster.Topology, group []int, me int) (nodes [][]int, mine, my int) {
	idx := map[int]int{}
	for r, wr := range group {
		n := topo.NodeOf(wr)
		i, ok := idx[n]
		if !ok {
			i = len(nodes)
			idx[n] = i
			nodes = append(nodes, nil)
		}
		if r == me {
			mine, my = i, len(nodes[i])
		}
		nodes[i] = append(nodes[i], r)
	}
	return nodes, mine, my
}

// sectionBounds returns the [start, end) bounds of section s when a
// member list of length m is split into secCount contiguous
// near-equal sections (the first m%secCount sections get one extra).
func sectionBounds(m, secCount, s int) (int, int) {
	base, rem := m/secCount, m%secCount
	start := s*base + min(s, rem)
	size := base
	if s < rem {
		size++
	}
	return start, start + size
}

// sectionOf returns the section holding index i of a member list of
// length m split into secCount sections, and that section's bounds.
func sectionOf(m, secCount, i int) (s, lo, hi int) {
	for s = 0; s < secCount-1; s++ {
		if lo, hi = sectionBounds(m, secCount, s); i < hi {
			return s, lo, hi
		}
	}
	lo, hi = sectionBounds(m, secCount, s)
	return s, lo, hi
}

// sectionCount picks the uniform per-node section count for the
// multi-leader collectives: want, capped by the SMALLEST node's member
// count. Uniformity matters for correctness — the inter-node phase
// pairs same-index sections across nodes, so every node must field
// the same number of sections.
func sectionCount(nodes [][]int, want int) int {
	sc := want
	for _, mem := range nodes {
		if len(mem) < sc {
			sc = len(mem)
		}
	}
	if sc < 1 {
		sc = 1
	}
	return sc
}

// bcastNodeReps is the inter-node phase of the leader-based
// broadcasts: a k-nomial broadcast among one representative per node,
// the node's lowest comm rank, except that the root stands in for its
// own node so the payload enters the network at once. Only the
// representatives send or receive. It returns the caller's node
// members, the caller's index among them (my), and the index of the
// node's representative (repIdx), which holds the payload afterwards.
func (c *Comm) bcastNodeReps(buf []byte, root, tag, k int) (members []int, my, repIdx int, err error) {
	nodes, mine, my := c.planNodeMembers()
	members = nodes[mine]
	topo := c.p.w.topo
	rootNode := topo.NodeOf(c.group[root])
	if topo.NodeOf(c.group[c.myRank]) == rootNode {
		repIdx = indexOf(members, root)
	}
	if my != repIdx {
		return members, my, repIdx, nil
	}
	reps := make([]int, len(nodes))
	rootIdx := 0
	for i, mem := range nodes {
		reps[i] = mem[0]
		if topo.NodeOf(c.group[mem[0]]) == rootNode {
			reps[i], rootIdx = root, i
		}
	}
	return members, my, repIdx, c.bcastKnomial(buf, reps, mine, rootIdx, tag, k)
}

// bcastShmAware is the two-level broadcast: the root hands the payload
// to the node representatives (k-nomial over the network), then each
// representative fans out over shared memory. Unlike the shm-aware
// allreduce it is not the one-section multi-leader algorithm: the
// root's node fans out from the root itself, not from its lowest rank.
func (c *Comm) bcastShmAware(buf []byte, root, tag, k int) error {
	members, my, repIdx, err := c.bcastNodeReps(buf, root, tag, k)
	if err != nil {
		return err
	}
	return c.bcastKnomial(buf, members, my, repIdx, tag, k)
}

// allreduceMultiLeader is the four-phase multi-leader allreduce for
// fat nodes at scale. Each node's members split into secCount
// contiguous sections; (1) each section reduces onto its leader over
// shared memory, (2) same-index section leaders recursive-double
// ACROSS nodes — secCount concurrent inter-node streams per node
// instead of one, (3) each node's section leaders recursive-double
// intra-node to combine the per-section global partials into the full
// sum, (4) each leader broadcasts k-nomially back over its section.
// With one section per node it is the shm-aware allreduce: phase 3
// has a single member and does nothing.
func (c *Comm) allreduceMultiLeader(sendBuf, recvBuf []byte, kind jvm.Kind, op Op, k, sections int) error {
	nodes, mine, my := c.planNodeMembers()
	copy(recvBuf, sendBuf)
	secCount := sectionCount(nodes, sections)
	tag1 := c.collTag()
	tag2 := c.collTag()
	tag3 := c.collTag()
	tag4 := c.collTag()
	members := nodes[mine]
	mySec, lo, hi := sectionOf(len(members), secCount, my)
	sec := members[lo:hi]
	// Phase 1: intra-section reduce onto the section leader.
	if err := c.reduceBinomial(recvBuf, sec, my-lo, 0, tag1, kind, op); err != nil {
		return err
	}
	if my == lo {
		// Phase 2: inter-node allreduce among same-index section
		// leaders. Groups for distinct section indices are disjoint rank
		// sets, so the secCount exchanges proceed concurrently.
		group := make([]int, len(nodes))
		for i, mem := range nodes {
			l, _ := sectionBounds(len(mem), secCount, mySec)
			group[i] = mem[l]
		}
		if err := c.allreduceRecursiveDoubling(recvBuf, group, mine, tag2, kind, op); err != nil {
			return err
		}
		// Phase 3: intra-node combine across this node's section
		// leaders — each holds the global sum of ITS section group, and
		// the allreduce over them yields the full global sum everywhere.
		secLeaders := make([]int, secCount)
		for s := range secLeaders {
			l, _ := sectionBounds(len(members), secCount, s)
			secLeaders[s] = members[l]
		}
		if err := c.allreduceRecursiveDoubling(recvBuf, secLeaders, mySec, tag3, kind, op); err != nil {
			return err
		}
	}
	// Phase 4: intra-section fan-out from the leader.
	return c.bcastKnomial(recvBuf, sec, my-lo, 0, tag4, k)
}

// bcastMultiLeader is the three-level broadcast: k-nomial among node
// representatives over the network (the root represents its own
// node), k-nomial from each node's representative to its section
// leaders over shared memory, then k-nomial within each section. A
// root that is not a section leader receives its own payload back in
// phase 3 — redundant but deterministic, and it keeps every phase a
// uniform member-list broadcast.
func (c *Comm) bcastMultiLeader(buf []byte, root, tag, k int) error {
	// Phase 1: inter-node, one representative per node.
	members, my, repIdx, err := c.bcastNodeReps(buf, root, tag, k)
	if err != nil {
		return err
	}
	nodes, _, _ := c.planNodeMembers()
	secCount := sectionCount(nodes, sectionsPerNode)
	// Phase 2: representative → this node's section leaders.
	var leaderBuf [sectionsPerNode + 1]int
	leaders := append(leaderBuf[:0], members[repIdx])
	myLeaderIdx := -1
	if my == repIdx {
		myLeaderIdx = 0
	}
	for s := 0; s < secCount; s++ {
		if lo, _ := sectionBounds(len(members), secCount, s); lo != repIdx {
			if lo == my {
				myLeaderIdx = len(leaders)
			}
			leaders = append(leaders, members[lo])
		}
	}
	if myLeaderIdx >= 0 {
		if err := c.bcastKnomial(buf, leaders, myLeaderIdx, 0, tag, k); err != nil {
			return err
		}
	}
	// Phase 3: section leader → section members.
	_, lo, hi := sectionOf(len(members), secCount, my)
	return c.bcastKnomial(buf, members[lo:hi], my-lo, 0, tag, k)
}
