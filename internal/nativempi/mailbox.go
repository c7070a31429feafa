package nativempi

import "sync"

// mailbox is an unbounded MPSC queue of packets. Senders never block —
// essential, because a blocking transport would introduce artificial
// deadlocks the real (buffered, flow-controlled) network does not have.
// The owning rank pops packets inside its MPI calls, which is exactly
// the software-progress model of a polling MPI library.
//
// The queue is a two-list design (Ibdxnet-style): producers append to
// tail under the mutex; the consumer drains a private head list without
// any locking and, only when it runs dry, swaps the lists in one lock
// acquisition. A burst of packets therefore costs the consumer one
// lock round trip instead of one per packet, and no pop ever reslices
// a head-retaining q[1:] — consumed slots are nilled immediately, and
// the drained head buffer is recycled as the next tail, so steady-state
// traffic allocates nothing.
type mailbox struct {
	mu   sync.Mutex
	tail []*packet // producer side, guarded by mu

	// Consumer-private state: only the owning rank touches these.
	head    []*packet
	headIdx int
	spare   []*packet // drained buffer awaiting reuse as tail

	stats MailboxStats
}

// MailboxStats counts host-side queue activity. These are HOST
// observability numbers — swap batch sizes depend on when the consumer
// happened to poll relative to producers, i.e. on host scheduling —
// so they are deliberately kept out of the deterministic metrics
// registry and the trace artifacts. The hostbench harness reports them.
type MailboxStats struct {
	Pushes   int64 `json:"pushes"`    // packets enqueued
	Swaps    int64 `json:"swaps"`     // head/tail swaps (lock acquisitions that found work)
	Batched  int64 `json:"batched"`   // packets obtained via swaps (== Pushes at drain)
	MaxBatch int64 `json:"max_batch"` // largest single swap
	MaxTail  int64 `json:"max_tail"`  // peak producer-side backlog (saturation indicator)
}

func newMailbox() *mailbox { return &mailbox{} }

// push enqueues p. The owner is never blocked on the mailbox itself:
// a rank with nothing to do parks in the phase engine, which wakes it.
func (m *mailbox) push(p *packet) {
	m.mu.Lock()
	m.tail = append(m.tail, p)
	m.stats.Pushes++
	if n := int64(len(m.tail)); n > m.stats.MaxTail {
		m.stats.MaxTail = n
	}
	m.mu.Unlock()
}

// takeHead pops the next packet from the consumer-private head list.
func (m *mailbox) takeHead() *packet {
	p := m.head[m.headIdx]
	m.head[m.headIdx] = nil // no head retention: drop the reference now
	m.headIdx++
	if m.headIdx == len(m.head) {
		// Head drained: park the buffer for reuse as a future tail.
		m.spare = m.head[:0]
		m.head = nil
		m.headIdx = 0
	}
	return p
}

// swapLocked moves the tail to the consumer side. Caller holds mu and
// has verified the tail is non-empty.
func (m *mailbox) swapLocked() {
	m.head = m.tail
	m.headIdx = 0
	m.tail = m.spare // recycle the drained head buffer
	m.spare = nil
	m.stats.Swaps++
	n := int64(len(m.head))
	m.stats.Batched += n
	if n > m.stats.MaxBatch {
		m.stats.MaxBatch = n
	}
}

// tryPop dequeues the oldest packet without blocking.
func (m *mailbox) tryPop() (*packet, bool) {
	if m.headIdx < len(m.head) {
		return m.takeHead(), true
	}
	m.mu.Lock()
	if len(m.tail) == 0 {
		m.mu.Unlock()
		return nil, false
	}
	m.swapLocked()
	m.mu.Unlock()
	return m.takeHead(), true
}

// empty reports whether the mailbox holds no packets. Used by the
// phase-stepped engine's barrier (under eng.mu, with the owning rank
// parked) to decide promotion; the head check is safe there because a
// parked owner cannot be mutating its consumer-private state.
func (m *mailbox) empty() bool {
	if m.headIdx < len(m.head) {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.tail) == 0
}

// Stats snapshots the host-side counters. Only meaningful from the
// owning rank's goroutine or after the world has quiesced.
func (m *mailbox) Stats() MailboxStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}
