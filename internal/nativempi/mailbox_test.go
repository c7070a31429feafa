package nativempi

import (
	"runtime"
	"sync"
	"testing"
)

// TestMailboxFIFO: packets come out in the order they went in, across
// a swap boundary (pushes landing after the consumer started draining).
func TestMailboxFIFO(t *testing.T) {
	m := newMailbox()
	var want []*packet
	pushN := func(n int) {
		for i := 0; i < n; i++ {
			p := &packet{relSeq: uint64(len(want))}
			want = append(want, p)
			m.push(p)
		}
	}
	pushN(5)
	if got, ok := m.tryPop(); !ok || got != want[0] {
		t.Fatalf("pop 0: got %v ok=%v, want %v", got, ok, want[0])
	}
	pushN(4) // lands in the tail while the head still holds four
	for i, w := range want[1:] {
		got, ok := m.tryPop()
		if !ok || got != w {
			t.Fatalf("pop %d: got %v ok=%v, want %v", i+1, got, ok, w)
		}
	}
	if _, ok := m.tryPop(); ok {
		t.Fatal("tryPop on empty mailbox reported a packet")
	}
}

// TestMailboxSwapStats: a burst drained after the fact costs the
// consumer one swap.
func TestMailboxSwapStats(t *testing.T) {
	m := newMailbox()
	for i := 0; i < 5; i++ {
		m.push(&packet{relSeq: uint64(i)})
	}
	for i := 0; i < 5; i++ {
		m.tryPop()
	}
	st := m.Stats()
	if st.Pushes != 5 || st.MaxTail != 5 {
		t.Errorf("producer stats: %+v", st)
	}
	if st.Swaps != 1 || st.Batched != 5 || st.MaxBatch != 5 {
		t.Errorf("consumer stats: %+v", st)
	}
}

// TestMailboxNoHeadRetention: consumed slots must be nilled in place —
// the drained head buffer is recycled as the next tail, so a stale
// reference would keep dead packets alive for the queue's lifetime.
func TestMailboxNoHeadRetention(t *testing.T) {
	m := newMailbox()
	for i := 0; i < 4; i++ {
		m.push(&packet{relSeq: uint64(i)})
	}
	m.tryPop() // forces the swap: head now holds the 4-packet list
	head := m.head
	m.tryPop()
	m.tryPop()
	for i := 0; i < 3; i++ {
		if head[i] != nil {
			t.Errorf("consumed head slot %d still holds a packet", i)
		}
	}
}

// TestMailboxConcurrentStress drives the MPSC queue from many
// producers at once (run under -race in CI). Per-producer FIFO order
// must survive swapping and buffer recycling.
func TestMailboxConcurrentStress(t *testing.T) {
	const producers = 8
	const perProducer = 2000
	m := newMailbox()
	var wg sync.WaitGroup
	for pr := 0; pr < producers; pr++ {
		wg.Add(1)
		go func(pr int) {
			defer wg.Done()
			for seq := uint64(0); seq < perProducer; seq++ {
				m.push(&packet{src: pr, relSeq: seq})
			}
		}(pr)
	}

	next := make([]uint64, producers)
	for n := 0; n < producers*perProducer; {
		pkt, ok := m.tryPop()
		if !ok {
			runtime.Gosched()
			continue
		}
		n++
		if pkt.relSeq != next[pkt.src] {
			t.Fatalf("producer %d: popped seq %d, want %d", pkt.src, pkt.relSeq, next[pkt.src])
		}
		next[pkt.src]++
	}
	wg.Wait()
	if _, ok := m.tryPop(); ok {
		t.Fatal("mailbox non-empty after all packets consumed")
	}
	if st := m.Stats(); st.Pushes != producers*perProducer {
		t.Errorf("Pushes = %d, want %d", st.Pushes, producers*perProducer)
	}
}
