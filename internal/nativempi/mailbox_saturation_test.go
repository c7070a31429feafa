package nativempi

import (
	"runtime"
	"sync"
	"testing"
)

// TestMailboxMaxTailSaturation pins the high-water accounting when the
// consumer never drains: every push grows the producer-side backlog,
// and MaxTail must track the peak exactly.
func TestMailboxMaxTailSaturation(t *testing.T) {
	m := newMailbox()
	for i := 0; i < 100; i++ {
		m.push(&packet{kind: pktEager})
	}
	if got := m.Stats().MaxTail; got != 100 {
		t.Errorf("MaxTail = %d after 100 undrained pushes, want 100", got)
	}
	// Draining must not shrink the recorded peak.
	for {
		if _, ok := m.tryPop(); !ok {
			break
		}
	}
	if got := m.Stats().MaxTail; got != 100 {
		t.Errorf("MaxTail = %d after drain, want peak 100 retained", got)
	}
	// A smaller refill cannot lower it; exceeding it raises it.
	for i := 0; i < 50; i++ {
		m.push(&packet{kind: pktEager})
	}
	if got := m.Stats().MaxTail; got != 100 {
		t.Errorf("MaxTail = %d after smaller refill, want 100", got)
	}
	for i := 0; i < 75; i++ {
		m.push(&packet{kind: pktEager})
	}
	if got := m.Stats().MaxTail; got != 125 {
		t.Errorf("MaxTail = %d, want 125", got)
	}
}

// TestMailboxSaturationRace is the -race stress leg: many producers
// flooding in bursts against one consumer that drains only
// intermittently, leaving a persistent backlog. Run with -race this
// exercises the tail lock, the head/tail swap and the stats updates
// under real contention; the final packet count and the MaxTail lower
// bound are asserted either way.
func TestMailboxSaturationRace(t *testing.T) {
	const (
		producers = 8
		perProd   = 500
		batchLen  = 5
	)
	m := newMailbox()
	var wg sync.WaitGroup
	for pr := 0; pr < producers; pr++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProd/batchLen; i++ {
				// A burst, then a breather: the flooding shape a
				// retransmission schedule or an incast produces.
				for j := 0; j < batchLen; j++ {
					m.push(&packet{kind: pktEager})
				}
				runtime.Gosched()
			}
		}()
	}
	// The consumer drains lazily — a token sip per round — so the tail
	// stays saturated while producers run.
	var drained int
	done := make(chan struct{})
	go func() {
		defer close(done)
		for drained < producers*perProd {
			if _, ok := m.tryPop(); ok {
				drained++
			}
		}
	}()
	wg.Wait()
	<-done
	st := m.Stats()
	if st.Pushes != producers*perProd {
		t.Errorf("Pushes = %d, want %d", st.Pushes, producers*perProd)
	}
	if drained != producers*perProd {
		t.Errorf("drained %d packets, want %d", drained, producers*perProd)
	}
	if st.MaxTail < 1 || st.MaxTail > producers*perProd {
		t.Errorf("MaxTail = %d, want within [1,%d]", st.MaxTail, producers*perProd)
	}
}
