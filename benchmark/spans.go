package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one line of spans.jsonl. A structural span (Count == 1) is
// one interval: an op, a world, a rank main, a probe. A call span
// aggregates every call of one function at one message size made by one
// rank in one op: Count calls, TotalNs nanoseconds in all, StartNs the
// first call's start and EndNs the last call's end. Aggregating is what
// keeps memory bounded at 176 000 messages per op.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 = no parent
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	Op      int    `json:"op"`
	Rank    int    `json:"rank"` // -1 = not in a rank
	Size    int    `json:"size,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Count   int64  `json:"count"`
	TotalNs int64  `json:"total_ns"`
	// SelfNs is TotalNs minus what the span's children cover, filled in
	// when the file is written.
	SelfNs int64 `json:"self_ns"`
}

// tracer keeps every span in memory until the run ends.
type tracer struct {
	t0 time.Time

	mu     sync.Mutex
	spans  []span
	nextID int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) id() int {
	t.nextID++
	return t.nextID
}

// begin opens a structural span and returns its id; end closes it.
func (t *tracer) begin(parent int, name, layer string, op, rank int) int {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.id()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Layer: layer, Op: op, Rank: rank, StartNs: start, Count: 1})
	return id
}

// add records a structural span that has already ended.
func (t *tracer) add(parent int, name, layer string, op int, start time.Time, d time.Duration) int {
	startNs := int64(start.Sub(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.id()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Layer: layer, Op: op, Rank: -1,
		StartNs: startNs, EndNs: startNs + int64(d), Count: 1, TotalNs: int64(d)})
	return id
}

func (t *tracer) end(id int) {
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := len(t.spans) - 1; i >= 0; i-- {
		if s := &t.spans[i]; s.ID == id {
			s.EndNs = end
			s.TotalNs = end - s.StartNs
			return
		}
	}
}

// callKey identifies one aggregated call span within a rank.
type callKey struct {
	layer, name string
	size        int
}

// rankTracer aggregates one rank's calls. It is confined to the rank's
// goroutine, so recording a call takes no lock; flush hands the
// aggregates to the tracer when the rank main returns. A nil rankTracer
// records nothing: that is the untraced mirror the span overhead is
// measured against.
type rankTracer struct {
	t        *tracer
	parent   int
	op, rank int
	calls    map[callKey]*span
}

func (t *tracer) forRank(parent, op, rank int) *rankTracer {
	return &rankTracer{t: t, parent: parent, op: op, rank: rank, calls: map[callKey]*span{}}
}

// call times fn as one call of layer.name at the given message size.
func (r *rankTracer) call(layer, name string, size int, fn func() error) error {
	if r == nil {
		return fn()
	}
	start := r.t.now()
	err := fn()
	end := r.t.now()
	k := callKey{layer, name, size}
	s := r.calls[k]
	if s == nil {
		s = &span{Parent: r.parent, Name: name, Layer: layer, Op: r.op, Rank: r.rank, Size: size, StartNs: start}
		r.calls[k] = s
	}
	s.EndNs = end
	s.Count++
	s.TotalNs += end - start
	return err
}

func (r *rankTracer) flush() {
	if r == nil {
		return
	}
	r.t.mu.Lock()
	defer r.t.mu.Unlock()
	for _, s := range r.calls {
		s.ID = r.t.id()
		r.t.spans = append(r.t.spans, *s)
	}
}

// selfTimes computes every span's self time: its own time minus the part
// of it its children cover. Structural children cover the union of their
// intervals clipped to the parent; aggregated call spans ran one after
// another inside their rank, so they cover their total.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		covered := int64(0)
		var ivs [][2]int64
		for _, c := range children[s.ID] {
			if c.Count != 1 {
				covered += c.TotalNs
				continue
			}
			lo, hi := max(c.StartNs, s.StartNs), min(c.EndNs, s.EndNs)
			if hi > lo {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
		end := int64(-1 << 62)
		for _, iv := range ivs {
			if iv[0] > end {
				covered += iv[1] - iv[0]
				end = iv[1]
			} else if iv[1] > end {
				covered += iv[1] - end
				end = iv[1]
			}
		}
		self[s.ID] = max(s.TotalNs-covered, 0)
	}
	return self
}

// write stores the spans, with their self times, as JSON lines in id
// order.
func (t *tracer) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "spans.jsonl"))
	if err != nil {
		return err
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
	self := selfTimes(spans)
	for i := range spans {
		spans[i].SelfNs = self[spans[i].ID]
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
