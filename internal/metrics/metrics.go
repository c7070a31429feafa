// Package metrics is the deterministic metrics substrate of the
// observability layer: a registry of counters, gauges, and
// fixed-log2-bucket histograms keyed by (rank, kind, label). Every
// recorded value is either a pure count or a virtual-time quantity, so
// a registry's exported contents are a function of the simulation seed
// alone — the same run produces byte-identical exports, which is what
// lets the golden-file suites lock observability itself down.
//
// The registry is safe for concurrent use (rank goroutines record in
// parallel); all aggregates are order-independent, so host scheduling
// cannot leak into the exported values. A nil *Registry is a valid
// no-op sink, mirroring the trace.Recorder convention, so
// instrumentation sites need no guards.
package metrics

import (
	"math/bits"
	"sync"
)

// Key identifies one metric: the owning rank, the subsystem kind
// ("p2p", "pool", "jvm", ...), and the metric label within it.
type Key struct {
	Rank  int
	Kind  string
	Label string
}

// less orders keys for deterministic export: kind, then label, then
// rank — grouping a metric's per-rank series together.
func (k Key) less(o Key) bool {
	if k.Kind != o.Kind {
		return k.Kind < o.Kind
	}
	if k.Label != o.Label {
		return k.Label < o.Label
	}
	return k.Rank < o.Rank
}

// NumBuckets is the number of log2 histogram buckets. Bucket 0 holds
// values <= 0 (and 0 itself); bucket i (1 <= i <= 62) holds values in
// [2^(i-1), 2^i - 1]; the top bucket holds everything up to MaxInt64.
// BucketIndex of a non-negative int64 never exceeds 63, so the full
// range is covered with no overflow cases.
const NumBuckets = 64

// Histogram is a fixed-log2-bucket distribution of int64 samples
// (virtual durations in picoseconds, or byte sizes). The zero value is
// ready to use. A Histogram is not internally locked; the Registry
// serialises access to the histograms it owns.
type Histogram struct {
	Count   int64
	Sum     int64
	Buckets [NumBuckets]int64
}

// BucketIndex returns the bucket a value falls in.
func BucketIndex(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// BucketUpperBound returns the inclusive upper bound of bucket i
// (the lower bound of bucket i is BucketUpperBound(i-1)+1; bucket 0 is
// everything <= 0).
func BucketUpperBound(i int) int64 {
	if i <= 0 {
		return 0
	}
	if i >= 63 {
		return int64(^uint64(0) >> 1) // MaxInt64: top buckets saturate
	}
	return int64(1)<<uint(i) - 1
}

// Observe adds one sample.
func (h *Histogram) Observe(v int64) {
	h.Count++
	h.Sum += v
	h.Buckets[BucketIndex(v)]++
}

// Merge folds other into h. Merging is commutative and associative:
// counts, sums, and per-bucket tallies simply add.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil {
		return
	}
	h.Count += other.Count
	h.Sum += other.Sum
	for i := range h.Buckets {
		h.Buckets[i] += other.Buckets[i]
	}
}

// Registry accumulates metrics from all ranks.
type Registry struct {
	mu       sync.Mutex
	counters map[Key]int64
	gauges   map[Key]int64
	hists    map[Key]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[Key]int64{},
		gauges:   map[Key]int64{},
		hists:    map[Key]*Histogram{},
	}
}

// Add increments the counter (rank, kind, label) by v. Nil receivers
// are silently ignored.
func (r *Registry) Add(rank int, kind, label string, v int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters[Key{rank, kind, label}] += v
	r.mu.Unlock()
}

// SetGauge records the current value of a gauge, replacing any prior
// value.
func (r *Registry) SetGauge(rank int, kind, label string, v int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.gauges[Key{rank, kind, label}] = v
	r.mu.Unlock()
}

// SetMaxGauge records v only if it exceeds the gauge's current value —
// a high-water mark. Order-independent, so safe to call from racing
// rank goroutines without breaking determinism.
func (r *Registry) SetMaxGauge(rank int, kind, label string, v int64) {
	if r == nil {
		return
	}
	k := Key{rank, kind, label}
	r.mu.Lock()
	if cur, ok := r.gauges[k]; !ok || v > cur {
		r.gauges[k] = v
	}
	r.mu.Unlock()
}

// Observe adds a sample to the histogram (rank, kind, label),
// creating it on first use.
func (r *Registry) Observe(rank int, kind, label string, v int64) {
	if r == nil {
		return
	}
	k := Key{rank, kind, label}
	r.mu.Lock()
	h := r.hists[k]
	if h == nil {
		h = &Histogram{}
		r.hists[k] = h
	}
	h.Observe(v)
	r.mu.Unlock()
}

// Counter returns the current value of a counter (0 if absent).
func (r *Registry) Counter(rank int, kind, label string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[Key{rank, kind, label}]
}

// Gauge returns the current value of a gauge (0 if absent).
func (r *Registry) Gauge(rank int, kind, label string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gauges[Key{rank, kind, label}]
}

// HistogramSnapshot returns a copy of the histogram (zero value if
// absent).
func (r *Registry) HistogramSnapshot(rank int, kind, label string) Histogram {
	if r == nil {
		return Histogram{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h := r.hists[Key{rank, kind, label}]; h != nil {
		return *h
	}
	return Histogram{}
}
