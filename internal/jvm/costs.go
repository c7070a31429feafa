package jvm

import "mv2j/internal/vtime"

// AccessCosts is the memory-access cost model charged to virtual time.
//
// The asymmetry between ArrayAccess and BufferAccess is the mechanism
// behind the paper's Fig. 18 finding: a ByteBuffer "is basically an
// array that is wrapped with a higher-level interface", and that
// abstraction (bounds/limit checks, byte-order conversion, JNI-safe
// accessors) makes per-element reads and writes measurably slower than
// plain Java array indexing. Bulk transfers, in contrast, run at
// memcpy-like rates on both storage kinds.
type AccessCosts struct {
	// ArrayRead/ArrayWrite are per-element costs for Java array access.
	ArrayRead  vtime.Duration
	ArrayWrite vtime.Duration
	// BufferRead/BufferWrite are per-element costs for ByteBuffer
	// get/put access.
	BufferRead  vtime.Duration
	BufferWrite vtime.Duration
	// BulkBandwidth is the memcpy rate (bytes/second) used for bulk
	// copies (System.arraycopy, ByteBuffer.put(byte[]), JNI region
	// copies), with BulkFixed charged once per call.
	BulkBandwidth float64
	BulkFixed     vtime.Duration
	// AllocHeap is the cost of allocating a heap object (array or heap
	// ByteBuffer), plus AllocPerByte per byte for zeroing.
	AllocHeap    vtime.Duration
	AllocPerByte vtime.Duration
	// AllocDirect is the cost of ByteBuffer.allocateDirect: the paper
	// stresses direct buffers are "costly to create and destroy".
	AllocDirect vtime.Duration
	FreeDirect  vtime.Duration
	// GCFixed is the fixed portion of a collection pause; GCBandwidth
	// is the rate at which live bytes are traced and compacted.
	GCFixed     vtime.Duration
	GCBandwidth float64
}

// costs is the calibrated cost model every Machine charges: one
// package-level value, since nothing varies it per instance. Values are
// in the range JMH microbenchmarks report for OpenJDK on Cascade
// Lake-class hardware; the ~3.5x buffer-vs-array element-access gap
// reproduces Fig. 18's 3x verdict at 4 MB, and the 256 B crossover
// falls out of the fixed copy overheads of the array path.
var costs = AccessCosts{
	ArrayRead:     vtime.Nanos(0.30),
	ArrayWrite:    vtime.Nanos(0.32),
	BufferRead:    vtime.Nanos(1.05),
	BufferWrite:   vtime.Nanos(1.15),
	BulkBandwidth: 20e9,
	BulkFixed:     vtime.Nanos(40),
	AllocHeap:     vtime.Nanos(120),
	AllocPerByte:  vtime.Nanos(0.03),
	AllocDirect:   vtime.Micros(2.0),
	FreeDirect:    vtime.Nanos(400),
	GCFixed:       vtime.Micros(20),
	GCBandwidth:   10e9,
}

// DefaultCosts returns the cost model every Machine charges.
func DefaultCosts() AccessCosts { return costs }

// bulk returns the cost of a bulk copy of n bytes.
func (c AccessCosts) bulk(n int) vtime.Duration {
	return c.BulkFixed + vtime.PerByte(n, c.BulkBandwidth)
}
