package jvm

import "fmt"

// TypedBuffer is a typed view over a ByteBuffer — java.nio's
// IntBuffer/DoubleBuffer/... family (§II-B of the paper). The view
// shares the backing storage, carries its own position and limit in
// ELEMENTS, and fixes the byte order at creation time, exactly as
// ByteBuffer.asIntBuffer() does. Element access costs the ByteBuffer
// rates (a view is the same abstraction layer, just pre-scaled).
type TypedBuffer struct {
	bb      *ByteBuffer
	kind    Kind
	baseOff int // byte offset of element 0 in the backing buffer
	cap     int // elements
	pos     int
	limit   int
	big     bool
}

// AsTyped creates a typed view of the given kind covering the
// buffer's [position, limit) region. Panics if the remaining bytes are
// not element-aligned, mirroring Java's silent truncation... no: Java
// truncates; we truncate too.
func (b *ByteBuffer) AsTyped(kind Kind) *TypedBuffer {
	esz := kind.Size()
	n := b.Remaining() / esz
	return &TypedBuffer{
		bb:      b,
		kind:    kind,
		baseOff: b.Position(),
		cap:     n,
		limit:   n,
		big:     b.Order() == BigEndian,
	}
}

// Convenience constructors matching the java.nio family.
func (b *ByteBuffer) AsIntBuffer() *TypedBuffer    { return b.AsTyped(Int) }
func (b *ByteBuffer) AsLongBuffer() *TypedBuffer   { return b.AsTyped(Long) }
func (b *ByteBuffer) AsShortBuffer() *TypedBuffer  { return b.AsTyped(Short) }
func (b *ByteBuffer) AsCharBuffer() *TypedBuffer   { return b.AsTyped(Char) }
func (b *ByteBuffer) AsFloatBuffer() *TypedBuffer  { return b.AsTyped(Float) }
func (b *ByteBuffer) AsDoubleBuffer() *TypedBuffer { return b.AsTyped(Double) }

// Kind returns the view's element kind.
func (v *TypedBuffer) Kind() Kind { return v.kind }

// Capacity, Position, Limit, Remaining are in elements.
func (v *TypedBuffer) Capacity() int  { return v.cap }
func (v *TypedBuffer) Position() int  { return v.pos }
func (v *TypedBuffer) Limit() int     { return v.limit }
func (v *TypedBuffer) Remaining() int { return v.limit - v.pos }

// SetPosition moves the element cursor.
func (v *TypedBuffer) SetPosition(p int) {
	if p < 0 || p > v.limit {
		panic(fmt.Sprintf("jvm: view position %d outside [0,%d]", p, v.limit))
	}
	v.pos = p
}

// Flip, Clear, Rewind follow java.nio.Buffer.
func (v *TypedBuffer) Flip()   { v.limit, v.pos = v.pos, 0 }
func (v *TypedBuffer) Clear()  { v.pos, v.limit = 0, v.cap }
func (v *TypedBuffer) Rewind() { v.pos = 0 }

func (v *TypedBuffer) byteIndex(i int) int {
	if i < 0 || i >= v.limit {
		panic(fmt.Sprintf("jvm: view index %d outside limit %d", i, v.limit))
	}
	return v.baseOff + i*v.kind.Size()
}

// PutInt stores an integral element at the position, advancing it.
func (v *TypedBuffer) PutInt(val int64) {
	v.PutIntAt(v.pos, val)
	v.pos++
}

// PutIntAt is the absolute integral store.
func (v *TypedBuffer) PutIntAt(i int, val int64) {
	if v.kind.IsFloating() {
		panic("jvm: PutInt on " + v.kind.String() + " view")
	}
	off := v.byteIndex(i)
	putBits(v.bb.storage(), off, v.kind.Size(), intToBits(v.kind, val), v.big)
	v.bb.m.clock.Advance(costs.BufferWrite)
}

// Int loads the integral element at the position, advancing it.
func (v *TypedBuffer) Int() int64 {
	x := v.IntAt(v.pos)
	v.pos++
	return x
}

// IntAt is the absolute integral load.
func (v *TypedBuffer) IntAt(i int) int64 {
	if v.kind.IsFloating() {
		panic("jvm: Int on " + v.kind.String() + " view")
	}
	off := v.byteIndex(i)
	bits := getBits(v.bb.storage(), off, v.kind.Size(), v.big)
	v.bb.m.clock.Advance(costs.BufferRead)
	return bitsToInt(v.kind, bits)
}

// PutFloat / PutFloatAt / Float / FloatAt mirror the integral accessors.
func (v *TypedBuffer) PutFloat(val float64) {
	v.PutFloatAt(v.pos, val)
	v.pos++
}

func (v *TypedBuffer) PutFloatAt(i int, val float64) {
	if !v.kind.IsFloating() {
		panic("jvm: PutFloat on " + v.kind.String() + " view")
	}
	off := v.byteIndex(i)
	putBits(v.bb.storage(), off, v.kind.Size(), floatToBits(v.kind, val), v.big)
	v.bb.m.clock.Advance(costs.BufferWrite)
}

func (v *TypedBuffer) Float() float64 {
	x := v.FloatAt(v.pos)
	v.pos++
	return x
}

func (v *TypedBuffer) FloatAt(i int) float64 {
	if !v.kind.IsFloating() {
		panic("jvm: Float on " + v.kind.String() + " view")
	}
	off := v.byteIndex(i)
	bits := getBits(v.bb.storage(), off, v.kind.Size(), v.big)
	v.bb.m.clock.Advance(costs.BufferRead)
	return bitsToFloat(v.kind, bits)
}

// PutArray bulk-copies n elements from a matching-kind array at the
// position — put(int[]) on the view, one bulk charge.
func (v *TypedBuffer) PutArray(a Array, srcOff, n int) {
	if a.Kind() != v.kind {
		panic(fmt.Sprintf("jvm: %v view cannot take a %v array", v.kind, a.Kind()))
	}
	if v.pos+n > v.limit {
		panic(fmt.Sprintf("jvm: view overflow: %d elements at position %d, limit %d", n, v.pos, v.limit))
	}
	a.checkRange(srcOff, n)
	esz := v.kind.Size()
	if v.big {
		// Byte-order conversion forces elementwise transfer — Java's
		// views pay this too on order-mismatched platforms.
		p := a.payload()
		dst := v.bb.storage()
		for i := 0; i < n; i++ {
			bits := getBits(p, (srcOff+i)*esz, esz, false)
			putBits(dst, v.baseOff+(v.pos+i)*esz, esz, bits, true)
		}
		v.bb.m.ChargeBulk(2 * n * esz)
	} else {
		copy(v.bb.storage()[v.baseOff+v.pos*esz:], a.payload()[srcOff*esz:(srcOff+n)*esz])
		v.bb.m.ChargeBulk(n * esz)
	}
	v.pos += n
}

// GetArray bulk-copies n elements from the view into a matching array.
func (v *TypedBuffer) GetArray(a Array, dstOff, n int) {
	if a.Kind() != v.kind {
		panic(fmt.Sprintf("jvm: %v view cannot fill a %v array", v.kind, a.Kind()))
	}
	if v.pos+n > v.limit {
		panic(fmt.Sprintf("jvm: view underflow: %d elements at position %d, limit %d", n, v.pos, v.limit))
	}
	a.checkRange(dstOff, n)
	esz := v.kind.Size()
	if v.big {
		src := v.bb.storage()
		p := a.payload()
		for i := 0; i < n; i++ {
			bits := getBits(src, v.baseOff+(v.pos+i)*esz, esz, true)
			putBits(p, (dstOff+i)*esz, esz, bits, false)
		}
		v.bb.m.ChargeBulk(2 * n * esz)
	} else {
		copy(a.payload()[dstOff*esz:(dstOff+n)*esz], v.bb.storage()[v.baseOff+v.pos*esz:])
		v.bb.m.ChargeBulk(n * esz)
	}
	v.pos += n
}
