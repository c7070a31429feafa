package core

import (
	"fmt"

	"mv2j/internal/jvm"
)

// MPI_Pack / MPI_Unpack: explicit datatype packing into a user-held
// ByteBuffer, the application-level counterpart of what the buffering
// layer does internally for derived types. Packed buffers travel as
// BYTE messages and unpack on any rank.

// PackSize returns the bytes count dt elements occupy when packed
// (MPI_Pack_size).
func PackSize(count int, dt Datatype) int { return count * dt.Size() }

// Pack appends count dt elements of buf (starting at base-element
// offset for arrays) to dest at its position, advancing it.
func (m *MPI) Pack(buf any, offset, count int, dt Datatype, dest *jvm.ByteBuffer) error {
	dt.checkUsable("pack")
	nbytes := PackSize(count, dt)
	if dest.Remaining() < nbytes {
		return fmt.Errorf("%w: pack of %d bytes into %d remaining", ErrCount, nbytes, dest.Remaining())
	}
	switch b := buf.(type) {
	case jvm.Array:
		if b.Kind() != dt.Kind() {
			return fmt.Errorf("%w: %v array with %v datatype", ErrBufferType, b.Kind(), dt)
		}
		if err := checkCount(arrayNeed(offset, count, &dt), b.Len(), "pack"); err != nil {
			return err
		}
		if dt.contiguous() {
			dest.PutArray(b, offset, count*dt.baseElems())
			m.proc.CountHostCopy(nbytes)
			return nil
		}
		for e := 0; e < count; e++ {
			elemBase := offset + e*dt.Extent()
			if err := dt.blocks(func(displ, length int) error {
				dest.PutArray(b, elemBase+displ, length)
				return nil
			}); err != nil {
				return err
			}
		}
		m.proc.CountHostCopy(nbytes)
		return nil
	case *jvm.ByteBuffer:
		if dt.IsDerived() {
			return fmt.Errorf("%w: derived datatypes pack from arrays", ErrUnsupported)
		}
		start := b.Position() + offset*dt.Size()
		if start+nbytes > b.Limit() {
			return fmt.Errorf("%w: pack source exceeds buffer limit", ErrCount)
		}
		tmp := make([]byte, nbytes)
		copy(tmp, b.RawBytes()[start:start+nbytes])
		dest.PutBytes(tmp)
		m.proc.CountHostCopy(nbytes)
		return nil
	default:
		return fmt.Errorf("%w: got %T", ErrBufferType, buf)
	}
}

// Unpack consumes count dt elements from src's position into buf.
func (m *MPI) Unpack(src *jvm.ByteBuffer, buf any, offset, count int, dt Datatype) error {
	dt.checkUsable("unpack")
	nbytes := PackSize(count, dt)
	if src.Remaining() < nbytes {
		return fmt.Errorf("%w: unpack of %d bytes from %d remaining", ErrCount, nbytes, src.Remaining())
	}
	switch b := buf.(type) {
	case jvm.Array:
		if b.Kind() != dt.Kind() {
			return fmt.Errorf("%w: %v array with %v datatype", ErrBufferType, b.Kind(), dt)
		}
		if err := checkCount(arrayNeed(offset, count, &dt), b.Len(), "unpack"); err != nil {
			return err
		}
		if dt.contiguous() {
			src.GetArray(b, offset, count*dt.baseElems())
			m.proc.CountHostCopy(nbytes)
			return nil
		}
		for e := 0; e < count; e++ {
			elemBase := offset + e*dt.Extent()
			if err := dt.blocks(func(displ, length int) error {
				src.GetArray(b, elemBase+displ, length)
				return nil
			}); err != nil {
				return err
			}
		}
		m.proc.CountHostCopy(nbytes)
		return nil
	case *jvm.ByteBuffer:
		if dt.IsDerived() {
			return fmt.Errorf("%w: derived datatypes unpack into arrays", ErrUnsupported)
		}
		start := b.Position() + offset*dt.Size()
		if start+nbytes > b.Limit() {
			return fmt.Errorf("%w: unpack destination exceeds buffer limit", ErrCount)
		}
		tmp := make([]byte, nbytes)
		src.GetBytes(tmp)
		copy(b.RawBytes()[start:start+nbytes], tmp)
		m.machine.ChargeBulk(nbytes)
		m.proc.CountHostCopy(nbytes)
		return nil
	default:
		return fmt.Errorf("%w: got %T", ErrBufferType, buf)
	}
}
