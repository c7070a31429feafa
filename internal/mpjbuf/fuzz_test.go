package mpjbuf

import (
	"bytes"
	"testing"

	"mv2j/internal/jvm"
	"mv2j/internal/vtime"
)

// FuzzIncomingMessage feeds arbitrary bytes to the receive-side parser
// (SetIncoming + GetSectionHeader/Read loop): corrupt wire data must
// produce errors, never panics or out-of-bounds access.
func FuzzIncomingMessage(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 2, 0, 0, 0, 1, 2})                   // byte section, count 2
	f.Add([]byte{4, 0, 0, 0, 255, 255, 255, 255})                 // int section, absurd count
	f.Add([]byte{255, 1, 2, 3, 4, 5, 6, 7})                       // invalid kind
	f.Add([]byte{5, 0, 0, 0, 1, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8}) // long section

	f.Fuzz(func(t *testing.T, wire []byte) {
		m := jvm.NewMachine(vtime.NewClock(), jvm.Options{HeapSize: 1 << 20, ArenaSize: 1 << 20})
		p := NewPool(m)
		b, err := p.Get(len(wire) + 1)
		if err != nil {
			t.Skip()
		}
		defer b.Free()
		copy(b.RawCapacity(), wire)
		if err := b.SetIncoming(len(wire)); err != nil {
			return
		}
		// Parse as a section stream until anything fails.
		for i := 0; i < 64; i++ {
			kind, count, err := b.GetSectionHeader()
			if err != nil {
				return // detected corruption: fine
			}
			if count < 0 {
				return // negative counts surface at Read below; bound them here
			}
			if count > 1<<16 {
				return
			}
			dst, err := m.NewArray(kind, count)
			if err != nil {
				return
			}
			if err := b.Read(dst, 0, count); err != nil {
				return
			}
			dst.Discard()
		}
	})
}

// FuzzRelFrameCodec exercises the reliability checksum/sequence header
// codec: an intact frame must round-trip exactly; a frame with
// arbitrary bytes corrupted must either be rejected or decode to the
// original content (detection never panics and never false-accepts).
// Encoding into a recycled buffer — all 0xFF, or holding a different
// frame — must produce the same bytes as encoding into a zeroed one.
func FuzzRelFrameCodec(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0), uint16(0), uint64(0), uint16(0), uint8(0))
	f.Add([]byte{1, 2, 3}, uint8(1), uint8(0), uint16(2), uint64(77), uint16(5), uint8(0xa5))
	f.Add([]byte{9}, uint8(4), uint8(3), uint16(65535), uint64(1)<<63, uint16(19), uint8(1))

	f.Fuzz(func(t *testing.T, payload []byte, stream, kind uint8, attempt uint16, seq uint64, mutPos uint16, mutXor uint8) {
		if len(payload) > 1<<12 {
			t.Skip()
		}
		h := RelHeader{Stream: stream, Kind: kind, Attempt: attempt, Seq: seq}
		frame := make([]byte, RelHeaderSize+len(payload))
		EncodeRelFrame(frame, h, payload)

		// Recycled buffers: every stale byte is overwritten.
		filled := bytes.Repeat([]byte{0xFF}, len(frame))
		EncodeRelFrame(filled, h, payload)
		if !bytes.Equal(filled, frame) {
			t.Fatalf("encode into a 0xFF-filled buffer differs from a fresh one:\n%x\n%x", filled, frame)
		}
		other := make([]byte, len(payload))
		for i := range payload {
			other[i] = ^payload[i]
		}
		prev := make([]byte, len(frame))
		EncodeRelFrame(prev, RelHeader{Stream: ^stream, Kind: ^kind, Attempt: ^attempt, Seq: ^seq}, other)
		EncodeRelFrame(prev, h, payload)
		if !bytes.Equal(prev, frame) {
			t.Fatalf("encode over a previous frame differs from a fresh one:\n%x\n%x", prev, frame)
		}

		// Intact frames round-trip.
		gotH, gotP, err := DecodeRelFrame(frame)
		if err != nil {
			t.Fatalf("intact frame rejected: %v", err)
		}
		if gotH != h {
			t.Fatalf("header round trip: %+v != %+v", gotH, h)
		}
		if len(gotP) != len(payload) {
			t.Fatalf("payload length %d != %d", len(gotP), len(payload))
		}
		for i := range payload {
			if gotP[i] != payload[i] {
				t.Fatalf("payload round trip mismatch at %d", i)
			}
		}

		// Corrupt one byte anywhere in the frame: must be detected
		// (or, for a zero xor, be the identity and still decode).
		mut := make([]byte, len(frame))
		copy(mut, frame)
		pos := int(mutPos) % len(mut)
		mut[pos] ^= mutXor
		mh, mp, err := DecodeRelFrame(mut)
		if err != nil {
			return // detected: fine
		}
		if mh != h || len(mp) != len(payload) {
			t.Fatalf("corrupt frame false-accepted with different content: %+v", mh)
		}
		for i := range payload {
			if mp[i] != payload[i] {
				t.Fatalf("corrupt frame false-accepted with different payload at %d", i)
			}
		}

		// Truncations and garbage prefixes must error, never panic.
		for _, cut := range []int{0, 1, RelHeaderSize - 1, len(mut) - 1} {
			if cut < 0 || cut > len(mut) {
				continue
			}
			if _, _, err := DecodeRelFrame(mut[:cut]); err == nil && cut < RelHeaderSize {
				t.Fatalf("truncated frame of %d bytes accepted", cut)
			}
		}
	})
}

// FuzzWriteReadRoundTrip: arbitrary payload split points must
// round-trip exactly.
func FuzzWriteReadRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3}, uint8(1))
	f.Add([]byte{}, uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, splitRaw uint8) {
		if len(data) == 0 || len(data) > 1<<12 {
			t.Skip()
		}
		m := jvm.NewMachine(vtime.NewClock(), jvm.Options{HeapSize: 1 << 20, ArenaSize: 1 << 20})
		p := NewPool(m)
		src := m.MustArray(jvm.Byte, len(data))
		src.CopyInBytes(0, data)
		b, err := p.Get(len(data))
		if err != nil {
			t.Fatal(err)
		}
		defer b.Free()
		split := int(splitRaw) % len(data)
		if err := b.Write(src, 0, split); err != nil {
			t.Fatal(err)
		}
		if err := b.Write(src, split, len(data)-split); err != nil {
			t.Fatal(err)
		}
		if err := b.Commit(); err != nil {
			t.Fatal(err)
		}
		dst := m.MustArray(jvm.Byte, len(data))
		if err := b.Read(dst, 0, len(data)); err != nil {
			t.Fatal(err)
		}
		out := make([]byte, len(data))
		dst.CopyOutBytes(0, out)
		for i := range data {
			if out[i] != data[i] {
				t.Fatalf("round trip mismatch at %d", i)
			}
		}
	})
}
