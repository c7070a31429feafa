package mpjbuf

import "testing"

// TestRelFrameCodecAllocatesNothing pins the codec's host cost: under a
// fault plan every transmission is encoded and every arrival decoded,
// so one allocation in either is one per frame on the message path.
func TestRelFrameCodecAllocatesNothing(t *testing.T) {
	payload := make([]byte, 1000)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	h := RelHeader{Stream: 1, Kind: 2, Attempt: 3, Seq: 42}
	frame := make([]byte, RelHeaderSize+len(payload))
	if n := testing.AllocsPerRun(100, func() { EncodeRelFrame(frame, h, payload) }); n != 0 {
		t.Errorf("EncodeRelFrame: %.1f allocs per frame, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, _, err := DecodeRelFrame(frame); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("DecodeRelFrame: %.1f allocs per frame, want 0", n)
	}
}

func TestEncodeRelFrameWrongLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("frame one byte short did not panic")
		}
	}()
	EncodeRelFrame(make([]byte, RelHeaderSize+2), RelHeader{}, []byte{1, 2, 3})
}
