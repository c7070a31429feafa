package nativempi

import (
	"bytes"
	"testing"
)

func iovecMustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", what)
		}
	}()
	fn()
}

func TestNewIOVecValidation(t *testing.T) {
	full := make([]byte, 64)
	iovecMustPanic(t, "no runs", func() { NewIOVec(full, nil) })
	iovecMustPanic(t, "zero length", func() { NewIOVec(full, []Run{{Off: 0, Len: 0}}) })
	iovecMustPanic(t, "negative length", func() { NewIOVec(full, []Run{{Off: 0, Len: -4}}) })
	iovecMustPanic(t, "overlap", func() { NewIOVec(full, []Run{{Off: 0, Len: 8}, {Off: 4, Len: 8}}) })
	iovecMustPanic(t, "reorder", func() { NewIOVec(full, []Run{{Off: 16, Len: 8}, {Off: 0, Len: 8}}) })
	iovecMustPanic(t, "out of range", func() { NewIOVec(full, []Run{{Off: 60, Len: 8}}) })
}

func TestNewIOVecCoalescing(t *testing.T) {
	full := make([]byte, 64)
	v := NewIOVec(full, []Run{{Off: 0, Len: 8}, {Off: 8, Len: 8}, {Off: 24, Len: 4}, {Off: 28, Len: 4}})
	if len(v.Runs) != 2 {
		t.Fatalf("coalesced into %d runs, want 2", len(v.Runs))
	}
	if v.Runs[0] != (Run{Off: 0, Len: 16}) || v.Runs[1] != (Run{Off: 24, Len: 8}) {
		t.Errorf("runs = %v", v.Runs)
	}
	if v.N != 24 {
		t.Errorf("N = %d, want 24", v.N)
	}
}

func TestIOVecGatherScatter(t *testing.T) {
	full := make([]byte, 32)
	for i := range full {
		full[i] = byte(i)
	}
	v := Strided(NewIOVec(full, []Run{{Off: 2, Len: 4}, {Off: 10, Len: 2}, {Off: 20, Len: 6}}))
	img := make([]byte, v.size())
	if moved := v.gatherInto(img); moved != 12 {
		t.Fatalf("gathered %d bytes, want 12", moved)
	}
	want := []byte{2, 3, 4, 5, 10, 11, 20, 21, 22, 23, 24, 25}
	if !bytes.Equal(img, want) {
		t.Fatalf("gather = %v, want %v", img, want)
	}

	dstFull := make([]byte, 32)
	d := Strided(NewIOVec(dstFull, []Run{{Off: 1, Len: 6}, {Off: 12, Len: 6}}))
	if moved := d.copyFrom(Contig(img)); moved != 12 {
		t.Fatalf("scattered %d bytes, want 12", moved)
	}
	if !bytes.Equal(dstFull[1:7], want[:6]) || !bytes.Equal(dstFull[12:18], want[6:]) {
		t.Errorf("scatter mismatch: %v", dstFull)
	}
	if dstFull[0] != 0 || dstFull[7] != 0 || dstFull[18] != 0 {
		t.Error("scatter wrote outside its runs")
	}
}

// payloadShapes are the layouts the copyFrom tests cross: contiguous,
// strided, and strided with run boundaries that line up with neither.
// Each builds a fresh payload over its own zeroed 48-byte region.
var payloadShapes = []struct {
	name string
	mk   func() (Payload, []byte)
}{
	{"contig16", func() (Payload, []byte) {
		b := make([]byte, 48)
		return Contig(b[4:20]), b
	}},
	{"contig9", func() (Payload, []byte) {
		b := make([]byte, 48)
		return Contig(b[:9]), b
	}},
	{"strided16a", func() (Payload, []byte) {
		b := make([]byte, 48)
		return Strided(NewIOVec(b, []Run{{Off: 0, Len: 5}, {Off: 8, Len: 7}, {Off: 30, Len: 4}})), b
	}},
	{"strided16b", func() (Payload, []byte) {
		b := make([]byte, 48)
		return Strided(NewIOVec(b, []Run{{Off: 2, Len: 3}, {Off: 10, Len: 9}, {Off: 25, Len: 4}})), b
	}},
	{"strided8", func() (Payload, []byte) {
		b := make([]byte, 48)
		return Strided(NewIOVec(b, []Run{{Off: 1, Len: 4}, {Off: 40, Len: 4}})), b
	}},
}

// bounceCopy is the reference copyFrom is checked against: gather the
// source into a packed image, then scatter the image into the
// destination one run at a time.
func bounceCopy(dst, src Payload) int {
	img := make([]byte, src.size())
	pos := 0
	for i := 0; i < src.runs(); i++ {
		r := src.run(i)
		pos += copy(img[pos:], src.region()[r.Off:r.Off+r.Len])
	}
	moved := 0
	for i := 0; i < dst.runs() && moved < len(img); i++ {
		r := dst.run(i)
		moved += copy(dst.region()[r.Off:r.Off+r.Len], img[moved:])
	}
	return moved
}

// TestVecCopyMismatchedRuns crosses every {contiguous, strided} source
// with every {contiguous, strided} destination, including layouts whose
// run boundaries do not line up and pairs of unequal size (the shorter
// side truncates): the two-pointer merge must move the same bytes to
// the same places a gather-then-scatter bounce would, and touch nothing
// outside the destination's runs.
func TestVecCopyMismatchedRuns(t *testing.T) {
	for _, ss := range payloadShapes {
		for _, ds := range payloadShapes {
			src, srcFull := ss.mk()
			for i := range srcFull {
				srcFull[i] = byte(i + 1)
			}
			direct, directFull := ds.mk()
			bounce, bounceFull := ds.mk()
			want := min(src.size(), direct.size())
			if moved := direct.copyFrom(src); moved != want {
				t.Errorf("%s <- %s: copyFrom moved %d bytes, want %d", ds.name, ss.name, moved, want)
			}
			if moved := bounceCopy(bounce, src); moved != want {
				t.Fatalf("%s <- %s: reference bounce moved %d bytes, want %d", ds.name, ss.name, moved, want)
			}
			if !bytes.Equal(directFull, bounceFull) {
				t.Errorf("%s <- %s: copyFrom differs from gather+scatter bounce:\n direct %v\n bounce %v",
					ds.name, ss.name, directFull, bounceFull)
			}
		}
	}
}

func TestVecCopyTruncates(t *testing.T) {
	src := Strided(NewIOVec(bytes.Repeat([]byte{7}, 16), []Run{{Off: 0, Len: 16}}))
	dst := Strided(NewIOVec(make([]byte, 16), []Run{{Off: 0, Len: 4}, {Off: 8, Len: 4}}))
	if moved := dst.copyFrom(src); moved != 8 {
		t.Errorf("copyFrom into smaller dst moved %d, want 8", moved)
	}
	if moved := Strided(NewIOVec(make([]byte, 32), []Run{{Off: 0, Len: 32}})).copyFrom(src); moved != 16 {
		t.Errorf("copyFrom from smaller src moved %d, want 16", moved)
	}
	// A contiguous landing is bounded to the message before it is
	// registered; a strided one keeps its layout and stops short.
	if got := Contig(make([]byte, 32)).prefix(16); got.size() != 16 || len(got.region()) != 16 {
		t.Errorf("contiguous prefix(16): size %d, region %d", got.size(), len(got.region()))
	}
	if got := dst.prefix(4); got.size() != 8 || len(got.region()) != 16 {
		t.Errorf("strided prefix(4): size %d, region %d, want layout unchanged", got.size(), len(got.region()))
	}
	if moved := (Payload{}).copyFrom(src); moved != 0 {
		t.Errorf("copyFrom into the empty payload moved %d", moved)
	}
	if moved := dst.copyFrom(Payload{}); moved != 0 {
		t.Errorf("copyFrom from the empty payload moved %d", moved)
	}
}
