package mpjbuf

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Reliability wire framing. When a fault plan is active, every packet
// the simulated native library injects is wrapped in a small header
// carrying a stream id, a sequence number, the transmission attempt,
// and a CRC32-C checksum over the whole frame — the codec the
// nativempi reliability sublayer uses to detect corruption and
// suppress retransmitted duplicates. It lives in mpjbuf with the other
// wire-format code (the section codec of the buffering layer).
//
// Frame layout (little-endian):
//
//	offset  size  field
//	0       2     magic 0x524C ("RL")
//	2       1     version (1)
//	3       1     stream id
//	4       1     packet kind
//	5       1     reserved (0)
//	6       2     attempt
//	8       8     sequence number
//	16      4     payload length
//	20      4     CRC32-C over the frame with this field zeroed
//	24      ...   payload
const (
	relMagic      = 0x524C
	relVersion    = 1
	RelHeaderSize = 24
)

var relTable = crc32.MakeTable(crc32.Castagnoli)

// relZeroSum stands in for the checksum field when DecodeRelFrame
// recomputes the CRC; a package-level array, because a []byte literal
// there escapes and costs an allocation per decoded frame.
var relZeroSum [4]byte

// Errors returned by DecodeRelFrame. ErrRelCorrupt wraps every
// integrity failure so callers can treat "short", "bad magic" and
// "bad checksum" uniformly as wire corruption.
var (
	ErrRelCorrupt = errors.New("mpjbuf: corrupt reliability frame")
)

// RelHeader is the decoded reliability header.
type RelHeader struct {
	Stream  uint8
	Kind    uint8
	Attempt uint16
	Seq     uint64
}

// EncodeRelFrame writes the wire image of one transmission — header
// plus payload, checksummed — into frame, which must be exactly
// RelHeaderSize+len(payload) bytes (anything else is a caller bug and
// panics). Every byte of frame is overwritten, the reserved byte and the
// checksum field (zeroed before the CRC) included, so a frame recycled
// from a pool holding stale bytes encodes to exactly what a freshly
// made one would. The payload is copied; mutating the frame (fault
// injection) does not touch the caller's buffer. It does not allocate.
func EncodeRelFrame(frame []byte, h RelHeader, payload []byte) {
	if len(frame) != RelHeaderSize+len(payload) {
		panic(fmt.Sprintf("mpjbuf: %d-byte frame for a %d-byte payload", len(frame), len(payload)))
	}
	binary.LittleEndian.PutUint16(frame[0:], relMagic)
	frame[2] = relVersion
	frame[3] = h.Stream
	frame[4] = h.Kind
	frame[5] = 0
	binary.LittleEndian.PutUint16(frame[6:], h.Attempt)
	binary.LittleEndian.PutUint64(frame[8:], h.Seq)
	binary.LittleEndian.PutUint32(frame[16:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[20:], 0)
	copy(frame[RelHeaderSize:], payload)
	binary.LittleEndian.PutUint32(frame[20:], crc32.Checksum(frame, relTable))
}

// DecodeRelFrame validates and decodes a wire image. Corruption of any
// byte — header or payload — is detected through the length and
// checksum fields and reported as an error wrapping ErrRelCorrupt;
// arbitrary input never panics. The returned payload aliases frame.
func DecodeRelFrame(frame []byte) (RelHeader, []byte, error) {
	if len(frame) < RelHeaderSize {
		return RelHeader{}, nil, fmt.Errorf("%w: %d-byte frame shorter than header", ErrRelCorrupt, len(frame))
	}
	if binary.LittleEndian.Uint16(frame[0:]) != relMagic {
		return RelHeader{}, nil, fmt.Errorf("%w: bad magic %#x", ErrRelCorrupt, binary.LittleEndian.Uint16(frame[0:]))
	}
	if frame[2] != relVersion {
		return RelHeader{}, nil, fmt.Errorf("%w: version %d", ErrRelCorrupt, frame[2])
	}
	if frame[5] != 0 {
		return RelHeader{}, nil, fmt.Errorf("%w: reserved byte %#x", ErrRelCorrupt, frame[5])
	}
	n := binary.LittleEndian.Uint32(frame[16:])
	if uint64(n) != uint64(len(frame)-RelHeaderSize) {
		return RelHeader{}, nil, fmt.Errorf("%w: payload length %d in a %d-byte frame", ErrRelCorrupt, n, len(frame))
	}
	want := binary.LittleEndian.Uint32(frame[20:])
	// Recompute with the checksum field zeroed, without mutating the
	// frame (decoding is read-only).
	sum := crc32.Checksum(frame[:20], relTable)
	sum = crc32.Update(sum, relTable, relZeroSum[:])
	sum = crc32.Update(sum, relTable, frame[24:])
	if sum != want {
		return RelHeader{}, nil, fmt.Errorf("%w: checksum %#x != %#x", ErrRelCorrupt, sum, want)
	}
	h := RelHeader{
		Stream:  frame[3],
		Kind:    frame[4],
		Attempt: binary.LittleEndian.Uint16(frame[6:]),
		Seq:     binary.LittleEndian.Uint64(frame[8:]),
	}
	return h, frame[RelHeaderSize:], nil
}
