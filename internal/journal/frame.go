// Package journal is the repository's one durable log. It owns the
// decisions every crash-safe writer here shares:
//
//   - the frame envelope, [u32 length | payload | u32 CRC32C], with the
//     length little-endian and the CRC over the payload alone;
//   - a framed file (File): scanned at open with its torn tail
//     truncated, and appended to with one write() per call, rolled back
//     when that write comes up short;
//   - a segmented log (Log) of such files behind an atomically swapped
//     manifest: rotation, compaction to a base segment, replay, and the
//     sweep of files a killed rotation or compaction left behind.
//
// What the frames carry is the caller's business: callers pass payload
// bytes in and get payload bytes back.
//
// One rule, the poison rule, covers every atomic replace the package
// makes, of a log's manifest. When the replace fails, the path is read
// back. If the old contents still stand, the writer carries on. If the
// new contents landed anyway (the rename succeeded and only the
// directory fsync after it failed), or the read back fails so nobody can
// tell, the writer is poisoned: a manifest on disk may list a segment it
// does not know, so every later append, rotation and compaction refuses
// with the original error, and nothing is deleted. A poisoned writer is
// merely a crashed one: reopening reads the truth from disk. A File whose
// short write cannot be rolled back is poisoned the same way.
package journal

import (
	"encoding/binary"
	"hash/crc32"
)

// Table is the CRC32C (Castagnoli) table behind every checksum in this
// repository: the frame envelope, the dataset store's log trailers and
// the dead-letter envelopes. CRC32C is hardware accelerated on amd64 and
// arm64.
var Table = crc32.MakeTable(crc32.Castagnoli)

// MaxFrame bounds a single frame's payload; a length prefix beyond it is
// treated as tail corruption, not an allocation request.
const MaxFrame = 1 << 28

// Overhead is the envelope's cost per frame: the u32 length and the u32
// CRC.
const Overhead = 8

// AppendFrame appends one framed record to dst and returns the extended
// slice. Empty or oversized payloads are the caller's bug; they would be
// unreadable (a zero length ends the scan), so they panic loudly.
func AppendFrame(dst, payload []byte) []byte {
	if len(payload) == 0 || len(payload) > MaxFrame {
		panic("journal: frame payload empty or over MaxFrame")
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	return Seal(append(dst, payload...), len(payload))
}

// Seal appends the CRC of dst's last n bytes: the payload of a frame its
// caller laid down in place, behind its length prefix, so the payload
// need not be copied into the frame.
func Seal(dst []byte, n int) []byte {
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[len(dst)-n:], Table))
}

// Frame is one whole envelope in a scanned file.
type Frame struct {
	Payload []byte
	// CRC is the checksum stored behind the payload; Intact compares
	// the two.
	CRC uint32
	// End is the offset in the scanned data just past the frame.
	End int
}

// Intact reports whether the frame's payload matches its stored CRC.
func (f Frame) Intact() bool { return crc32.Checksum(f.Payload, Table) == f.CRC }

// Frames splits data into its whole envelopes in file order, reading
// only the length prefixes: it stops at a short frame or a zero or
// oversized length prefix, and checks no CRC. A caller that checks
// CRCs and decodes payloads on several goroutines starts here; cutting
// at the first frame that fails either check cuts where Walk stops.
func Frames(data []byte) []Frame {
	var frames []Frame
	for off := 0; ; {
		payload, crc, end, ok := envelope(data, off)
		if !ok {
			return frames
		}
		frames = append(frames, Frame{Payload: payload, CRC: crc, End: end})
		off = end
	}
}

// Walk scans data frame by frame, invoking fn on each intact payload,
// and returns the byte offset just past the last frame that both
// checksummed and was accepted (fn returned nil). Everything at or past
// the returned offset is a torn or corrupt tail: a short frame, a zero
// or oversized length prefix, a CRC mismatch, or a payload fn rejected.
func Walk(data []byte, fn func(payload []byte) error) (good int) {
	for {
		payload, crc, end, ok := envelope(data, good)
		if !ok || crc32.Checksum(payload, Table) != crc || fn(payload) != nil {
			return good
		}
		good = end
	}
}

// envelope reads the frame that starts at off: its payload, the CRC
// stored behind it and the offset just past it. ok is false when no
// whole frame starts there: fewer than four bytes left, a zero or
// oversized length prefix, or a frame running past the end of data.
func envelope(data []byte, off int) (payload []byte, crc uint32, end int, ok bool) {
	if off+4 > len(data) {
		return nil, 0, 0, false
	}
	n := binary.LittleEndian.Uint32(data[off:])
	if n == 0 || n > MaxFrame {
		return nil, 0, 0, false
	}
	end = off + 4 + int(n) + 4
	if end > len(data) || end < off {
		return nil, 0, 0, false
	}
	return data[off+4 : end-4], binary.LittleEndian.Uint32(data[end-4:]), end, true
}
