package dataset

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"

	"github.com/diurnalnet/diurnal/internal/journal"
	"github.com/diurnalnet/diurnal/internal/probe"
)

// The observation-log format stores one observer's probe records
// compactly: a magic header, the record count, the base timestamp, then
// per record a varint time delta from the previous record, the address
// octet, and the up flag, followed by a CRC32C trailer over everything
// before it. Real deployments of the paper's pipeline archive years of
// such logs; the codec keeps our datasets replayable without
// re-simulating, and the checksum turns silent bit rot, torn writes, and
// replayed appends into loud per-log errors that fsck (Store.Verify) and
// the replay prober surface as per-block failures instead of bad data.

const logMagic = "DIURNLOG" // 8 bytes

// ErrCorruptLog marks structural damage to an observation log — bad
// magic, truncation, a checksum mismatch, or trailing bytes after the
// trailer. Callers classify with errors.Is.
var ErrCorruptLog = errors.New("corrupt observation log")

// crcWriter updates a running CRC32C with everything written through it.
type crcWriter struct {
	w   *bufio.Writer
	crc uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.crc = crc32.Update(c.crc, journal.Table, p[:n])
	return n, err
}

// crcReader updates a running CRC32C with everything read through it. It
// implements io.ByteReader for the varint decoder.
type crcReader struct {
	br  *bufio.Reader
	crc uint32
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.br.Read(p)
	c.crc = crc32.Update(c.crc, journal.Table, p[:n])
	return n, err
}

func (c *crcReader) ReadByte() (byte, error) {
	b, err := c.br.ReadByte()
	if err != nil {
		return b, err
	}
	var one [1]byte
	one[0] = b
	c.crc = crc32.Update(c.crc, journal.Table, one[:])
	return b, nil
}

// WriteRecords encodes records (which must be in time order) to w and
// appends a CRC32C trailer over the encoded stream.
func WriteRecords(w io.Writer, records []probe.Record) error {
	bw := bufio.NewWriter(w)
	cw := &crcWriter{w: bw}
	if _, err := cw.Write([]byte(logMagic)); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], uint64(len(records)))
	if _, err := cw.Write(buf[:n]); err != nil {
		return err
	}
	var prev int64
	if len(records) > 0 {
		prev = records[0].T
		n = binary.PutVarint(buf[:], prev)
		if _, err := cw.Write(buf[:n]); err != nil {
			return err
		}
	}
	for i, r := range records {
		delta := r.T - prev
		if delta < 0 {
			return fmt.Errorf("dataset: record %d out of time order", i)
		}
		prev = r.T
		n = binary.PutUvarint(buf[:], uint64(delta))
		if _, err := cw.Write(buf[:n]); err != nil {
			return err
		}
		up := byte(0)
		if r.Up {
			up = 1
		}
		if _, err := cw.Write([]byte{r.Addr, up}); err != nil {
			return err
		}
	}
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], cw.crc)
	if _, err := bw.Write(trailer[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// AppendRecordsBytes decodes a log from memory, appending only records
// with start <= T < end to buf — the replay prober's collection path,
// which decodes straight from the mapped file into the caller's reusable
// buffer with no intermediate record slice. Semantics match ReadRecords:
// the same structure is decoded, the CRC32C trailer is verified, and
// trailing bytes are rejected, with every failure wrapping ErrCorruptLog.
// Unlike the streaming reader, the checksum is computed in one pass over
// the raw bytes (hardware CRC32C) instead of per byte through a reader
// shim.
func AppendRecordsBytes(buf []probe.Record, data []byte, start, end int64) ([]probe.Record, error) {
	if len(data) < len(logMagic) {
		return buf, fmt.Errorf("dataset: reading magic: truncated log: %w", ErrCorruptLog)
	}
	if string(data[:len(logMagic)]) != logMagic {
		return buf, fmt.Errorf("dataset: bad magic %q: %w", data[:len(logMagic)], ErrCorruptLog)
	}
	off := len(logMagic)
	count, n := binary.Uvarint(data[off:])
	if n <= 0 {
		return buf, fmt.Errorf("dataset: reading count: truncated log: %w", ErrCorruptLog)
	}
	off += n
	const maxRecords = 1 << 30
	if count > maxRecords {
		return buf, fmt.Errorf("dataset: implausible record count %d: %w", count, ErrCorruptLog)
	}
	var prev int64
	if count > 0 {
		prev, n = binary.Varint(data[off:])
		if n <= 0 {
			return buf, fmt.Errorf("dataset: reading base time: truncated log: %w", ErrCorruptLog)
		}
		off += n
	}
	// Reserve once for what the header promises, but never more than the
	// bytes that follow could hold (a record is at least 3 bytes): the
	// count is read before any checksum, and a corrupt one must not be
	// able to demand gigabytes.
	reserve := int(min(count, uint64(len(data)-off)/3))
	buf = slices.Grow(buf, reserve)
	for i := uint64(0); i < count; i++ {
		delta, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return buf, fmt.Errorf("dataset: record %d delta: truncated log: %w", i, ErrCorruptLog)
		}
		off += n
		if off+2 > len(data) {
			return buf, fmt.Errorf("dataset: record %d payload: truncated log: %w", i, ErrCorruptLog)
		}
		addr, up := data[off], data[off+1]
		off += 2
		if up > 1 {
			return buf, fmt.Errorf("dataset: record %d has invalid up flag %d: %w", i, up, ErrCorruptLog)
		}
		prev += int64(delta)
		if prev < start || prev >= end {
			continue
		}
		buf = append(buf, probe.Record{T: prev, Addr: addr, Up: up == 1})
	}
	if off+4 > len(data) {
		return buf, fmt.Errorf("dataset: reading checksum: truncated log: %w", ErrCorruptLog)
	}
	got := binary.LittleEndian.Uint32(data[off : off+4])
	if want := crc32.Checksum(data[:off], journal.Table); got != want {
		return buf, fmt.Errorf("dataset: checksum mismatch: stored %08x, computed %08x: %w", got, want, ErrCorruptLog)
	}
	if off+4 != len(data) {
		return buf, fmt.Errorf("dataset: trailing bytes after checksum: %w", ErrCorruptLog)
	}
	return buf, nil
}

// ReadRecords decodes a log written by WriteRecords, verifying its CRC32C
// trailer and rejecting trailing bytes. Any structural failure (bad
// magic, truncation, checksum mismatch, appended garbage) is reported as
// an error wrapping ErrCorruptLog.
func ReadRecords(r io.Reader) ([]probe.Record, error) {
	br := bufio.NewReader(r)
	cr := &crcReader{br: br}
	magic := make([]byte, len(logMagic))
	if _, err := io.ReadFull(cr, magic); err != nil {
		return nil, fmt.Errorf("dataset: reading magic: %v: %w", err, ErrCorruptLog)
	}
	if string(magic) != logMagic {
		return nil, fmt.Errorf("dataset: bad magic %q: %w", magic, ErrCorruptLog)
	}
	count, err := binary.ReadUvarint(cr)
	if err != nil {
		return nil, fmt.Errorf("dataset: reading count: %v: %w", err, ErrCorruptLog)
	}
	const maxRecords = 1 << 30
	if count > maxRecords {
		return nil, fmt.Errorf("dataset: implausible record count %d: %w", count, ErrCorruptLog)
	}
	// The stream's length is unknown, so an unverified count reserves at
	// most 256 KiB up front; a longer log grows as it is read.
	records := make([]probe.Record, 0, min(count, 1<<14))
	var prev int64
	if count > 0 {
		prev, err = binary.ReadVarint(cr)
		if err != nil {
			return nil, fmt.Errorf("dataset: reading base time: %v: %w", err, ErrCorruptLog)
		}
	}
	for i := uint64(0); i < count; i++ {
		delta, err := binary.ReadUvarint(cr)
		if err != nil {
			return nil, fmt.Errorf("dataset: record %d delta: %v: %w", i, err, ErrCorruptLog)
		}
		prev += int64(delta)
		var pair [2]byte
		if _, err := io.ReadFull(cr, pair[:]); err != nil {
			return nil, fmt.Errorf("dataset: record %d payload: %v: %w", i, err, ErrCorruptLog)
		}
		if pair[1] > 1 {
			return nil, fmt.Errorf("dataset: record %d has invalid up flag %d: %w", i, pair[1], ErrCorruptLog)
		}
		records = append(records, probe.Record{T: prev, Addr: pair[0], Up: pair[1] == 1})
	}
	var trailer [4]byte
	if _, err := io.ReadFull(br, trailer[:]); err != nil {
		return nil, fmt.Errorf("dataset: reading checksum: %v: %w", err, ErrCorruptLog)
	}
	if got := binary.LittleEndian.Uint32(trailer[:]); got != cr.crc {
		return nil, fmt.Errorf("dataset: checksum mismatch: stored %08x, computed %08x: %w", got, cr.crc, ErrCorruptLog)
	}
	// A duplicate-append (a crashed archiver replaying its buffer into the
	// same file) leaves a second complete log after the trailer: anything
	// beyond the checksum is corruption, not data.
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("dataset: trailing bytes after checksum: %w", ErrCorruptLog)
	}
	return records, nil
}
