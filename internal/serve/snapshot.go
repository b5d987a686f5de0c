// Package serve is the result-serving plane: it turns a finished
// WorldResult into a compact columnar on-disk snapshot and serves
// gridcell/window, top-k trend, and continent-aggregate queries from it
// over HTTP while the world keeps running behind it.
//
// The robustness contract is the headline, not the query language:
//
//   - snapshots are written atomically (temp + rename) with CRC32C
//     section trailers in the journal frame envelope, a manifest
//     header bound to core.RunSignature, and a byte-counting trailer, so
//     a SIGKILL mid-write, a bit flip, or a foreign run's snapshot is
//     detected — never served;
//   - the server hot-swaps snapshots under live traffic with a refcounted
//     atomic pointer, quarantines corrupt or foreign snapshots, and keeps
//     serving last-good;
//   - admission is bounded with prioritized load shedding: cheap cached
//     reads survive overload, expensive scans shed first with
//     503 + Retry-After, and every request carries a deadline that is
//     propagated down to the disk reads backing the daily columns.
package serve

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/diurnalnet/diurnal/internal/changepoint"
	"github.com/diurnalnet/diurnal/internal/core"
	"github.com/diurnalnet/diurnal/internal/geo"
	"github.com/diurnalnet/diurnal/internal/journal"
	"github.com/diurnalnet/diurnal/internal/netsim"
	"github.com/diurnalnet/diurnal/internal/storage"
)

// Snapshot file layout. The file is a contiguous sequence of CRC32C
// frames in the journal envelope ([u32 len | payload | u32 crc],
// journal.AppendFrame / journal.Walk). Each payload is one tag byte
// followed by a fixed-width little-endian columnar section:
//
//	'H' header   — magic, format version, run signature, window, counts
//	'C' cells    — lat/lon/continent/responsive/change-sensitive columns
//	               plus row offsets into the daily section
//	'D' daily    — per-(cell, day) down/up alarm counts, columnar, sorted
//	               by cell then day; the serving path reads these columns
//	               from disk per request instead of holding them resident
//	'B' blocks   — block id, cell index, classification flag bits, row
//	               offsets into the change section
//	'E' changes  — per-change direction/boundaries/amplitudes
//	'Z' trailer  — frame count and payload byte total of everything above
//
// The envelope CRC catches bit flips; the trailer catches truncation at
// a frame boundary, which per-frame CRCs cannot; the header signature
// catches a snapshot from a different (config, world) pair.
const (
	snapMagic   = "DSN1"
	snapVersion = 1

	tagHeader  = 'H'
	tagCells   = 'C'
	tagDaily   = 'D'
	tagBlocks  = 'B'
	tagChanges = 'E'
	tagTrailer = 'Z'
)

// Block classification flag bits in the 'B' section.
const (
	blockAnalyzed = 1 << iota
	blockResponsive
	blockChangeSensitive
)

// Meta is the snapshot manifest: identity and shape, decoded from the
// header frame.
type Meta struct {
	// Signature is the core.RunSignature of the (config, world) pair the
	// snapshot was built from. The server refuses to swap in a snapshot
	// whose signature differs from its pinned one.
	Signature []byte
	// Start and End bound the analysis window (Unix seconds, UTC).
	Start, End int64
	// AnalyzedBlocks and Degraded summarize the run that produced the
	// snapshot (served on /v1/stats so clients can judge confidence).
	AnalyzedBlocks int
	Degraded       bool
	// Cells, Blocks, Changes, DailyRows are the section row counts.
	Cells, Blocks, Changes, DailyRows int
}

// StartDay returns the window's first UTC day index.
func (m Meta) StartDay() int64 { return m.Start / netsim.SecondsPerDay }

// Days returns the number of day slots in the window.
func (m Meta) Days() int {
	return int((m.End - m.Start + netsim.SecondsPerDay - 1) / netsim.SecondsPerDay)
}

// cellRow is one decoded row of the 'C' section.
type cellRow struct {
	Key        geo.CellKey
	Continent  geo.Continent
	Responsive int
	CS         int
}

// changeRow is one decoded row of the 'E' section, times as offsets from
// Meta.Start.
type changeRow struct {
	Dir                      changepoint.Direction
	Start, Alarm, End, Point uint32
	Amplitude, RawAmplitude  float64
}

// blockRow is one decoded row of the 'B' section.
type blockRow struct {
	ID      uint32
	CellIdx uint32
	Flags   uint8
}

// dailyLayout locates the daily section's columns inside the file so the
// serving path can read per-cell row ranges straight from disk.
type dailyLayout struct {
	rows int
	// dayOff, downOff, upOff are absolute file offsets of the three
	// column arrays (u32 little-endian each).
	dayOff, downOff, upOff int64
}

// snapData is a fully decoded snapshot (sans the daily columns, which
// stay on disk): the in-memory result of decodeSnapshot.
type snapData struct {
	meta    Meta
	cells   []cellRow
	dailyOf []uint32 // len(cells)+1 row offsets into the daily section
	blocks  []blockRow
	chOf    []uint32 // len(blocks)+1 row offsets into the change section
	changes []changeRow
	daily   dailyLayout
	// crc is the CRC32C of the entire encoded file: the snapshot's
	// identity, echoed in the X-Snapshot response header.
	crc uint32
}

func (d *snapData) id() string { return fmt.Sprintf("%08x", d.crc) }

// --- encoding ------------------------------------------------------------

type colWriter struct{ buf []byte }

func (w *colWriter) u8(v uint8)   { w.buf = append(w.buf, v) }
func (w *colWriter) u16(v uint16) { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }
func (w *colWriter) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *colWriter) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *colWriter) i32(v int32)  { w.u32(uint32(v)) }
func (w *colWriter) i64(v int64)  { w.u64(uint64(v)) }
func (w *colWriter) f64(v float64) {
	w.u64(math.Float64bits(v))
}

// EncodeSnapshot builds the columnar snapshot bytes for a finished world
// run. sig must be the run's core.RunSignature; start/end the analysis
// window. The encoding is deterministic: cells sort by (lat, lon), daily
// rows by (cell, day), blocks and changes in world order.
func EncodeSnapshot(res *core.WorldResult, sig []byte, start, end int64) ([]byte, error) {
	if res == nil {
		return nil, fmt.Errorf("serve: nil world result")
	}
	if end <= start {
		return nil, fmt.Errorf("serve: empty window [%d,%d)", start, end)
	}
	if len(sig) == 0 || len(sig) > 0xffff {
		return nil, fmt.Errorf("serve: bad signature length %d", len(sig))
	}
	startDay := start / netsim.SecondsPerDay
	maxDay := uint32((end-start+netsim.SecondsPerDay-1)/netsim.SecondsPerDay) + 1

	// Cell table: the union of aggregated cells and every block's cell,
	// sorted by (lat, lon) so lookups are a binary search.
	cellSet := map[geo.CellKey]bool{}
	for k := range res.Cells {
		cellSet[k] = true
	}
	for i := range res.Blocks {
		cellSet[res.Blocks[i].Place.Cell] = true
	}
	keys := make([]geo.CellKey, 0, len(cellSet))
	for k := range cellSet {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Lat != keys[j].Lat {
			return keys[i].Lat < keys[j].Lat
		}
		return keys[i].Lon < keys[j].Lon
	})
	cellIdx := make(map[geo.CellKey]uint32, len(keys))
	cells := make([]cellRow, len(keys))
	for i, k := range keys {
		cellIdx[k] = uint32(i)
		row := cellRow{Key: k}
		if st := res.Cells[k]; st != nil {
			row.Continent = st.Continent
			row.Responsive = st.Responsive
			row.CS = st.ChangeSensitive
		}
		cells[i] = row
	}
	// A cell whose only members are unanalyzed blocks has no CellStats;
	// recover its continent from any block placed there.
	for i := range res.Blocks {
		b := &res.Blocks[i]
		if res.Cells[b.Place.Cell] == nil && b.Place.Region != nil {
			cells[cellIdx[b.Place.Cell]].Continent = b.Place.Region.Continent
		}
	}

	// Daily rows, columnar, sorted by (cell, day).
	type dailyRow struct{ day, down, up uint32 }
	perCell := make([][]dailyRow, len(cells))
	addDaily := func(src map[geo.CellKey]map[int64]int, down bool) error {
		for k, days := range src {
			ci, ok := cellIdx[k]
			if !ok {
				return fmt.Errorf("serve: daily counts for unknown cell %v", k)
			}
			for d, n := range days {
				off := d - startDay
				if off < 0 || uint32(off) >= maxDay {
					return fmt.Errorf("serve: day %d outside window for cell %v", d, k)
				}
				rows := perCell[ci]
				found := false
				for ri := range rows {
					if rows[ri].day == uint32(off) {
						if down {
							rows[ri].down += uint32(n)
						} else {
							rows[ri].up += uint32(n)
						}
						found = true
						break
					}
				}
				if !found {
					r := dailyRow{day: uint32(off)}
					if down {
						r.down = uint32(n)
					} else {
						r.up = uint32(n)
					}
					perCell[ci] = append(perCell[ci], r)
				}
			}
		}
		return nil
	}
	if err := addDaily(res.DownDaily, true); err != nil {
		return nil, err
	}
	if err := addDaily(res.UpDaily, false); err != nil {
		return nil, err
	}
	dailyOf := make([]uint32, len(cells)+1)
	var days, downs, ups []uint32
	for ci, rows := range perCell {
		sort.Slice(rows, func(i, j int) bool { return rows[i].day < rows[j].day })
		dailyOf[ci] = uint32(len(days))
		for _, r := range rows {
			days = append(days, r.day)
			downs = append(downs, r.down)
			ups = append(ups, r.up)
		}
	}
	dailyOf[len(cells)] = uint32(len(days))

	// Blocks and changes in world order.
	blocks := make([]blockRow, len(res.Blocks))
	chOf := make([]uint32, len(res.Blocks)+1)
	var changes []changeRow
	toOff := func(t int64) (uint32, error) {
		off := t - start
		if off < 0 || off > math.MaxUint32 {
			return 0, fmt.Errorf("serve: change time %d outside window", t)
		}
		return uint32(off), nil
	}
	for i := range res.Blocks {
		b := &res.Blocks[i]
		row := blockRow{ID: uint32(b.ID), CellIdx: cellIdx[b.Place.Cell]}
		chOf[i] = uint32(len(changes))
		if a := b.Analysis; a != nil {
			row.Flags |= blockAnalyzed
			if a.Class.Responsive {
				row.Flags |= blockResponsive
			}
			if a.Class.ChangeSensitive {
				row.Flags |= blockChangeSensitive
			}
			for _, c := range a.Changes {
				cs, err := toOff(c.Start)
				if err != nil {
					return nil, err
				}
				ca, err := toOff(c.Alarm)
				if err != nil {
					return nil, err
				}
				ce, err := toOff(c.End)
				if err != nil {
					return nil, err
				}
				cp, err := toOff(c.Point)
				if err != nil {
					return nil, err
				}
				changes = append(changes, changeRow{
					Dir: c.Dir, Start: cs, Alarm: ca, End: ce, Point: cp,
					Amplitude: c.Amplitude, RawAmplitude: c.RawAmplitude,
				})
			}
		}
		blocks[i] = row
	}
	chOf[len(res.Blocks)] = uint32(len(changes))

	degraded := res.Report != nil && res.Report.Degraded()
	analyzed := 0
	if res.Report != nil {
		analyzed = res.Report.AnalyzedBlocks
	}

	// Assemble the frames.
	var h colWriter
	h.u8(tagHeader)
	h.buf = append(h.buf, snapMagic...)
	h.u16(snapVersion)
	h.u16(uint16(len(sig)))
	h.buf = append(h.buf, sig...)
	h.i64(start)
	h.i64(end)
	h.u32(uint32(analyzed))
	if degraded {
		h.u8(1)
	} else {
		h.u8(0)
	}
	h.u32(uint32(len(cells)))
	h.u32(uint32(len(blocks)))
	h.u32(uint32(len(changes)))
	h.u32(uint32(len(days)))

	var c colWriter
	c.u8(tagCells)
	c.u32(uint32(len(cells)))
	for _, r := range cells {
		c.i32(int32(r.Key.Lat))
	}
	for _, r := range cells {
		c.i32(int32(r.Key.Lon))
	}
	for _, r := range cells {
		c.u8(uint8(r.Continent))
	}
	for _, r := range cells {
		c.u32(uint32(r.Responsive))
	}
	for _, r := range cells {
		c.u32(uint32(r.CS))
	}
	for _, o := range dailyOf {
		c.u32(o)
	}

	var d colWriter
	d.u8(tagDaily)
	d.u32(uint32(len(days)))
	for _, v := range days {
		d.u32(v)
	}
	for _, v := range downs {
		d.u32(v)
	}
	for _, v := range ups {
		d.u32(v)
	}

	var bw colWriter
	bw.u8(tagBlocks)
	bw.u32(uint32(len(blocks)))
	for _, r := range blocks {
		bw.u32(r.ID)
	}
	for _, r := range blocks {
		bw.u32(r.CellIdx)
	}
	for _, r := range blocks {
		bw.u8(r.Flags)
	}
	for _, o := range chOf {
		bw.u32(o)
	}

	var e colWriter
	e.u8(tagChanges)
	e.u32(uint32(len(changes)))
	for _, r := range changes {
		e.u8(uint8(int8(r.Dir)))
	}
	for _, r := range changes {
		e.u32(r.Start)
	}
	for _, r := range changes {
		e.u32(r.Alarm)
	}
	for _, r := range changes {
		e.u32(r.End)
	}
	for _, r := range changes {
		e.u32(r.Point)
	}
	for _, r := range changes {
		e.f64(r.Amplitude)
	}
	for _, r := range changes {
		e.f64(r.RawAmplitude)
	}

	payloads := [][]byte{h.buf, c.buf, d.buf, bw.buf, e.buf}
	var out []byte
	payloadBytes := 0
	for _, p := range payloads {
		out = journal.AppendFrame(out, p)
		payloadBytes += len(p)
	}
	var z colWriter
	z.u8(tagTrailer)
	z.u32(uint32(len(payloads)))
	z.u64(uint64(payloadBytes))
	out = journal.AppendFrame(out, z.buf)
	return out, nil
}

// --- decoding ------------------------------------------------------------

type colReader struct {
	buf []byte
	off int
	err error
}

func (r *colReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("serve: truncated %s column", what)
	}
}

func (r *colReader) u8(what string) uint8 {
	if r.err != nil || r.off+1 > len(r.buf) {
		r.fail(what)
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

func (r *colReader) u16(what string) uint16 {
	if r.err != nil || r.off+2 > len(r.buf) {
		r.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint16(r.buf[r.off:])
	r.off += 2
	return v
}

func (r *colReader) u32(what string) uint32 {
	if r.err != nil || r.off+4 > len(r.buf) {
		r.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

func (r *colReader) u64(what string) uint64 {
	if r.err != nil || r.off+8 > len(r.buf) {
		r.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

func (r *colReader) bytes(n int, what string) []byte {
	if r.err != nil || n < 0 || r.off+n > len(r.buf) {
		r.fail(what)
		return nil
	}
	v := r.buf[r.off : r.off+n]
	r.off += n
	return v
}

// count reads a section row count and bounds it by what the remaining
// bytes could possibly hold (rowBytes per row), so a corrupt count cannot
// drive a huge allocation.
func (r *colReader) count(rowBytes int, what string) int {
	n := int(r.u32(what))
	if r.err != nil {
		return 0
	}
	if n < 0 || n*rowBytes > len(r.buf)-r.off {
		r.fail(what + " count")
		return 0
	}
	return n
}

// decodeSnapshot parses and cross-checks a whole snapshot file image.
// Structural damage (bad envelope, short section, wrong magic) and
// semantic damage (non-monotone offsets, out-of-range indices, count
// mismatches) are both reported as faults; the returned snapData is
// non-nil only when faults is empty. It never panics on corrupt input
// (FuzzSnapshotDecode holds it to that).
func decodeSnapshot(data []byte) (*snapData, []string) {
	var faults []string
	fault := func(format string, args ...interface{}) {
		faults = append(faults, fmt.Sprintf(format, args...))
	}
	d := &snapData{crc: crc32.Checksum(data, journal.Table)}
	var (
		frames       int
		payloadTotal int
		trailerSeen  bool
		trailerCount uint32
		trailerBytes uint64
		fileOff      int64
	)
	seen := map[byte]bool{}
	good := journal.Walk(data, func(payload []byte) error {
		frameStart := fileOff
		fileOff += int64(8 + len(payload))
		if trailerSeen {
			fault("frame after trailer")
			return fmt.Errorf("frame after trailer")
		}
		if len(payload) == 0 {
			fault("empty frame payload")
			return fmt.Errorf("empty payload")
		}
		tag := payload[0]
		if tag != tagTrailer {
			frames++
			payloadTotal += len(payload)
		}
		if seen[tag] {
			fault("duplicate %q section", tag)
			return fmt.Errorf("duplicate section")
		}
		seen[tag] = true
		if frames > 0 && !seen[tagHeader] {
			fault("first frame is %q, not the header", tag)
			return fmt.Errorf("header not first")
		}
		r := &colReader{buf: payload, off: 1}
		switch tag {
		case tagHeader:
			if frames != 1 {
				fault("header frame out of order")
				return fmt.Errorf("header out of order")
			}
			magic := r.bytes(4, "magic")
			if r.err == nil && string(magic) != snapMagic {
				fault("bad magic %q", magic)
				return fmt.Errorf("bad magic")
			}
			ver := r.u16("version")
			if r.err == nil && ver != snapVersion {
				fault("unsupported snapshot version %d", ver)
				return fmt.Errorf("bad version")
			}
			sigLen := int(r.u16("siglen"))
			sig := r.bytes(sigLen, "signature")
			d.meta.Signature = append([]byte(nil), sig...)
			d.meta.Start = int64(r.u64("start"))
			d.meta.End = int64(r.u64("end"))
			d.meta.AnalyzedBlocks = int(r.u32("analyzed"))
			d.meta.Degraded = r.u8("degraded") != 0
			d.meta.Cells = int(r.u32("cells"))
			d.meta.Blocks = int(r.u32("blocks"))
			d.meta.Changes = int(r.u32("changes"))
			d.meta.DailyRows = int(r.u32("dailyrows"))
			if r.err == nil && d.meta.End <= d.meta.Start {
				fault("empty window [%d,%d)", d.meta.Start, d.meta.End)
			}
		case tagCells:
			n := r.count(21, "cells")
			d.cells = make([]cellRow, n)
			for i := range d.cells {
				d.cells[i].Key.Lat = int(int32(r.u32("lat")))
			}
			for i := range d.cells {
				d.cells[i].Key.Lon = int(int32(r.u32("lon")))
			}
			for i := range d.cells {
				d.cells[i].Continent = geo.Continent(r.u8("continent"))
			}
			for i := range d.cells {
				d.cells[i].Responsive = int(r.u32("responsive"))
			}
			for i := range d.cells {
				d.cells[i].CS = int(r.u32("cs"))
			}
			d.dailyOf = make([]uint32, 0, n+1)
			for i := 0; i <= n; i++ {
				d.dailyOf = append(d.dailyOf, r.u32("dailyoff"))
			}
		case tagDaily:
			m := r.count(12, "daily")
			d.daily.rows = m
			d.daily.dayOff = frameStart + 4 + int64(r.off)
			r.bytes(4*m, "day")
			d.daily.downOff = frameStart + 4 + int64(r.off)
			r.bytes(4*m, "down")
			d.daily.upOff = frameStart + 4 + int64(r.off)
			r.bytes(4*m, "up")
		case tagBlocks:
			nb := r.count(13, "blocks")
			d.blocks = make([]blockRow, nb)
			for i := range d.blocks {
				d.blocks[i].ID = r.u32("id")
			}
			for i := range d.blocks {
				d.blocks[i].CellIdx = r.u32("cellidx")
			}
			for i := range d.blocks {
				d.blocks[i].Flags = r.u8("flags")
			}
			d.chOf = make([]uint32, 0, nb+1)
			for i := 0; i <= nb; i++ {
				d.chOf = append(d.chOf, r.u32("changeoff"))
			}
		case tagChanges:
			ne := r.count(33, "changes")
			d.changes = make([]changeRow, ne)
			for i := range d.changes {
				d.changes[i].Dir = changepoint.Direction(int8(r.u8("dir")))
			}
			for i := range d.changes {
				d.changes[i].Start = r.u32("start")
			}
			for i := range d.changes {
				d.changes[i].Alarm = r.u32("alarm")
			}
			for i := range d.changes {
				d.changes[i].End = r.u32("end")
			}
			for i := range d.changes {
				d.changes[i].Point = r.u32("point")
			}
			for i := range d.changes {
				d.changes[i].Amplitude = math.Float64frombits(r.u64("amplitude"))
			}
			for i := range d.changes {
				d.changes[i].RawAmplitude = math.Float64frombits(r.u64("rawamplitude"))
			}
		case tagTrailer:
			trailerSeen = true
			trailerCount = r.u32("trailer frames")
			trailerBytes = r.u64("trailer bytes")
		default:
			fault("unknown section tag %q", tag)
			return fmt.Errorf("unknown tag")
		}
		if r.err != nil {
			fault("section %q: %v", tag, r.err)
			return r.err
		}
		if r.off != len(payload) {
			fault("section %q: %d trailing bytes", tag, len(payload)-r.off)
			return fmt.Errorf("trailing bytes")
		}
		return nil
	})
	if len(faults) == 0 && good < len(data) {
		fault("torn tail: %d of %d bytes verify", good, len(data))
	}
	if len(faults) > 0 {
		return nil, faults
	}
	// Structural pass done; cross-section invariants.
	for _, tag := range []byte{tagHeader, tagCells, tagDaily, tagBlocks, tagChanges} {
		if !seen[tag] {
			fault("missing %q section", tag)
		}
	}
	if !trailerSeen {
		fault("missing trailer: snapshot truncated at a frame boundary")
	} else {
		if int(trailerCount) != frames {
			fault("trailer counts %d frames, file has %d", trailerCount, frames)
		}
		if trailerBytes != uint64(payloadTotal) {
			fault("trailer counts %d payload bytes, file has %d", trailerBytes, payloadTotal)
		}
	}
	if len(faults) > 0 {
		return nil, faults
	}
	m := d.meta
	if len(d.cells) != m.Cells {
		fault("header says %d cells, section has %d", m.Cells, len(d.cells))
	}
	if len(d.blocks) != m.Blocks {
		fault("header says %d blocks, section has %d", m.Blocks, len(d.blocks))
	}
	if len(d.changes) != m.Changes {
		fault("header says %d changes, section has %d", m.Changes, len(d.changes))
	}
	if d.daily.rows != m.DailyRows {
		fault("header says %d daily rows, section has %d", m.DailyRows, d.daily.rows)
	}
	if len(faults) > 0 {
		return nil, faults
	}
	for i := 1; i < len(d.cells); i++ {
		a, b := d.cells[i-1].Key, d.cells[i].Key
		if a.Lat > b.Lat || (a.Lat == b.Lat && a.Lon >= b.Lon) {
			fault("cell table not sorted at row %d", i)
			break
		}
	}
	checkOffsets := func(name string, of []uint32, total int) {
		if len(of) == 0 {
			return
		}
		if of[0] != 0 || int(of[len(of)-1]) != total {
			fault("%s offsets do not span [0,%d]", name, total)
			return
		}
		for i := 1; i < len(of); i++ {
			if of[i] < of[i-1] {
				fault("%s offsets not monotone at row %d", name, i)
				return
			}
		}
	}
	checkOffsets("daily", d.dailyOf, d.daily.rows)
	checkOffsets("change", d.chOf, len(d.changes))
	for i, b := range d.blocks {
		if int(b.CellIdx) >= len(d.cells) {
			fault("block row %d references cell %d of %d", i, b.CellIdx, len(d.cells))
			break
		}
	}
	for i, c := range d.changes {
		if c.Dir != changepoint.Up && c.Dir != changepoint.Down {
			fault("change row %d has direction %d", i, c.Dir)
			break
		}
		if c.Alarm < c.Start || c.End < c.Alarm {
			fault("change row %d boundaries out of order", i)
			break
		}
	}
	if len(faults) > 0 {
		return nil, faults
	}
	return d, nil
}

// --- file I/O ------------------------------------------------------------

// snapPattern names snapshot files so lexical order is creation order.
const snapSuffix = ".snap"

// SnapshotName returns the file name for sequence number seq.
func SnapshotName(seq int) string { return fmt.Sprintf("snap-%08d%s", seq, snapSuffix) }

// writeFileAtomic follows the shared storage discipline: temp file in
// the same directory, write, sync, close, rename, parent-directory
// fsync (rename alone is not crash-durable — the new directory entry
// lives in the parent's blocks). A crash at any point leaves either the
// old file or a *.tmp ignored by every reader.
func writeFileAtomic(fsys storage.FS, path string, data []byte) error {
	return storage.WriteBytesAtomic(fsys, path, data)
}

// parseSnapshotSeq extracts the sequence number from a snapshot file
// name, reporting whether the name is a canonically numbered snapshot.
func parseSnapshotSeq(name string) (int, bool) {
	var seq int
	if _, err := fmt.Sscanf(name, "snap-%08d", &seq); err != nil {
		return 0, false
	}
	if SnapshotName(seq) != name {
		return 0, false
	}
	return seq, true
}

// WriteSnapshot encodes res and atomically writes it into dir under the
// next free sequence number, returning the snapshot's path. dir is
// created if missing.
func WriteSnapshot(dir string, res *core.WorldResult, sig []byte, start, end int64) (string, error) {
	return WriteSnapshotFS(storage.OS, dir, res, sig, start, end)
}

// WriteSnapshotFS is WriteSnapshot through an injectable filesystem.
// The next sequence number is one past the maximum parseable sequence
// among existing snapshots — not the file count, which could collide
// with an existing name when the directory holds foreign *.snap files.
func WriteSnapshotFS(fsys storage.FS, dir string, res *core.WorldResult, sig []byte, start, end int64) (string, error) {
	data, err := EncodeSnapshot(res, sig, start, end)
	if err != nil {
		return "", err
	}
	return writeSnapshotBytes(fsys, dir, data)
}

// writeSnapshotBytes places already-encoded snapshot bytes into dir
// under the next free sequence number.
func writeSnapshotBytes(fsys storage.FS, dir string, data []byte) (string, error) {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	names, err := listSnapshots(dir)
	if err != nil {
		return "", err
	}
	seq := 0
	for _, name := range names {
		if n, ok := parseSnapshotSeq(name); ok && n >= seq {
			seq = n + 1
		}
	}
	path := filepath.Join(dir, SnapshotName(seq))
	if err := writeFileAtomic(fsys, path, data); err != nil {
		return "", err
	}
	return path, nil
}

// RetainSnapshots is the snapshot directory's garbage collector: it
// deletes every *.snap beyond the newest keep, except snapshots inUse
// reports as still referenced (the currently served snapshot and any
// snapshot a draining reader still holds open). Quarantined files
// (*.snap.quarantined) are never touched — they are forensic evidence,
// not retention candidates. It returns the deleted names.
func RetainSnapshots(fsys storage.FS, dir string, keep int, inUse func(path string) bool) ([]string, error) {
	if keep < 1 {
		return nil, fmt.Errorf("serve: retention must keep at least 1 snapshot (got %d)", keep)
	}
	names, err := listSnapshots(dir)
	if err != nil {
		return nil, err
	}
	if len(names) <= keep {
		return nil, nil
	}
	var removed []string
	for _, name := range names[:len(names)-keep] {
		path := filepath.Join(dir, name)
		if inUse != nil && inUse(path) {
			continue
		}
		if err := fsys.Remove(path); err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return removed, fmt.Errorf("serve: retiring snapshot %s: %w", path, err)
		}
		removed = append(removed, name)
	}
	return removed, nil
}

// listSnapshots returns the *.snap names in dir in ascending lexical
// (= creation) order, ignoring temp files and quarantined snapshots.
func listSnapshots(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var names []string
	for _, e := range ents {
		name := e.Name()
		if e.Type().IsRegular() && strings.HasSuffix(name, snapSuffix) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}

// VerifyReport is the fsck result for one snapshot file, in the style of
// dataset.Store.Verify: every fault found in one pass, not just the first.
type VerifyReport struct {
	Path string
	// Meta is filled when the header decoded cleanly.
	Meta Meta
	// Faults lists everything wrong with the file.
	Faults []string
}

// Clean reports whether the snapshot passed verification.
func (r *VerifyReport) Clean() bool { return len(r.Faults) == 0 }

// String renders an fsck-style summary.
func (r *VerifyReport) String() string {
	var b strings.Builder
	state := "ok"
	if !r.Clean() {
		state = fmt.Sprintf("DAMAGED (%d faults)", len(r.Faults))
	}
	fmt.Fprintf(&b, "snapshot %s: %s — %d cells, %d blocks, %d changes, %d daily rows\n",
		filepath.Base(r.Path), state, r.Meta.Cells, r.Meta.Blocks, r.Meta.Changes, r.Meta.DailyRows)
	for _, f := range r.Faults {
		fmt.Fprintf(&b, "  %s\n", f)
	}
	return b.String()
}

// VerifySnapshot is fsck for one snapshot file: envelope CRCs, section
// structure, trailer byte accounting, and cross-section invariants. The
// returned error is non-nil only when the file cannot be read at all.
func VerifySnapshot(path string) (*VerifyReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &VerifyReport{Path: path}
	d, faults := decodeSnapshot(data)
	rep.Faults = faults
	if d != nil {
		rep.Meta = d.meta
	}
	return rep, nil
}
