package serve

// The serving-side view of a snapshot. OpenSnapshot reads and fully
// verifies the file once (a torn or bit-flipped snapshot is rejected at
// swap time, never served), keeps the small sections resident, and leaves
// the daily columns — by far the largest — on disk: every query reads
// exactly its cell's row range with an io.ReaderAt honoring the request
// deadline, so a stalling disk degrades requests individually instead of
// wedging the server.

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/diurnalnet/diurnal/internal/changepoint"
	"github.com/diurnalnet/diurnal/internal/geo"
)

// Snapshot is an open, verified snapshot serving queries. It is
// refcounted for hot swap: the server Acquires it per request and
// Releases when done; Close defers the file close until the last request
// drains, so a swap never yanks the disk out from under a reader.
type Snapshot struct {
	data *snapData
	path string
	// ra backs the daily-column reads; atomic because the chaos hook
	// SetReaderAt swaps it while reads are in flight.
	ra   atomic.Value // raBox
	file *os.File
	// refs counts in-flight readers; closed marks a pending Close that
	// the last Release applies. closeOnce makes the handoff race-free:
	// whichever of Close/Release observes the drained state first wins.
	refs      atomic.Int64
	closed    atomic.Bool
	closeOnce sync.Once
}

// OpenSnapshot reads, CRC-verifies, and decodes the snapshot at path.
// Any fault — torn tail, bit flip, bad section, foreign format — fails
// the open; a Snapshot in hand is structurally sound.
func OpenSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	d, faults := decodeSnapshot(data)
	if len(faults) > 0 {
		return nil, fmt.Errorf("serve: %s: %s", path, faults[0])
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	sn := &Snapshot{data: d, path: path, file: f}
	sn.ra.Store(raBox{f})
	return sn, nil
}

// ID is the snapshot's identity: the CRC32C of its encoded bytes,
// echoed by the server in the X-Snapshot response header.
func (s *Snapshot) ID() string { return s.data.id() }

// Meta returns the snapshot manifest.
func (s *Snapshot) Meta() Meta { return s.data.meta }

// Path returns the file the snapshot was opened from.
func (s *Snapshot) Path() string { return s.path }

// ReaderAt returns the current backing reader for the daily columns,
// the counterpart of SetReaderAt for wrapping it in a fault injector.
func (s *Snapshot) ReaderAt() io.ReaderAt { return s.readerAt() }

// SetReaderAt swaps the backing reader for the daily columns — the fault
// hook the chaos test uses to make disk reads stall.
func (s *Snapshot) SetReaderAt(ra io.ReaderAt) { s.ra.Store(raBox{ra}) }

// raBox gives atomic.Value the single concrete type it requires while
// the boxed reader varies.
type raBox struct{ ra io.ReaderAt }

// readerAt returns the current backing reader.
func (s *Snapshot) readerAt() io.ReaderAt { return s.ra.Load().(raBox).ra }

// Acquire registers a reader; it must be paired with Release. It reports
// false when the snapshot is already closing.
func (s *Snapshot) Acquire() bool {
	s.refs.Add(1)
	if s.closed.Load() {
		// Lost the race with Close: back out.
		s.Release()
		return false
	}
	return true
}

// Release drops one reader; the last release after Close closes the file.
func (s *Snapshot) Release() {
	if s.refs.Add(-1) == 0 && s.closed.Load() {
		s.closeFile()
	}
}

// Close marks the snapshot closing; the file handle is released once the
// last in-flight reader drains.
func (s *Snapshot) Close() {
	s.closed.Store(true)
	if s.refs.Load() == 0 {
		s.closeFile()
	}
}

// InUse reports whether the snapshot still holds its backing file —
// either readers are in flight or Close has not been called. Retention
// GC must not delete the file under an in-use snapshot.
func (s *Snapshot) InUse() bool {
	return !s.closed.Load() || s.refs.Load() > 0
}

func (s *Snapshot) closeFile() {
	s.closeOnce.Do(func() {
		if s.file != nil {
			s.file.Close()
		}
	})
}

// cellIndex finds the row of a cell key by binary search over the sorted
// cell table.
func (s *Snapshot) cellIndex(key geo.CellKey) (int, bool) {
	cells := s.data.cells
	i := sort.Search(len(cells), func(i int) bool {
		c := cells[i].Key
		if c.Lat != key.Lat {
			return c.Lat >= key.Lat
		}
		return c.Lon >= key.Lon
	})
	if i < len(cells) && cells[i].Key == key {
		return i, true
	}
	return 0, false
}

// readColumn reads rows [lo, hi) of one u32 daily column from disk under
// ctx's deadline. The ReadAt runs in its own goroutine so a stalled disk
// cannot hold the request past its deadline: the caller gets ctx.Err()
// on time and the abandoned read finishes (and is discarded) whenever
// the disk wakes up.
func (s *Snapshot) readColumn(ctx context.Context, colOff int64, lo, hi int, buf []uint32) ([]uint32, error) {
	n := hi - lo
	if n <= 0 {
		return buf[:0], nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	raw := make([]byte, 4*n)
	ra := s.readerAt()
	done := make(chan error, 1) // buffered: an abandoned read never blocks
	go func() {
		_, err := ra.ReadAt(raw, colOff+int64(4*lo))
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			return nil, fmt.Errorf("serve: reading daily column: %w", err)
		}
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	buf = buf[:0]
	for i := 0; i < n; i++ {
		buf = append(buf, binary.LittleEndian.Uint32(raw[4*i:]))
	}
	return buf, nil
}

// CellSeries is one cell's windowed daily fraction series.
type CellSeries struct {
	Cell       geo.CellKey
	Continent  geo.Continent
	Responsive int
	CS         int
	// StartDay is the UTC day index of Frac[0]; Frac[i] is the fraction
	// of the cell's change-sensitive blocks alarming on day StartDay+i.
	StartDay int64
	Frac     []float64
	Count    []int
}

// clampWindow intersects [fromDay, toDay) with the snapshot window and
// returns day offsets; ok is false when the intersection is empty.
func (s *Snapshot) clampWindow(fromDay, toDay int64) (lo, hi int, ok bool) {
	start := s.data.meta.StartDay()
	days := int64(s.data.meta.Days())
	if fromDay == 0 && toDay == 0 {
		return 0, int(days), days > 0
	}
	a, b := fromDay-start, toDay-start
	if a < 0 {
		a = 0
	}
	if b > days {
		b = days
	}
	if b <= a {
		return 0, 0, false
	}
	return int(a), int(b), true
}

// CellQuery returns the daily change fraction series for one gridcell
// over [fromDay, toDay) (UTC day indices; both zero means the full
// window). The daily rows are read from disk under ctx's deadline. A
// cell the snapshot never saw returns ok=false, not an error.
func (s *Snapshot) CellQuery(ctx context.Context, key geo.CellKey, dir changepoint.Direction, fromDay, toDay int64) (*CellSeries, bool, error) {
	ci, ok := s.cellIndex(key)
	if !ok {
		return nil, false, nil
	}
	lo, hi, ok := s.clampWindow(fromDay, toDay)
	if !ok {
		return nil, false, nil
	}
	row := s.data.cells[ci]
	out := &CellSeries{
		Cell:       row.Key,
		Continent:  row.Continent,
		Responsive: row.Responsive,
		CS:         row.CS,
		StartDay:   s.data.meta.StartDay() + int64(lo),
		Frac:       make([]float64, hi-lo),
		Count:      make([]int, hi-lo),
	}
	if err := s.accumulateCell(ctx, ci, dir, lo, hi, out.Count); err != nil {
		return nil, false, err
	}
	if row.CS > 0 {
		for i, n := range out.Count {
			out.Frac[i] = float64(n) / float64(row.CS)
		}
	}
	return out, true, nil
}

// accumulateCell adds cell ci's per-day alarm counts for dir over day
// offsets [lo, hi) into counts (indexed from lo).
func (s *Snapshot) accumulateCell(ctx context.Context, ci int, dir changepoint.Direction, lo, hi int, counts []int) error {
	a, b := int(s.data.dailyOf[ci]), int(s.data.dailyOf[ci+1])
	if a == b {
		return nil
	}
	days, err := s.readColumn(ctx, s.data.daily.dayOff, a, b, nil)
	if err != nil {
		return err
	}
	colOff := s.data.daily.downOff
	if dir == changepoint.Up {
		colOff = s.data.daily.upOff
	}
	vals, err := s.readColumn(ctx, colOff, a, b, nil)
	if err != nil {
		return err
	}
	for i, day := range days {
		if int(day) >= lo && int(day) < hi {
			counts[int(day)-lo] += int(vals[i])
		}
	}
	return nil
}

// TopCell is one ranked entry of a top-k trend query.
type TopCell struct {
	Cell geo.CellKey
	CS   int
	// Alarms is the total alarm count over the window; PeakFrac the
	// largest single-day fraction.
	Alarms   int
	PeakFrac float64
}

// TopK scans every cell's daily rows over the window and ranks cells by
// windowed alarm volume in dir — the expensive full-scan query that the
// admission layer sheds first under overload. ctx is checked per cell so
// a blown deadline aborts the scan mid-way.
func (s *Snapshot) TopK(ctx context.Context, k int, dir changepoint.Direction, fromDay, toDay int64) ([]TopCell, error) {
	lo, hi, ok := s.clampWindow(fromDay, toDay)
	if !ok || k <= 0 {
		return nil, nil
	}
	var (
		ranked  []TopCell
		daysBuf []uint32
		valsBuf []uint32
	)
	colOff := s.data.daily.downOff
	if dir == changepoint.Up {
		colOff = s.data.daily.upOff
	}
	for ci := range s.data.cells {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		a, b := int(s.data.dailyOf[ci]), int(s.data.dailyOf[ci+1])
		if a == b {
			continue
		}
		var err error
		daysBuf, err = s.readColumn(ctx, s.data.daily.dayOff, a, b, daysBuf)
		if err != nil {
			return nil, err
		}
		valsBuf, err = s.readColumn(ctx, colOff, a, b, valsBuf)
		if err != nil {
			return nil, err
		}
		row := s.data.cells[ci]
		total, peak := 0, 0
		for i, day := range daysBuf {
			if int(day) >= lo && int(day) < hi {
				total += int(valsBuf[i])
				if int(valsBuf[i]) > peak {
					peak = int(valsBuf[i])
				}
			}
		}
		if total == 0 {
			continue
		}
		tc := TopCell{Cell: row.Key, CS: row.CS, Alarms: total}
		if row.CS > 0 {
			tc.PeakFrac = float64(peak) / float64(row.CS)
		}
		ranked = append(ranked, tc)
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].Alarms != ranked[j].Alarms {
			return ranked[i].Alarms > ranked[j].Alarms
		}
		a, b := ranked[i].Cell, ranked[j].Cell
		if a.Lat != b.Lat {
			return a.Lat < b.Lat
		}
		return a.Lon < b.Lon
	})
	if k < len(ranked) {
		ranked = ranked[:k]
	}
	return ranked, nil
}

// ContinentSeries is a continent's aggregate daily fraction series.
type ContinentSeries struct {
	Continent geo.Continent
	CS        int
	StartDay  int64
	Frac      []float64
}

// ContinentQuery aggregates the downward daily fraction across every
// cell of one continent over [fromDay, toDay) — Figure 8 as a query.
func (s *Snapshot) ContinentQuery(ctx context.Context, cont geo.Continent, fromDay, toDay int64) (*ContinentSeries, error) {
	lo, hi, ok := s.clampWindow(fromDay, toDay)
	if !ok {
		return nil, fmt.Errorf("serve: window [%d,%d) outside snapshot", fromDay, toDay)
	}
	totalCS := 0
	counts := make([]int, hi-lo)
	for ci := range s.data.cells {
		row := s.data.cells[ci]
		if row.Continent != cont {
			continue
		}
		totalCS += row.CS
		if err := s.accumulateCell(ctx, ci, changepoint.Down, lo, hi, counts); err != nil {
			return nil, err
		}
	}
	out := &ContinentSeries{
		Continent: cont,
		CS:        totalCS,
		StartDay:  s.data.meta.StartDay() + int64(lo),
		Frac:      make([]float64, hi-lo),
	}
	if totalCS > 0 {
		for i, n := range counts {
			out.Frac[i] = float64(n) / float64(totalCS)
		}
	}
	return out, nil
}

// BlockChanges returns the change rows of one block by id, in wall-clock
// time. ok is false when the block is not in the snapshot.
func (s *Snapshot) BlockChanges(id uint32) (changes []ChangeView, cell geo.CellKey, ok bool) {
	for i := range s.data.blocks {
		if s.data.blocks[i].ID != id {
			continue
		}
		b := s.data.blocks[i]
		start := s.data.meta.Start
		for _, c := range s.data.changes[s.data.chOf[i]:s.data.chOf[i+1]] {
			changes = append(changes, ChangeView{
				Dir:          c.Dir.String(),
				Start:        start + int64(c.Start),
				Alarm:        start + int64(c.Alarm),
				End:          start + int64(c.End),
				Point:        start + int64(c.Point),
				Amplitude:    c.Amplitude,
				RawAmplitude: c.RawAmplitude,
			})
		}
		return changes, s.data.cells[b.CellIdx].Key, true
	}
	return nil, geo.CellKey{}, false
}

// ChangeView is one change event with wall-clock timestamps, as served.
type ChangeView struct {
	Dir                      string
	Start, Alarm, End, Point int64
	Amplitude, RawAmplitude  float64
}

// CellKeys lists every cell in the snapshot in table order — the target
// set the load harness draws queries from.
func (s *Snapshot) CellKeys() []geo.CellKey {
	keys := make([]geo.CellKey, len(s.data.cells))
	for i := range s.data.cells {
		keys[i] = s.data.cells[i].Key
	}
	return keys
}
