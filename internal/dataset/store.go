package dataset

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"github.com/diurnalnet/diurnal/internal/netsim"
	"github.com/diurnalnet/diurnal/internal/probe"
	"github.com/diurnalnet/diurnal/internal/storage"
)

// A Store persists probe observations on disk so analyses can be replayed
// without re-simulating (or, against real data, without re-probing): one
// binary log per (block, observer) plus a JSON index. This mirrors the
// role of the paper's public Trinocular datasets [Table 6].
//
// Durability: every file is written to a temp name and renamed into
// place, so a crash mid-archive never leaves a half-written log under its
// final name; each log carries a CRC32C trailer so bytes damaged after
// the fact are detected on read. Verify is the matching fsck.
//
// Reads go through memory-mapped views of the log files (a portable
// read-into-memory fallback serves non-Linux platforms and builds tagged
// diurnal_nommap), decoded zero-copy by DecodeRecordsBytes: no per-log
// open fd is held after mapping and no bufio shim sits between the bytes
// and the varint decoder. Mappings are cached per log and released by
// Close. A Store is safe for concurrent readers.
type Store struct {
	dir string

	mu   sync.Mutex
	maps map[string]*mappedLog
}

// mappedLog is one cached log view with its release function.
type mappedLog struct {
	data    []byte
	release func() error
}

// logData returns the (possibly cached) in-memory view of one log file.
func (s *Store) logData(name string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.maps == nil {
		s.maps = map[string]*mappedLog{}
	}
	if m, ok := s.maps[name]; ok {
		return m.data, nil
	}
	f, err := os.Open(filepath.Join(s.dir, name))
	if err != nil {
		return nil, err
	}
	data, release, err := mapFile(f)
	f.Close() // the mapping (or copied buffer) outlives the fd
	if err != nil {
		return nil, err
	}
	s.maps[name] = &mappedLog{data: data, release: release}
	return data, nil
}

// Close releases every mapped log view. The store remains usable — a
// later read simply re-maps — so Close is a resource checkpoint, not a
// terminal state. Views handed out earlier must not be used after Close.
func (s *Store) Close() error {
	s.mu.Lock()
	maps := s.maps
	s.maps = nil
	s.mu.Unlock()
	var first error
	for _, m := range maps {
		if err := m.release(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ErrNotStore reports that a directory is not a dataset store (no
// index.json). Classify with errors.Is.
var ErrNotStore = errors.New("not a dataset store")

// storeIndex is the JSON manifest of a store.
type storeIndex struct {
	Name   string       `json:"name"`
	Start  int64        `json:"start"`
	End    int64        `json:"end"`
	Sites  []string     `json:"sites"`
	Blocks []blockEntry `json:"blocks"`
}

type blockEntry struct {
	ID         uint32 `json:"id"`
	EverActive []int  `json:"ever_active"`
}

// OpenStore opens an existing store directory.
func OpenStore(dir string) (*Store, error) {
	if _, err := os.Stat(filepath.Join(dir, "index.json")); err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("dataset: %s: %w", dir, ErrNotStore)
		}
		return nil, fmt.Errorf("dataset: opening %s: %w", dir, err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// CreateStore writes a complete observation archive: it probes every block
// of the world with the engine over [spec.Start, spec.End()) and writes
// one log per (block, observer). The index is written last, so a crash
// mid-archive leaves a directory OpenStore still refuses as ErrNotStore
// rather than a store with missing logs.
func CreateStore(dir string, spec Spec, eng *probe.Engine, world []*WorldBlock) (*Store, error) {
	return CreateStoreFS(storage.OS, dir, spec, eng, world)
}

// CreateStoreFS is CreateStore through an injectable filesystem, so
// fault-injection tests can hit the archive path with deterministic
// ENOSPC, short writes, and failed fsyncs.
func CreateStoreFS(fsys storage.FS, dir string, spec Spec, eng *probe.Engine, world []*WorldBlock) (*Store, error) {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	idx := storeIndex{Name: spec.Name, Start: spec.Start, End: spec.End(), Sites: spec.Sites}
	for _, wb := range world {
		eb := wb.EverActive()
		if len(eb) == 0 {
			continue
		}
		perObs, err := eng.Collect(wb.Block, spec.Start, spec.End())
		if err != nil {
			return nil, fmt.Errorf("dataset: probing %v: %w", wb.ID, err)
		}
		for oi, records := range perObs {
			err := storage.WriteFileAtomic(fsys, filepath.Join(dir, logName(wb.ID, oi)), func(f storage.File) error {
				return WriteRecords(f, records)
			})
			if err != nil {
				return nil, fmt.Errorf("dataset: writing %v obs %d: %w", wb.ID, oi, err)
			}
		}
		idx.Blocks = append(idx.Blocks, blockEntry{ID: uint32(wb.ID), EverActive: eb})
	}
	data, err := json.MarshalIndent(&idx, "", "  ")
	if err != nil {
		return nil, err
	}
	err = storage.WriteFileAtomic(fsys, filepath.Join(dir, "index.json"), func(f storage.File) error {
		_, err := f.Write(data)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("dataset: writing index: %w", err)
	}
	return &Store{dir: dir}, nil
}

func logName(id netsim.BlockID, obs int) string {
	return fmt.Sprintf("blk-%06x.obs%d.log", uint32(id), obs)
}

// Index returns the store's manifest.
func (s *Store) Index() (name string, start, end int64, sites []string, blocks []netsim.BlockID, err error) {
	idx, err := s.readIndex()
	if err != nil {
		return "", 0, 0, nil, nil, err
	}
	for _, b := range idx.Blocks {
		blocks = append(blocks, netsim.BlockID(b.ID))
	}
	return idx.Name, idx.Start, idx.End, idx.Sites, blocks, nil
}

func (s *Store) readIndex() (*storeIndex, error) {
	data, err := os.ReadFile(filepath.Join(s.dir, "index.json"))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("dataset: %s: %w", s.dir, ErrNotStore)
		}
		return nil, fmt.Errorf("dataset: reading index: %w", err)
	}
	var idx storeIndex
	if err := json.Unmarshal(data, &idx); err != nil {
		return nil, fmt.Errorf("dataset: corrupt index: %w", err)
	}
	return &idx, nil
}

// LoadBlock reads one block's per-observer record streams and its E(b).
// A damaged log surfaces as an error wrapping ErrCorruptLog, scoped to
// this block only — the rest of the store stays readable.
func (s *Store) LoadBlock(id netsim.BlockID) (perObs [][]probe.Record, eb []int, err error) {
	idx, err := s.readIndex()
	if err != nil {
		return nil, nil, err
	}
	return s.loadBlockIdx(idx, id)
}

func (s *Store) loadBlockIdx(idx *storeIndex, id netsim.BlockID) (perObs [][]probe.Record, eb []int, err error) {
	found := false
	for _, b := range idx.Blocks {
		if netsim.BlockID(b.ID) == id {
			eb = b.EverActive
			found = true
			break
		}
	}
	if !found {
		return nil, nil, fmt.Errorf("dataset: block %v not in store", id)
	}
	for oi := 0; oi < len(idx.Sites); oi++ {
		data, err := s.logData(logName(id, oi))
		if err != nil {
			return nil, nil, fmt.Errorf("dataset: block %v obs %d: %w", id, oi, err)
		}
		records, err := DecodeRecordsBytes(data)
		if err != nil {
			return nil, nil, fmt.Errorf("dataset: block %v obs %d: %w", id, oi, err)
		}
		perObs = append(perObs, records)
	}
	return perObs, eb, nil
}

// LogFault is one damaged observation log found by Verify.
type LogFault struct {
	ID  netsim.BlockID
	Obs int
	Err error
}

// VerifyReport is the result of an fsck pass over a store.
type VerifyReport struct {
	// Blocks and Logs count what was checked; OK counts clean logs.
	Blocks, Logs, OK int
	// Faults lists every damaged or missing log, in index order.
	Faults []LogFault
	// DuplicateIndex lists block IDs that appear more than once in the
	// manifest — a crashed archiver that re-appended its tail.
	DuplicateIndex []netsim.BlockID
}

// Clean reports whether the store passed verification.
func (r *VerifyReport) Clean() bool {
	return len(r.Faults) == 0 && len(r.DuplicateIndex) == 0
}

// BadBlocks returns the distinct block IDs with at least one damaged log
// — the quarantine set a replay run must skip or re-probe.
func (r *VerifyReport) BadBlocks() []netsim.BlockID {
	seen := map[netsim.BlockID]bool{}
	var out []netsim.BlockID
	for _, f := range r.Faults {
		if !seen[f.ID] {
			seen[f.ID] = true
			out = append(out, f.ID)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// String renders an fsck-style summary.
func (r *VerifyReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "checked %d blocks, %d logs: %d ok, %d damaged (%d faults)",
		r.Blocks, r.Logs, r.OK, r.Logs-r.OK, len(r.Faults))
	if len(r.DuplicateIndex) > 0 {
		fmt.Fprintf(&b, ", %d duplicate index entries", len(r.DuplicateIndex))
	}
	b.WriteString("\n")
	for _, f := range r.Faults {
		fmt.Fprintf(&b, "  block %06x obs %d: %v\n", uint32(f.ID), f.Obs, f.Err)
	}
	for _, id := range r.DuplicateIndex {
		fmt.Fprintf(&b, "  block %06x: duplicate index entry\n", uint32(id))
	}
	return b.String()
}

// Verify is fsck for a store: it decodes every observation log, checking
// magic, structure, CRC32C, trailing garbage, and in-log duplicate
// observations, and reports damage as per-block faults instead of failing
// on the first bad byte. The returned error is non-nil only when the
// index itself is unreadable.
func (s *Store) Verify() (*VerifyReport, error) {
	idx, err := s.readIndex()
	if err != nil {
		return nil, err
	}
	rep := &VerifyReport{}
	seen := map[uint32]bool{}
	for _, be := range idx.Blocks {
		if seen[be.ID] {
			rep.DuplicateIndex = append(rep.DuplicateIndex, netsim.BlockID(be.ID))
			continue
		}
		seen[be.ID] = true
		rep.Blocks++
		id := netsim.BlockID(be.ID)
		for oi := 0; oi < len(idx.Sites); oi++ {
			rep.Logs++
			faults := s.verifyLog(id, oi)
			if len(faults) == 0 {
				rep.OK++
				continue
			}
			for _, ferr := range faults {
				rep.Faults = append(rep.Faults, LogFault{ID: id, Obs: oi, Err: ferr})
			}
		}
	}
	return rep, nil
}

// verifyLog decodes one log and checks semantic invariants the checksum
// cannot: duplicate (time, address) observations from a replayed batch
// that was archived with a valid trailer. It reports every fault it finds
// in one pass rather than stopping at the first, so a log damaged by
// several replayed batches shows the full extent of the damage in a
// single fsck run. Structural damage (bad magic, truncation, checksum
// mismatch) is still one fault: the log is a single checksummed blob, so
// past the first bad byte there is no trustworthy frame boundary to
// resync at.
func (s *Store) verifyLog(id netsim.BlockID, oi int) []error {
	f, err := os.Open(filepath.Join(s.dir, logName(id, oi)))
	if err != nil {
		return []error{err}
	}
	defer f.Close()
	records, err := ReadRecords(bufio.NewReader(f))
	if err != nil {
		return []error{err}
	}
	var faults []error
	for i := 1; i < len(records); i++ {
		if records[i].T == records[i-1].T && records[i].Addr == records[i-1].Addr {
			faults = append(faults, fmt.Errorf("dataset: duplicate observation of addr %d at t=%d: %w",
				records[i].Addr, records[i].T, ErrCorruptLog))
		}
	}
	return faults
}

// Replay returns a prober that serves collections from the store's logs
// instead of probing, clipped to the requested window. It satisfies
// core.Prober, so an archived dataset drops into the analysis pipeline
// unchanged; a damaged log surfaces as that block's collection error (and
// so as one BlockError in the run report), never as silent bad data.
func (s *Store) Replay() (*ReplayProber, error) {
	idx, err := s.readIndex()
	if err != nil {
		return nil, err
	}
	return &ReplayProber{store: s, idx: idx}, nil
}

// ReplayProber adapts a Store to the pipeline's prober interface.
type ReplayProber struct {
	store *Store
	idx   *storeIndex
}

// Observers returns the number of observer streams per block.
func (p *ReplayProber) Observers() int { return len(p.idx.Sites) }

// CollectInto loads the block's archived streams, clipping records to
// [start, end). The bufs contract matches probe.Engine.CollectInto.
// Decoding runs straight from the store's mapped log bytes into bufs —
// no intermediate per-log record slice is materialized.
func (p *ReplayProber) CollectInto(ctx context.Context, b *netsim.Block, start, end int64, bufs [][]probe.Record) ([][]probe.Record, error) {
	if err := ctx.Err(); err != nil {
		return bufs, err
	}
	found := false
	for _, be := range p.idx.Blocks {
		if netsim.BlockID(be.ID) == b.ID {
			found = true
			break
		}
	}
	if !found {
		return bufs, fmt.Errorf("dataset: block %v not in store", b.ID)
	}
	nObs := len(p.idx.Sites)
	for len(bufs) < nObs {
		bufs = append(bufs, nil)
	}
	bufs = bufs[:nObs]
	for oi := 0; oi < nObs; oi++ {
		data, err := p.store.logData(logName(b.ID, oi))
		if err != nil {
			return bufs, fmt.Errorf("dataset: block %v obs %d: %w", b.ID, oi, err)
		}
		bufs[oi], err = AppendRecordsBytes(bufs[oi][:0], data, start, end)
		if err != nil {
			return bufs, fmt.Errorf("dataset: block %v obs %d: %w", b.ID, oi, err)
		}
	}
	return bufs, nil
}
