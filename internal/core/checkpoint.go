package core

// Checkpointing makes world runs crash-safe: every completed block
// outcome is journaled to an append-only file, so a killed run resumes by
// replaying the journal and analyzing only the blocks it never finished.
// The file is a journal.File: CRC-framed, its torn tail truncated on
// open and a short write rolled back. A header frame binds the journal to
// one (config, world) pair so a stale file can never leak foreign results
// into a run. The journal needs no compaction to stay bounded: a resumed
// run skips the blocks it holds, and Pipeline.Run appends each block once.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/diurnalnet/diurnal/internal/dataset"
	"github.com/diurnalnet/diurnal/internal/geo"
	"github.com/diurnalnet/diurnal/internal/journal"
	"github.com/diurnalnet/diurnal/internal/netsim"
	"github.com/diurnalnet/diurnal/internal/storage"
)

// Frame payload tags.
const (
	frameHeader = 'H'
	frameBlock  = 'B'
)

// checkpointHeader binds a journal to one run's configuration and world.
type checkpointHeader struct {
	Signature []byte
}

// blockMeta is the gob-encoded head of a block frame; the outcome's
// analysis follows it in the BlockAnalysis wire format (see codec.go),
// written directly so the bulk series bytes pass through exactly one
// buffer on their way to the journal.
//
// Observers was added with the quorum guard; gob omits it when zero and
// ignores it when absent, so journals written before the field and runs
// with the guard off round-trip identically (Observers stays 0 =
// "not tracked").
type blockMeta struct {
	Index       int
	ID          netsim.BlockID
	Place       geo.Placement
	HasAnalysis bool
	Observers   int
}

type checkpointKey struct {
	Index int
	ID    netsim.BlockID
}

// Checkpointer journals completed BlockOutcomes so Pipeline.Run can skip
// them after a crash. Open an existing journal to resume: prior entries
// are loaded (tolerating a torn final frame), and new completions append
// behind them. Safe for concurrent Append from pipeline workers.
type Checkpointer struct {
	// Fence, when non-nil, is consulted before every Append: a non-nil
	// return rejects the write and surfaces from Append unchanged. The
	// shard layer installs a lease check here so a worker whose lease was
	// reassigned cannot journal late results (see core.ErrFenced).
	Fence func() error

	mu       sync.Mutex
	f        *journal.File // nil once closed
	path     string
	sig      []byte
	prior    map[checkpointKey]*BlockOutcome
	appended int
}

// JournalEntry is one decoded block frame from a checkpoint journal, in
// append order. Duplicate frames for the same block (possible only when a
// fenced writer raced a reassigned lease) appear as separate entries.
type JournalEntry struct {
	Index   int
	Outcome *BlockOutcome
}

// decodeJournal is the one checkpoint decoder, behind OpenCheckpointFS
// and ReadCheckpoint. It checks every frame's CRC and decodes
// it on GOMAXPROCS goroutines, each frame into its own slot, then reads
// the slots in file order up to the first frame that failed either
// check: that frame starts the torn tail. A checkpoint frame that
// checksums has no other way to be wrong, so nothing fails the decode
// outright. It returns the header's run signature, the block entries in
// append order, and how many leading frames it accepted.
func decodeJournal(frames []journal.Frame) (sig []byte, entries []JournalEntry, accepted int) {
	slots := make([]decodedFrame, len(frames))
	var next atomic.Int64
	var wg sync.WaitGroup
	for lane := min(runtime.GOMAXPROCS(0), len(frames)); lane > 0; lane-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1)) - 1; k < len(frames); k = int(next.Add(1)) - 1 {
				slots[k] = decodeFrame(frames[k])
			}
		}()
	}
	wg.Wait()
	for ; accepted < len(slots) && slots[accepted].ok; accepted++ {
		if d := slots[accepted]; d.entry.Outcome != nil {
			entries = append(entries, d.entry)
		} else {
			sig = d.sig
		}
	}
	return sig, entries, accepted
}

// decodedFrame is one frame as decodeJournal's goroutines leave it:
// a header's signature or a block's entry, and whether the frame both
// checksummed and decoded.
type decodedFrame struct {
	ok    bool
	sig   []byte
	entry JournalEntry
}

// decodeFrame checks and decodes one checkpoint frame.
func decodeFrame(f journal.Frame) (d decodedFrame) {
	if !f.Intact() {
		return d
	}
	var err error
	switch payload := f.Payload; payload[0] {
	case frameHeader:
		var h checkpointHeader
		err = gob.NewDecoder(bytes.NewReader(payload[1:])).Decode(&h)
		d.sig = h.Signature
	case frameBlock:
		d.entry.Index, d.entry.Outcome, err = decodeBlockFrame(payload[1:])
	default:
		return d // no such tag
	}
	d.ok = err == nil
	return d
}

// ReadCheckpoint scans a checkpoint journal without opening it for writing
// or truncating its tail: the shard merge step uses it to stitch journals
// owned by other (possibly still-running) workers. It returns the bound
// run signature, every intact block frame in append order, and how many
// trailing bytes were torn or corrupt. A missing file is zero frames, not
// an error.
func ReadCheckpoint(path string) (sig []byte, entries []JournalEntry, torn int, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil, 0, nil
		}
		return nil, nil, 0, fmt.Errorf("core: reading checkpoint %s: %w", path, err)
	}
	frames := journal.Frames(data)
	sig, entries, n := decodeJournal(frames)
	good := 0
	if n > 0 {
		good = frames[n-1].End
	}
	return sig, entries, len(data) - good, nil
}

// OpenCheckpoint opens (or creates) a checkpoint journal on the real
// filesystem. Existing frames are replayed into memory; an incomplete or
// corrupt tail — the signature of a crash mid-append — is truncated so
// the journal is append-clean.
func OpenCheckpoint(path string) (*Checkpointer, error) {
	return OpenCheckpointFS(path, storage.OS)
}

// OpenCheckpointFS is OpenCheckpoint through an injectable filesystem;
// fault-injection tests script write failures here. It also sweeps temp
// files a killed compaction of an older build left beside the journal.
func OpenCheckpointFS(path string, fsys storage.FS) (*Checkpointer, error) {
	c := &Checkpointer{path: path, prior: map[checkpointKey]*BlockOutcome{}}
	var entries []JournalEntry
	f, err := journal.Open(fsys, path, func(frames []journal.Frame) (accepted int) {
		c.sig, entries, accepted = decodeJournal(frames)
		return accepted
	})
	if err != nil {
		return nil, fmt.Errorf("core: opening checkpoint: %w", err)
	}
	for _, e := range entries {
		c.prior[checkpointKey{Index: e.Index, ID: e.Outcome.ID}] = e.Outcome
	}
	c.f = f
	return c, nil
}

// Entries returns how many block outcomes the journal holds (prior plus
// appended this session).
func (c *Checkpointer) Entries() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.prior) + c.appended
}

// Lookup returns the journaled outcome for a block, if any.
func (c *Checkpointer) Lookup(index int, id netsim.BlockID) (*BlockOutcome, bool) {
	o, ok := c.prior[checkpointKey{Index: index, ID: id}]
	return o, ok
}

// SeedPrior registers an outcome as already finished without writing a
// frame: the pipeline will restore it through Lookup instead of
// re-analyzing the block. A shard worker taking over an expired lease
// seeds its fresh journal with the previous leaseholders' frames, so work
// completed under earlier fencing tokens is never redone (and never
// re-journaled — the merge step reads every token's journal).
func (c *Checkpointer) SeedPrior(index int, o *BlockOutcome) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := checkpointKey{Index: index, ID: o.ID}
	if _, ok := c.prior[key]; !ok {
		c.prior[key] = o
	}
}

// ensureSignature binds the journal to a run signature: a fresh journal
// records it in a header frame; an existing journal must match, so
// resuming with a different config or world fails loudly instead of
// merging foreign results.
func (c *Checkpointer) ensureSignature(sig []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sig != nil {
		if !bytes.Equal(c.sig, sig) {
			return fmt.Errorf("core: checkpoint %s belongs to a different run (config or world changed); delete it to start over", c.path)
		}
		return nil
	}
	frame, err := encodeHeader(sig)
	if err != nil {
		return err
	}
	if err := c.appendLocked(frame); err != nil {
		return err
	}
	c.sig = sig
	return nil
}

// Append journals one completed block outcome. The frame is written with
// a single write() — durable across process death as soon as the call
// returns; Close syncs for durability across power loss. Encoding happens
// outside the journal lock, so concurrent workers serialize only on the
// write itself, not on the encoder.
func (c *Checkpointer) Append(index int, o BlockOutcome) error {
	if c.Fence != nil {
		if err := c.Fence(); err != nil {
			return err
		}
	}
	frame, err := encodeBlockFrame(index, o)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.appendLocked(frame); err != nil {
		return err
	}
	c.appended++
	return nil
}

// appendLocked writes whole frames to the journal. Caller holds c.mu.
func (c *Checkpointer) appendLocked(frame []byte) error {
	if c.f == nil {
		return fmt.Errorf("core: checkpoint %s is closed", c.path)
	}
	if err := c.f.Append(frame); err != nil {
		return fmt.Errorf("core: appending checkpoint frame: %w", err)
	}
	return nil
}

// encodeHeader renders the header frame binding a journal to sig. Its
// gob payload carries its own type descriptors, so the frame decodes on
// its own during the open-time scan.
func encodeHeader(sig []byte) ([]byte, error) {
	var payload bytes.Buffer
	payload.WriteByte(frameHeader)
	if err := gob.NewEncoder(&payload).Encode(checkpointHeader{Signature: sig}); err != nil {
		return nil, fmt.Errorf("core: encoding checkpoint header: %w", err)
	}
	return journal.AppendFrame(nil, payload.Bytes()), nil
}

// encodeBlockFrame renders one journaled outcome as a complete frame. The
// buffer is sized exactly up front, so the analysis bytes are laid down
// once instead of shuttling through nested encoders.
func encodeBlockFrame(index int, o BlockOutcome) ([]byte, error) {
	var meta bytes.Buffer
	err := gob.NewEncoder(&meta).Encode(&blockMeta{
		Index: index, ID: o.ID, Place: o.Place, HasAnalysis: o.Analysis != nil,
		Observers: o.Observers,
	})
	if err != nil {
		return nil, fmt.Errorf("core: encoding checkpoint frame: %w", err)
	}
	var blob []byte
	wireLen := 0
	if o.Analysis != nil {
		if blob, err = o.Analysis.blobBytes(); err != nil {
			return nil, err
		}
		wireLen = 4 + len(blob) + o.Analysis.sectionsSize()
	}
	payloadLen := 1 + 4 + meta.Len() + wireLen
	frame := make([]byte, 0, journal.Overhead+payloadLen)
	frame = binary.LittleEndian.AppendUint32(frame, uint32(payloadLen))
	frame = append(frame, frameBlock)
	frame = binary.LittleEndian.AppendUint32(frame, uint32(meta.Len()))
	frame = append(frame, meta.Bytes()...)
	if o.Analysis != nil {
		frame = binary.LittleEndian.AppendUint32(frame, uint32(len(blob)))
		frame = append(frame, blob...)
		frame = o.Analysis.appendSections(frame)
	}
	return journal.Seal(frame, payloadLen), nil
}

// decodeBlockFrame is the inverse of encodeBlockFrame, minus the tag byte
// and CRC already handled by the frame scan.
func decodeBlockFrame(data []byte) (int, *BlockOutcome, error) {
	if len(data) < 4 {
		return 0, nil, fmt.Errorf("core: block frame too short")
	}
	metaLen := int(binary.LittleEndian.Uint32(data))
	if 4+metaLen > len(data) {
		return 0, nil, fmt.Errorf("core: block frame meta of %d bytes truncated", metaLen)
	}
	var m blockMeta
	if err := gob.NewDecoder(bytes.NewReader(data[4 : 4+metaLen])).Decode(&m); err != nil {
		return 0, nil, fmt.Errorf("core: decoding checkpoint frame: %w", err)
	}
	o := &BlockOutcome{ID: m.ID, Place: m.Place, Observers: m.Observers}
	rest := data[4+metaLen:]
	if m.HasAnalysis {
		a := &BlockAnalysis{}
		if err := a.GobDecode(rest); err != nil {
			return 0, nil, err
		}
		o.Analysis = a
	} else if len(rest) != 0 {
		return 0, nil, fmt.Errorf("core: %d trailing bytes after block frame", len(rest))
	}
	return m.Index, o, nil
}

// Close syncs and closes the journal.
func (c *Checkpointer) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return nil
	}
	err := c.f.Close(true)
	c.f = nil
	return err
}

// RunSignature digests the analysis config and world identity; it decides
// whether a checkpoint journal may be resumed. The shard ledger reuses it
// to bind a whole ledger to one (config, world) pair and each per-shard
// journal to its block-range slice of the world.
func RunSignature(cfg Config, world []*dataset.WorldBlock) []byte {
	// The defaults-applied config is signed, so a config and the same one
	// spelled out sign alike; an invalid one signs too, and no run accepts
	// it. Config is plain data (no funcs), so gob gives a stable digest.
	r, _ := cfg.Resolve()
	h := sha256.New()
	enc := gob.NewEncoder(h)
	_ = enc.Encode(r.c)
	ids := make([]netsim.BlockID, len(world))
	for i, wb := range world {
		ids[i] = wb.ID
	}
	_ = enc.Encode(ids)
	return h.Sum(nil)
}

// Gob numbers the types a process encodes in the order it first meets
// them and writes those numbers into its stream, so RunSignature's digest
// would depend on whatever the process gob-encoded before its first
// call. Signing once at init, before any other gob use, gives Config and
// the block-ID list the same numbers in every process.
func init() { RunSignature(Config{}, nil) }

// Fingerprint digests everything the run computed per block (outcomes in
// world order, block errors, analyzed count) into a hex string. Two runs
// of the same world and config — interrupted-and-resumed or not — must
// produce equal fingerprints; the kill-and-resume experiment asserts
// exactly that.
//
// The outcomes are hashed as a count followed by one gob message per
// block, not as one message holding the slice: gob buffers a whole message
// before it writes a byte, so a single message held every block's series
// in memory at once (and grew there by doubling), while per-block messages
// reuse one block-sized buffer. A fingerprint is only ever compared with
// another computed by the same build — inside one process, or between
// processes of one binary; nothing stores one — so its value may change
// between versions of this function, and did when the framing changed.
func (r *WorldResult) Fingerprint() (string, error) {
	h := sha256.New()
	enc := gob.NewEncoder(h)
	if err := enc.Encode(len(r.Blocks)); err != nil {
		return "", fmt.Errorf("core: fingerprinting blocks: %w", err)
	}
	for i := range r.Blocks {
		if err := enc.Encode(&r.Blocks[i]); err != nil {
			return "", fmt.Errorf("core: fingerprinting block %d: %w", i, err)
		}
	}
	errs := make([]string, 0, len(r.Report.BlockErrors))
	for _, e := range r.Report.BlockErrors {
		errs = append(errs, e.Error())
	}
	if err := enc.Encode(errs); err != nil {
		return "", err
	}
	if err := enc.Encode(r.Report.AnalyzedBlocks); err != nil {
		return "", err
	}
	// Dead-lettered blocks are part of the run's identity too: a sharded
	// run must quarantine exactly the blocks a single-process run would.
	dls := make([]string, 0, len(r.Report.DeadLettered))
	for _, e := range r.Report.DeadLettered {
		dls = append(dls, e.Error())
	}
	if err := enc.Encode(dls); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
