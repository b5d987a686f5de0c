package shard

// Dead-letter quarantine. A block that exhausts the pipeline's retry
// budget — a deterministic panic, a per-block timeout, a corrupt store
// record — would otherwise fail every takeover attempt and pin its shard
// forever. Instead it is quarantined here with its fault context, the
// pipeline records it in RunReport.DeadLettered, and the run proceeds.
//
// The store follows the dataset package's durability discipline: one file
// per entry, JSON payload wrapped with a CRC32C trailer, written to a
// temp file and renamed into place. The filename is a pure function of
// (global block index, block ID), so concurrent workers that both give up
// on the same block converge on one manifest entry: the first complete
// write wins and later Record calls become no-ops. That is the
// exactly-once property the merge audit checks.

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"github.com/diurnalnet/diurnal/internal/core"
	"github.com/diurnalnet/diurnal/internal/dataset"
	"github.com/diurnalnet/diurnal/internal/journal"
	"github.com/diurnalnet/diurnal/internal/netsim"
	"github.com/diurnalnet/diurnal/internal/storage"
)

// DeadLetterEntry is one quarantined block.
type DeadLetterEntry struct {
	// Index is the block's global index in the world.
	Index int `json:"index"`
	// ID is the block's /24 identity.
	ID netsim.BlockID `json:"id"`
	// CIDR is ID rendered for humans; ignored on read.
	CIDR string `json:"cidr"`
	// Reason is the final error's message, verbatim. It must be
	// deterministic across processes: the merged result's fingerprint
	// incorporates it.
	Reason string `json:"reason"`
	// Kind classifies the fault: "panic", "timeout", "corrupt",
	// "transient", or "other".
	Kind string `json:"kind"`
	// Worker and Token record who quarantined the block, when known.
	Worker string `json:"worker,omitempty"`
	Token  uint64 `json:"token,omitempty"`
}

// deadLetterFile is the on-disk envelope: payload plus CRC32C (Castagnoli,
// matching the dataset store) over the payload's JSON bytes.
type deadLetterFile struct {
	Payload json.RawMessage `json:"payload"`
	CRC32C  uint32          `json:"crc32c"`
}

// DeadLetterStore is a directory of quarantined blocks. It implements
// core.DeadLetterer directly (global indices); Scoped derives a view for
// one shard's local indices. Safe for concurrent use; cross-process
// safety comes from atomic first-write-wins file creation.
type DeadLetterStore struct {
	dir string

	mu    sync.Mutex
	cache map[string]string // filename -> reason, for Lookup fast path
}

// OpenDeadLetters opens (creating if needed) a quarantine directory.
func OpenDeadLetters(dir string) (*DeadLetterStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("shard: creating dead-letter dir: %w", err)
	}
	return &DeadLetterStore{dir: dir, cache: make(map[string]string)}, nil
}

// Dir returns the quarantine directory.
func (s *DeadLetterStore) Dir() string { return s.dir }

func dlName(index int, id netsim.BlockID) string {
	return fmt.Sprintf("dl-%06d-%06x.json", index, uint32(id))
}

// Lookup reports whether the block at the given global index is
// quarantined, and if so with what reason. Implements core.DeadLetterer.
func (s *DeadLetterStore) Lookup(index int, id netsim.BlockID) (string, bool) {
	name := dlName(index, id)
	s.mu.Lock()
	if reason, ok := s.cache[name]; ok {
		s.mu.Unlock()
		return reason, true
	}
	s.mu.Unlock()
	e, err := readDeadLetter(filepath.Join(s.dir, name))
	if err != nil {
		return "", false // absent or corrupt; Record may heal the latter
	}
	s.mu.Lock()
	s.cache[name] = e.Reason
	s.mu.Unlock()
	return e.Reason, true
}

// Record quarantines the block at the given global index. Implements
// core.DeadLetterer. An existing valid entry wins; Record then keeps it
// untouched and succeeds, so repeated give-ups across workers stay
// exactly-once in the manifest.
func (s *DeadLetterStore) Record(index int, id netsim.BlockID, cause error) error {
	return s.record(index, id, cause, "", 0)
}

func (s *DeadLetterStore) record(index int, id netsim.BlockID, cause error, worker string, token uint64) error {
	if cause == nil {
		return errors.New("shard: dead-lettering with nil cause")
	}
	name := dlName(index, id)
	path := filepath.Join(s.dir, name)
	if _, err := readDeadLetter(path); err == nil {
		return nil // first write won; this one is a duplicate give-up
	}
	e := DeadLetterEntry{
		Index:  index,
		ID:     id,
		CIDR:   id.String(),
		Reason: cause.Error(),
		Kind:   classify(cause),
		Worker: worker,
		Token:  token,
	}
	payload, err := json.Marshal(&e)
	if err != nil {
		return err
	}
	// Plain Marshal: the envelope must embed the payload bytes verbatim
	// (indentation would rewrite them and break the checksum).
	envelope, err := json.Marshal(&deadLetterFile{
		Payload: payload,
		CRC32C:  crc32.Checksum(payload, journal.Table),
	})
	if err != nil {
		return err
	}
	err = storage.WriteFileAtomic(storage.OS, path, func(f storage.File) error {
		_, err := f.Write(envelope)
		return err
	})
	if err != nil {
		return fmt.Errorf("shard: dead-lettering block %s: %w", id, err)
	}
	s.mu.Lock()
	s.cache[name] = e.Reason
	s.mu.Unlock()
	return nil
}

// classify buckets a fault for the manifest. Best effort: the reason
// string always carries the full error.
func classify(err error) string {
	var p *core.PanicError
	switch {
	case errors.As(err, &p):
		return "panic"
	case strings.Contains(err.Error(), "deadline exceeded"):
		return "timeout"
	case errors.Is(err, dataset.ErrCorruptLog):
		return "corrupt"
	case core.IsTransient(err):
		return "transient"
	default:
		return "other"
	}
}

// Entries reads the full quarantine manifest, sorted by global index.
// Unreadable or checksum-failing files do not hide the rest: they are
// returned as faults alongside every valid entry, for the merge audit.
func (s *DeadLetterStore) Entries() (entries []DeadLetterEntry, faults []error) {
	dirents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, []error{fmt.Errorf("shard: listing dead letters: %w", err)}
	}
	for _, de := range dirents {
		name := de.Name()
		if !strings.HasPrefix(name, "dl-") || !strings.HasSuffix(name, ".json") {
			continue
		}
		e, err := readDeadLetter(filepath.Join(s.dir, name))
		if err != nil {
			faults = append(faults, fmt.Errorf("dead letter %s: %w", name, err))
			continue
		}
		if name != dlName(e.Index, e.ID) {
			faults = append(faults, fmt.Errorf("dead letter %s: payload names block %d/%s", name, e.Index, e.ID))
			continue
		}
		entries = append(entries, *e)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Index < entries[j].Index })
	return entries, faults
}

func readDeadLetter(path string) (*DeadLetterEntry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var env deadLetterFile
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("decoding envelope: %w", err)
	}
	if got := crc32.Checksum(env.Payload, journal.Table); got != env.CRC32C {
		return nil, fmt.Errorf("checksum mismatch: payload %08x, trailer %08x", got, env.CRC32C)
	}
	var e DeadLetterEntry
	if err := json.Unmarshal(env.Payload, &e); err != nil {
		return nil, fmt.Errorf("decoding payload: %w", err)
	}
	return &e, nil
}

// Scoped returns a core.DeadLetterer view of the store for one shard:
// local pipeline indices are offset by the shard's start, and entries are
// stamped with the recording worker and fencing token.
func (s *DeadLetterStore) Scoped(base int, worker string, token uint64) core.DeadLetterer {
	return &scopedDeadLetters{store: s, base: base, worker: worker, token: token}
}

type scopedDeadLetters struct {
	store  *DeadLetterStore
	base   int
	worker string
	token  uint64
}

func (s *scopedDeadLetters) Lookup(index int, id netsim.BlockID) (string, bool) {
	return s.store.Lookup(s.base+index, id)
}

func (s *scopedDeadLetters) Record(index int, id netsim.BlockID, cause error) error {
	return s.store.record(s.base+index, id, cause, s.worker, s.token)
}
