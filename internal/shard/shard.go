// Package shard lets several worker processes share one world run safely.
//
// The paper's pipeline covers ~5.2M /24 blocks per quarter — far beyond
// what a single process should own. This package partitions a world into
// contiguous block-range shards recorded in a durable, file-based ledger;
// workers claim shards under time-bounded leases with monotonic fencing
// tokens, journal per-shard progress through core's checkpoint machinery,
// and quarantine poison blocks into a dead-letter store instead of
// stalling on them. A final merge step stitches every shard's journals
// into one WorldResult and runs a cross-shard integrity audit before the
// run may be declared complete.
//
// The ledger is a directory:
//
//	manifest.json            run signature, world size, shard ranges
//	shard-0003.t000002.lease lease for shard 3 under fencing token 2
//	shard-0003.t000002.ckpt  that leaseholder's checkpoint journal
//	shard-0003.done          completion marker (atomic, written last)
//	deadletter/              quarantined poison blocks (one file each)
//
// Fencing: a shard's lease carries a token that only ever increases. A
// claim is the atomic creation (via link(2)) of the next token's lease
// file; renewal rewrites the holder's own file in place. A worker whose
// lease expired and was reclaimed is *fenced* — its next journal append
// or renewal fails with core.ErrFenced, because a lease file with a
// higher token now exists. Each token writes its own journal, so even a
// write that races the fence check lands in the fenced token's file,
// where the merge step's token-precedence rules reject it; late writes
// are rejected, never duplicated into the merged result. Once a shard is
// done its done marker fences every other token, so the merge drops its
// leases; journals and done markers stay.
package shard

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/diurnalnet/diurnal/internal/health"
	"github.com/diurnalnet/diurnal/internal/storage"
)

const manifestName = "manifest.json"

// Range is one shard's half-open slice [Start, End) of the world's block
// indices.
type Range struct {
	Index int `json:"index"`
	Start int `json:"start"`
	End   int `json:"end"`
}

// Manifest binds a ledger to one run: the (config, world) signature, the
// world size, and the shard partition. It is written once, atomically,
// when the ledger is created.
type Manifest struct {
	Signature string  `json:"signature"`
	Blocks    int     `json:"blocks"`
	Shards    []Range `json:"shards"`
}

// Options tunes a ledger's lease machinery. Zero values take defaults.
type Options struct {
	// TTL is the lease duration (default 30s). A worker renews at TTL/3;
	// a lease not renewed within TTL is expired and claimable.
	TTL time.Duration
	// Poll is how often a worker with nothing claimable rescans the
	// ledger (default TTL/4).
	Poll time.Duration
	// Clock injects time for lease expiry and polling (default wall
	// clock).
	Clock health.Clock
}

// Ledger is an open shard ledger. All methods are safe for concurrent use
// from multiple goroutines and multiple processes sharing the directory.
type Ledger struct {
	dir   string
	man   Manifest
	ttl   time.Duration
	poll  time.Duration
	clock health.Clock
	dead  *DeadLetterStore
}

// partition splits blocks into n contiguous ranges whose sizes differ by
// at most one.
func partition(blocks, n int) []Range {
	out := make([]Range, 0, n)
	base, rem, start := blocks/n, blocks%n, 0
	for i := 0; i < n; i++ {
		size := base
		if i < rem {
			size++
		}
		out = append(out, Range{Index: i, Start: start, End: start + size})
		start += size
	}
	return out
}

// Create creates the ledger at dir for a run with the given signature
// (core.RunSignature of the config and world), world size, and shard
// count — or opens it, if a compatible ledger already exists. Two workers
// racing to create the same ledger converge: the manifest is a pure
// function of (sig, blocks, shards), so whichever rename lands last wrote
// identical bytes.
func Create(dir string, sig []byte, blocks, shards int, opt Options) (*Ledger, error) {
	if blocks <= 0 {
		return nil, fmt.Errorf("shard: world of %d blocks", blocks)
	}
	if shards <= 0 || shards > blocks {
		return nil, fmt.Errorf("shard: %d shards for %d blocks (need 1..%d)", shards, blocks, blocks)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("shard: creating ledger dir: %w", err)
	}
	l, err := Open(dir, sig, opt)
	if err == nil {
		if got := len(l.man.Shards); got != shards {
			return nil, fmt.Errorf("shard: ledger %s has %d shards, not %d; delete it to repartition", dir, got, shards)
		}
		return l, nil
	}
	if !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	man := Manifest{Signature: hex.EncodeToString(sig), Blocks: blocks, Shards: partition(blocks, shards)}
	data, err := json.MarshalIndent(&man, "", "  ")
	if err != nil {
		return nil, err
	}
	err = storage.WriteFileAtomic(storage.OS, filepath.Join(dir, manifestName), func(f storage.File) error {
		_, err := f.Write(data)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("shard: writing manifest: %w", err)
	}
	return Open(dir, sig, opt)
}

// Open opens an existing ledger and verifies it belongs to this run. A
// missing manifest surfaces as fs.ErrNotExist.
func Open(dir string, sig []byte, opt Options) (*Ledger, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("shard: %s is not a ledger: %w", dir, fs.ErrNotExist)
		}
		return nil, fmt.Errorf("shard: reading manifest: %w", err)
	}
	var man Manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, fmt.Errorf("shard: corrupt manifest: %w", err)
	}
	if want := hex.EncodeToString(sig); man.Signature != want {
		return nil, fmt.Errorf("shard: ledger %s belongs to a different run (config or world changed); delete it to start over", dir)
	}
	ttl := opt.TTL
	if ttl <= 0 {
		ttl = 30 * time.Second
	}
	poll := opt.Poll
	if poll <= 0 {
		poll = ttl / 4
	}
	clock := opt.Clock
	if clock == nil {
		clock = health.System
	}
	dead, err := OpenDeadLetters(filepath.Join(dir, "deadletter"))
	if err != nil {
		return nil, err
	}
	return &Ledger{dir: dir, man: man, ttl: ttl, poll: poll, clock: clock, dead: dead}, nil
}

// DeadLetters returns the ledger's quarantine store.
func (l *Ledger) DeadLetters() *DeadLetterStore { return l.dead }

// leasePath and journalPath name a shard's per-token files; donePath names
// its completion marker.
func (l *Ledger) leasePath(shard int, token uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("shard-%04d.t%06d.lease", shard, token))
}

func (l *Ledger) journalPath(shard int, token uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("shard-%04d.t%06d.ckpt", shard, token))
}

func (l *Ledger) donePath(shard int) string {
	return filepath.Join(l.dir, fmt.Sprintf("shard-%04d.done", shard))
}

// tokenFile is one per-token artifact (lease or journal) found on disk.
type tokenFile struct {
	Token uint64
	Path  string
}

// tokenFiles lists a shard's files with the given extension ("lease" or
// "ckpt"), ascending by token.
func (l *Ledger) tokenFiles(shard int, ext string) ([]tokenFile, error) {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return nil, fmt.Errorf("shard: listing ledger: %w", err)
	}
	var out []tokenFile
	for _, e := range entries {
		name := e.Name()
		var s int
		var tok uint64
		if _, err := fmt.Sscanf(name, "shard-%d.t%d."+ext, &s, &tok); err != nil || s != shard {
			continue
		}
		if name != fmt.Sprintf("shard-%04d.t%06d.%s", s, tok, ext) {
			continue // a stray file that merely parses
		}
		out = append(out, tokenFile{Token: tok, Path: filepath.Join(l.dir, name)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Token < out[j].Token })
	return out, nil
}

// dropLeases removes every lease file of a done shard. Acquire never
// claims a done shard and Check fences every claim but the one that
// finished it, so those leases are dead. Best effort: a lease left behind
// is litter, not state.
func (l *Ledger) dropLeases(shard int) {
	leases, err := l.tokenFiles(shard, "lease")
	if err != nil {
		return
	}
	for _, lf := range leases {
		os.Remove(lf.Path)
	}
}

// sweepTemps removes the ".claim*" and "*.tmp*" temporaries a killed
// process left in the ledger directory: those whose own mtime, a
// wall-clock stamp, is older than the lease TTL. A younger one may be a
// peer's claim or write still in flight. Best effort, like dropLeases.
func (l *Ledger) sweepTemps() {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		claim, _ := filepath.Match(".claim*", e.Name())
		tmp, _ := filepath.Match("*.tmp*", e.Name())
		if !e.Type().IsRegular() || !claim && !tmp {
			continue
		}
		if info, err := e.Info(); err == nil && time.Since(info.ModTime()) > l.ttl {
			os.Remove(filepath.Join(l.dir, e.Name()))
		}
	}
}

// DoneMarker records a shard's completion: who finished it, under which
// fencing token, and what the run produced.
type DoneMarker struct {
	Shard        int    `json:"shard"`
	Token        uint64 `json:"token"`
	Worker       string `json:"worker"`
	Analyzed     int    `json:"analyzed"`
	Resumed      int    `json:"resumed"`
	DeadLettered int    `json:"dead_lettered"`
}

// done returns the shard's completion marker, if one is readable.
func (l *Ledger) done(shard int) (*DoneMarker, bool) {
	data, err := os.ReadFile(l.donePath(shard))
	if err != nil {
		return nil, false
	}
	var m DoneMarker
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, false
	}
	return &m, true
}
