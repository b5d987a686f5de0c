package shard

// Lease acquisition and fencing. A claim is the atomic creation of
// shard-NNNN.tTTTTTT.lease for the next unused token: the lease body is
// written to a temp file and link(2)ed to its final name, so creation is
// both exclusive (EEXIST if another worker won the race) and complete
// (readers never see a partial JSON body). Renewal replaces the holder's
// own file via rename, which cannot race a claim because claims only ever
// create *new* token names.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"github.com/diurnalnet/diurnal/internal/core"
	"github.com/diurnalnet/diurnal/internal/storage"
)

// leaseRecord is the JSON body of a lease file.
type leaseRecord struct {
	Shard   int    `json:"shard"`
	Token   uint64 `json:"token"`
	Worker  string `json:"worker"`
	Expires int64  `json:"expires_unix_nano"`
}

// Claim is a held lease on one shard under one fencing token.
type Claim struct {
	Shard  Range
	Token  uint64
	Worker string

	ledger *Ledger
	path   string
}

// JournalPath is the checkpoint journal this claim must write to. The
// token is baked into the name, so a fenced worker's late appends land in
// its own (superseded) journal, never in the new holder's.
func (c *Claim) JournalPath() string {
	return c.ledger.journalPath(c.Shard.Index, c.Token)
}

// ErrAllDone is returned by Acquire when every shard has a completion
// marker: there is nothing left to claim, ever.
var ErrAllDone = errors.New("shard: all shards complete")

// Acquire blocks until it claims some shard whose lease is absent or
// expired, returning ErrAllDone once every shard is done or ctx's error
// if cancelled first. Shards are scanned in index order, so concurrent
// workers spread out naturally: each claim bumps the loser to the next
// unclaimed shard.
func (l *Ledger) Acquire(ctx context.Context, worker string) (*Claim, error) {
	for {
		allDone := true
		for _, r := range l.man.Shards {
			if _, ok := l.done(r.Index); ok {
				continue
			}
			allDone = false
			c, err := l.tryClaim(r, worker)
			if err == nil && c != nil {
				return c, nil
			}
			if err != nil {
				return nil, err
			}
		}
		if allDone {
			return nil, ErrAllDone
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-l.clock.After(l.poll):
		}
	}
}

// tryClaim attempts one claim on r. It returns (nil, nil) when the shard
// is currently held or another worker won the race — both mean "move on".
func (l *Ledger) tryClaim(r Range, worker string) (*Claim, error) {
	leases, err := l.tokenFiles(r.Index, "lease")
	if err != nil {
		return nil, err
	}
	var top uint64
	if n := len(leases); n > 0 {
		top = leases[n-1].Token
		rec, err := readLease(leases[n-1].Path)
		// An unreadable top lease means a renewal rename is in flight;
		// treat it as held and retry on the next poll.
		if err != nil {
			return nil, nil
		}
		if rec.Expires > l.clock.Now().UnixNano() {
			return nil, nil
		}
	}
	token := top + 1
	rec := leaseRecord{
		Shard:   r.Index,
		Token:   token,
		Worker:  worker,
		Expires: l.clock.Now().Add(l.ttl).UnixNano(),
	}
	path := l.leasePath(r.Index, token)
	switch err := createExclusive(path, &rec); {
	case err == nil:
		return &Claim{Shard: r, Token: token, Worker: worker, ledger: l, path: path}, nil
	case errors.Is(err, fs.ErrExist):
		return nil, nil // lost the race for this token
	default:
		return nil, fmt.Errorf("shard: claiming shard %d: %w", r.Index, err)
	}
}

// Check reports whether this claim has been fenced: a lease file with a
// higher token exists, meaning the ledger considers this claim dead and
// has reassigned the shard, or the shard is done under another token
// (whose merge may have dropped the leases). Wire it as the journal's
// Fence hook.
func (c *Claim) Check() error {
	leases, err := c.ledger.tokenFiles(c.Shard.Index, "lease")
	if err != nil {
		return err
	}
	for _, lf := range leases {
		if lf.Token > c.Token {
			return fmt.Errorf("shard %d token %d superseded by token %d: %w",
				c.Shard.Index, c.Token, lf.Token, core.ErrFenced)
		}
	}
	if m, ok := c.ledger.done(c.Shard.Index); ok && m.Token != c.Token {
		return fmt.Errorf("shard %d token %d: shard done under token %d: %w",
			c.Shard.Index, c.Token, m.Token, core.ErrFenced)
	}
	return nil
}

// Renew extends the lease by the ledger's TTL, failing with core.ErrFenced
// if the claim has been superseded. The holder rewrites its own lease file
// atomically; no other process writes that name.
func (c *Claim) Renew() error {
	if err := c.Check(); err != nil {
		return err
	}
	rec := leaseRecord{
		Shard:   c.Shard.Index,
		Token:   c.Token,
		Worker:  c.Worker,
		Expires: c.ledger.clock.Now().Add(c.ledger.ttl).UnixNano(),
	}
	data, err := json.Marshal(&rec)
	if err != nil {
		return err
	}
	err = storage.WriteFileAtomic(storage.OS, c.path, func(f storage.File) error {
		_, err := f.Write(data)
		return err
	})
	if err != nil {
		return fmt.Errorf("shard: renewing shard %d token %d: %w", c.Shard.Index, c.Token, err)
	}
	return nil
}

// Done marks the shard complete. The marker is written atomically and is
// the merge step's signal that the shard's journals cover its full range.
func (c *Claim) Done(m DoneMarker) error {
	m.Shard = c.Shard.Index
	m.Token = c.Token
	m.Worker = c.Worker
	data, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return err
	}
	err = storage.WriteFileAtomic(storage.OS, c.ledger.donePath(c.Shard.Index), func(f storage.File) error {
		_, err := f.Write(data)
		return err
	})
	if err != nil {
		return fmt.Errorf("shard: marking shard %d done: %w", c.Shard.Index, err)
	}
	return nil
}

func readLease(path string) (*leaseRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec leaseRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, err
	}
	return &rec, nil
}

// createExclusive writes rec to path such that the file appears atomically
// with its full body, and fails with fs.ErrExist if path already exists:
// the body goes to a temp file first, then link(2) publishes it under the
// final name (hard links fail on existing targets, unlike rename).
func createExclusive(path string, rec *leaseRecord) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".claim*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Link(tmp.Name(), path); err != nil {
		return err
	}
	// The new directory entry lives in the parent's blocks; without this
	// fsync a crash could forget a lease another worker already observed.
	return storage.OS.SyncDir(filepath.Dir(path))
}
