package shard

// Merge stitches a sharded run back into one WorldResult and audits it.
// The audit is the run's integrity gate: it proves the shard ranges tile
// the world, that every block index is covered exactly once (by a journal
// frame or a dead-letter entry, never both), that no fenced writer's late
// frame disagrees with the accepted outcome, and that every file read
// passed its CRC. A run whose audit is not Clean must not be trusted —
// diurnalscan merge exits 4 on it.

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"
	"strings"

	"github.com/diurnalnet/diurnal/internal/core"
	"github.com/diurnalnet/diurnal/internal/dataset"
)

// Audit is the cross-shard integrity report produced by Merge.
type Audit struct {
	// Shards and DoneShards count the partition and its completion
	// markers; IncompleteShards lists shards without one.
	Shards           int
	DoneShards       int
	IncompleteShards []int
	// Journals is how many per-token journals were read; Frames how many
	// intact block frames they held; Accepted how many outcomes survived
	// token-precedence dedup into the result.
	Journals int
	Frames   int
	Accepted int
	// DuplicateFrames counts frames rejected because an identical outcome
	// for the block was already accepted — the harmless shadow of a fenced
	// or crashed writer. Conflicts lists frames that *disagreed* with the
	// accepted outcome, which must never happen (analysis is
	// deterministic): each is an audit failure.
	DuplicateFrames int
	Conflicts       []string
	// ForeignJournals counts journals in the ledger whose run signature
	// does not match their shard's slice — an audit failure.
	ForeignJournals int
	// TornJournals counts journals with torn or corrupt tails. Torn tails
	// are expected debris from kill -9 and are not failures by themselves;
	// the lost frames simply had to be re-analyzed under a later token.
	TornJournals int
	// DeadLetters counts valid quarantine entries folded into the result;
	// DeadLetterFaults lists unreadable or checksum-failing entries, and
	// DeadLetterConflicts blocks that are both analyzed and quarantined —
	// both audit failures.
	DeadLetters         int
	DeadLetterFaults    []string
	DeadLetterConflicts []string
	// Gaps lists global block indices covered by neither a journal frame
	// nor a dead-letter entry. Non-empty means the run is not finished (or
	// lost data) — an audit failure.
	Gaps []int
	// PartitionFaults lists defects in the manifest's shard ranges
	// themselves (overlap, gap, out of bounds).
	PartitionFaults []string
}

// Clean reports whether the merged result can be trusted as equivalent to
// a single-process run. Incomplete shards and torn tails do not by
// themselves fail the audit — coverage is what matters, and Gaps catches
// real losses.
func (a *Audit) Clean() bool {
	return len(a.Conflicts) == 0 &&
		a.ForeignJournals == 0 &&
		len(a.DeadLetterFaults) == 0 &&
		len(a.DeadLetterConflicts) == 0 &&
		len(a.Gaps) == 0 &&
		len(a.PartitionFaults) == 0
}

// String renders the audit as a short human-readable summary.
func (a *Audit) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "shards %d (%d done), journals %d, frames %d (%d accepted, %d duplicate), dead letters %d",
		a.Shards, a.DoneShards, a.Journals, a.Frames, a.Accepted, a.DuplicateFrames, a.DeadLetters)
	if a.TornJournals > 0 {
		fmt.Fprintf(&b, ", %d torn journal(s)", a.TornJournals)
	}
	if a.Clean() {
		b.WriteString(" — audit clean")
		return b.String()
	}
	b.WriteString(" — AUDIT FAILED:")
	for _, c := range a.Conflicts {
		fmt.Fprintf(&b, "\n  conflict: %s", c)
	}
	if a.ForeignJournals > 0 {
		fmt.Fprintf(&b, "\n  %d foreign journal(s)", a.ForeignJournals)
	}
	for _, f := range a.DeadLetterFaults {
		fmt.Fprintf(&b, "\n  %s", f)
	}
	for _, c := range a.DeadLetterConflicts {
		fmt.Fprintf(&b, "\n  %s", c)
	}
	if len(a.Gaps) > 0 {
		fmt.Fprintf(&b, "\n  %d uncovered block(s), first at index %d", len(a.Gaps), a.Gaps[0])
	}
	for _, f := range a.PartitionFaults {
		fmt.Fprintf(&b, "\n  %s", f)
	}
	return b.String()
}

// Merge reads every shard's journals and the dead-letter manifest and
// assembles the world result a single-process run would have produced,
// plus the integrity audit. The returned error covers only mechanical
// failures (unreadable ledger); data problems land in the audit instead,
// so a failed audit still returns the best-effort result for inspection.
func (l *Ledger) Merge(cfg core.Config, world []*dataset.WorldBlock) (*core.WorldResult, *Audit, error) {
	audit := &Audit{Shards: len(l.man.Shards)}
	if len(world) != l.man.Blocks {
		return nil, nil, fmt.Errorf("shard: world has %d blocks, ledger expects %d", len(world), l.man.Blocks)
	}
	l.auditPartition(audit)
	res := &core.WorldResult{
		Blocks: make([]core.BlockOutcome, len(world)),
		Report: &core.RunReport{},
	}
	accepted := make([]bool, len(world))
	for _, r := range l.man.Shards {
		if _, ok := l.done(r.Index); ok {
			audit.DoneShards++
		} else {
			audit.IncompleteShards = append(audit.IncompleteShards, r.Index)
		}
		sub := world[r.Start:r.End]
		wantSig := core.RunSignature(cfg, sub)
		journals, err := l.tokenFiles(r.Index, "ckpt")
		if err != nil {
			return nil, nil, err
		}
		// Ascending token order: an earlier (possibly fenced) token's frames
		// are accepted first, and later tokens' re-frames of the same block
		// — only possible if a fenced append raced the takeover's seed scan
		// — must be byte-identical to count as duplicates.
		for _, jf := range journals {
			sig, entries, torn, err := core.ReadCheckpoint(jf.Path)
			if err != nil {
				audit.Conflicts = append(audit.Conflicts, fmt.Sprintf("journal %s unreadable: %v", jf.Path, err))
				continue
			}
			audit.Journals++
			if torn > 0 {
				audit.TornJournals++
			}
			if len(entries) > 0 && !bytes.Equal(sig, wantSig) {
				audit.ForeignJournals++
				continue
			}
			for _, e := range entries {
				audit.Frames++
				if e.Index < 0 || e.Index >= r.End-r.Start {
					audit.Conflicts = append(audit.Conflicts,
						fmt.Sprintf("shard %d token %d: frame index %d outside range [0,%d)", r.Index, jf.Token, e.Index, r.End-r.Start))
					continue
				}
				g := r.Start + e.Index
				if world[g].ID != e.Outcome.ID {
					audit.Conflicts = append(audit.Conflicts,
						fmt.Sprintf("shard %d token %d: frame for block %d carries ID %s, world has %s", r.Index, jf.Token, g, e.Outcome.ID, world[g].ID))
					continue
				}
				if accepted[g] {
					if outcomesEqual(&res.Blocks[g], e.Outcome) {
						audit.DuplicateFrames++
					} else {
						audit.Conflicts = append(audit.Conflicts,
							fmt.Sprintf("shard %d token %d: block %d (%s) re-journaled with a different outcome", r.Index, jf.Token, g, e.Outcome.ID))
					}
					continue
				}
				res.Blocks[g] = *e.Outcome
				accepted[g] = true
				audit.Accepted++
			}
		}
	}
	// Fold in the quarantine manifest: dead-lettered blocks occupy their
	// world slot with no analysis and are reported exactly as a
	// single-process run reports them, so fingerprints line up.
	dlCovered := make([]bool, len(world))
	entries, faults := l.dead.Entries()
	for _, f := range faults {
		audit.DeadLetterFaults = append(audit.DeadLetterFaults, f.Error())
	}
	for _, e := range entries {
		if e.Index < 0 || e.Index >= len(world) {
			audit.DeadLetterFaults = append(audit.DeadLetterFaults,
				fmt.Sprintf("dead letter for block %d: index outside world of %d", e.Index, len(world)))
			continue
		}
		if world[e.Index].ID != e.ID {
			audit.DeadLetterFaults = append(audit.DeadLetterFaults,
				fmt.Sprintf("dead letter for block %d carries ID %s, world has %s", e.Index, e.ID, world[e.Index].ID))
			continue
		}
		if accepted[e.Index] {
			audit.DeadLetterConflicts = append(audit.DeadLetterConflicts,
				fmt.Sprintf("block %d (%s) is both analyzed and dead-lettered (%s)", e.Index, e.ID, e.Kind))
			continue
		}
		if dlCovered[e.Index] {
			// dlName makes this impossible for one (index, id); Entries
			// already rejects files whose name disagrees with their payload.
			audit.DeadLetterConflicts = append(audit.DeadLetterConflicts,
				fmt.Sprintf("block %d (%s) dead-lettered twice", e.Index, e.ID))
			continue
		}
		dlCovered[e.Index] = true
		audit.DeadLetters++
		res.Blocks[e.Index] = core.BlockOutcome{ID: e.ID, Place: world[e.Index].Place}
		res.Report.DeadLettered = append(res.Report.DeadLettered,
			core.BlockError{Index: e.Index, ID: e.ID, Err: fmt.Errorf("%s", e.Reason)})
	}
	for g := range world {
		if !accepted[g] && !dlCovered[g] {
			audit.Gaps = append(audit.Gaps, g)
		}
	}
	sort.Slice(res.Report.DeadLettered, func(i, j int) bool {
		return res.Report.DeadLettered[i].Index < res.Report.DeadLettered[j].Index
	})
	res.Reaggregate()
	return res, audit, nil
}

// auditPartition checks that the manifest's shard ranges tile [0, Blocks)
// exactly: ascending, contiguous, no overlap, full coverage.
func (l *Ledger) auditPartition(a *Audit) {
	next := 0
	for _, r := range l.man.Shards {
		if r.Start != next || r.End < r.Start {
			a.PartitionFaults = append(a.PartitionFaults,
				fmt.Sprintf("shard %d spans [%d,%d), expected to start at %d", r.Index, r.Start, r.End, next))
		}
		if r.End > next {
			next = r.End
		}
	}
	if next != l.man.Blocks {
		a.PartitionFaults = append(a.PartitionFaults,
			fmt.Sprintf("shard ranges cover %d of %d blocks", next, l.man.Blocks))
	}
}

// outcomesEqual compares two outcomes by their gob encoding — the same
// bytes the fingerprint hashes, so "equal here" means "indistinguishable
// downstream".
func outcomesEqual(a, b *core.BlockOutcome) bool {
	var ab, bb bytes.Buffer
	if err := gob.NewEncoder(&ab).Encode(a); err != nil {
		return false
	}
	if err := gob.NewEncoder(&bb).Encode(b); err != nil {
		return false
	}
	return bytes.Equal(ab.Bytes(), bb.Bytes())
}
