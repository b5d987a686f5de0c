package shard

// Worker is one process's claim-analyze-complete loop. It acquires shards
// from the ledger, runs core.Pipeline over each shard's block slice with
// the lease wired in as the journal fence, renews the lease on a
// heartbeat, and marks shards done. Crash semantics are deliberate: on
// any failure the worker simply stops — the lease is never released, it
// expires, and the next claimant takes over under a higher fencing token,
// seeding its journal with every frame the dead worker managed to write.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"

	"github.com/diurnalnet/diurnal/internal/core"
	"github.com/diurnalnet/diurnal/internal/dataset"
)

// Worker drains a ledger's shards. Configure the pipeline-shaping fields
// exactly as for a single-process core.Pipeline; the worker constructs
// one pipeline per claimed shard.
type Worker struct {
	// ID names this worker in leases, done markers, and dead letters.
	// Defaults to "worker-<pid>".
	ID string
	// Ledger is the shared shard ledger.
	Ledger *Ledger
	// Config and Engine are the analysis configuration and prober, as in
	// core.Pipeline. The full world (not a slice) is provided; the worker
	// slices it per claimed shard.
	Config core.Config
	Engine core.Prober
	World  []*dataset.WorldBlock
	// Workers bounds per-shard pipeline parallelism (default GOMAXPROCS).
	Workers int
	// RenewGate, when non-nil, is consulted before each lease renewal; a
	// false return skips it. Tests install faults.LeaseStall here to
	// simulate a worker that computes on while its lease rots.
	RenewGate func() bool
}

// Report summarizes one worker's whole run.
type Report struct {
	// CompletedShards lists shard indices this worker finished.
	CompletedShards []int
	// Fenced counts shards abandoned because the lease was reassigned
	// mid-run (their partial journals remain for the merge).
	Fenced int
	// Analyzed, Resumed, and DeadLettered total the per-shard pipeline
	// reports; Resumed counts blocks seeded from earlier tokens' journals.
	Analyzed, Resumed, DeadLettered int
}

// Run claims and processes shards until every shard is done (nil error),
// ctx is cancelled, or a non-fencing error occurs. Being fenced is not an
// error: the worker abandons that shard and claims another.
func (w *Worker) Run(ctx context.Context) (*Report, error) {
	if w.Ledger == nil {
		return nil, errors.New("shard: worker has no ledger")
	}
	if len(w.World) != w.Ledger.man.Blocks {
		return nil, fmt.Errorf("shard: world has %d blocks, ledger expects %d", len(w.World), w.Ledger.man.Blocks)
	}
	id := w.ID
	if id == "" {
		id = fmt.Sprintf("worker-%d", os.Getpid())
	}
	w.Ledger.sweepTemps()
	rep := &Report{}
	for {
		claim, err := w.Ledger.Acquire(ctx, id)
		if errors.Is(err, ErrAllDone) {
			return rep, nil
		}
		if err != nil {
			return rep, err
		}
		switch err := w.runShard(ctx, claim, rep); {
		case err == nil:
			rep.CompletedShards = append(rep.CompletedShards, claim.Shard.Index)
		case errors.Is(err, core.ErrFenced):
			rep.Fenced++ // someone else owns the shard now; move on
		default:
			return rep, err
		}
	}
}

// runShard processes one claimed shard end to end.
func (w *Worker) runShard(ctx context.Context, claim *Claim, rep *Report) error {
	l := w.Ledger
	r := claim.Shard
	sub := w.World[r.Start:r.End]
	cp, err := core.OpenCheckpoint(claim.JournalPath())
	if err != nil {
		return err
	}
	defer cp.Close()
	cp.Fence = claim.Check
	// Seed this token's journal with every frame earlier tokens wrote:
	// work done under a dead lease is kept, not redone, and not
	// re-journaled — the merge reads all tokens' journals directly.
	wantSig := core.RunSignature(w.Config, sub)
	journals, err := l.tokenFiles(r.Index, "ckpt")
	if err != nil {
		return err
	}
	for _, jf := range journals {
		if jf.Token >= claim.Token {
			continue
		}
		sig, entries, _, err := core.ReadCheckpoint(jf.Path)
		if err != nil || !bytes.Equal(sig, wantSig) {
			continue // unreadable or foreign journal: the blocks just get re-analyzed
		}
		for _, e := range entries {
			cp.SeedPrior(e.Index, e.Outcome)
		}
	}
	// The renewal heartbeat runs at TTL/3 and cancels the shard's context
	// (with the fencing error as cause) the moment a renewal fails, so the
	// pipeline stops probing a shard this worker no longer owns.
	shardCtx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	heartbeatDone := make(chan struct{})
	go func() {
		defer close(heartbeatDone)
		for {
			select {
			case <-shardCtx.Done():
				return
			case <-l.clock.After(l.ttl / 3):
			}
			if w.RenewGate != nil && !w.RenewGate() {
				continue // stalled: skip this renewal, keep computing
			}
			if err := claim.Renew(); err != nil {
				cancel(err)
				return
			}
		}
	}()
	pipe := &core.Pipeline{
		Config:     w.Config,
		Engine:     w.Engine,
		Workers:    w.Workers,
		Checkpoint: cp,
		DeadLetter: l.dead.Scoped(r.Start, claim.Worker, claim.Token),
		Clock:      l.clock,
	}
	res, runErr := pipe.Run(shardCtx, sub)
	cancel(nil)
	<-heartbeatDone
	// An all-dead-lettered *world* is a failed run, but an all-dead-lettered
	// *shard* is just an unlucky slice: every block is durably accounted
	// for, so the shard is complete.
	if runErr != nil && res != nil && res.Report != nil &&
		ctx.Err() == nil && len(res.Report.BlockErrors) == 0 &&
		res.Report.AnalyzedBlocks+len(res.Report.DeadLettered) == len(sub) &&
		!errors.Is(runErr, core.ErrFenced) &&
		!errors.Is(context.Cause(shardCtx), core.ErrFenced) {
		runErr = nil
	}
	if runErr != nil {
		// Fencing surfaces two ways: the journal's fence hook rejecting an
		// append, or the heartbeat cancelling the context with the renewal
		// error as cause. Either way the shard belongs to someone else.
		if errors.Is(runErr, core.ErrFenced) {
			return runErr
		}
		if cause := context.Cause(shardCtx); cause != nil && errors.Is(cause, core.ErrFenced) {
			return cause
		}
		return runErr
	}
	if err := cp.Close(); err != nil {
		return fmt.Errorf("shard: closing journal for shard %d: %w", r.Index, err)
	}
	rep.Analyzed += res.Report.AnalyzedBlocks
	rep.Resumed += res.Report.ResumedBlocks
	rep.DeadLettered += len(res.Report.DeadLettered)
	return claim.Done(DoneMarker{
		Analyzed:     res.Report.AnalyzedBlocks,
		Resumed:      res.Report.ResumedBlocks,
		DeadLettered: len(res.Report.DeadLettered),
	})
}
