// Package chaos is the one kill-and-resume harness. It runs the
// streaming daemon uninterrupted (RunToEnd) or through seeded-random
// kills and fault-injected filesystems (KillLoop), kills and resumes a
// checkpointed batch run (BatchKillResume), and holds the oracle they
// all answer to: every rebirth resumes to an exact event-journal prefix
// of the reference, a finished run equals it event for event and in
// fingerprint, and its journal is contiguous and inside the latency
// bound (CheckEvents). The soaks (this package's tests) and the
// crash-safety experiments drive it; the shipped binary does not.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"github.com/diurnalnet/diurnal/internal/core"
	"github.com/diurnalnet/diurnal/internal/dataset"
	"github.com/diurnalnet/diurnal/internal/faults"
	"github.com/diurnalnet/diurnal/internal/stream"
)

// Outcome is what a finished daemon run leaves: its event journal, its
// result and that result's fingerprint.
type Outcome struct {
	Events      []stream.Event
	Fingerprint string
	Result      *core.WorldResult
}

// Divergence is the oracle's verdict that incarnation Life (counted from
// 1) holds state the reference does not: Event is the index of the
// first event that differs or is missing, or -1 for the fingerprint.
type Divergence struct {
	Life, Event int
	What        string
}

func (d *Divergence) Error() string {
	if d.Event < 0 {
		return fmt.Sprintf("incarnation %d: %s", d.Life, d.What)
	}
	return fmt.Sprintf("incarnation %d: event %d: %s", d.Life, d.Event, d.What)
}

// Prefix checks the journal incarnation life resumed to is an exact
// prefix of the reference's.
func (ref *Outcome) Prefix(life int, evs []stream.Event) error {
	for i, ev := range evs {
		if i == len(ref.Events) {
			return &Divergence{life, i, fmt.Sprintf("journaled %d events, reference has %d", len(evs), i)}
		}
		if ev != ref.Events[i] {
			return &Divergence{life, i, fmt.Sprintf("journaled %+v, reference %+v", ev, ref.Events[i])}
		}
	}
	return nil
}

// Same checks the run incarnation life finished equals the reference
// event for event and in fingerprint.
func (ref *Outcome) Same(life int, got *Outcome) error {
	if err := ref.Prefix(life, got.Events); err != nil {
		return err
	}
	if n := len(got.Events); n < len(ref.Events) {
		return &Divergence{life, n, fmt.Sprintf("finished with %d events, reference has %d", n, len(ref.Events))}
	}
	if got.Fingerprint != ref.Fingerprint {
		return &Divergence{life, -1, fmt.Sprintf("fingerprint %.16s, reference %.16s", got.Fingerprint, ref.Fingerprint)}
	}
	return nil
}

// CheckEvents holds the finished journal of a stream of rounds rounds
// to the streaming contract: events numbered from 0 without gaps, and
// each one the final flush did not emit emitted within cfg.LatencyBound()
// rounds of being first seen and eligible. It also returns, even when the
// check fails, how many events were emitted before the final flush and
// the worst latency among them.
func CheckEvents(evs []stream.Event, rounds int64, cfg stream.Config) (early int, worst int64, err error) {
	bound := cfg.LatencyBound()
	for i, ev := range evs {
		if ev.Seq != int64(i) && err == nil {
			err = fmt.Errorf("event %d has seq %d; the journal must be contiguous from 0", i, ev.Seq)
		}
		if ev.EmitSeq == rounds-1 {
			continue // the final flush trades the latency bound for batch convergence
		}
		early++
		l := ev.EmitSeq - max(ev.FirstSeenSeq, ev.EligibleSeq)
		worst = max(worst, l)
		if l > bound && err == nil {
			err = fmt.Errorf("event %d: emit latency %d rounds exceeds the bound %d (first seen %d, eligible %d, emitted %d)",
				i, l, bound, ev.FirstSeenSeq, ev.EligibleSeq, ev.EmitSeq)
		}
	}
	return early, worst, err
}

// Setup is the daemon a harness run drives: its directory, the world,
// the feeder replaying the collected rounds, and its clean config.
type Setup struct {
	Dir    string
	World  []*dataset.WorldBlock
	Feeder *stream.Feeder
	Config stream.Config
}

// RunToEnd is one uninterrupted daemon life: it opens s.Dir, resuming
// whatever journal is there, ingests every round not yet admitted,
// drains and closes. A non-nil ref holds the life to it.
func RunToEnd(ctx context.Context, s Setup, ref *Outcome) (*Outcome, error) {
	run, err := KillLoop(ctx, s, ref, Kills{})
	return run.Outcome, err
}

// Kills shapes a KillLoop.
type Kills struct {
	// Rng draws the schedule: a faulted life draws its faults (in
	// Faulted); every life then ingests 1 + Int63n(rounds left) rounds
	// and dies by Abort, a clean one after draining on Intn(2) == 0.
	Rng *rand.Rand
	// Kill kills clean lives until one finds every round admitted and
	// finishes; otherwise the first clean life runs to the end.
	Kill bool
	// Faulted, when set, returns the config of attempt n — the clean one
	// on a fault-injected filesystem — or false once the faulted lives
	// are over; they also end when one finds every round admitted. A
	// faulted attempt that cannot open is stillborn; an ingest error
	// ends its life, and a round shed with ErrDiskPressure must show in
	// the daemon's Stats.
	Faulted func(n int, rng *rand.Rand) (stream.Config, bool)
	// Account, when set, sees every life's Stats just before it dies or
	// closes; an error fails the run.
	Account func(stream.Stats) error
}

// Run is what a KillLoop took: the final outcome, the lives opened, the
// faulted attempts that died opening, and the rounds shed.
type Run struct {
	*Outcome
	Lives, Stillborn, Sheds int
}

// KillLoop streams s.Feeder through daemon lives in s.Dir — faulted
// ones first, then clean ones — holding every rebirth and the finished
// run to ref, every life's journals to its disk budget, and a run with
// Kill set to at least two lives. The Run it returns is never nil.
func KillLoop(ctx context.Context, s Setup, ref *Outcome, k Kills) (*Run, error) {
	run := &Run{}
	total := s.Feeder.Rounds()
	faulted := k.Faulted != nil
	for n := 0; ; n++ {
		cfg := s.Config
		if faulted {
			cfg, faulted = k.Faulted(n, k.Rng)
			if !faulted {
				cfg = s.Config
			}
		}
		d, err := stream.Open(s.Dir, s.World, s.Feeder.Observers(), cfg)
		if err != nil && faulted {
			run.Stillborn++ // a crash during replay or journal setup
			continue
		}
		run.Lives++
		if err != nil {
			return run, fmt.Errorf("incarnation %d: open: %w", run.Lives, err)
		}
		d.Start()
		if ref != nil {
			if err := ref.Prefix(run.Lives, d.Events()); err != nil {
				d.Abort()
				return run, err
			}
		}
		next := d.NextIngestSeq()
		if faulted && next >= total {
			d.Abort()
			faulted = false
			continue
		}
		if !faulted && (!k.Kill || next >= total) {
			run.Outcome, err = finish(ctx, d, s, ref, run.Lives, k.Account)
			if err == nil && k.Kill && run.Lives < 2 {
				err = errors.New("the kill schedule never fired")
			}
			return run, err
		}
		for seq, end := next, next+1+k.Rng.Int63n(total-next); seq < end && err == nil; seq++ {
			var r *stream.Round
			if r, err = s.Feeder.Round(seq); err == nil {
				err = d.Ingest(ctx, r)
			}
		}
		switch {
		case faulted && errors.Is(err, stream.ErrDiskPressure):
			run.Sheds++
			err = nil
			if st := d.Stats(); st.PressureSheds == 0 || st.LastStorageErr == "" {
				err = fmt.Errorf("shed round not surfaced in stats: %+v", st)
			}
		case faulted:
			err = nil // any other injected failure is a crash
		case err == nil && k.Rng.Intn(2) == 0:
			err = d.Drain(ctx)
		}
		if err == nil {
			err = account(d, cfg, k.Account)
		}
		d.Abort() // SIGKILL: nothing flushed, nothing drained
		if err != nil {
			return run, fmt.Errorf("incarnation %d: %w", run.Lives, err)
		}
	}
}

// account holds a life's journals to cfg's disk budget, then hands its
// Stats to the caller's accounting.
func account(d *stream.Daemon, cfg stream.Config, acct func(stream.Stats) error) error {
	st := d.Stats()
	if cfg.DiskBudget > 0 && st.DiskBytes > cfg.DiskBudget {
		return fmt.Errorf("journals hold %d bytes, budget %d", st.DiskBytes, cfg.DiskBudget)
	}
	if acct != nil {
		return acct(st)
	}
	return nil
}

// finish runs incarnation life to the end of the stream, closes it, and
// holds the outcome to the streaming contract and to ref when non-nil.
func finish(ctx context.Context, d *stream.Daemon, s Setup, ref *Outcome, life int, acct func(stream.Stats) error) (*Outcome, error) {
	out := &Outcome{}
	err := s.Feeder.Feed(ctx, d)
	if err == nil {
		err = d.Drain(ctx)
	}
	if err == nil {
		out.Result, err = d.Result()
	}
	if err == nil {
		out.Fingerprint, err = out.Result.Fingerprint()
	}
	if err == nil {
		out.Events = d.Events()
		err = account(d, s.Config, acct)
	}
	if err != nil {
		d.Abort()
		return nil, fmt.Errorf("incarnation %d: %w", life, err)
	}
	if err := d.Close(); err != nil {
		return nil, fmt.Errorf("incarnation %d: close: %w", life, err)
	}
	if ref != nil {
		if err := ref.Same(life, out); err != nil {
			return nil, err
		}
	}
	if _, _, err := CheckEvents(out.Events, s.Feeder.Rounds(), s.Config); err != nil {
		return nil, fmt.Errorf("incarnation %d: %w", life, err)
	}
	return out, nil
}

// Crash records one batch kill→resume leg: the error the killed run
// returned, the frames its checkpoint journal held at the crash and how
// many repeated a block, the blocks the resumed run restored and the
// hedges it fired, and the resumed result's fingerprint.
type Crash struct {
	InterruptedErr        string
	Journaled, Duplicates int
	Resumed, Hedges       int
	Fingerprint           string
}

// BatchKillResume runs p over world with a checkpoint journal at path,
// kills it after killAfter completed block collections, resumes a fresh
// copy of p from the journal, and holds the resumed result to the
// uninterrupted fingerprint want. The kill must land mid-run and leave
// no duplicate frame, and the resume must restore blocks and leave the
// journal holding exactly one block frame per world block, which is what
// bounds it. The Crash it returns is never nil.
func BatchKillResume(ctx context.Context, p core.Pipeline, world []*dataset.WorldBlock, path string, killAfter int, want string) (*Crash, error) {
	c := &Crash{}
	killCtx, kill := context.WithCancel(ctx)
	defer kill()
	cp, err := core.OpenCheckpoint(path)
	if err != nil {
		return c, err
	}
	killed := p
	killed.Engine = &faults.WorkerCrash{Inner: p.Engine, Kill: kill, AfterCollections: killAfter}
	killed.Checkpoint = cp
	_, runErr := killed.Run(killCtx, world)
	c.Journaled = cp.Entries()
	if err := cp.Close(); err != nil {
		return c, err
	}
	if runErr == nil {
		return c, fmt.Errorf("interrupted run finished cleanly; kill budget %d never fired", killAfter)
	}
	c.InterruptedErr = runErr.Error()
	if c.Journaled == 0 || c.Journaled >= len(world) {
		return c, fmt.Errorf("journal held %d of %d blocks at crash; the kill was not mid-run", c.Journaled, len(world))
	}
	// Reopening deduplicates by block key, so appended-at-crash minus
	// distinct-on-reopen is exactly the duplicate frame count.
	if p.Checkpoint, err = core.OpenCheckpoint(path); err != nil {
		return c, err
	}
	defer p.Checkpoint.Close()
	if c.Duplicates = c.Journaled - p.Checkpoint.Entries(); c.Duplicates != 0 {
		return c, fmt.Errorf("%d duplicate frames journaled before the crash", c.Duplicates)
	}
	resumed, err := p.Run(ctx, world)
	if err != nil {
		return c, fmt.Errorf("resumed run: %w", err)
	}
	c.Resumed, c.Hedges = resumed.Report.ResumedBlocks, resumed.Report.HedgedBlocks
	if c.Fingerprint, err = resumed.Fingerprint(); err != nil {
		return c, err
	}
	if c.Fingerprint != want {
		return c, &Divergence{2, -1, fmt.Sprintf("resumed fingerprint %.16s, uninterrupted %.16s", c.Fingerprint, want)}
	}
	if c.Resumed == 0 {
		return c, fmt.Errorf("resumed run restored nothing from a journal holding %d blocks", c.Journaled)
	}
	_, entries, _, err := core.ReadCheckpoint(path)
	if err != nil {
		return c, err
	}
	frames := map[int]bool{}
	for _, e := range entries {
		frames[e.Index] = true
	}
	if len(entries) != len(world) || len(frames) != len(world) {
		return c, fmt.Errorf("resumed journal holds %d block frames for %d blocks, want one for each of %d", len(entries), len(frames), len(world))
	}
	return c, nil
}
