package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/diurnalnet/diurnal/internal/core"
	"github.com/diurnalnet/diurnal/internal/dataset"
	"github.com/diurnalnet/diurnal/internal/events"
	"github.com/diurnalnet/diurnal/internal/stream"
)

// streamFixture is stream_daemon's input: one world and its daily rounds,
// pre-built by stream.NewFeeder.
type streamFixture struct {
	e      *env
	world  []*dataset.WorldBlock
	cfg    stream.Config
	rounds []*stream.Round
	obs    int
	// feederBuild is how long NewFeeder took.
	feederBuild time.Duration
}

func newStreamFixture(ctx context.Context, e *env, blocks int) (*streamFixture, error) {
	// Every streamStride-th block of a larger world: ten blocks alone are
	// one per region and rarely hold an event.
	world, err := e.worldWith(blocks, streamStride, events.Year2020())
	if err != nil {
		return nil, err
	}
	eng, err := e.engine()
	if err != nil {
		return nil, err
	}
	// The daemon's defaults, spelled out because the latency gate needs them.
	f := &streamFixture{e: e, world: world, cfg: stream.Config{Core: e.cfg, RefreshEvery: 1, ConfirmRefreshes: 2}}
	t0 := time.Now()
	feeder, err := stream.NewFeeder(ctx, eng, world, f.cfg)
	f.feederBuild = time.Since(t0)
	if err != nil {
		return nil, err
	}
	f.obs = feeder.Observers()
	for seq := int64(0); seq < feeder.Rounds(); seq++ {
		round, err := feeder.Round(seq)
		if err != nil {
			return nil, err
		}
		f.rounds = append(f.rounds, round)
	}
	return f, nil
}

// batchFingerprint is the batch pipeline's result over the same blocks,
// the reference the daemon's final Result must equal.
func (f *streamFixture) batchFingerprint(ctx context.Context) (string, error) {
	eng, err := f.e.engine()
	if err != nil {
		return "", err
	}
	res, err := (&core.Pipeline{Config: f.e.cfg, Engine: eng, Workers: f.e.generators}).Run(ctx, f.world)
	if err != nil {
		return "", fmt.Errorf("batch reference: %w", err)
	}
	return fingerprintOf("batch reference", res)
}

func (f *streamFixture) open(dir string) (*stream.Daemon, error) {
	d, err := stream.Open(dir, f.world, f.obs, f.cfg)
	if err != nil {
		return nil, err
	}
	d.Start()
	return d, nil
}

// lockstepPass is what one lockstep life of the daemon produced.
type lockstepPass struct {
	// ingest[i] and drain[i] time round i's Ingest and Drain calls.
	ingest, drain []time.Duration
	// resume times stream.Open on the aborted directory; replayed is how
	// many rounds of WAL it replayed.
	resume   time.Duration
	replayed int
	result   *core.WorldResult
	events   []stream.Event
	// beforeAbort and final are the daemon's counters at the kill and at
	// the end.
	beforeAbort, final stream.Stats
}

// lockstep feeds rounds [0, upTo) one at a time (Ingest, Drain, repeat) on
// dir. Half way it kills the daemon with Abort and reopens the same
// directory, which replays the WAL. With upTo short of the full stream no
// Result is taken. tr may be disabled.
func (f *streamFixture) lockstep(ctx context.Context, dir string, upTo int, tr *tracer) (*lockstepPass, error) {
	d, err := f.open(dir)
	if err != nil {
		return nil, err
	}
	defer func() { d.Close() }()
	p := &lockstepPass{}
	half := upTo / 2
	for i := 0; i < upTo; i++ {
		if i == half && half > 0 {
			p.beforeAbort = d.Stats()
			d.Abort()
			s := tr.begin("stream.open", i)
			t0 := time.Now()
			d, err = f.open(dir)
			p.resume = time.Since(t0)
			tr.end(s)
			if err != nil {
				return nil, fmt.Errorf("reopening after abort at round %d: %w", i, err)
			}
			p.replayed = i
			if next := d.NextIngestSeq(); next != int64(i) {
				return nil, fmt.Errorf("gate: reopened daemon expects round %d, want %d", next, i)
			}
		}
		before := d.Stats().Refreshes
		root := tr.begin("stream.round", i)
		s := tr.begin("stream.ingest", i)
		t0 := time.Now()
		err := d.Ingest(ctx, f.rounds[i])
		t1 := time.Now()
		tr.end(s)
		if err != nil {
			return nil, fmt.Errorf("ingesting round %d: %w", i, err)
		}
		s = tr.begin("stream.drain", i)
		err = d.Drain(ctx)
		t2 := time.Now()
		tr.end(s)
		tr.end(root)
		if err != nil {
			return nil, fmt.Errorf("draining round %d: %w", i, err)
		}
		p.ingest = append(p.ingest, t1.Sub(t0))
		p.drain = append(p.drain, t2.Sub(t1))
		if d.Stats().Refreshes > before {
			tr.attr(s, "refresh")
		} else {
			tr.attr(s, "norefresh")
		}
	}
	p.final = d.Stats()
	p.events = d.Events()
	if upTo == len(f.rounds) {
		s := tr.begin("stream.result", upTo)
		p.result, err = d.Result()
		tr.end(s)
		if err != nil {
			return nil, err
		}
	}
	return p, d.Close()
}

// saturated feeds every round back to back against the daemon's bounded
// admission queue, then drains.
func (f *streamFixture) saturated(ctx context.Context, dir string) (wall time.Duration, events []stream.Event, st stream.Stats, err error) {
	d, err := f.open(dir)
	if err != nil {
		return 0, nil, st, err
	}
	defer d.Close()
	t0 := time.Now()
	for i, round := range f.rounds {
		if err := d.Ingest(ctx, round); err != nil {
			return 0, nil, st, fmt.Errorf("ingesting round %d: %w", i, err)
		}
	}
	if err := d.Drain(ctx); err != nil {
		return 0, nil, st, err
	}
	wall = time.Since(t0)
	return wall, d.Events(), d.Stats(), d.Close()
}

// checkEvents applies the streaming contracts to one cycle: the killed
// and resumed lockstep life and the saturated life journal the same
// events, and every event emitted before the final flush honours the
// bounded-latency contract.
func (f *streamFixture) checkEvents(lock, sat []stream.Event) error {
	if len(lock) != len(sat) {
		return fmt.Errorf("gate: lockstep journaled %d events, saturated %d", len(lock), len(sat))
	}
	bound := int64(f.cfg.ConfirmRefreshes * f.cfg.RefreshEvery)
	final := int64(len(f.rounds) - 1)
	for i, ev := range lock {
		if ev != sat[i] {
			return fmt.Errorf("gate: event %d differs between the lockstep and saturated phases", i)
		}
		if ev.EmitSeq == final {
			continue // the final flush emits whatever is pending
		}
		if lat := ev.EmitSeq - max(ev.FirstSeenSeq, ev.EligibleSeq); lat > bound {
			return fmt.Errorf("gate: event %d emitted %d rounds after it was seen and eligible (bound %d)", i, lat, bound)
		}
	}
	return nil
}

// runStreamDaemon uses the analysis kernel incrementally: about seventy
// refreshes re-analyse every block, and every round is journaled in the WAL
// first. One cycle is a lockstep life (killed and resumed half way) and a
// saturated life, each on a fresh directory.
func runStreamDaemon(e *env, r *result) error {
	ctx := context.Background()
	n := e.streamBlocks()
	var f *streamFixture
	setup, err := setupMedian(func(rep int) error {
		var err error
		if f, err = newStreamFixture(ctx, e, n); err != nil {
			return err
		}
		// Warm-up: the first three weeks in lockstep, kill and resume
		// included, on a directory of its own.
		dir := filepath.Join(e.dir, fmt.Sprintf("warm-%d", rep))
		if _, err := f.lockstep(ctx, dir, min(21, len(f.rounds)), nil); err != nil {
			return err
		}
		return os.RemoveAll(dir)
	})
	if err != nil {
		return err
	}
	batchFP, err := f.batchFingerprint(ctx)
	if err != nil {
		return err
	}

	var (
		roundMs, resumeMs, satWalls []float64
		cpu                         time.Duration
		ops, events                 int
	)
	cycles, err := timedLoop(e.seconds, func(i int) error {
		lockDir := filepath.Join(e.dir, fmt.Sprintf("lockstep-%d", i))
		satDir := filepath.Join(e.dir, fmt.Sprintf("saturated-%d", i))
		c0 := cpuTime()
		lock, err := f.lockstep(ctx, lockDir, len(f.rounds), nil)
		if err != nil {
			return fmt.Errorf("lockstep phase: %w", err)
		}
		wall, satEvents, st, err := f.saturated(ctx, satDir)
		if err != nil {
			return fmt.Errorf("saturated phase: %w", err)
		}
		cpu += cpuTime() - c0
		for j := range lock.ingest {
			roundMs = append(roundMs, msOf(lock.ingest[j]+lock.drain[j]))
		}
		resumeMs = append(resumeMs, msOf(lock.resume))
		satWalls = append(satWalls, wall.Seconds())
		ops += 2 * len(f.world) * len(f.rounds)
		r.Attempted += 2 * len(f.rounds)
		r.Failed += int(lock.final.PressureSheds + st.PressureSheds + lock.final.BlockErrors + st.BlockErrors)
		events = len(lock.events)

		if err := f.checkEvents(lock.events, satEvents); err != nil {
			return err
		}
		fp, err := fingerprintOf("daemon result", lock.result)
		if err != nil {
			return err
		}
		if fp != batchFP {
			return fmt.Errorf("gate: daemon result %s differs from the batch result %s of the same blocks", fp[:16], batchFP[:16])
		}
		if err := os.RemoveAll(lockDir); err != nil {
			return err
		}
		return os.RemoveAll(satDir)
	})
	if err != nil {
		return err
	}
	e.logf("stream_daemon: %d blocks x %d rounds x %d cycles, %d events per life, fingerprint %s",
		n, len(f.rounds), cycles, events, batchFP[:16])
	r.set("setup_s", setup, setupReps)
	r.set("throughput_per_s", float64(len(f.world)*len(f.rounds))/median(satWalls), cycles)
	r.set("latency_ms_p50", median(roundMs), len(roundMs))
	r.set("latency_ms_tail", quantile(roundMs, 0.9), len(roundMs))
	r.set("handoff_ms", median(resumeMs), len(resumeMs))
	r.set("cpu_us_per_op", usOf(cpu)/float64(ops), cycles)
	return nil
}
