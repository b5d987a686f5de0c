package stream

// The daemon's own acceptance tests: kill-and-resume at fixed cuts must
// reproduce the exact event sequence, the watchdog's loop restart must be
// invisible in the output, and malformed rounds and foreign WALs are
// refused. Batch parity, the latency bound and the seeded kill soaks are
// held by the harness in internal/chaos.

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/diurnalnet/diurnal/internal/changepoint"
	"github.com/diurnalnet/diurnal/internal/core"
	"github.com/diurnalnet/diurnal/internal/dataset"
	"github.com/diurnalnet/diurnal/internal/events"
	"github.com/diurnalnet/diurnal/internal/faults"
	"github.com/diurnalnet/diurnal/internal/health"
	"github.com/diurnalnet/diurnal/internal/netsim"
	"github.com/diurnalnet/diurnal/internal/probe"
)

// testWindow is the 2020q1 validation window: 12 weeks from Jan 1, long
// enough to contain the calendar's March activity changes.
func testWindow() (int64, int64) {
	start := netsim.Date(2020, time.January, 1)
	return start, start + 12*7*netsim.SecondsPerDay
}

func testConfig() Config {
	start, end := testWindow()
	cc := core.DefaultConfig(start, end)
	cc.BaselineStart = start
	cc.BaselineEnd = netsim.Date(2020, time.January, 29)
	return Config{
		Core:         cc,
		RefreshEvery: 7, // weekly refresh keeps the kernel cost testable
		MaxQueue:     8,
	}
}

// resolveCore is cc.Resolve for a test config that must be valid.
func resolveCore(t testing.TB, cc core.Config) core.Resolved {
	t.Helper()
	rc, err := cc.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	return rc
}

// testDetector is the detector Open builds under cfg, on lanes lanes.
func testDetector(t testing.TB, cfg Config, world []*dataset.WorldBlock, obs, lanes int) *detector {
	t.Helper()
	return newDetector(cfg.withDefaults(), resolveCore(t, cfg.Core), world, obs, lanes)
}

func testWorld(t testing.TB, blocks int, seed uint64) []*dataset.WorldBlock {
	t.Helper()
	start, end := testWindow()
	world, err := dataset.BuildWorld(dataset.WorldOpts{
		Blocks:   blocks,
		Seed:     seed,
		Calendar: events.Year2020(),
		Start:    start,
		End:      end,
	})
	if err != nil {
		t.Fatal(err)
	}
	return world
}

func testEngine(seed uint64) *probe.Engine {
	return &probe.Engine{Observers: probe.StandardObservers(3), QuarterSeed: seed}
}

func testFeeder(t testing.TB, eng core.Prober, world []*dataset.WorldBlock, cfg Config) *Feeder {
	t.Helper()
	f, err := NewFeeder(context.Background(), eng, world, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// byzObservers is the observer count of attacked worlds; the last one
// lies.
const byzObservers = 4

// byzConfig is testConfig with the integrity firewall armed.
func byzConfig() Config {
	cfg := testConfig()
	cfg.Core.Integrity = true
	return cfg
}

func byzEngine(t testing.TB, attack string, seed uint64) core.Prober {
	t.Helper()
	inner := &probe.Engine{Observers: probe.StandardObservers(byzObservers), QuarterSeed: seed + 5}
	plan, err := faults.AttackPlan(byzObservers, attack, 1, seed+17)
	if err != nil {
		t.Fatal(err)
	}
	return &faults.Engine{Inner: inner, Plan: plan}
}

// runStream drives a daemon over the whole feeder in one uninterrupted
// life and returns the journaled events and the result fingerprint.
func runStream(t testing.TB, dir string, world []*dataset.WorldBlock, f *Feeder, cfg Config) ([]Event, string) {
	t.Helper()
	d, err := Open(dir, world, f.Observers(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	ctx := context.Background()
	if err := f.Feed(ctx, d); err != nil {
		t.Fatal(err)
	}
	if err := d.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	res, err := d.Result()
	if err != nil {
		t.Fatal(err)
	}
	fp, err := res.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	evs := d.Events()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	return evs, fp
}

// TestKillAndResumeEventIdentity: SIGKILL (Abort) at assorted points —
// mid-queue, drained, right after events exist — then reopening and
// continuing must reproduce the uninterrupted run's event journal
// exactly, element for element, and the same final result.
func TestKillAndResumeEventIdentity(t *testing.T) {
	world := testWorld(t, 6, 77)
	cfg := testConfig()
	f := testFeeder(t, testEngine(7), world, cfg)

	refEvents, refFP := runStream(t, t.TempDir(), world, f, cfg)
	if len(refEvents) == 0 {
		t.Fatal("reference run emitted no events; kill-and-resume would prove nothing")
	}

	total := f.Rounds()
	// Kill points in rounds ingested before each Abort; drain=false leaves
	// admitted rounds unprocessed in the queue at the kill.
	cuts := []struct {
		after int64
		drain bool
	}{
		{total / 4, false},
		{total / 2, true},
		{3 * total / 4, false},
		{total - 1, false},
	}
	dir := t.TempDir()
	ctx := context.Background()
	ingested := int64(0)
	for ci, cut := range cuts {
		d, err := Open(dir, world, f.Observers(), cfg)
		if err != nil {
			t.Fatalf("reopen %d: %v", ci, err)
		}
		if got := d.NextIngestSeq(); got != ingested {
			// Unprocessed-but-admitted rounds are replayed on open, so the
			// resume point is everything ever admitted.
			t.Fatalf("reopen %d: resume at round %d, admitted %d", ci, got, ingested)
		}
		d.Start()
		for seq := d.NextIngestSeq(); seq < cut.after; seq++ {
			r, err := f.Round(seq)
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Ingest(ctx, r); err != nil {
				t.Fatalf("reopen %d: ingest round %d: %v", ci, seq, err)
			}
		}
		ingested = cut.after
		if cut.drain {
			if err := d.Drain(ctx); err != nil {
				t.Fatal(err)
			}
		}
		d.Abort()
		// The journal must hold a prefix of the reference events at every
		// kill point — never an event the reference run does not have.
		evs := d.Events()
		if len(evs) > len(refEvents) {
			t.Fatalf("kill %d: %d events journaled, reference has %d", ci, len(evs), len(refEvents))
		}
		for i := range evs {
			if evs[i] != refEvents[i] {
				t.Fatalf("kill %d: journaled event %d diverges from reference", ci, i)
			}
		}
	}

	// Final incarnation: finish the stream.
	d, err := Open(dir, world, f.Observers(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	if err := f.Feed(ctx, d); err != nil {
		t.Fatal(err)
	}
	if err := d.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	res, err := d.Result()
	if err != nil {
		t.Fatal(err)
	}
	fp, err := res.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	evs := d.Events()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	if len(evs) != len(refEvents) {
		t.Fatalf("resumed run journaled %d events, reference %d", len(evs), len(refEvents))
	}
	for i := range evs {
		if evs[i] != refEvents[i] {
			t.Errorf("event %d diverges after kill-and-resume:\n  got  %+v\n  want %+v", i, evs[i], refEvents[i])
		}
	}
	if fp != refFP {
		t.Errorf("resumed fingerprint %s != reference %s", fp[:16], refFP[:16])
	}
	if d.NextIngestSeq() != total {
		t.Errorf("resume position %d after completion, want %d", d.NextIngestSeq(), total)
	}
}

// TestWatchdogRestartsWedgedLoop: a wedged analysis loop is fenced and
// restarted by the watchdog, and the restart is invisible in the output —
// same events, same result as an unharassed run.
func TestWatchdogRestartsWedgedLoop(t *testing.T) {
	world := testWorld(t, 4, 55)
	cfg := testConfig()
	f := testFeeder(t, testEngine(3), world, cfg)

	refEvents, refFP := runStream(t, t.TempDir(), world, f, cfg)

	clock := health.NewFake()
	wcfg := cfg
	wcfg.Watchdog = 30 * time.Second
	wcfg.Clock = clock
	d, err := Open(t.TempDir(), world, f.Observers(), wcfg)
	if err != nil {
		t.Fatal(err)
	}
	// Wedge the loop on one mid-stream round: the hook blocks until the
	// watchdog has already fenced and replaced the loop.
	wedgeSeq := f.Rounds() / 2
	release := make(chan struct{})
	wedged := make(chan struct{})
	var once bool
	d.hookProcess = func(r *Round) {
		if r.Seq == wedgeSeq && !once {
			once = true
			close(wedged)
			<-release
		}
	}
	d.Start()
	ctx := context.Background()
	done := make(chan error, 1)
	go func() { done <- f.Feed(ctx, d) }()

	<-wedged
	// Drive the fake clock until the watchdog declares the loop wedged.
	deadline := time.Now().Add(30 * time.Second)
	for d.Stats().Restarts == 0 {
		if time.Now().After(deadline) {
			t.Fatal("watchdog never restarted the wedged loop")
		}
		clock.Advance(wcfg.Watchdog)
		time.Sleep(2 * time.Millisecond)
	}
	close(release) // the fenced loop wakes, discovers its fencing, exits

	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := d.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	res, err := d.Result()
	if err != nil {
		t.Fatal(err)
	}
	fp, err := res.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	evs := d.Events()
	stats := d.Stats()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	if stats.Restarts == 0 {
		t.Error("no restarts recorded")
	}
	if len(evs) != len(refEvents) {
		t.Fatalf("restarted run journaled %d events, reference %d", len(evs), len(refEvents))
	}
	for i := range evs {
		if evs[i] != refEvents[i] {
			t.Errorf("event %d diverges after watchdog restart", i)
		}
	}
	if fp != refFP {
		t.Errorf("fingerprint %s != reference %s after watchdog restart", fp[:16], refFP[:16])
	}
}

// TestDaemonRejectsMalformedRounds: shape errors are caught at admission,
// before anything hits the WAL.
func TestDaemonRejectsMalformedRounds(t *testing.T) {
	world := testWorld(t, 2, 9)
	cfg := testConfig()
	f := testFeeder(t, testEngine(1), world, cfg)
	d, err := Open(t.TempDir(), world, f.Observers(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ctx := context.Background()
	r0, err := f.Round(0)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := f.Round(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Ingest(ctx, r1); err == nil {
		t.Error("out-of-order round admitted")
	}
	bad := *r0
	bad.End += 3600
	if err := d.Ingest(ctx, &bad); err == nil {
		t.Error("round with wrong window admitted")
	}
	bad = *r0
	bad.Blocks = bad.Blocks[:1]
	if err := d.Ingest(ctx, &bad); err == nil {
		t.Error("round missing blocks admitted")
	}
	if err := d.Ingest(ctx, r0); err != nil {
		t.Errorf("well-formed round rejected: %v", err)
	}
	if got := d.NextIngestSeq(); got != 1 {
		t.Errorf("next seq %d after one admission", got)
	}
}

// TestDaemonResolvesCore: Open resolves the analysis config once. An
// invalid one fails Open rather than every refresh, and one that leaves
// defaulted fields zero runs exactly as DefaultConfig, which spells them
// out, does.
func TestDaemonResolvesCore(t *testing.T) {
	world := testWorld(t, 4, 4242)
	for name, broken := range map[string]func(*core.Config){
		"empty analysis window": func(c *core.Config) { c.AnalysisEnd = c.AnalysisStart },
		"sample step 7000":      func(c *core.Config) { c.SampleStep = 7000 },
	} {
		cfg := testConfig()
		broken(&cfg.Core)
		if d, err := Open(t.TempDir(), world, 3, cfg); err == nil {
			d.Close()
			t.Errorf("%s: Open succeeded", name)
		}
	}

	cfg := testConfig()
	f := testFeeder(t, testEngine(5), world, cfg)
	run := func(cfg Config) ([]Event, string, Stats) {
		d, err := Open(t.TempDir(), world, f.Observers(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		d.Start()
		ctx := context.Background()
		if err := f.Feed(ctx, d); err != nil {
			t.Fatal(err)
		}
		if err := d.Drain(ctx); err != nil {
			t.Fatal(err)
		}
		res, err := d.Result()
		if err != nil {
			t.Fatal(err)
		}
		fp, err := res.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		return d.Events(), fp, d.Stats()
	}
	wantEvs, wantFP, _ := run(cfg)
	if len(wantEvs) == 0 {
		t.Fatal("DefaultConfig emitted no events; the comparison would prove nothing")
	}
	zero := cfg
	zero.Core.SampleStep, zero.Core.OutageGapDays, zero.Core.BoundaryGuardDays = 0, 0, 0
	zero.Core.CUSUM = changepoint.Opts{}
	evs, fp, st := run(zero)
	if st.BlockErrors != 0 {
		t.Errorf("zero fields: %d block errors", st.BlockErrors)
	}
	if !reflect.DeepEqual(evs, wantEvs) {
		t.Errorf("zero fields: %d events, DefaultConfig %d, and they differ", len(evs), len(wantEvs))
	}
	if fp != wantFP {
		t.Errorf("zero fields: fingerprint %.16s, DefaultConfig %.16s", fp, wantFP)
	}
}

// TestHandSetCUSUMMatchesResolved: spelling the CUSUM that DefaultConfig
// resolves to out by hand changes nothing: the daemon emits the same
// events and reaches the same fingerprint.
func TestHandSetCUSUMMatchesResolved(t *testing.T) {
	world := testWorld(t, 12, 3)
	cfg := testConfig()
	f := testFeeder(t, testEngine(3), world, cfg)
	evs, fp := runStream(t, t.TempDir(), world, f, cfg)
	if len(evs) == 0 {
		t.Fatal("DefaultConfig emitted no events; the comparison would prove nothing")
	}
	hand := cfg
	hand.Core.CUSUM = changepoint.Opts{Threshold: 1, Drift: 0.004}
	handEvs, handFP := runStream(t, t.TempDir(), world, f, hand)
	if !reflect.DeepEqual(evs, handEvs) {
		t.Errorf("CUSUM set by hand: %d events, by default %d, and they differ", len(handEvs), len(evs))
	}
	if handFP != fp {
		t.Errorf("CUSUM set by hand: fingerprint %.16s, by default %.16s", handFP, fp)
	}
}

// TestWALRejectsForeignSignature: a stream directory from a different
// config or world refuses to open instead of replaying foreign state.
func TestWALRejectsForeignSignature(t *testing.T) {
	world := testWorld(t, 2, 9)
	cfg := testConfig()
	f := testFeeder(t, testEngine(1), world, cfg)
	dir := t.TempDir()
	d, err := Open(dir, world, f.Observers(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	r0, err := f.Round(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Ingest(context.Background(), r0); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.Core.CUSUM.Threshold = 5
	if _, err := Open(dir, world, f.Observers(), other); err == nil {
		t.Fatal("foreign-config WAL opened without error")
	}
}

// TestWALSignsSchedule: the daemon's schedule is part of its run. A
// directory reopened with another round length, refresh cadence or
// confirmation depth would replay its rounds into other events, so Open
// refuses it as a different run's instead of reporting the intact WAL
// pair inconsistent; the same schedule spelled out reopens.
func TestWALSignsSchedule(t *testing.T) {
	world := testWorld(t, 2, 9)
	cfg := testConfig()
	f := testFeeder(t, testEngine(1), world, cfg)
	dir := t.TempDir()
	d, err := Open(dir, world, f.Observers(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	r0, err := f.Round(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Ingest(context.Background(), r0); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		edit    func(*Config)
		foreign bool
	}{
		{"defaults spelled out", func(c *Config) { c.RoundLen, c.ConfirmRefreshes = netsim.SecondsPerDay, 2 }, false},
		{"RoundLen", func(c *Config) { c.RoundLen = 2 * 3600 }, true},
		{"RefreshEvery", func(c *Config) { c.RefreshEvery = 1 }, true},
		{"ConfirmRefreshes", func(c *Config) { c.ConfirmRefreshes = 3 }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			other := cfg
			tc.edit(&other)
			d, err := Open(dir, world, f.Observers(), other)
			if !tc.foreign {
				if err != nil {
					t.Fatalf("same schedule refused: %v", err)
				}
				if err := d.Close(); err != nil {
					t.Fatal(err)
				}
				return
			}
			if err == nil {
				d.Close()
				t.Fatal("WAL reopened under another schedule")
			}
			if !strings.Contains(err.Error(), "belongs to a different run") {
				t.Fatalf("want the different-run refusal, got: %v", err)
			}
		})
	}
}
