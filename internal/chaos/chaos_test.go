package chaos

// The daemon soaks. A cell is one seeded world streamed under one choice
// on each axis: the observers' fault plan (bursty loss, downtime, clock
// skew, corruption) or one attacker against the armed integrity
// firewall; early lives on write-budgeted, fsync/rename-faulted
// filesystems or not; clean lives killed at seeded-random points or
// not. Every cell is held to the harness oracle against its
// uninterrupted reference run. The short cells run fixed seeds so CI is
// deterministic; the nightly cells are random draws, seeded from
// SOAK_SEED or the clock, and a failing base seed lands in
// soak-failure-seed.txt for exact replay.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/diurnalnet/diurnal/internal/core"
	"github.com/diurnalnet/diurnal/internal/dataset"
	"github.com/diurnalnet/diurnal/internal/events"
	"github.com/diurnalnet/diurnal/internal/faults"
	"github.com/diurnalnet/diurnal/internal/netsim"
	"github.com/diurnalnet/diurnal/internal/probe"
	"github.com/diurnalnet/diurnal/internal/stream"
)

// byzObservers is the observer count of attacked cells; the last one lies.
const byzObservers = 4

// testWindow is the 2020q1 validation window: 12 weeks from Jan 1, long
// enough to contain the calendar's March activity changes.
func testWindow() (int64, int64) {
	start := netsim.Date(2020, time.January, 1)
	return start, start + 12*7*netsim.SecondsPerDay
}

func testConfig() stream.Config {
	start, end := testWindow()
	cc := core.DefaultConfig(start, end)
	cc.BaselineStart = start
	cc.BaselineEnd = netsim.Date(2020, time.January, 29)
	return stream.Config{Core: cc, RefreshEvery: 7, MaxQueue: 8}
}

// testSetup builds a blocks-block world from seed and collects it
// through eng into a feeder, in a fresh directory.
func testSetup(t *testing.T, blocks int, seed uint64, eng core.Prober, cfg stream.Config) Setup {
	t.Helper()
	start, end := testWindow()
	world, err := dataset.BuildWorld(dataset.WorldOpts{
		Blocks: blocks, Seed: seed, Calendar: events.Year2020(), Start: start, End: end,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := stream.NewFeeder(context.Background(), eng, world, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return Setup{Dir: t.TempDir(), World: world, Feeder: f, Config: cfg}
}

// runToEnd is RunToEnd in a fresh directory, failing the test on error.
func runToEnd(t *testing.T, s Setup) *Outcome {
	t.Helper()
	s.Dir = t.TempDir()
	out, err := RunToEnd(context.Background(), s, nil)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func byzEngine(t *testing.T, attack string, seed uint64) core.Prober {
	t.Helper()
	inner := &probe.Engine{Observers: probe.StandardObservers(byzObservers), QuarterSeed: seed + 5}
	plan, err := faults.AttackPlan(byzObservers, attack, 1, seed+17)
	if err != nil {
		t.Fatal(err)
	}
	return &faults.Engine{Inner: inner, Plan: plan}
}

// checkByzReport asserts the attacker — and only the attacker — was
// gated and attributed.
func checkByzReport(t *testing.T, rep *core.RunReport, attack string) {
	t.Helper()
	const attacker = byzObservers - 1
	if len(rep.GatedStreams) != 1 || rep.GatedStreams[0] != attacker {
		t.Fatalf("%s: GatedStreams = %v, want [%d]", attack, rep.GatedStreams, attacker)
	}
	if len(rep.IntegrityVerdicts) == 0 {
		t.Fatalf("%s: no integrity verdicts attributed", attack)
	}
	for _, v := range rep.IntegrityVerdicts {
		if v.Observer != attacker {
			t.Errorf("%s: honest observer %d gated (%s)", attack, v.Observer, v.Reason)
		}
		if v.Reason == "" {
			t.Errorf("%s: gated round without a reason", attack)
		}
	}
	if len(rep.AgreementScores) != byzObservers {
		t.Errorf("%s: AgreementScores = %v, want %d entries", attack, rep.AgreementScores, byzObservers)
	}
	if !rep.Degraded() {
		t.Errorf("%s: gated run not degraded", attack)
	}
}

type cell struct {
	seed   int64
	blocks int
	// attack, when set, has the last of four observers mount it with
	// the firewall armed; otherwise three observers run the default
	// fault plan.
	attack string
	// disk runs up to 48 faulted lives first, on a governed daemon.
	disk bool
	// kills kills the clean lives at seeded-random points.
	kills bool
}

func (c cell) String() string {
	name := fmt.Sprintf("seed%d", c.seed)
	if c.attack != "" {
		name += "-" + c.attack
	}
	if c.disk {
		name += "-disk"
	}
	if c.kills {
		name += "-kills"
	}
	return name
}

func (c cell) run(t *testing.T) {
	seed := uint64(c.seed)
	cfg := testConfig()
	var eng core.Prober
	if c.attack != "" {
		cfg.Core.Integrity = true
		eng = byzEngine(t, c.attack, seed)
	} else {
		start, _ := testWindow()
		inner := &probe.Engine{Observers: probe.StandardObservers(3), QuarterSeed: seed + 5}
		eng = &faults.Engine{Inner: inner, Plan: faults.DefaultPlan(3, 0.5, start, seed+17)}
	}
	s := testSetup(t, c.blocks, seed*2654435761+1, eng, cfg)
	ref := runToEnd(t, s)

	k := Kills{Rng: rand.New(rand.NewSource(c.seed)), Kill: c.kills}
	if c.disk {
		s.Config.SegmentBytes = 16 << 10
		s.Config.DiskBudget = 8 << 20
		k.Faulted = func(n int, rng *rand.Rand) (stream.Config, bool) {
			if n == 48 {
				return stream.Config{}, false
			}
			plan := faults.FSPlan{WriteBudget: 8<<10 + rng.Int63n(96<<10)}
			if rng.Intn(3) == 0 {
				plan.FailSyncAt = 1 + rng.Int63n(24)
			}
			if rng.Intn(4) == 0 {
				plan.FailRenameAt = 1 + rng.Int63n(4)
			}
			fcfg := s.Config
			fcfg.FS = &faults.FS{Plan: plan}
			return fcfg, true
		}
	}
	run, err := KillLoop(context.Background(), s, ref, k)
	t.Logf("%d incarnations, %d sheds, %d stillborn", run.Lives, run.Sheds, run.Stillborn)
	if err != nil {
		t.Fatal(err)
	}
	if c.disk && run.Sheds == 0 {
		t.Fatal("the write budgets never bit: no round was shed with ErrDiskPressure")
	}
	if c.attack != "" {
		checkByzReport(t, ref.Result.Report, c.attack)
		checkByzReport(t, run.Result.Report, c.attack)
	}
}

func runCells(t *testing.T, cells ...cell) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short")
	}
	for _, c := range cells {
		t.Run(c.String(), c.run)
	}
}

// TestChaosSoakShort: the default fault plan across kills.
func TestChaosSoakShort(t *testing.T) {
	runCells(t, cell{seed: 1, blocks: 4, kills: true}, cell{seed: 2, blocks: 4, kills: true})
}

// TestChaosSoakDiskPressure: the default fault plan on faulted
// filesystems, then one clean life.
func TestChaosSoakDiskPressure(t *testing.T) {
	runCells(t, cell{seed: 1, blocks: 4, disk: true}, cell{seed: 2, blocks: 4, disk: true})
}

// TestByzantineSoakShort: an attacker against the armed firewall across
// kills, and once also on faulted filesystems.
func TestByzantineSoakShort(t *testing.T) {
	runCells(t,
		cell{seed: 1, blocks: 4, attack: "timelie", kills: true},
		cell{seed: 2, blocks: 4, attack: "dupflood", kills: true},
		cell{seed: 3, blocks: 4, attack: "spoof", disk: true, kills: true},
	)
}

// soakSeed is the nightly soaks' shared base seed: SOAK_SEED, or the
// clock.
var soakSeed = sync.OnceValues(func() (int64, error) {
	if s := os.Getenv("SOAK_SEED"); s != "" {
		return strconv.ParseInt(s, 10, 64)
	}
	return time.Now().UnixNano(), nil
})

// nightly runs n cells drawn from the base seed under SOAK_NIGHTLY and
// records the base seed in soak-failure-seed.txt if any fails.
func nightly(t *testing.T, n int, draw func(seed int64, rng *rand.Rand) cell) {
	if os.Getenv("SOAK_NIGHTLY") == "" {
		t.Skip("set SOAK_NIGHTLY=1 to run the long randomized soak")
	}
	seed, err := soakSeed()
	if err != nil {
		t.Fatalf("SOAK_SEED: %v", err)
	}
	t.Logf("base seed %d (replay with SOAK_SEED=%d)", seed, seed)
	rng := rand.New(rand.NewSource(seed))
	for i := int64(0); i < int64(n); i++ {
		c := draw(seed+i, rng)
		t.Run(c.String(), c.run)
	}
	if t.Failed() {
		if err := os.WriteFile("soak-failure-seed.txt", []byte(fmt.Sprintf("SOAK_SEED=%d\n", seed)), 0o644); err != nil {
			t.Logf("recording failing seed: %v", err)
		}
	}
}

func TestChaosSoakNightly(t *testing.T) {
	nightly(t, 6, func(seed int64, _ *rand.Rand) cell { return cell{seed: seed, blocks: 6, kills: true} })
}

func TestChaosSoakNightlyDiskPressure(t *testing.T) {
	nightly(t, 4, func(seed int64, _ *rand.Rand) cell { return cell{seed: seed, blocks: 6, disk: true} })
}

// TestByzantineSoakNightly draws the attack, and whether the early lives
// run on faulted filesystems.
func TestByzantineSoakNightly(t *testing.T) {
	nightly(t, 4, func(seed int64, rng *rand.Rand) cell {
		attack := faults.AttackNames[rng.Intn(len(faults.AttackNames))]
		return cell{seed: seed, blocks: 6, attack: attack, disk: rng.Intn(2) == 0, kills: true}
	})
}

// TestOracleBites: a reference with one event altered, or with its
// fingerprint altered, is reported as a divergence naming the
// incarnation and the event, by RunToEnd and by KillLoop alike.
func TestOracleBites(t *testing.T) {
	s := testSetup(t, 4, 77, &probe.Engine{Observers: probe.StandardObservers(3), QuarterSeed: 7}, testConfig())
	ref := runToEnd(t, s)
	if len(ref.Events) == 0 {
		t.Fatal("reference run emitted no events; the oracle has nothing to compare")
	}
	last := len(ref.Events) - 1
	badEvent := *ref
	badEvent.Events = append([]stream.Event(nil), ref.Events...)
	badEvent.Events[last].EmitSeq++
	badFP := *ref
	badFP.Fingerprint = strings.Repeat("0", len(ref.Fingerprint))

	ctx := context.Background()
	for _, tc := range []struct {
		name  string
		ref   *Outcome
		event int
	}{{"event", &badEvent, last}, {"fingerprint", &badFP, -1}} {
		t.Run(tc.name, func(t *testing.T) {
			t.Run("RunToEnd", func(t *testing.T) {
				s.Dir = t.TempDir()
				_, err := RunToEnd(ctx, s, tc.ref)
				checkDivergence(t, err, 1, tc.event)
			})
			t.Run("KillLoop", func(t *testing.T) {
				s.Dir = t.TempDir()
				run, err := KillLoop(ctx, s, tc.ref, Kills{Rng: rand.New(rand.NewSource(1)), Kill: true})
				life := run.Lives
				if tc.event >= 0 {
					life = -1 // any rebirth that had journaled the event may report it
				}
				checkDivergence(t, err, life, tc.event)
			})
		})
	}
}

// TestCheckEventsBounds: a journal passes only when its events are
// numbered from 0 without a gap and each one emitted before the final
// flush came within the latency bound of being first seen and eligible;
// the early count and the worst latency skip the final flush's events.
func TestCheckEventsBounds(t *testing.T) {
	const rounds = 84
	cfg := testConfig()
	bound := cfg.LatencyBound()
	// ev returns event seq, first seen at round 10 and eligible at round
	// eligible, emitted lat rounds after the later of the two.
	ev := func(seq, eligible, lat int64) stream.Event {
		return stream.Event{Seq: seq, FirstSeenSeq: 10, EligibleSeq: eligible, EmitSeq: max(10, eligible) + lat}
	}
	flushed := stream.Event{Seq: 1, FirstSeenSeq: 10, EligibleSeq: 10, EmitSeq: rounds - 1}
	for _, tc := range []struct {
		name  string
		evs   []stream.Event
		early int
		worst int64
		ok    bool
	}{
		{"empty", nil, 0, 0, true},
		{"within", []stream.Event{ev(0, 5, 0), ev(1, 20, bound-1)}, 2, bound - 1, true},
		{"at bound", []stream.Event{ev(0, 30, bound)}, 1, bound, true},
		{"past bound", []stream.Event{ev(0, 5, 1), ev(1, 30, bound+1)}, 2, bound + 1, false},
		{"final flush exempt", []stream.Event{ev(0, 5, 2), flushed}, 1, 2, true},
		{"gap", []stream.Event{ev(0, 5, 0), ev(2, 5, 0)}, 2, 0, false},
		{"not from 0", []stream.Event{ev(1, 5, 0)}, 1, 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			early, worst, err := CheckEvents(tc.evs, rounds, cfg)
			if (err == nil) != tc.ok {
				t.Errorf("got %v, want ok=%v", err, tc.ok)
			}
			if early != tc.early || worst != tc.worst {
				t.Errorf("early %d worst %d, want early %d worst %d", early, worst, tc.early, tc.worst)
			}
		})
	}
}

// checkDivergence asserts err is a Divergence at event, reported by
// incarnation life (any incarnation when life < 0).
func checkDivergence(t *testing.T, err error, life, event int) {
	t.Helper()
	var div *Divergence
	if !errors.As(err, &div) {
		t.Fatalf("got %v, want a divergence", err)
	}
	if div.Event != event || div.Life < 1 || (life >= 0 && div.Life != life) {
		t.Errorf("divergence at incarnation %d event %d, want incarnation %d event %d", div.Life, div.Event, life, event)
	}
	want := fmt.Sprintf("incarnation %d", div.Life)
	if event >= 0 {
		want += fmt.Sprintf(": event %d", event)
	}
	if !strings.HasPrefix(err.Error(), want) {
		t.Errorf("%q does not name %q", err, want)
	}
}

// TestStreamingMatchesBatch: on fault-free input the streaming daemon's
// final result must match a batch pipeline run of the same world
// fingerprint-for-fingerprint, and every batch-detected change must have
// been emitted as an event.
func TestStreamingMatchesBatch(t *testing.T) {
	cfg := testConfig()
	eng := func() *probe.Engine { return &probe.Engine{Observers: probe.StandardObservers(3), QuarterSeed: 99} }
	s := testSetup(t, 8, 1234, eng(), cfg)
	batch, err := (&core.Pipeline{Config: cfg.Core, Engine: eng()}).Run(context.Background(), s.World)
	if err != nil {
		t.Fatal(err)
	}
	wantFP, err := batch.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	out := runToEnd(t, s)
	if out.Fingerprint != wantFP {
		t.Errorf("streaming fingerprint %.16s != batch %.16s", out.Fingerprint, wantFP)
	}

	// Every change the batch run detected must appear among the events,
	// matched by block, direction, and point within the daemon's
	// two-day tracking slop.
	const slop = 2 * netsim.SecondsPerDay
	var batchChanges int
	for b, bo := range batch.Blocks {
		if bo.Analysis == nil {
			continue
		}
		for _, ch := range bo.Analysis.Changes {
			batchChanges++
			found := false
			for _, ev := range out.Events {
				if ev.Block == b && ev.Change.Dir == ch.Dir && ev.Change.Point-ch.Point <= slop && ch.Point-ev.Change.Point <= slop {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("batch change in block %d (%v at %d) never emitted as an event", b, ch.Dir, ch.Point)
			}
		}
	}
	if batchChanges == 0 {
		t.Fatal("fixture produced no batch changes; the parity check is vacuous")
	}
	if len(out.Events) == 0 {
		t.Fatal("streaming run emitted no events")
	}
}

// TestStreamIntegrityGating covers the daemon's per-round gate without
// kills: armed against an attacker it gates exactly the attacker; armed
// on honest streams it gates nothing and changes nothing (the streamed
// analogue of the batch clean-world parity test).
func TestStreamIntegrityGating(t *testing.T) {
	if testing.Short() {
		t.Skip("streamed integrity runs skipped in -short")
	}
	armed := testConfig()
	armed.Core.Integrity = true
	t.Run("attacked", func(t *testing.T) {
		res := runToEnd(t, testSetup(t, 4, 11, byzEngine(t, "timelie", 3), armed)).Result
		checkByzReport(t, res.Report, "timelie")
		for _, v := range res.Report.IntegrityVerdicts {
			if v.Reason != "out-of-window" {
				t.Errorf("timelie verdict reason %q, want out-of-window", v.Reason)
			}
		}
	})
	t.Run("clean-parity", func(t *testing.T) {
		eng := &probe.Engine{Observers: probe.StandardObservers(byzObservers), QuarterSeed: 8}
		off := runToEnd(t, testSetup(t, 4, 11, eng, testConfig()))
		on := runToEnd(t, testSetup(t, 4, 11, eng, armed))
		if on.Fingerprint != off.Fingerprint {
			t.Errorf("clean streamed fingerprints differ with the firewall armed")
		}
		if len(on.Events) != len(off.Events) {
			t.Errorf("clean streamed events differ: %d vs %d", len(on.Events), len(off.Events))
		}
		rep := on.Result.Report
		if len(rep.GatedStreams) != 0 || len(rep.IntegrityVerdicts) != 0 {
			t.Errorf("honest streams gated: %v", rep.GatedStreams)
		}
		for i, s := range rep.AgreementScores {
			if s < 0.99 {
				t.Errorf("observer %d streamed agreement %.3f, want ~1", i, s)
			}
		}
	})
}
