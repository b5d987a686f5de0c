package core

import (
	"context"
	"reflect"
	"testing"
	"time"

	"github.com/diurnalnet/diurnal/internal/dataset"
	"github.com/diurnalnet/diurnal/internal/events"
	"github.com/diurnalnet/diurnal/internal/faults"
	"github.com/diurnalnet/diurnal/internal/integrity"
	"github.com/diurnalnet/diurnal/internal/netsim"
)

// integrityWorld builds a small honest world shared by the firewall tests.
func integrityWorld(t *testing.T) []*dataset.WorldBlock {
	t.Helper()
	world, err := dataset.BuildWorld(dataset.WorldOpts{
		Blocks:   24,
		Seed:     32,
		Calendar: events.Year2020(),
		Start:    q1Start,
		End:      netsim.Date(2020, time.February, 12),
	})
	if err != nil {
		t.Fatal(err)
	}
	return world
}

func integrityConfig() Config {
	cfg := DefaultConfig(q1Start, netsim.Date(2020, time.February, 12))
	cfg.BaselineStart = q1Start
	cfg.BaselineEnd = netsim.Date(2020, time.January, 29)
	return cfg
}

// TestIntegrityCleanWorldParity pins the off-by-default contract: with
// honest observers, arming the firewall gates nothing and leaves every
// block's analysis bit-identical to a disarmed run.
func TestIntegrityCleanWorldParity(t *testing.T) {
	world := integrityWorld(t)
	cfg := integrityConfig()

	off, err := (&Pipeline{Config: cfg, Engine: engine4()}).Run(context.Background(), world)
	if err != nil {
		t.Fatal(err)
	}
	armed := cfg
	armed.Integrity = true
	on, err := (&Pipeline{Config: armed, Engine: engine4()}).Run(context.Background(), world)
	if err != nil {
		t.Fatal(err)
	}

	offFP, err := off.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	onFP, err := on.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if offFP != onFP {
		t.Errorf("clean-world fingerprints differ with the firewall armed: %s vs %s", offFP, onFP)
	}
	if len(on.Report.GatedStreams) != 0 || len(on.Report.IntegrityVerdicts) != 0 {
		t.Errorf("honest streams gated: %v / %v", on.Report.GatedStreams, on.Report.IntegrityVerdicts)
	}
	if on.Report.Degraded() {
		t.Error("clean armed run reported degraded")
	}
	if len(on.Report.AgreementScores) != 4 {
		t.Fatalf("AgreementScores = %v, want 4 entries", on.Report.AgreementScores)
	}
	for i, s := range on.Report.AgreementScores {
		if s < 0.99 {
			t.Errorf("observer %d agreement %.3f, want ~1 on honest streams", i, s)
		}
	}
	if off.Report.GatedStreams != nil || off.Report.AgreementScores != nil || off.Report.IntegrityVerdicts != nil {
		t.Errorf("disarmed run populated integrity report: %+v", off.Report)
	}
}

// TestIntegrityGatesAttacker runs each Byzantine attack at full severity
// and checks the attacking observer is gated with the expected reason
// while every honest observer survives.
func TestIntegrityGatesAttacker(t *testing.T) {
	world := integrityWorld(t)
	cfg := integrityConfig()
	cfg.Integrity = true
	const attacker = 3

	wantReason := map[string]string{
		"ratelimit": "reply-rate",
		"dupflood":  "duplicates",
		"replay":    "duplicates",
		"timelie":   "out-of-window",
		"spoof":     "non-member",
	}
	for _, attack := range faults.AttackNames {
		plan, err := faults.AttackPlan(4, attack, 1, 99)
		if err != nil {
			t.Fatal(err)
		}
		eng := &faults.Engine{Inner: engine4(), Plan: plan}
		res, err := (&Pipeline{Config: cfg, Engine: eng}).Run(context.Background(), world)
		if err != nil {
			t.Fatalf("%s: %v", attack, err)
		}
		rep := res.Report
		if len(rep.GatedStreams) != 1 || rep.GatedStreams[0] != attacker {
			t.Fatalf("%s: GatedStreams = %v, want [%d]", attack, rep.GatedStreams, attacker)
		}
		if !rep.Degraded() {
			t.Errorf("%s: gated run not degraded", attack)
		}
		if len(rep.IntegrityVerdicts) == 0 {
			t.Fatalf("%s: no verdicts attributed", attack)
		}
		for _, v := range rep.IntegrityVerdicts {
			if v.Observer != attacker {
				t.Errorf("%s: honest observer %d gated in block %d (%s)",
					attack, v.Observer, v.Index, v.Reason)
			}
		}
		want := wantReason[attack]
		found := false
		for _, v := range rep.IntegrityVerdicts {
			if v.Reason == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: no verdict with reason %q (got %q)",
				attack, want, rep.IntegrityVerdicts[0].Reason)
		}
		if len(rep.AgreementScores) != 4 {
			t.Errorf("%s: AgreementScores = %v", attack, rep.AgreementScores)
		}
	}
}

// TestIntegrityVerdictOrder pins the report's attribution order: verdicts
// sorted by block index then observer, gated streams ascending.
func TestIntegrityVerdictOrder(t *testing.T) {
	world := integrityWorld(t)
	cfg := integrityConfig()
	cfg.Integrity = true
	plan, err := faults.AttackPlan(4, "timelie", 1, 99)
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&Pipeline{Config: cfg, Engine: &faults.Engine{Inner: engine4(), Plan: plan}}).
		Run(context.Background(), world)
	if err != nil {
		t.Fatal(err)
	}
	vs := res.Report.IntegrityVerdicts
	for i := 1; i < len(vs); i++ {
		if vs[i].Index < vs[i-1].Index ||
			(vs[i].Index == vs[i-1].Index && vs[i].Observer <= vs[i-1].Observer) {
			t.Fatalf("verdicts out of order at %d: %+v then %+v", i, vs[i-1], vs[i])
		}
	}
	for i := 1; i < len(res.Report.GatedStreams); i++ {
		if res.Report.GatedStreams[i] <= res.Report.GatedStreams[i-1] {
			t.Fatalf("GatedStreams not ascending: %v", res.Report.GatedStreams)
		}
	}
}

// gatedVerdict is a verdict of a stream the firewall gated for reason.
func gatedVerdict(reason string) integrity.Verdict {
	return integrity.Verdict{Gated: true, Reason: reason}
}

// TestIntegrityTallyFirstReasonWins: the daemon adds a block once per
// round, and a stream gated in several rounds keeps its first reason.
func TestIntegrityTallyFirstReasonWins(t *testing.T) {
	var tally IntegrityTally
	tally.Add(3, 30, []integrity.Verdict{{}, gatedVerdict("reply-rate")})
	tally.Add(3, 30, []integrity.Verdict{gatedVerdict("duplicates"), gatedVerdict("disagreement")})
	var rep RunReport
	tally.Report(&rep)
	want := []IntegrityVerdict{
		{Index: 3, Block: 30, Observer: 0, Reason: "duplicates"},
		{Index: 3, Block: 30, Observer: 1, Reason: "reply-rate"},
	}
	if !reflect.DeepEqual(rep.IntegrityVerdicts, want) {
		t.Fatalf("IntegrityVerdicts = %+v, want %+v", rep.IntegrityVerdicts, want)
	}
}

// TestIntegrityTallyVerdictOrder: verdicts come out by (index, observer)
// whatever order the blocks settled in.
func TestIntegrityTallyVerdictOrder(t *testing.T) {
	var tally IntegrityTally
	tally.Add(5, 50, []integrity.Verdict{{}, gatedVerdict("reply-rate"), gatedVerdict("non-member")})
	tally.Add(2, 20, []integrity.Verdict{{}, {}, gatedVerdict("duplicates")})
	tally.Add(4, 40, []integrity.Verdict{gatedVerdict("out-of-window"), {}, {}})
	var rep RunReport
	tally.Report(&rep)
	want := []IntegrityVerdict{
		{Index: 2, Block: 20, Observer: 2, Reason: "duplicates"},
		{Index: 4, Block: 40, Observer: 0, Reason: "out-of-window"},
		{Index: 5, Block: 50, Observer: 1, Reason: "reply-rate"},
		{Index: 5, Block: 50, Observer: 2, Reason: "non-member"},
	}
	if !reflect.DeepEqual(rep.IntegrityVerdicts, want) {
		t.Fatalf("IntegrityVerdicts = %+v, want %+v", rep.IntegrityVerdicts, want)
	}
}

// TestIntegrityTallyAgreement: agreement is matches over comparisons
// summed across adds, and 1 for an observer never compared; an empty
// tally reports nothing.
func TestIntegrityTallyAgreement(t *testing.T) {
	var tally IntegrityTally
	var empty RunReport
	tally.Report(&empty)
	if empty.GatedStreams != nil || empty.AgreementScores != nil || empty.IntegrityVerdicts != nil {
		t.Fatalf("an empty tally reported %+v", empty)
	}
	tally.Add(0, 10, []integrity.Verdict{{Matches: 3, Comparisons: 4}, {}, gatedVerdict("reply-rate")})
	tally.Add(1, 11, []integrity.Verdict{{Matches: 1, Comparisons: 4}, {}, {}})
	var rep RunReport
	tally.Report(&rep)
	if want := []float64{0.5, 1, 1}; !reflect.DeepEqual(rep.AgreementScores, want) {
		t.Fatalf("AgreementScores = %v, want %v", rep.AgreementScores, want)
	}
}

// TestIntegrityTallyGatedStreamsAscending: the gated observers are listed
// once each, ascending, whatever order they were gated in.
func TestIntegrityTallyGatedStreamsAscending(t *testing.T) {
	var tally IntegrityTally
	tally.Add(0, 10, []integrity.Verdict{{}, {}, {}, gatedVerdict("reply-rate")})
	tally.Add(1, 11, []integrity.Verdict{{}, gatedVerdict("duplicates"), {}, gatedVerdict("reply-rate")})
	tally.Add(2, 12, []integrity.Verdict{{}, gatedVerdict("duplicates"), {}, {}})
	var rep RunReport
	tally.Report(&rep)
	if want := []int{1, 3}; !reflect.DeepEqual(rep.GatedStreams, want) {
		t.Fatalf("GatedStreams = %v, want %v", rep.GatedStreams, want)
	}
}
