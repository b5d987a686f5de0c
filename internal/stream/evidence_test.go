package stream

import (
	"reflect"
	"testing"

	"github.com/diurnalnet/diurnal/internal/changepoint"
	"github.com/diurnalnet/diurnal/internal/core"
)

// TestFlatBaselineEvidence: a baseline whose samples are all equal has unit
// scale at every level, so the same slow move after it raises the same
// evidence at the same sample. The one-pass variance of such a baseline
// rounds to 0 at some levels and to a few parts in a million at others,
// which used to turn the move into a z-score of tens of thousands there.
func TestFlatBaselineEvidence(t *testing.T) {
	// The trend falls by step addresses a sample over ramp samples: in
	// addresses, CUSUM (threshold 1) needs four of them to alarm.
	const baseline, after, step, ramp = 504, 200, 0.3, 10
	cusum := changepoint.DefaultOpts()
	cusum.Drift = 0.004
	cfg := Config{Core: core.Config{
		AnalysisEnd: (baseline + after) * 3600,
		BaselineEnd: baseline * 3600,
		SampleStep:  3600,
		CUSUM:       cusum,
	}}
	var want []evidencePoint
	for i, level := range []float64{12.1, 37.3, 101.9} {
		trend := make([]float64, baseline+after)
		for j := range trend {
			trend[j] = level - step*float64(min(max(j-baseline+1, 0), ramp))
		}
		d := &detector{cfg: cfg, rc: resolveCore(t, cfg.Core)}
		bs := &blockState{}
		bs.window.Lag = -1
		a := &core.BlockAnalysis{Trend: trend}
		// The first refresh freezes the scale; the second, with nothing
		// moved, settles every sample and feeds them.
		d.observeEvidence(bs, a, 1)
		d.observeEvidence(bs, a, 2)
		if bs.normStd != 1 {
			t.Errorf("level %v: flat baseline scaled by %g, want 1", level, bs.normStd)
		}
		if len(bs.evidence) == 0 {
			t.Fatalf("level %v: a fall of %v addresses raised no evidence", level, step*ramp)
		}
		if i == 0 {
			want = bs.evidence
		} else if !reflect.DeepEqual(bs.evidence, want) {
			t.Errorf("level %v: evidence %+v, at level 12.1 %+v", level, bs.evidence, want)
		}
	}
	if first := int64(baseline * 3600); want[0].t < first+3*3600 {
		t.Errorf("the fall alarmed %d samples into it, want the fourth: it was scaled as more than %v sigma a sample",
			(want[0].t-first)/3600+1, step)
	}
}

// TestOnlineCUSUMArmedByDefault: under plain DefaultConfig the online
// CUSUM runs after the baseline, so some events carry streaming evidence.
// Spelling the resolved CUSUM out by hand changes nothing else: the
// events, their evidence aside, and the fingerprint are the same.
func TestOnlineCUSUMArmedByDefault(t *testing.T) {
	world := testWorld(t, 12, 3)
	cfg := testConfig()
	f := testFeeder(t, testEngine(3), world, cfg)
	evs, fp := runStream(t, t.TempDir(), world, f, cfg)
	withEvidence := 0
	for _, ev := range evs {
		if ev.EvidenceSeq >= 0 {
			withEvidence++
		}
	}
	t.Logf("%d events, %d with online evidence", len(evs), withEvidence)
	if withEvidence == 0 {
		t.Errorf("none of %d events has online evidence: the online CUSUM never ran", len(evs))
	}
	hand := cfg
	hand.Core.CUSUM = changepoint.Opts{Threshold: 1, Drift: 0.004}
	handEvs, handFP := runStream(t, t.TempDir(), world, f, hand)
	for _, list := range [][]Event{evs, handEvs} {
		for i := range list {
			list[i].EvidenceSeq = 0
		}
	}
	if !reflect.DeepEqual(evs, handEvs) {
		t.Errorf("CUSUM set by hand: %d events, by default %d, and they differ beyond their evidence", len(handEvs), len(evs))
	}
	if handFP != fp {
		t.Errorf("CUSUM set by hand: fingerprint %.16s, by default %.16s", handFP, fp)
	}
}
