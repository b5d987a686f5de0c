package outage

import (
	"testing"
	"time"

	"github.com/diurnalnet/diurnal/internal/netsim"
	"github.com/diurnalnet/diurnal/internal/probe"
	"github.com/diurnalnet/diurnal/internal/reconstruct"
)

var jan6 = netsim.Date(2020, time.January, 6)

func TestStateString(t *testing.T) {
	for _, s := range []State{Up, Down, Unknown} {
		if s.String() == "" {
			t.Errorf("state %d renders empty", s)
		}
	}
}

func TestNewDetectorValidation(t *testing.T) {
	if _, err := NewDetector(0, Params{}); err == nil {
		t.Error("expected error for zero availability")
	}
	if _, err := NewDetector(1.5, Params{}); err == nil {
		t.Error("expected error for availability > 1")
	}
	if _, err := NewDetector(0.5, Params{UpThreshold: 0.1, DownThreshold: 0.9}); err == nil {
		t.Error("expected error for inverted thresholds")
	}
	d, err := NewDetector(0.001, Params{}) // clamped up to 0.05
	if err != nil {
		t.Fatal(err)
	}
	if d.State() != Up {
		t.Error("detector should start presumed up")
	}
}

func TestBeliefCollapsesOnSilence(t *testing.T) {
	d, err := NewDetector(0.6, Params{})
	if err != nil {
		t.Fatal(err)
	}
	// A handful of non-replies should take the block down.
	for i := 0; i < 10; i++ {
		d.Observe(int64(i*660), false)
	}
	if d.State() != Down {
		t.Fatalf("state = %v after sustained silence, belief %.3f", d.State(), d.Belief())
	}
	if len(d.Outages()) != 1 || d.Outages()[0].End != 0 {
		t.Fatalf("want one open outage, got %+v", d.Outages())
	}
}

func TestBeliefRecoversOnReply(t *testing.T) {
	d, err := NewDetector(0.6, Params{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		d.Observe(int64(i*660), false)
	}
	// Positive replies are strong evidence: recovery within a couple.
	for i := 10; i < 14; i++ {
		d.Observe(int64(i*660), true)
	}
	if d.State() != Up {
		t.Fatalf("state = %v after replies, belief %.3f", d.State(), d.Belief())
	}
	outs := d.Outages()
	if len(outs) != 1 || outs[0].End == 0 {
		t.Fatalf("outage should be closed: %+v", outs)
	}
	if outs[0].End <= outs[0].Start {
		t.Fatal("outage interval inverted")
	}
}

func TestLowAvailabilityNeedsMoreEvidence(t *testing.T) {
	// With A = 0.1, single non-replies are weak evidence; the detector
	// must not declare an outage after just two of them.
	d, err := NewDetector(0.1, Params{})
	if err != nil {
		t.Fatal(err)
	}
	d.Observe(0, false)
	d.Observe(660, false)
	if d.State() == Down {
		t.Fatalf("A=0.1 block marked down after 2 non-replies (belief %.3f)", d.Belief())
	}
	// But with A = 0.9, two non-replies are damning.
	d2, _ := NewDetector(0.9, Params{})
	d2.Observe(0, false)
	d2.Observe(660, false)
	if d2.Belief() >= d.Belief() {
		t.Error("higher availability should make silence more suspicious")
	}
}

func TestFromRecordsDetectsSimulatedOutage(t *testing.T) {
	b, err := netsim.NewBlock(1, 77, netsim.Spec{Workers: 40, AlwaysOn: 20})
	if err != nil {
		t.Fatal(err)
	}
	oStart := jan6 + 2*netsim.SecondsPerDay
	oEnd := oStart + 36*3600
	b.AddEvent(netsim.Event{Kind: netsim.EventOutage, Start: oStart, End: oEnd})
	eng := &probe.Engine{Observers: probe.StandardObservers(4), QuarterSeed: 5}
	perObs, err := eng.Collect(b, jan6, jan6+7*netsim.SecondsPerDay)
	if err != nil {
		t.Fatal(err)
	}
	intervals, err := FromRecords(reconstruct.MergeInto(nil, perObs), 0, Params{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, iv := range intervals {
		if iv.End == 0 {
			continue
		}
		// The detected interval should bracket the true outage within a
		// few probing rounds.
		if iv.Start > oStart-3600 && iv.Start < oStart+4*3600 &&
			iv.End > oEnd-4*3600 && iv.End < oEnd+4*3600 {
			found = true
		}
	}
	if !found {
		t.Fatalf("true outage [%d,%d) not found in %+v", oStart, oEnd, intervals)
	}
}

func TestFromRecordsNoFalseOutageOnHoliday(t *testing.T) {
	// A holiday silences the workers but the always-on addresses keep
	// answering: no multi-day outage should be detected.
	b, err := netsim.NewBlock(2, 78, netsim.Spec{Workers: 60, AlwaysOn: 6})
	if err != nil {
		t.Fatal(err)
	}
	h := jan6 + 7*netsim.SecondsPerDay
	b.AddEvent(netsim.Event{Kind: netsim.EventHoliday, Start: h, End: h + 5*netsim.SecondsPerDay, Adoption: 0.95})
	eng := &probe.Engine{Observers: probe.StandardObservers(4), QuarterSeed: 6}
	perObs, err := eng.Collect(b, jan6, jan6+14*netsim.SecondsPerDay)
	if err != nil {
		t.Fatal(err)
	}
	intervals, err := FromRecords(reconstruct.MergeInto(nil, perObs), 0, Params{})
	if err != nil {
		t.Fatal(err)
	}
	for _, iv := range intervals {
		end := iv.End
		if end == 0 {
			end = jan6 + 14*netsim.SecondsPerDay
		}
		if end-iv.Start >= 24*3600 {
			t.Fatalf("holiday misdetected as a %d-hour outage", (end-iv.Start)/3600)
		}
	}
}

func TestFromRecordsEdgeCases(t *testing.T) {
	if ivs, err := FromRecords(nil, 0, Params{}); err != nil || ivs != nil {
		t.Fatal("empty stream should be a no-op")
	}
	// All-negative stream: availability estimate 0 -> nothing to detect.
	recs := []probe.Record{{T: 1}, {T: 2}, {T: 3}}
	if ivs, err := FromRecords(recs, 0, Params{}); err != nil || ivs != nil {
		t.Fatalf("never-responsive block should yield nothing, got %v %v", ivs, err)
	}
}

func TestBeliefBounded(t *testing.T) {
	d, err := NewDetector(0.7, Params{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		d.Observe(int64(i), i%5 == 0)
		if b := d.Belief(); b < 0.009 || b > 0.991 {
			t.Fatalf("belief %v escaped its caps", b)
		}
	}
}

// observeReference is the pre-fast-path Bayesian update, kept verbatim as
// the oracle for TestObserveSaturationFastPath.
func observeReference(d *Detector, t int64, up bool) {
	a := d.availability
	eps := d.params.LieProbability
	var pObsUp, pObsDown float64
	if up {
		pObsUp, pObsDown = a, eps
	} else {
		pObsUp, pObsDown = 1-a, 1-eps
	}
	num := pObsUp * d.belief
	den := num + pObsDown*(1-d.belief)
	if den > 0 {
		d.belief = num / den
	}
	if d.belief < d.params.BeliefFloor {
		d.belief = d.params.BeliefFloor
	}
	if d.belief > d.params.BeliefCeiling {
		d.belief = d.params.BeliefCeiling
	}
	switch {
	case d.belief >= d.params.UpThreshold:
		if d.state == Down {
			d.outages[len(d.outages)-1].End = t
		}
		d.state = Up
	case d.belief <= d.params.DownThreshold:
		if d.state != Down {
			d.outages = append(d.outages, Interval{Start: t})
		}
		d.state = Down
	}
}

// TestObserveSaturationFastPath drives Observe and the reference update
// over identical pseudorandom streams — including long saturated runs that
// exercise the skip — and demands bit-identical beliefs, states, and
// intervals at every step.
func TestObserveSaturationFastPath(t *testing.T) {
	for _, avail := range []float64{0.05, 0.3, 0.8, 0.99} {
		for _, params := range []Params{{}, {UpThreshold: 0.95, DownThreshold: 0.2, LieProbability: 0.05, BeliefFloor: 0.001, BeliefCeiling: 0.999}} {
			fast, err := NewDetector(avail, params)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := NewDetector(avail, params)
			if err != nil {
				t.Fatal(err)
			}
			state := uint64(12345)
			upRun, downRun := 0, 0
			for i := 0; i < 5000; i++ {
				state = state*6364136223846793005 + 1442695040888963407
				var up bool
				switch {
				case upRun > 0:
					up, upRun = true, upRun-1
				case downRun > 0:
					up, downRun = false, downRun-1
				default:
					r := state >> 56
					switch {
					case r < 64:
						upRun = int(state>>48) & 63 // long positive runs: ceiling skips
					case r < 128:
						downRun = int(state>>48) & 63 // long negative runs: floor skips
					}
					up = state&1 == 0
				}
				fast.Observe(int64(i), up)
				observeReference(ref, int64(i), up)
				if fast.belief != ref.belief || fast.state != ref.state {
					t.Fatalf("avail %v step %d: fast (belief=%v state=%v) != ref (belief=%v state=%v)",
						avail, i, fast.belief, fast.state, ref.belief, ref.state)
				}
			}
			if len(fast.outages) != len(ref.outages) {
				t.Fatalf("avail %v: %d outages vs %d", avail, len(fast.outages), len(ref.outages))
			}
			for i := range fast.outages {
				if fast.outages[i] != ref.outages[i] {
					t.Fatalf("avail %v outage %d: %+v vs %+v", avail, i, fast.outages[i], ref.outages[i])
				}
			}
		}
	}
}

// Belief returns the current P(block up).
func (d *Detector) Belief() float64 { return d.belief }

// Observe updates the belief with one probe result at time t. Probe
// results must arrive in time order. It is ObserveAll over one record.
func (d *Detector) Observe(t int64, up bool) {
	one := [1]probe.Record{{T: t, Up: up}}
	d.ObserveAll(one[:])
}

// State returns the current decision.
func (d *Detector) State() State { return d.state }
