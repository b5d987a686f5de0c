package faults

import (
	"context"
	"testing"
	"time"

	"github.com/diurnalnet/diurnal/internal/netsim"
	"github.com/diurnalnet/diurnal/internal/probe"
	"github.com/diurnalnet/diurnal/internal/reconstruct"
)

var jan6 = netsim.Date(2020, time.January, 6)

func newBlock(t *testing.T, spec netsim.Spec) *netsim.Block {
	t.Helper()
	b, err := netsim.NewBlock(42, 1234, spec)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func collect(t *testing.T, e *Engine, b *netsim.Block, start, end int64) [][]probe.Record {
	t.Helper()
	bufs, err := e.CollectInto(context.Background(), b, start, end, nil)
	if err != nil {
		t.Fatal(err)
	}
	return bufs
}

// replyRate is the fraction of the records that answered.
func replyRate(records []probe.Record) float64 {
	up := 0
	for _, r := range records {
		if r.Up {
			up++
		}
	}
	return float64(up) / float64(len(records))
}

func TestNilPlanPassesThrough(t *testing.T) {
	b := newBlock(t, netsim.Spec{AlwaysOn: 20})
	inner := &probe.Engine{Observers: probe.StandardObservers(2), QuarterSeed: 7}
	want, err := inner.Collect(b, jan6, jan6+12*3600)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, &Engine{Inner: inner}, b, jan6, jan6+12*3600)
	if len(got) != len(want) {
		t.Fatalf("stream count %d != %d", len(got), len(want))
	}
	for oi := range got {
		if len(got[oi]) != len(want[oi]) {
			t.Fatalf("observer %d: %d records != %d", oi, len(got[oi]), len(want[oi]))
		}
		for i := range got[oi] {
			if got[oi][i] != want[oi][i] {
				t.Fatalf("observer %d record %d differs", oi, i)
			}
		}
	}
}

func TestDowntimeSilencesWindow(t *testing.T) {
	b := newBlock(t, netsim.Spec{AlwaysOn: 20})
	inner := &probe.Engine{Observers: probe.StandardObservers(2), QuarterSeed: 7}
	plan := &Plan{Seed: 1, PerObserver: []ObserverFaults{
		{Downtimes: []Downtime{{Start: jan6 + 3*3600, End: jan6 + 9*3600}}},
	}}
	bufs := collect(t, &Engine{Inner: inner, Plan: plan}, b, jan6, jan6+12*3600)
	for _, r := range bufs[0] {
		if r.T >= jan6+3*3600 && r.T < jan6+9*3600 {
			t.Fatalf("record at %d inside downtime", r.T)
		}
	}
	if len(bufs[0]) == 0 {
		t.Fatal("observer should still probe outside downtime")
	}
	inWindow := 0
	for _, r := range bufs[1] {
		if r.T >= jan6+3*3600 && r.T < jan6+9*3600 {
			inWindow++
		}
	}
	if inWindow == 0 {
		t.Fatal("unfaulted observer must keep probing through the window")
	}
}

func TestBurstLossLowersReplyRateInBursts(t *testing.T) {
	b := newBlock(t, netsim.Spec{AlwaysOn: 30})
	inner := &probe.Engine{Observers: probe.StandardObservers(1), QuarterSeed: 7}
	inner.Observers[0].Extra = 4 // sample past the first positive so rates are comparable
	clean, err := inner.Collect(b, jan6, jan6+7*netsim.SecondsPerDay)
	if err != nil {
		t.Fatal(err)
	}
	plan := &Plan{Seed: 3, PerObserver: []ObserverFaults{
		{Burst: &GilbertElliott{PGoodToBad: 0.05, PBadToGood: 0.2, LossBad: 0.9}},
	}}
	lossy := collect(t, &Engine{Inner: inner, Plan: plan}, b, jan6, jan6+7*netsim.SecondsPerDay)
	cleanRate, lossyRate := replyRate(clean[0]), replyRate(lossy[0])
	if lossyRate >= cleanRate {
		t.Fatalf("bursty loss did not lower reply rate: %.3f >= %.3f", lossyRate, cleanRate)
	}
	// Burstiness: losses cluster. Compare the variance of per-round loss
	// against what independent loss of the same mean would produce — a
	// crude dispersion check: count rounds that are entirely lost.
	lostRounds, rounds := 0, 0
	var curT int64 = -1
	allLost := false
	flush := func() {
		if curT >= 0 {
			rounds++
			if allLost {
				lostRounds++
			}
		}
	}
	for _, r := range lossy[0] {
		if r.T != curT {
			flush()
			curT = r.T
			allLost = true
		}
		if r.Up {
			allLost = false
		}
	}
	flush()
	if lostRounds == 0 {
		t.Error("expected some fully lost rounds under bursty loss")
	}
	_ = rounds
}

func TestGilbertElliottDeterministic(t *testing.T) {
	g := &GilbertElliott{PGoodToBad: 0.1, PBadToGood: 0.3, LossBad: 0.8, LossGood: 0.05}
	a := g.lossFunc(9, 1)
	c := g.lossFunc(9, 1)
	for r := int64(0); r < 200; r++ {
		tm := jan6 + r*netsim.RoundSeconds
		if a(5, tm, 17) != c(5, tm, 17) {
			t.Fatalf("loss decision diverged at round %d", r)
		}
	}
}

func TestClockSkewShiftsMonotonically(t *testing.T) {
	b := newBlock(t, netsim.Spec{AlwaysOn: 20})
	inner := &probe.Engine{Observers: probe.StandardObservers(1), QuarterSeed: 7}
	clean, err := inner.Collect(b, jan6, jan6+2*netsim.SecondsPerDay)
	if err != nil {
		t.Fatal(err)
	}
	plan := &Plan{Seed: 1, PerObserver: []ObserverFaults{
		{Clock: &ClockSkew{Offset: 600, DriftPerDay: 120}},
	}}
	skewed := collect(t, &Engine{Inner: inner, Plan: plan}, b, jan6, jan6+2*netsim.SecondsPerDay)
	if len(skewed[0]) != len(clean[0]) {
		t.Fatalf("skew must not add or drop records: %d != %d", len(skewed[0]), len(clean[0]))
	}
	for i := range skewed[0] {
		shift := skewed[0][i].T - clean[0][i].T
		if shift < 600 {
			t.Fatalf("record %d shifted by %d < offset", i, shift)
		}
		if i > 0 && skewed[0][i].T < skewed[0][i-1].T {
			t.Fatal("skewed stream lost time order")
		}
	}
	last := len(skewed[0]) - 1
	if lastShift := skewed[0][last].T - clean[0][last].T; lastShift < 600+100 {
		t.Errorf("drift did not accumulate: final shift %d", lastShift)
	}
}

func TestCorruptionThenSanitizeRestoresReconstruction(t *testing.T) {
	b := newBlock(t, netsim.Spec{Workers: 40, AlwaysOn: 5})
	inner := &probe.Engine{Observers: probe.StandardObservers(1), QuarterSeed: 7}
	end := jan6 + 3*netsim.SecondsPerDay
	clean, err := inner.Collect(b, jan6, end)
	if err != nil {
		t.Fatal(err)
	}
	// Duplication and reordering only: sanitization recovers the exact
	// information content (truncation genuinely loses data).
	plan := &Plan{Seed: 5, PerObserver: []ObserverFaults{
		{Corrupt: &Corruption{DuplicateProb: 0.5, ReorderProb: 0.5, BatchSize: 32}},
	}}
	dirty := collect(t, &Engine{Inner: inner, Plan: plan}, b, jan6, end)
	if len(dirty[0]) <= len(clean[0]) {
		t.Fatalf("expected duplicated records: %d <= %d", len(dirty[0]), len(clean[0]))
	}
	san, rep := reconstruct.Sanitize(dirty[0], jan6, end)
	if rep.Duplicates == 0 || rep.Reordered == 0 {
		t.Fatalf("sanitize saw no corruption: %+v", rep)
	}
	eb := b.EverActive()
	want, err := reconstruct.Reconstruct(clean[0], eb)
	if err != nil {
		t.Fatal(err)
	}
	got, err := reconstruct.Reconstruct(san, eb)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Times) != len(want.Times) {
		t.Fatalf("series length %d != %d", len(got.Times), len(want.Times))
	}
	for i := range got.Times {
		if got.Times[i] != want.Times[i] || got.Counts[i] != want.Counts[i] {
			t.Fatalf("series diverges at %d: (%d,%v) != (%d,%v)",
				i, got.Times[i], got.Counts[i], want.Times[i], want.Counts[i])
		}
	}
}

func TestCorruptionTruncationDropsRecords(t *testing.T) {
	b := newBlock(t, netsim.Spec{AlwaysOn: 20})
	inner := &probe.Engine{Observers: probe.StandardObservers(1), QuarterSeed: 7}
	end := jan6 + 2*netsim.SecondsPerDay
	clean, err := inner.Collect(b, jan6, end)
	if err != nil {
		t.Fatal(err)
	}
	plan := &Plan{Seed: 5, PerObserver: []ObserverFaults{
		{Corrupt: &Corruption{TruncateProb: 1, BatchSize: 16}},
	}}
	dirty := collect(t, &Engine{Inner: inner, Plan: plan}, b, jan6, end)
	if len(dirty[0]) >= len(clean[0]) {
		t.Fatalf("truncation dropped nothing: %d >= %d", len(dirty[0]), len(clean[0]))
	}
}

func TestDefaultPlanSeverityScaling(t *testing.T) {
	if p := DefaultPlan(4, 0, jan6, 1); len(p.PerObserver) != 0 {
		t.Fatal("severity 0 must be fault-free")
	}
	p := DefaultPlan(4, 1, jan6, 1)
	if len(p.PerObserver) != 4 {
		t.Fatalf("expected 4 observer fault sets, got %d", len(p.PerObserver))
	}
	broken := p.PerObserver[3]
	if len(broken.Downtimes) == 0 {
		t.Fatal("severity 1 must include a downtime on the last observer")
	}
	if dur := broken.Downtimes[0].End - broken.Downtimes[0].Start; dur < 7*netsim.SecondsPerDay {
		t.Fatalf("severity-1 downtime too short: %d", dur)
	}
	half := DefaultPlan(4, 0.5, jan6, 1)
	if hd, fd := half.PerObserver[3].Downtimes[0], broken.Downtimes[0]; hd.End-hd.Start >= fd.End-fd.Start {
		t.Fatal("downtime must scale with severity")
	}
	if half.PerObserver[0].Clock == nil || half.PerObserver[1].Corrupt == nil {
		t.Fatal("plan must include clock skew and corruption")
	}
	if hb, fb := half.PerObserver[2].Burst, p.PerObserver[2].Burst; hb.LossBad >= fb.LossBad {
		t.Fatal("burst loss must scale with severity")
	}
}

func TestEngineDeterministicAcrossCalls(t *testing.T) {
	b := newBlock(t, netsim.Spec{Workers: 30, AlwaysOn: 10})
	inner := &probe.Engine{Observers: probe.StandardObservers(3), QuarterSeed: 7}
	plan := DefaultPlan(3, 0.8, jan6, 11)
	e := &Engine{Inner: inner, Plan: plan}
	end := jan6 + 5*netsim.SecondsPerDay
	a := collect(t, e, b, jan6, end)
	c := collect(t, e, b, jan6, end)
	for oi := range a {
		if len(a[oi]) != len(c[oi]) {
			t.Fatalf("observer %d: run lengths differ %d != %d", oi, len(a[oi]), len(c[oi]))
		}
		for i := range a[oi] {
			if a[oi][i] != c[oi][i] {
				t.Fatalf("observer %d record %d differs across identical runs", oi, i)
			}
		}
	}
}
