package core

import (
	"testing"
	"time"

	"github.com/diurnalnet/diurnal/internal/changepoint"
	"github.com/diurnalnet/diurnal/internal/netsim"
	"github.com/diurnalnet/diurnal/internal/outage"
	"github.com/diurnalnet/diurnal/internal/probe"
	"github.com/diurnalnet/diurnal/internal/reconstruct"
)

const day = netsim.SecondsPerDay

func mkChange(dir changepoint.Direction, startDay, endDay int64, raw float64) Change {
	return Change{
		Dir:          dir,
		Start:        startDay * day,
		Alarm:        startDay*day + 12*3600,
		End:          endDay * day,
		Point:        (startDay + endDay) / 2 * day,
		RawAmplitude: raw,
	}
}

func TestSuppressReboundsDropsSmallOpposite(t *testing.T) {
	changes := []Change{
		mkChange(changepoint.Down, 10, 14, -8),
		mkChange(changepoint.Up, 15, 17, 3), // starts 1 day after prev end, 37% of size
	}
	out := suppressRebounds(changes)
	if len(out) != 1 || out[0].Dir != changepoint.Down {
		t.Fatalf("rebound not suppressed: %+v", out)
	}
}

func TestSuppressReboundsKeepsComparableRecovery(t *testing.T) {
	changes := []Change{
		mkChange(changepoint.Down, 10, 13, -8),
		mkChange(changepoint.Up, 14, 16, 7.5), // full recovery: a real event
	}
	if out := suppressRebounds(changes); len(out) != 2 {
		t.Fatalf("comparable recovery suppressed: %+v", out)
	}
}

func TestSuppressReboundsKeepsDistantOpposite(t *testing.T) {
	changes := []Change{
		mkChange(changepoint.Down, 10, 13, -8),
		mkChange(changepoint.Up, 20, 22, 3), // a week later: unrelated
	}
	if out := suppressRebounds(changes); len(out) != 2 {
		t.Fatalf("distant change suppressed: %+v", out)
	}
}

func TestSuppressReboundsKeepsSameDirection(t *testing.T) {
	changes := []Change{
		mkChange(changepoint.Down, 10, 13, -8),
		mkChange(changepoint.Down, 14, 16, -3),
	}
	if out := suppressRebounds(changes); len(out) != 2 {
		t.Fatalf("same-direction change suppressed: %+v", out)
	}
}

func TestFilterOutagePairsComparableMagnitude(t *testing.T) {
	changes := []Change{
		mkChange(changepoint.Down, 10, 11, -8),
		mkChange(changepoint.Up, 12, 13, 7), // recovery: comparable, close
	}
	kept, removed := filterOutagePairs(changes, 5*day)
	if len(kept) != 0 || len(removed) != 2 {
		t.Fatalf("outage pair not removed: kept=%v", kept)
	}
}

func TestFilterOutagePairsSkipsAsymmetric(t *testing.T) {
	changes := []Change{
		mkChange(changepoint.Down, 10, 11, -10),
		mkChange(changepoint.Up, 12, 13, 2), // partial move: not a recovery
	}
	kept, removed := filterOutagePairs(changes, 5*day)
	if len(kept) != 2 || len(removed) != 0 {
		t.Fatalf("asymmetric pair wrongly removed: removed=%v", removed)
	}
}

func TestFilterOutagePairsRespectsGap(t *testing.T) {
	changes := []Change{
		mkChange(changepoint.Down, 10, 11, -8),
		mkChange(changepoint.Up, 20, 21, 8),
	}
	kept, _ := filterOutagePairs(changes, 5*day)
	if len(kept) != 2 {
		t.Fatalf("distant pair removed: %+v", kept)
	}
	kept, _ = filterOutagePairs(changes, 15*day)
	if len(kept) != 0 {
		t.Fatalf("wide gap should pair: %+v", kept)
	}
}

func TestFilterOutagePairsKeepsIsolated(t *testing.T) {
	changes := []Change{mkChange(changepoint.Down, 10, 11, -8)}
	kept, removed := filterOutagePairs(changes, 5*day)
	if len(kept) != 1 || len(removed) != 0 {
		t.Fatalf("isolated change mishandled: kept=%v removed=%v", kept, removed)
	}
}

func TestFilterOutagePairsSameDirectionNotPaired(t *testing.T) {
	changes := []Change{
		mkChange(changepoint.Down, 10, 11, -8),
		mkChange(changepoint.Down, 11, 12, -8),
	}
	kept, removed := filterOutagePairs(changes, 5*day)
	if len(kept) != 2 || len(removed) != 0 {
		t.Fatalf("same-direction changes must not pair: kept=%v removed=%v", kept, removed)
	}
}

func TestFilterOutagePairsNegativeGapDisables(t *testing.T) {
	changes := []Change{
		mkChange(changepoint.Down, 10, 11, -8),
		mkChange(changepoint.Up, 11, 12, 8),
	}
	kept, removed := filterOutagePairs(changes, -1)
	if len(kept) != 2 || len(removed) != 0 {
		t.Fatalf("negative gap should disable pairing: kept=%v", kept)
	}
}

// detectOutages runs the kernel's record walk over one already merged
// stream, as it stands (no repair), and returns the outages it would mask
// with.
func detectOutages(t *testing.T, cfg Config, merged []probe.Record) []outage.Interval {
	t.Helper()
	cfg.Repair = false
	cfg.SanitizeRecords = false
	_, outages, err := cfg.Reconstruct([][]probe.Record{merged}, []int{1}, NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	return outages
}

func TestDetectOutagesKeepsOnlyLongClosed(t *testing.T) {
	cfg := DefaultConfig(0, 100*day)
	// Build a record stream: up for 3 days, silent for 2 days, up again,
	// then a short 2-hour blip.
	var recs []probe.Record
	add := func(from, to int64, up bool) {
		for tm := from; tm < to; tm += netsim.RoundSeconds {
			recs = append(recs, probe.Record{T: tm, Addr: 1, Up: up})
		}
	}
	add(0, 3*day, true)
	add(3*day, 5*day, false)
	add(5*day, 8*day, true)
	add(8*day, 8*day+2*3600, false)
	add(8*day+2*3600, 10*day, true)
	got := detectOutages(t, cfg, recs)
	if len(got) != 1 {
		t.Fatalf("want exactly the 2-day outage, got %+v", got)
	}
	if got[0].Start < 3*day-3600 || got[0].Start > 3*day+4*3600 {
		t.Fatalf("outage start %d not near day 3", got[0].Start)
	}
	// Open-ended silence must not be reported (migration, not outage).
	var recs2 []probe.Record
	recs2 = append(recs2, recs[:len(recs)/2]...)
	add2 := func(from, to int64, up bool) {
		for tm := from; tm < to; tm += netsim.RoundSeconds {
			recs2 = append(recs2, probe.Record{T: tm, Addr: 1, Up: up})
		}
	}
	add2(10*day, 20*day, false)
	for _, iv := range detectOutages(t, cfg, recs2) {
		if iv.End == 0 || iv.Start >= 10*day {
			t.Fatalf("open-ended migration reported as outage: %+v", iv)
		}
	}
	// Disabling masking returns nothing.
	cfg.OutageMaskMinHours = -1
	if detectOutages(t, cfg, recs) != nil {
		t.Fatal("disabled masking should detect nothing")
	}
}

func TestAnalyzeRecordsMasksDetectedOutage(t *testing.T) {
	// Full-path check: a 2-day outage in a diurnal block is detected by
	// the belief detector and its trend changes are masked.
	start := netsim.Date(2020, time.January, 1)
	end := netsim.Date(2020, time.March, 25)
	b, err := netsim.NewBlock(9, 1009, netsim.Spec{Workers: 70, AlwaysOn: 8})
	if err != nil {
		t.Fatal(err)
	}
	oStart := netsim.Date(2020, time.February, 12)
	b.AddEvent(netsim.Event{Kind: netsim.EventOutage, Start: oStart, End: oStart + 2*day})
	eng := &probe.Engine{Observers: probe.StandardObservers(4), QuarterSeed: 3}
	perObs, err := eng.Collect(b, start, end)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(start, end)
	cfg.BaselineStart, cfg.BaselineEnd = start, netsim.Date(2020, time.January, 29)
	a, err := cfg.AnalyzeRecords(perObs, b.EverActive())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Outages) == 0 {
		t.Fatal("outage not detected from records")
	}
	for _, c := range a.DownChanges() {
		if c.Point >= oStart-day && c.Point <= oStart+3*day {
			t.Fatalf("outage change leaked: %+v", c)
		}
	}
}

func TestDownChanges(t *testing.T) {
	a := &BlockAnalysis{Changes: []Change{
		mkChange(changepoint.Down, 10, 11, -8),
		mkChange(changepoint.Up, 20, 21, 8),
		mkChange(changepoint.Down, 30, 31, -5),
	}}
	d := a.DownChanges()
	if len(d) != 2 || d[0].Start != 10*day || d[1].Start != 30*day {
		t.Fatalf("DownChanges = %+v", d)
	}
	if (&BlockAnalysis{}).DownChanges() != nil {
		t.Fatal("DownChanges of a change-free analysis should be nil")
	}
}

func TestChangeHasRawAmplitude(t *testing.T) {
	b := figure1Block(t, 991)
	cfg := q1Config()
	a, err := cfg.AnalyzeBlock(engine4(), b)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range a.DownChanges() {
		if c.RawAmplitude >= 0 {
			t.Fatalf("downward change with non-negative raw amplitude: %+v", c)
		}
		if c.RawAmplitude > -1.2 {
			t.Fatalf("change below MinChangeAddresses slipped through: %+v", c)
		}
	}
}

func TestMinChangeAddressesDisable(t *testing.T) {
	cfg := q1Config()
	cfg.MinChangeAddresses = -1
	b, err := netsim.NewBlock(3, 903, netsim.Spec{Workers: 70, AlwaysOn: 8})
	if err != nil {
		t.Fatal(err)
	}
	a, err := cfg.AnalyzeBlock(engine4(), b)
	if err != nil {
		t.Fatal(err)
	}
	// With the floor disabled, noise-scale changes may reappear; the point
	// is only that disabling works without error and yields a superset.
	cfg2 := q1Config()
	a2, err := cfg2.AnalyzeBlock(engine4(), b)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Changes) < len(a2.Changes) {
		t.Fatalf("disabling the amplitude floor removed changes: %d < %d", len(a.Changes), len(a2.Changes))
	}
}

func TestOutageIntervalPlumbing(t *testing.T) {
	// analyzeSeries carries provided outage intervals into the result.
	start := netsim.Date(2020, time.January, 1)
	end := netsim.Date(2020, time.February, 26)
	var times []int64
	var counts []float64
	for tm := start; tm < end; tm += 3600 {
		sod := tm % day
		v := 4.0
		if sod >= 9*3600 && sod < 17*3600 && netsim.Weekday(tm) >= 1 && netsim.Weekday(tm) <= 5 {
			v = 20
		}
		times = append(times, tm)
		counts = append(counts, v)
	}
	cfg := mustResolve(DefaultConfig(start, end))
	ivs := []outage.Interval{{Start: start + 20*day, End: start + 22*day}}
	a, err := cfg.analyzeResolvedSeries(&reconstruct.Series{Times: times, Counts: counts}, ivs, reconstruct.SanitizeReport{}, NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Outages) != 1 {
		t.Fatalf("outage intervals not carried: %+v", a.Outages)
	}
}

func TestProfileWorkplaceVsHome(t *testing.T) {
	start := netsim.Date(2020, time.January, 1)
	end := netsim.Date(2020, time.February, 26)
	cfg := DefaultConfig(start, end)
	cfg.BaselineStart, cfg.BaselineEnd = start, end
	classify := func(spec netsim.Spec, seed uint64) ProfileKind {
		b, err := netsim.NewBlock(netsim.BlockID(seed), seed, spec)
		if err != nil {
			t.Fatal(err)
		}
		a, err := cfg.AnalyzeBlock(engine4(), b)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Class.ChangeSensitive {
			t.Fatalf("seed %d: block not change-sensitive", seed)
		}
		return a.Profile()
	}
	if got := classify(netsim.Spec{Workers: 70, AlwaysOn: 5}, 2001); got != ProfileWorkplace {
		t.Errorf("worker block profiled as %v", got)
	}
	if got := classify(netsim.Spec{Homes: 70, AlwaysOn: 3}, 2002); got != ProfileHome {
		t.Errorf("home block profiled as %v", got)
	}
}

func TestProfileUnknownCases(t *testing.T) {
	a := &BlockAnalysis{}
	if a.Profile() != ProfileUnknown {
		t.Error("empty analysis should be unknown")
	}
	a = &BlockAnalysis{Seasonal: make([]float64, 10), SampleStep: 3600, SampleStart: 0}
	if a.Profile() != ProfileUnknown {
		t.Error("sub-week seasonal should be unknown")
	}
	a = &BlockAnalysis{Seasonal: make([]float64, 400), SampleStep: 3600}
	if a.Profile() != ProfileUnknown {
		t.Error("all-zero seasonal should be unknown")
	}
	for _, p := range []ProfileKind{ProfileUnknown, ProfileWorkplace, ProfileHome, ProfileMixed} {
		if p.String() == "" {
			t.Errorf("profile %d renders empty", p)
		}
	}
}
