package reconstruct

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/diurnalnet/diurnal/internal/netsim"
	"github.com/diurnalnet/diurnal/internal/probe"
)

var jan6 = netsim.Date(2020, time.January, 6)

func rec(t int64, addr int, up bool) probe.Record {
	return probe.Record{T: t, Addr: uint8(addr), Up: up}
}

func TestReconstructFigure2Style(t *testing.T) {
	// The paper's Figure 2 mechanics on a 4-address block: estimates
	// appear once all addresses have been seen and update as changes are
	// re-observed.
	eb := []int{1, 2, 3, 4}
	// Round times 0..5; two addresses scanned per round.
	recs := []probe.Record{
		rec(0, 1, false), rec(0, 2, false), // round 1: no estimate yet
		rec(1, 3, true), rec(1, 4, true), // round 2: complete, estimate 2
		rec(2, 1, false), rec(2, 3, true), // round 3: estimate 2
		rec(3, 1, true), rec(3, 2, false), // round 4: .1 came up -> 3
		rec(4, 3, false), rec(4, 4, true), // round 5: .3 went down -> 2
		rec(5, 2, true), rec(5, 3, true), // round 6: both up -> 4
	}
	s, err := Reconstruct(recs, eb)
	if err != nil {
		t.Fatal(err)
	}
	wantTimes := []int64{1, 2, 3, 4, 5}
	wantCounts := []float64{2, 2, 3, 2, 4}
	if len(s.Times) != len(wantTimes) {
		t.Fatalf("got %d points (%v), want %d", len(s.Times), s.Counts, len(wantTimes))
	}
	for i := range wantTimes {
		if s.Times[i] != wantTimes[i] || s.Counts[i] != wantCounts[i] {
			t.Fatalf("point %d = (%d,%g), want (%d,%g)",
				i, s.Times[i], s.Counts[i], wantTimes[i], wantCounts[i])
		}
	}
}

func TestReconstructIgnoresNonEBAddresses(t *testing.T) {
	eb := []int{1}
	recs := []probe.Record{
		rec(0, 9, true), // not in E(b): ignored
		rec(1, 1, true),
	}
	s, err := Reconstruct(recs, eb)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 || s.Counts[0] != 1 {
		t.Fatalf("series = %+v", s)
	}
}

func TestReconstructEmptyEB(t *testing.T) {
	if _, err := Reconstruct(nil, nil); err == nil {
		t.Fatal("expected error for empty E(b)")
	}
}

func TestReconstructNeverComplete(t *testing.T) {
	eb := []int{1, 2}
	recs := []probe.Record{rec(0, 1, true), rec(1, 1, true)}
	s, err := Reconstruct(recs, eb)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Fatalf("incomplete reconstruction emitted points: %+v", s)
	}
}

func TestRepair1LossFixesSandwichedLoss(t *testing.T) {
	recs := []probe.Record{
		rec(0, 5, true),
		rec(1, 5, false), // lost query
		rec(2, 5, true),
	}
	Repair1Loss(recs)
	if !recs[1].Up {
		t.Fatal("101 pattern not repaired to 111")
	}
}

func TestRepair1LossLeavesOtherPatterns(t *testing.T) {
	cases := [][]bool{
		{false, false, true}, // 001
		{true, true, false},  // 110
		{true, false, false}, // 100
		{false, true, false}, // 010: middle is genuine single response
	}
	for _, pattern := range cases {
		recs := make([]probe.Record, len(pattern))
		for i, up := range pattern {
			recs[i] = rec(int64(i), 7, up)
		}
		before := make([]bool, len(recs))
		for i := range recs {
			before[i] = recs[i].Up
		}
		Repair1Loss(recs)
		for i := range recs {
			if recs[i].Up != before[i] {
				t.Fatalf("pattern %v modified at %d", pattern, i)
			}
		}
	}
}

func TestRepair1LossPerAddressIndependence(t *testing.T) {
	// Interleaved addresses must be repaired along their own timelines.
	recs := []probe.Record{
		rec(0, 1, true),
		rec(1, 2, false),
		rec(2, 1, false), // sandwiched for addr 1
		rec(3, 2, false),
		rec(4, 1, true),
		rec(5, 2, true),
	}
	Repair1Loss(recs)
	if !recs[2].Up {
		t.Fatal("addr 1's 101 not repaired")
	}
	if recs[1].Up || recs[3].Up {
		t.Fatal("addr 2's genuine downs must remain")
	}
}

func TestRepair1LossDoubleLossNotRepaired(t *testing.T) {
	// 1001: back-to-back losses are (by design) not repaired; the
	// probability of two consecutive losses is p^2 (§2.3).
	recs := []probe.Record{
		rec(0, 3, true), rec(1, 3, false), rec(2, 3, false), rec(3, 3, true),
	}
	Repair1Loss(recs)
	if recs[1].Up || recs[2].Up {
		t.Fatal("1001 must not be repaired")
	}
}

func TestMergeOrdersAcrossObservers(t *testing.T) {
	a := []probe.Record{rec(0, 1, true), rec(10, 1, true)}
	b := []probe.Record{rec(5, 2, true), rec(15, 2, true)}
	m := MergeInto(nil, [][]probe.Record{a, b})
	want := []int64{0, 5, 10, 15}
	for i, r := range m {
		if r.T != want[i] {
			t.Fatalf("merged[%d].T = %d, want %d", i, r.T, want[i])
		}
	}
}

func TestMergeTieBreaksByObserver(t *testing.T) {
	a := []probe.Record{rec(5, 1, true)}
	b := []probe.Record{rec(5, 2, true)}
	m := MergeInto(nil, [][]probe.Record{a, b})
	if m[0].Addr != 1 || m[1].Addr != 2 {
		t.Fatalf("tie-break wrong: %+v", m)
	}
}

func TestMergeEmptyStreams(t *testing.T) {
	if got := MergeInto(nil, nil); len(got) != 0 {
		t.Fatal("merge of nothing should be empty")
	}
	if got := MergeInto(nil, [][]probe.Record{nil, {rec(1, 1, true)}, nil}); len(got) != 1 {
		t.Fatalf("merge = %+v", got)
	}
}

func TestResample(t *testing.T) {
	s := &Series{
		Times:  []int64{0, 5, 10, 35},
		Counts: []float64{2, 4, 6, 8},
	}
	// Bins of 10s over [0, 40): bin0 has 2,4 -> 3; bin1 has 6; bin2 empty
	// -> carries 6; bin3 has 8.
	got := s.Resample(0, 40, 10)
	want := []float64{3, 6, 6, 8}
	if len(got) != 4 {
		t.Fatalf("len = %d", len(got))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("bin %d = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestResampleLeadingGapBackfills(t *testing.T) {
	s := &Series{Times: []int64{25}, Counts: []float64{7}}
	got := s.Resample(0, 30, 10)
	for i, v := range got {
		if v != 7 {
			t.Fatalf("bin %d = %g, want backfilled 7", i, v)
		}
	}
}

func TestResampleEdgeCases(t *testing.T) {
	empty := &Series{}
	if empty.Resample(0, 10, 1) != nil {
		t.Fatal("empty series should resample to nil")
	}
	s := &Series{Times: []int64{5}, Counts: []float64{1}}
	if s.Resample(10, 10, 1) != nil {
		t.Fatal("empty window should be nil")
	}
	if s.Resample(0, 10, 0) != nil {
		t.Fatal("zero step should be nil")
	}
	if s.Resample(100, 200, 10) != nil {
		t.Fatal("window with no points should be nil")
	}
}

func TestDailySwings(t *testing.T) {
	day := int64(86400)
	s := &Series{
		Times:  []int64{0, 1000, 2000, day, day + 1000},
		Counts: []float64{2, 10, 4, 5, 5},
	}
	days, swings := s.DailySwings()
	if len(days) != 2 {
		t.Fatalf("days = %v", days)
	}
	if swings[0] != 8 || swings[1] != 0 {
		t.Fatalf("swings = %v, want [8 0]", swings)
	}
	if d, sw := (&Series{}).DailySwings(); d != nil || sw != nil {
		t.Fatal("empty series should yield nil swings")
	}
}

// TestEndToEndReconstructionAccuracy drives the full probe->reconstruct
// path against ground truth, mirroring the paper's §3.2 validation: a
// 4-observer reconstruction of a diurnal block should correlate strongly
// with the true active counts.
func TestEndToEndReconstructionAccuracy(t *testing.T) {
	blk, err := netsim.NewBlock(100, 555, netsim.Spec{Workers: 60, AlwaysOn: 6})
	if err != nil {
		t.Fatal(err)
	}
	eng := &probe.Engine{Observers: probe.StandardObservers(4), QuarterSeed: 9}
	start, end := jan6, jan6+14*netsim.SecondsPerDay
	perObs, err := eng.Collect(blk, start, end)
	if err != nil {
		t.Fatal(err)
	}
	series, err := Reconstruct(MergeInto(nil, perObs), blk.EverActive())
	if err != nil {
		t.Fatal(err)
	}
	if series.Len() == 0 {
		t.Fatal("no reconstruction points")
	}
	est := series.Resample(start, end, 3600)
	truth := make([]float64, len(est))
	for i := range truth {
		truth[i] = float64(blk.CountActive(start + int64(i)*3600 + 1800))
	}
	r := pearson(t, est, truth)
	if r < 0.8 {
		t.Fatalf("reconstruction correlation %g < 0.8", r)
	}
}

// TestLossRepairRestoresReplyRate reproduces Figure 6's mechanism: a lossy
// observer depresses the merged reply rate, and 1-loss repair restores
// most of it while barely changing clean observers.
func TestLossRepairRestoresReplyRate(t *testing.T) {
	blk, err := netsim.NewBlock(102, 557, netsim.Spec{AlwaysOn: 150})
	if err != nil {
		t.Fatal(err)
	}
	obs := probe.StandardObservers(4)
	for i := range obs {
		obs[i].Extra = 4 // sample beyond the first positive
	}
	obs[0].Loss = &probe.LossModel{Base: 0.15}
	eng := &probe.Engine{Observers: obs, QuarterSeed: 12}
	perObs, err := eng.Collect(blk, jan6, jan6+2*netsim.SecondsPerDay)
	if err != nil {
		t.Fatal(err)
	}
	lossyBefore := replyRate(perObs[0])
	cleanBefore := replyRate(perObs[1])
	if cleanBefore < 0.99 {
		t.Fatalf("clean observer rate %g, want ~1", cleanBefore)
	}
	if lossyBefore > 0.92 {
		t.Fatalf("lossy observer rate %g, want visibly depressed", lossyBefore)
	}
	for i := range perObs {
		Repair1Loss(perObs[i])
	}
	lossyAfter := replyRate(perObs[0])
	cleanAfter := replyRate(perObs[1])
	if lossyAfter <= lossyBefore+0.05 {
		t.Fatalf("repair raised lossy rate only %g -> %g", lossyBefore, lossyAfter)
	}
	if math.Abs(cleanAfter-cleanBefore) > 0.01 {
		t.Fatalf("repair changed clean observer %g -> %g", cleanBefore, cleanAfter)
	}
}

// replyRate is the fraction of the records that answered.
func replyRate(records []probe.Record) float64 {
	return float64(responsive(records)) / float64(len(records))
}

func pearson(t *testing.T, a, b []float64) float64 {
	t.Helper()
	if len(a) != len(b) || len(a) < 2 {
		t.Fatalf("bad pearson inputs %d %d", len(a), len(b))
	}
	var ma, mb float64
	for i := range a {
		ma += a[i]
		mb += b[i]
	}
	ma /= float64(len(a))
	mb /= float64(len(b))
	var sab, saa, sbb float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		sab += da * db
		saa += da * da
		sbb += db * db
	}
	if saa == 0 || sbb == 0 {
		return 0
	}
	return sab / math.Sqrt(saa*sbb)
}

func BenchmarkReconstructTwoWeeks4Obs(b *testing.B) {
	blk, err := netsim.NewBlock(103, 558, netsim.Spec{Workers: 80, AlwaysOn: 8})
	if err != nil {
		b.Fatal(err)
	}
	eng := &probe.Engine{Observers: probe.StandardObservers(4), QuarterSeed: 2}
	perObs, err := eng.Collect(blk, jan6, jan6+14*netsim.SecondsPerDay)
	if err != nil {
		b.Fatal(err)
	}
	eb := blk.EverActive()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Reconstruct(MergeInto(nil, perObs), eb); err != nil {
			b.Fatal(err)
		}
	}
}

func TestMergeIntoReusesCapacity(t *testing.T) {
	a := []probe.Record{rec(0, 1, true), rec(10, 1, true)}
	b := []probe.Record{rec(5, 2, true)}
	dst := make([]probe.Record, 0, 16)
	out := MergeInto(dst, [][]probe.Record{a, b})
	if len(out) != 3 || cap(out) != 16 {
		t.Fatalf("len=%d cap=%d, want 3/16", len(out), cap(out))
	}
	// Too-small dst grows.
	small := make([]probe.Record, 0, 1)
	out2 := MergeInto(small, [][]probe.Record{a, b})
	if len(out2) != 3 {
		t.Fatalf("len=%d", len(out2))
	}
	for i := range out {
		if out[i] != out2[i] {
			t.Fatal("MergeInto results differ between buffers")
		}
	}
}

func TestResampleBoundedProperty(t *testing.T) {
	// Property: resampled values never leave the series' [min, max].
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(100)
		s := &Series{}
		tm := int64(rng.Intn(1000))
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 0; i < n; i++ {
			tm += int64(1 + rng.Intn(900))
			v := float64(rng.Intn(200))
			s.Times = append(s.Times, tm)
			s.Counts = append(s.Counts, v)
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		out := s.Resample(s.Times[0], s.Times[n-1]+1, 300)
		for _, v := range out {
			if v < lo-1e-9 || v > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDailySwingsNonNegativeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := &Series{}
		tm := int64(rng.Intn(86400 * 3))
		for i := 0; i < 50; i++ {
			tm += int64(1 + rng.Intn(20000))
			s.Times = append(s.Times, tm)
			s.Counts = append(s.Counts, float64(rng.Intn(100)))
		}
		days, swings := s.DailySwings()
		if len(days) != len(swings) {
			return false
		}
		prev := int64(-1 << 62)
		for i, d := range days {
			if swings[i] < 0 || d <= prev {
				return false
			}
			prev = d
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestObserverHealthFlagsBrokenSite(t *testing.T) {
	// Three healthy observers and one behind a broken link: the health
	// check must flag exactly the broken one (the paper's §2.7 procedure
	// that discarded sites c and g in 2020).
	obs := probe.StandardObservers(4)
	for i := range obs {
		obs[i].Extra = 2
	}
	obs[2].Loss = &probe.LossModel{Base: 0.4} // the "hardware problem"
	eng := &probe.Engine{Observers: obs, QuarterSeed: 8}
	health := NewObserverHealth(4)
	for i := 0; i < 10; i++ {
		b, err := netsim.NewBlock(netsim.BlockID(0x700+i), uint64(900+i), netsim.Spec{
			Workers: 40, AlwaysOn: 30,
		})
		if err != nil {
			t.Fatal(err)
		}
		perObs, err := eng.Collect(b, jan6, jan6+2*netsim.SecondsPerDay)
		if err != nil {
			t.Fatal(err)
		}
		health.Add(perObs)
	}
	rates := health.Rates()
	if len(rates) != 4 {
		t.Fatalf("rates = %v", rates)
	}
	for i, r := range rates {
		if i == 2 {
			if r > rates[0]-0.1 {
				t.Fatalf("broken observer rate %v not depressed vs %v", r, rates[0])
			}
			continue
		}
		if r < 0.5 {
			t.Fatalf("healthy observer %d rate %v too low", i, r)
		}
	}
	suspects := health.Suspect(0.1)
	if len(suspects) != 1 || suspects[0] != 2 {
		t.Fatalf("suspects = %v, want [2]", suspects)
	}
}

func TestObserverHealthEdgeCases(t *testing.T) {
	h := NewObserverHealth(2)
	// No records at all: every observer is suspect.
	if got := h.Suspect(0.05); len(got) != 2 {
		t.Fatalf("no-data suspects = %v", got)
	}
	h.Add([][]probe.Record{
		{rec(0, 1, true), rec(1, 1, true)},
		{rec(0, 2, true), rec(1, 2, false)},
		{rec(0, 3, true)}, // extra stream beyond tracked count: ignored
	})
	rates := h.Rates()
	if rates[0] != 1.0 || rates[1] != 0.5 {
		t.Fatalf("rates = %v", rates)
	}
	if got := h.Suspect(0.6); len(got) != 0 {
		t.Fatalf("wide tolerance should clear everyone: %v", got)
	}
}

func TestRepair1LossEmptyAndSingle(t *testing.T) {
	Repair1Loss(nil) // must not panic
	recs := []probe.Record{rec(0, 1, false)}
	Repair1Loss(recs)
	if recs[0].Up {
		t.Fatal("single observation must not be rewritten")
	}
}

func TestRepair1LossBoundaryLosses(t *testing.T) {
	// A loss at the very first or very last observation has no sandwich
	// and must be left alone.
	first := []probe.Record{rec(0, 4, false), rec(1, 4, true), rec(2, 4, true)}
	Repair1Loss(first)
	if first[0].Up {
		t.Fatal("leading 011 must not be repaired")
	}
	last := []probe.Record{rec(0, 4, true), rec(1, 4, true), rec(2, 4, false)}
	Repair1Loss(last)
	if last[2].Up {
		t.Fatal("trailing 110 must not be repaired")
	}
}

func TestRepair1LossBackToBack101(t *testing.T) {
	// 10101: each lone zero is sandwiched between responses. The repair
	// scans left to right, so the first rewrite (1_1_1 -> 111_1) feeds the
	// second and both zeros come back up.
	recs := []probe.Record{
		rec(0, 9, true), rec(1, 9, false), rec(2, 9, true),
		rec(3, 9, false), rec(4, 9, true),
	}
	Repair1Loss(recs)
	for i := range recs {
		if !recs[i].Up {
			t.Fatalf("10101 not fully repaired at index %d: %+v", i, recs)
		}
	}
}

func TestSuspectZeroObservers(t *testing.T) {
	h := NewObserverHealth(0)
	if got := h.Suspect(0.1); got != nil {
		t.Fatalf("zero tracked observers should yield nil, got %v", got)
	}
}

func TestSanitizeCleanStreamUntouched(t *testing.T) {
	recs := []probe.Record{
		rec(0, 1, true), rec(0, 2, false), rec(660, 1, true), rec(1320, 2, true),
	}
	orig := append([]probe.Record(nil), recs...)
	out, rep := Sanitize(recs, 0, 2000)
	if rep != (SanitizeReport{}) {
		t.Fatalf("clean stream produced report %+v", rep)
	}
	if len(out) != len(orig) {
		t.Fatalf("clean stream truncated: %d != %d", len(out), len(orig))
	}
	for i := range out {
		if out[i] != orig[i] {
			t.Fatalf("record %d changed: %+v != %+v", i, out[i], orig[i])
		}
	}
}

func TestSanitizeDropsOutOfWindow(t *testing.T) {
	recs := []probe.Record{
		rec(-5, 1, true), rec(10, 1, true), rec(2000, 1, false),
	}
	out, rep := Sanitize(recs, 0, 1000)
	if rep.OutOfWindow != 2 || len(out) != 1 || out[0].T != 10 {
		t.Fatalf("out=%v rep=%+v", out, rep)
	}
}

func TestSanitizeSortsReorderedRecords(t *testing.T) {
	recs := []probe.Record{
		rec(1320, 1, true), rec(0, 1, true), rec(660, 2, false),
	}
	out, rep := Sanitize(recs, 0, 2000)
	if rep.Reordered == 0 {
		t.Fatalf("expected reordered count, got %+v", rep)
	}
	for i := 1; i < len(out); i++ {
		if out[i].T < out[i-1].T {
			t.Fatalf("output not time-ordered: %v", out)
		}
	}
	if len(out) != 3 {
		t.Fatalf("reordering must not drop records: %v", out)
	}
}

func TestSanitizeDedupsAndResolvesConflicts(t *testing.T) {
	recs := []probe.Record{
		rec(0, 1, true), rec(0, 2, false),
		rec(0, 1, true), // exact duplicate
		rec(0, 2, true), // conflicting repeat: first (false) wins
		rec(660, 1, true),
	}
	out, rep := Sanitize(recs, 0, 2000)
	if rep.Duplicates != 1 || rep.Conflicts != 1 {
		t.Fatalf("report %+v", rep)
	}
	if len(out) != 3 {
		t.Fatalf("expected 3 records, got %v", out)
	}
	if out[1].Addr != 2 || out[1].Up {
		t.Fatalf("conflict not resolved to first observation: %+v", out[1])
	}
}

func TestSanitizeReportTotals(t *testing.T) {
	var a SanitizeReport
	a.Merge(SanitizeReport{OutOfWindow: 1, Duplicates: 2, Conflicts: 3, Reordered: 4})
	a.Merge(SanitizeReport{OutOfWindow: 1})
	if a.Total() != 7 || a.Reordered != 4 {
		t.Fatalf("merge/total wrong: %+v", a)
	}
}

func TestResampleWithGapsMarksLongGaps(t *testing.T) {
	// Points every hour for 3 h, then a 10-h hole, then 2 more hours.
	s := &Series{}
	for _, h := range []int64{0, 1, 2, 13, 14} {
		s.Times = append(s.Times, h*3600)
		s.Counts = append(s.Counts, float64(h))
	}
	vals, conf := s.ResampleWithGaps(0, 15*3600, 3600, 2*3600)
	if vals == nil || len(conf) != len(vals) {
		t.Fatalf("vals=%v conf=%v", vals, conf)
	}
	for i := 0; i <= 2; i++ {
		if !conf[i] {
			t.Errorf("measured bin %d marked low-confidence", i)
		}
	}
	// Bin 7 sits 5 h from bin 2 and 6 h from bin 13: beyond maxGap.
	if conf[7] {
		t.Error("mid-gap bin should be low-confidence")
	}
	// Bin 4 is 2 h from the last measured bin: within maxGap.
	if !conf[4] {
		t.Error("near-gap-edge bin should stay confident")
	}
	// Carried value survives: bin 7 carries bin 2's value.
	if vals[7] != 2 {
		t.Errorf("carry-forward broken: vals[7] = %v", vals[7])
	}
}

func TestResampleWithGapsLeadingGap(t *testing.T) {
	s := &Series{Times: []int64{10 * 3600}, Counts: []float64{5}}
	vals, conf := s.ResampleWithGaps(0, 12*3600, 3600, 3*3600)
	if vals == nil {
		t.Fatal("expected values")
	}
	if conf[0] {
		t.Error("backfilled bin 10 h before the first measurement should be low-confidence")
	}
	if !conf[8] {
		t.Error("backfilled bin 2 h before the first measurement should be confident")
	}
	if vals[0] != 5 {
		t.Errorf("leading backfill broken: %v", vals[0])
	}
}

func TestResampleWithGapsDisabled(t *testing.T) {
	s := &Series{Times: []int64{0, 20 * 3600}, Counts: []float64{1, 2}}
	_, conf := s.ResampleWithGaps(0, 24*3600, 3600, 0)
	for i, ok := range conf {
		if !ok {
			t.Fatalf("maxGap<=0 must disable marking, bin %d flagged", i)
		}
	}
}

func TestResampleMatchesResampleWithGaps(t *testing.T) {
	s := &Series{}
	for h := int64(0); h < 48; h += 3 {
		s.Times = append(s.Times, h*3600)
		s.Counts = append(s.Counts, float64(h%7))
	}
	a := s.Resample(0, 48*3600, 3600)
	b, _ := s.ResampleWithGaps(0, 48*3600, 3600, 6*3600)
	if len(a) != len(b) {
		t.Fatalf("length mismatch %d != %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("values diverge at %d: %v != %v", i, a[i], b[i])
		}
	}
}
