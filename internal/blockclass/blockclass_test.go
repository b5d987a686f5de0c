package blockclass

import (
	"testing"
	"time"

	"github.com/diurnalnet/diurnal/internal/netsim"
	"github.com/diurnalnet/diurnal/internal/probe"
	"github.com/diurnalnet/diurnal/internal/reconstruct"
)

var jan6 = netsim.Date(2020, time.January, 6)

// reconstructed probes a block with 4 observers for the window and returns
// its reconstruction.
func reconstructed(t *testing.T, b *netsim.Block, start, end int64) *reconstruct.Series {
	t.Helper()
	eng := &probe.Engine{Observers: probe.StandardObservers(4), QuarterSeed: 17}
	perObs, err := eng.Collect(b, start, end)
	if err != nil {
		t.Fatal(err)
	}
	s, err := reconstruct.Reconstruct(reconstruct.MergeInto(nil, perObs), b.EverActive())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func classify(t *testing.T, b *netsim.Block, days int) Result {
	t.Helper()
	start, end := jan6, jan6+int64(days)*netsim.SecondsPerDay
	res, err := Classify(reconstructed(t, b, start, end), start, end, Default())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestWorkplaceBlockIsChangeSensitive(t *testing.T) {
	b, err := netsim.NewBlock(1, 71, netsim.Spec{Workers: 60, AlwaysOn: 6})
	if err != nil {
		t.Fatal(err)
	}
	res := classify(t, b, 28)
	if !res.Responsive || !res.Diurnal || !res.WideSwing || !res.ChangeSensitive {
		t.Fatalf("workplace block misclassified: %+v", res)
	}
}

func TestServerFarmNotChangeSensitive(t *testing.T) {
	b, err := netsim.NewBlock(2, 72, netsim.Spec{AlwaysOn: 200})
	if err != nil {
		t.Fatal(err)
	}
	res := classify(t, b, 28)
	if !res.Responsive {
		t.Fatal("server farm should be responsive")
	}
	if res.Diurnal || res.ChangeSensitive {
		t.Fatalf("server farm misclassified as diurnal: %+v", res)
	}
}

func TestNATFrontDoorNotChangeSensitive(t *testing.T) {
	// A home-NAT block: 3 always-on router addresses, nothing else
	// visible. Responsive but flat.
	b, err := netsim.NewBlock(3, 73, netsim.Spec{AlwaysOn: 3})
	if err != nil {
		t.Fatal(err)
	}
	res := classify(t, b, 28)
	if !res.Responsive || res.ChangeSensitive {
		t.Fatalf("NAT block misclassified: %+v", res)
	}
	if res.WideSwing {
		t.Fatalf("3-address block cannot have a >= 5 swing: %+v", res)
	}
}

func TestFirewalledBlockNotResponsive(t *testing.T) {
	b, err := netsim.NewBlock(4, 74, netsim.Spec{Firewalled: 200})
	if err != nil {
		t.Fatal(err)
	}
	start, end := jan6, jan6+28*netsim.SecondsPerDay
	eng := &probe.Engine{Observers: probe.StandardObservers(4), QuarterSeed: 17}
	perObs, err := eng.Collect(b, start, end)
	if err != nil {
		t.Fatal(err)
	}
	if len(perObs[0]) != 0 {
		t.Fatal("firewalled block has empty E(b); no probes expected")
	}
	res, err := Classify(&reconstruct.Series{}, start, end, Default())
	if err != nil {
		t.Fatal(err)
	}
	if res.Responsive || res.ChangeSensitive {
		t.Fatalf("firewalled block misclassified: %+v", res)
	}
}

func TestSmallDiurnalBlockNarrowSwing(t *testing.T) {
	// Three workers: diurnal but swing < 5, so not change-sensitive.
	b, err := netsim.NewBlock(5, 75, netsim.Spec{Workers: 3, AlwaysOn: 2})
	if err != nil {
		t.Fatal(err)
	}
	res := classify(t, b, 28)
	if res.WideSwing {
		t.Fatalf("3-worker block reported wide swing: %+v", res)
	}
	if res.ChangeSensitive {
		t.Fatalf("narrow-swing block must not be change-sensitive: %+v", res)
	}
}

func TestIntermittentNoiseNotDiurnal(t *testing.T) {
	b, err := netsim.NewBlock(6, 76, netsim.Spec{Intermittent: 120})
	if err != nil {
		t.Fatal(err)
	}
	res := classify(t, b, 28)
	if res.Diurnal {
		t.Fatalf("intermittent noise classified diurnal (score %.3f)", res.DiurnalScore)
	}
}

func TestHomeEveningBlockChangeSensitive(t *testing.T) {
	b, err := netsim.NewBlock(7, 77, netsim.Spec{Homes: 60})
	if err != nil {
		t.Fatal(err)
	}
	res := classify(t, b, 28)
	if !res.ChangeSensitive {
		t.Fatalf("home-evening block should be change-sensitive: %+v", res)
	}
}

func TestWeekendOnlySwingFailsPersistence(t *testing.T) {
	// Build a synthetic series with a wide swing only on 2 of every 7
	// days: persistence (4 of 7) must fail.
	var s reconstruct.Series
	for d := int64(0); d < 28; d++ {
		dayStart := jan6 + d*netsim.SecondsPerDay
		wd := netsim.Weekday(dayStart)
		for h := int64(0); h < 24; h++ {
			v := 10.0
			if (wd == 0 || wd == 6) && h >= 9 && h < 17 {
				v = 30 // weekend-only bump
			}
			s.Times = append(s.Times, dayStart+h*3600)
			s.Counts = append(s.Counts, v)
		}
	}
	start, end := jan6, jan6+28*netsim.SecondsPerDay
	res, err := Classify(&s, start, end, Default())
	if err != nil {
		t.Fatal(err)
	}
	if res.BestWindowDays > 3 {
		t.Fatalf("weekend-only pattern best window = %d, want <= 3", res.BestWindowDays)
	}
	if res.WideSwing {
		t.Fatalf("weekend-only swing must fail 4-of-7 persistence: %+v", res)
	}
}

func TestFourOfSevenPersistenceTolerates3DayWeekend(t *testing.T) {
	// Wide swing Mon-Thu only (4 days): persistence holds — the rule
	// exists to tolerate 3-day weekends (§2.4).
	var s reconstruct.Series
	for d := int64(0); d < 28; d++ {
		dayStart := jan6 + d*netsim.SecondsPerDay
		wd := netsim.Weekday(dayStart)
		for h := int64(0); h < 24; h++ {
			v := 10.0
			if wd >= 1 && wd <= 4 && h >= 9 && h < 17 {
				v = 30
			}
			s.Times = append(s.Times, dayStart+h*3600)
			s.Counts = append(s.Counts, v)
		}
	}
	start, end := jan6, jan6+28*netsim.SecondsPerDay
	res, err := Classify(&s, start, end, Default())
	if err != nil {
		t.Fatal(err)
	}
	if !res.WideSwing || res.BestWindowDays < 4 {
		t.Fatalf("4-workday swing should satisfy persistence: %+v", res)
	}
	if !res.ChangeSensitive {
		t.Fatalf("block should be change-sensitive: %+v", res)
	}
}

func TestSwingThresholdRespected(t *testing.T) {
	// Swing of exactly 4 with threshold 5 fails; with threshold 4 passes.
	var s reconstruct.Series
	for d := int64(0); d < 14; d++ {
		dayStart := jan6 + d*netsim.SecondsPerDay
		for h := int64(0); h < 24; h++ {
			v := 10.0
			if h >= 9 && h < 17 {
				v = 14 // swing of 4
			}
			s.Times = append(s.Times, dayStart+h*3600)
			s.Counts = append(s.Counts, v)
		}
	}
	start, end := jan6, jan6+14*netsim.SecondsPerDay
	res, err := Classify(&s, start, end, Default())
	if err != nil {
		t.Fatal(err)
	}
	if res.WideSwing {
		t.Fatalf("swing 4 should fail threshold 5: %+v", res)
	}
	cfg := Default()
	cfg.SwingThreshold = 4
	res, err = Classify(&s, start, end, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.WideSwing {
		t.Fatalf("swing 4 should pass threshold 4: %+v", res)
	}
}

func TestClassifyEmptyAndNilSeries(t *testing.T) {
	start, end := jan6, jan6+14*netsim.SecondsPerDay
	res, err := Classify(nil, start, end, Default())
	if err != nil {
		t.Fatal(err)
	}
	if res.Responsive || res.ChangeSensitive {
		t.Fatalf("nil series misclassified: %+v", res)
	}
	res, err = Classify(&reconstruct.Series{Times: []int64{jan6}, Counts: []float64{0}}, start, end, Default())
	if err != nil {
		t.Fatal(err)
	}
	if res.Responsive {
		t.Fatal("all-zero series should be non-responsive")
	}
}

func TestClassifyConfigValidation(t *testing.T) {
	cfg := Default()
	cfg.MinSwingDays = 8
	if _, err := Classify(nil, 0, 1, cfg); err == nil {
		t.Error("expected error for MinSwingDays > WindowDays")
	}
	cfg = Default()
	cfg.SampleStep = 86400
	if _, err := Classify(nil, 0, 1, cfg); err == nil {
		t.Error("expected error for sample step > 12h")
	}
}

func TestBestWindowShortSeries(t *testing.T) {
	// A 3-day series still counts its wide days even though no full
	// 7-day window exists.
	days := []int64{100, 101, 102}
	swings := []float64{10, 10, 1}
	if got := bestWindow(days, swings, 5, 7); got != 2 {
		t.Fatalf("short-series best window = %d, want 2", got)
	}
	if got := bestWindow(nil, nil, 5, 7); got != 0 {
		t.Fatalf("empty best window = %d", got)
	}
}

// bestWindowBrute is the day-by-day scan bestWindow replaced: every window
// start from the first day to the last full window, each counted day by
// day. Its cost grows with the span of the series, so it serves as the
// oracle only on bounded inputs.
func bestWindowBrute(days []int64, swings []float64, threshold float64, windowDays int) int {
	if len(days) == 0 {
		return 0
	}
	wide := make(map[int64]bool, len(days))
	for i, d := range days {
		if swings[i] >= threshold {
			wide[d] = true
		}
	}
	first, last := days[0], days[len(days)-1]
	if last-first+1 < int64(windowDays) {
		return len(wide)
	}
	best := 0
	for w := first; w <= last-int64(windowDays)+1; w++ {
		count := 0
		for d := w; d < w+int64(windowDays); d++ {
			if wide[d] {
				count++
			}
		}
		best = max(best, count)
	}
	return best
}

func TestBestWindowHugeSpan(t *testing.T) {
	// One wild timestamp stretches the series over 10^9 days; the answer
	// must not cost a step per day.
	days := []int64{0, 1, 2, 3, 5, 1_000_000_000}
	swings := []float64{9, 9, 1, 9, 9, 9}
	done := make(chan int, 1)
	go func() { done <- bestWindow(days, swings, 5, 7) }()
	select {
	case got := <-done:
		if got != 4 {
			t.Fatalf("best window = %d, want 4", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("bestWindow still running after 5s on a 10^9-day series")
	}
}

// FuzzBestWindow holds the sliding window to the day-by-day scan on series
// spanning at most a few hundred days, with repeated days allowed.
func FuzzBestWindow(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 5, 9, 30}, int64(100), uint8(7), uint8(0x5a))
	f.Add([]byte{3}, int64(-40), uint8(1), uint8(1))
	f.Add([]byte{}, int64(0), uint8(7), uint8(0))
	f.Fuzz(func(t *testing.T, gaps []byte, first int64, window, wideBits uint8) {
		if len(gaps) > 64 {
			gaps = gaps[:64]
		}
		days := make([]int64, len(gaps))
		swings := make([]float64, len(gaps))
		d := first
		for i, g := range gaps {
			d += int64(g % 8) // gaps of 0 repeat a day
			days[i] = d
			if (int(wideBits)+i*int(g))%3 != 0 {
				swings[i] = 10
			}
		}
		w := int(window%30) + 1
		if got, want := bestWindow(days, swings, 5, w), bestWindowBrute(days, swings, 5, w); got != want {
			t.Fatalf("bestWindow(%v, %v, window %d) = %d, brute force %d", days, swings, w, got, want)
		}
	})
}

func BenchmarkClassifyMonth(b *testing.B) {
	blk, err := netsim.NewBlock(9, 79, netsim.Spec{Workers: 60, AlwaysOn: 6})
	if err != nil {
		b.Fatal(err)
	}
	start, end := jan6, jan6+28*netsim.SecondsPerDay
	eng := &probe.Engine{Observers: probe.StandardObservers(4), QuarterSeed: 17}
	perObs, err := eng.Collect(blk, start, end)
	if err != nil {
		b.Fatal(err)
	}
	s, err := reconstruct.Reconstruct(reconstruct.MergeInto(nil, perObs), blk.EverActive())
	if err != nil {
		b.Fatal(err)
	}
	cfg := Default()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Classify(s, start, end, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
