package diurnal

import (
	"context"
	"math"
	"testing"

	"github.com/diurnalnet/diurnal/internal/changepoint"
	"github.com/diurnalnet/diurnal/internal/dataset"
	"github.com/diurnalnet/diurnal/internal/events"
	"github.com/diurnalnet/diurnal/internal/netsim"
	"github.com/diurnalnet/diurnal/internal/probe"
)

func TestDateHelper(t *testing.T) {
	if Date(1970, 1, 1) != 0 {
		t.Fatal("epoch date wrong")
	}
	if Date(2020, 3, 15) != netsim.Date(2020, 3, 15) {
		t.Fatal("Date mismatch with internal helper")
	}
}

func TestNewWorldValidation(t *testing.T) {
	if _, err := NewWorld(WorldOptions{Blocks: 10, Observers: 9, Start: 0, End: 1}); err == nil {
		t.Error("expected error for 9 observers")
	}
	if _, err := NewWorld(WorldOptions{Blocks: 0, Start: 0, End: 1}); err == nil {
		t.Error("expected error for 0 blocks")
	}
}

func TestWorldAccessors(t *testing.T) {
	w, err := NewWorld(WorldOptions{
		Blocks: 50, Seed: 2, Calendar: Calendar2020(),
		Start: Date(2020, 1, 1), End: Date(2020, 1, 29),
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.Size() < 45 || w.Size() > 55 {
		t.Fatalf("size = %d", w.Size())
	}
	if w.Start() != Date(2020, 1, 1) || w.End() != Date(2020, 1, 29) {
		t.Fatal("window accessors wrong")
	}
	if w.Engine() == nil {
		t.Fatal("engine missing")
	}
	b, region, cell := w.BlockAt(0)
	if b == nil || region == "" {
		t.Fatalf("BlockAt(0) = %v %q %v", b, region, cell)
	}
	found := false
	for _, code := range []string{"CN", "EU-W", "US-E"} {
		if len(w.BlocksInRegion(code)) > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("no blocks in any major region")
	}
}

func TestEndToEndWFHWorld(t *testing.T) {
	start, end := Date(2020, 1, 1), Date(2020, 3, 25)
	w, err := NewWorld(WorldOptions{
		Blocks: 80, Seed: 3, Calendar: Calendar2020(),
		Start: start, End: end, disableNoise: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(start, end)
	cfg.BaselineEnd = Date(2020, 1, 29)
	cfg.BaselineStart = start
	report, err := w.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if report.ChangeSensitiveCount() == 0 {
		t.Fatal("no change-sensitive blocks")
	}
	// Mid-March should show downward changes somewhere in the world.
	startDay := start / SecondsPerDay
	endDay := end / SecondsPerDay
	total := 0.0
	for _, c := range []Continent{0, 1, 2, 3, 4, 5} {
		for _, v := range report.ContinentFractionSeries(c, startDay, endDay) {
			total += v
		}
	}
	if total == 0 {
		t.Fatal("Covid world shows no downward changes")
	}
}

func TestAnalyzeSeriesBYOData(t *testing.T) {
	// A caller brings hourly counts: 20 active by day, 4 by night, with
	// the swing disappearing at mid-window.
	start := Date(2020, 1, 1)
	end := Date(2020, 3, 1)
	var times []int64
	var counts []float64
	cut := Date(2020, 2, 3)
	for ts := start; ts < end; ts += 3600 {
		sod := ts % SecondsPerDay
		v := 4.0
		if ts < cut && sod >= 9*3600 && sod < 17*3600 && netsim.Weekday(ts) >= 1 && netsim.Weekday(ts) <= 5 {
			v = 20
		}
		times = append(times, ts)
		counts = append(counts, v)
	}
	cfg := DefaultConfig(start, end)
	cfg.BaselineStart, cfg.BaselineEnd = start, cut
	a, err := AnalyzeSeries(cfg, times, counts)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Class.ChangeSensitive {
		t.Fatalf("BYO series not change-sensitive: %+v", a.Class)
	}
	matched := false
	for _, c := range a.DownChanges() {
		if events.MatchWithin(c.Point, cut, events.MatchWindowDays) {
			matched = true
		}
	}
	if !matched {
		t.Fatalf("change at %s not found: %+v",
			"2020-02-03", a.Changes)
	}
}

func TestAnalyzeSeriesLengthMismatch(t *testing.T) {
	if _, err := AnalyzeSeries(DefaultConfig(0, 86400*7), []int64{1}, nil); err == nil {
		t.Fatal("expected length mismatch error")
	}
}

func TestCalendars(t *testing.T) {
	if Calendar2020().Label != "2020h1" || Calendar2023().Label != "2023q1" {
		t.Fatal("calendar labels wrong")
	}
}

func TestDownChangesFilter(t *testing.T) {
	a := &BlockAnalysis{Changes: []Change{
		{Dir: changepoint.Down}, {Dir: changepoint.Up}, {Dir: changepoint.Down},
	}}
	if got := len(a.DownChanges()); got != 2 {
		t.Fatalf("DownChanges = %d, want 2", got)
	}
}

func TestReportFractionsBounded(t *testing.T) {
	start, end := Date(2020, 1, 1), Date(2020, 2, 12)
	w, err := NewWorld(WorldOptions{Blocks: 40, Seed: 5, Start: start, End: end})
	if err != nil {
		t.Fatal(err)
	}
	report, err := w.Run(DefaultConfig(start, end))
	if err != nil {
		t.Fatal(err)
	}
	for cell := range report.CellCS {
		for _, v := range report.CellFractionSeries(cell, changepoint.Down, start/SecondsPerDay, end/SecondsPerDay) {
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("fraction %g out of range", v)
			}
		}
	}
}

func TestAnalyzeRecordsFacade(t *testing.T) {
	// Drive the record-level entry point through the facade: simulate a
	// block, collect raw records, analyze them, and match AnalyzeBlock.
	start, end := Date(2020, 1, 1), Date(2020, 2, 26)
	b, err := netsim.NewBlock(77, 4242, netsim.Spec{Workers: 60, AlwaysOn: 6})
	if err != nil {
		t.Fatal(err)
	}
	b.AddEvent(netsim.Event{Kind: netsim.EventWFH, Start: Date(2020, 2, 3), Adoption: 0.9})
	eng := &Engine{Observers: probe.StandardObservers(4), QuarterSeed: 5}
	perObs, err := eng.Collect(b, start, end)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(start, end)
	cfg.BaselineStart, cfg.BaselineEnd = start, Date(2020, 1, 29)
	fromRecords, err := AnalyzeRecords(cfg, perObs, b.EverActive())
	if err != nil {
		t.Fatal(err)
	}
	fromBlock, err := AnalyzeBlock(cfg, eng, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(fromRecords.Changes) != len(fromBlock.Changes) {
		t.Fatalf("records path found %d changes, block path %d",
			len(fromRecords.Changes), len(fromBlock.Changes))
	}
	if !fromRecords.Class.ChangeSensitive {
		t.Fatal("block should be change-sensitive")
	}
	found := false
	for _, c := range fromRecords.DownChanges() {
		if events.MatchWithin(c.Point, Date(2020, 2, 3), events.MatchWindowDays) {
			found = true
		}
	}
	if !found {
		t.Fatalf("WFH not detected via records path: %+v", fromRecords.Changes)
	}
}

func TestStoreReplayThroughFacade(t *testing.T) {
	// Archive observations with the dataset store, then analyze a block
	// replayed from the archive without re-simulating.
	dir := t.TempDir()
	spec := dataset.Spec{Name: "replay", Start: Date(2020, 1, 1), Weeks: 4, Sites: []string{"e", "j"}}
	world, err := dataset.BuildWorld(dataset.WorldOpts{
		Blocks: 10, Seed: 33, Start: spec.Start, End: spec.End(),
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := dataset.EngineFor(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	store, err := dataset.CreateStore(dir, spec, eng, world)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := store.Replay()
	if err != nil {
		t.Fatal(err)
	}
	var wb *dataset.WorldBlock // the store archives only responsive blocks
	for _, b := range world {
		if len(b.EverActive()) > 0 {
			wb = b
			break
		}
	}
	if wb == nil {
		t.Fatal("no responsive block")
	}
	start, end := spec.Start, spec.End()
	perObs, err := replay.CollectInto(context.Background(), wb.Block, start, end, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, err := AnalyzeRecords(DefaultConfig(start, end), perObs, wb.EverActive())
	if err != nil {
		t.Fatal(err)
	}
	if a.Series.Len() == 0 {
		t.Fatal("replayed block reconstructed nothing")
	}
}

func TestReportPeakDayFacade(t *testing.T) {
	start, end := Date(2020, 1, 1), Date(2020, 2, 12)
	w, err := NewWorld(WorldOptions{Blocks: 50, Seed: 8, Start: start, End: end, Calendar: Calendar2020()})
	if err != nil {
		t.Fatal(err)
	}
	report, err := w.Run(DefaultConfig(start, end))
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range report.TopCells(3) {
		day, frac, ok := report.PeakDay(cell)
		if ok && (frac <= 0 || frac > 1 || day <= 0) {
			t.Fatalf("bad peak for %v: %d %g", cell, day, frac)
		}
	}
}

// TestAnalyzeRecordsLeavesInputUntouched: the record-level entry point
// reads the caller's streams and never writes them, even where its answer
// differs from them — a 101 that 1-loss repair turns into 111, and a late
// record that sanitizing sorts into place. With sanitizing off the stream
// is walked as it is, late record and all, so the repair has no copy to
// land in.
func TestAnalyzeRecordsLeavesInputUntouched(t *testing.T) {
	start, end := Date(2020, 1, 1), Date(2020, 2, 1)
	var stream []Record
	for r := int64(0); r < 3000; r++ {
		stream = append(stream, Record{T: start + r*netsim.RoundSeconds, Addr: 1, Up: r%3 != 1})
	}
	stream = append(stream, Record{T: start + 5*netsim.RoundSeconds, Addr: 2, Up: true})
	for _, opt := range []struct{ integrity, sanitize bool }{{false, true}, {true, true}, {false, false}} {
		perObserver := [][]Record{stream}
		records := append([]Record(nil), stream...)
		cfg := DefaultConfig(start, end)
		cfg.Integrity, cfg.SanitizeRecords = opt.integrity, opt.sanitize
		a, err := AnalyzeRecords(cfg, perObserver, []int{1, 2})
		if err != nil {
			t.Fatal(err)
		}
		if a.Series.Len() == 0 {
			t.Fatalf("%+v: no series: the records went unanalyzed", opt)
		}
		if got := perObserver[0]; len(got) != len(stream) || cap(got) != cap(stream) || &got[0] != &stream[0] {
			t.Fatalf("%+v: the stream's slice header was replaced", opt)
		}
		changed := 0
		for i := range records {
			if stream[i] != records[i] {
				changed++
			}
		}
		if changed > 0 {
			t.Fatalf("%+v: %d of %d records changed", opt, changed, len(records))
		}
	}
}
