package experiments

import (
	"context"
	"fmt"
	"sort"
	"time"

	"github.com/diurnalnet/diurnal/internal/core"
	"github.com/diurnalnet/diurnal/internal/dataset"
	"github.com/diurnalnet/diurnal/internal/events"
	"github.com/diurnalnet/diurnal/internal/geo"
	"github.com/diurnalnet/diurnal/internal/netsim"
	"github.com/diurnalnet/diurnal/internal/probe"
)

// q1Window bounds the 2020q1 analysis window used by the validation
// experiments (12 weeks from Jan 1).
func q1Window() (int64, int64) {
	start := netsim.Date(2020, time.January, 1)
	return start, start + 12*7*netsim.SecondsPerDay
}

// hasVisibleChange consults ground truth: does the block's true activity
// drop materially after the event date? It compares mean true active
// counts at local working hours over the five workdays before and after.
// This plays the role of the paper's manual raw-data examination.
func hasVisibleChange(b *netsim.Block, tz int64, date int64) bool {
	meanNoon := func(from int64, dir int64) float64 {
		sum, n := 0.0, 0
		for d := int64(1); n < 5 && d < 14; d++ {
			day := from + dir*d*netsim.SecondsPerDay
			local := day + tz
			if netsim.IsWeekend(local) {
				continue
			}
			sum += float64(b.CountActive(day + 12*3600 - tz%netsim.SecondsPerDay))
			n++
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	meanSwing := func(from int64, dir int64) float64 {
		sum, n := 0.0, 0
		for d := int64(1); n < 7 && d < 10; d++ {
			day := from + dir*d*netsim.SecondsPerDay
			lo, hi := 256, 0
			for h := int64(0); h < 24; h += 3 {
				c := b.CountActive(day + h*3600)
				if c < lo {
					lo = c
				}
				if c > hi {
					hi = c
				}
			}
			sum += float64(hi - lo)
			n++
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	before := meanNoon(date, -1)
	after := meanNoon(date, +1)
	if before >= 3 && before-after >= 2 && after < 0.85*before {
		return true
	}
	swingBefore := meanSwing(date, -1)
	swingAfter := meanSwing(date, +1)
	return swingBefore >= 5 && swingAfter < 0.6*swingBefore
}

// Table5Result reproduces Table 5: validation of randomly sampled
// change-sensitive blocks against news-reported WFH dates.
type Table5Result struct {
	ChangeSensitive int
	Sampled         int
	NoWFHInQuarter  int
	WFHInQuarter    int

	CUSUMNearWFH    int // detections within ±4 days
	TruePositives   int // confirmed human-related in ground truth
	FalsePositives  int // detections without a true change (outage etc.)
	NoCUSUMNearWFH  int
	VisualMissed    int // true changes the detector missed (FN)
	CUSUMOtherDates int
	NoCUSUMAnywhere int
	Precision       float64 // paper: 93%
	RecallWeak      float64 // paper: 72%
}

// Table5 runs the full pipeline over a 2020q1 world, samples 50
// change-sensitive blocks, and scores CUSUM detections against the event
// calendar with the ±4-day rule.
func Table5(opts Options) (*Table5Result, error) {
	start, end := q1Window()
	nBlocks := opts.blocks(900)
	cal := events.Year2020()
	world, err := dataset.BuildWorld(dataset.WorldOpts{
		Blocks:   nBlocks,
		Seed:     opts.seed() + 11,
		Calendar: cal,
		Start:    start,
		End:      end,
	})
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig(start, end)
	cfg.BaselineStart = start
	cfg.BaselineEnd = netsim.Date(2020, time.January, 29)
	eng := &probe.Engine{Observers: probe.StandardObservers(4), QuarterSeed: opts.seed()}
	pipe := &core.Pipeline{Config: cfg, Engine: eng}
	run, err := pipe.Run(context.Background(), world)
	if err != nil {
		return nil, err
	}

	// Deterministic random sample of 50 change-sensitive blocks.
	var csIdx []int
	for i := range run.Blocks {
		if run.Blocks[i].Analysis != nil && run.Blocks[i].Analysis.Class.ChangeSensitive {
			csIdx = append(csIdx, i)
		}
	}
	res := &Table5Result{ChangeSensitive: len(csIdx)}
	sort.Slice(csIdx, func(a, b int) bool {
		return netsim.Hash64(opts.seed(), uint64(csIdx[a])) < netsim.Hash64(opts.seed(), uint64(csIdx[b]))
	})
	if len(csIdx) > 50 {
		csIdx = csIdx[:50]
	}
	res.Sampled = len(csIdx)

	for _, i := range csIdx {
		wb := world[i]
		a := run.Blocks[i].Analysis
		date, ok := cal.WFHDate(wb.Place.Region.Code)
		if !ok || date >= end || date < start {
			res.NoWFHInQuarter++
			continue
		}
		res.WFHInQuarter++
		// The paper confirms each detection by manual examination of the
		// raw data; here ground truth plays that role, checked at the
		// detection's own date.
		var near, nearReal, other bool
		for _, c := range a.DownChanges() {
			if events.MatchWithin(c.Point, date, events.MatchWindowDays) {
				near = true
				if hasVisibleChange(wb.Block, wb.Place.Region.TZOffset, c.Point) {
					nearReal = true
				}
			} else {
				other = true
			}
		}
		truthChanged := hasVisibleChange(wb.Block, wb.Place.Region.TZOffset, date)
		switch {
		case near && (nearReal || truthChanged):
			res.CUSUMNearWFH++
			res.TruePositives++
		case near:
			res.CUSUMNearWFH++
			res.FalsePositives++
		default:
			res.NoCUSUMNearWFH++
			if truthChanged {
				res.VisualMissed++
			}
			if other {
				res.CUSUMOtherDates++
			} else {
				res.NoCUSUMAnywhere++
			}
		}
	}
	if res.CUSUMNearWFH > 0 {
		res.Precision = float64(res.TruePositives) / float64(res.CUSUMNearWFH)
	}
	if res.TruePositives+res.VisualMissed > 0 {
		res.RecallWeak = float64(res.TruePositives) / float64(res.TruePositives+res.VisualMissed)
	}
	return res, nil
}

// String renders the Table 5 cascade.
func (r *Table5Result) String() string {
	t := &table{header: []string{"row", "count"}}
	t.add("change-sensitive blocks", itoa(r.ChangeSensitive))
	t.add("random selection", itoa(r.Sampled))
	t.add("no WFH in quarter", itoa(r.NoWFHInQuarter))
	t.add("WFH in quarter", itoa(r.WFHInQuarter))
	t.add("CUSUM near (±4d) WFH date", itoa(r.CUSUMNearWFH))
	t.add("  confirmed (TP)", itoa(r.TruePositives))
	t.add("  apparent outage/noise (FP)", itoa(r.FalsePositives))
	t.add("no CUSUM near WFH date", itoa(r.NoCUSUMNearWFH))
	t.add("  visual change missed (FN)", itoa(r.VisualMissed))
	t.add("  CUSUM not related to WFH", itoa(r.CUSUMOtherDates))
	t.add("  no CUSUM detections", itoa(r.NoCUSUMAnywhere))
	return fmt.Sprintf("Table 5 — validation of sampled blocks (paper: precision 93%%, recall 72%%)\n%sprecision = %.0f%%, weak recall = %.0f%%\n",
		t, 100*r.Precision, 100*r.RecallWeak)
}

// LocationResult is one gridcell's §3.7-style validation.
type LocationResult struct {
	Name         string
	Cell         geo.CellKey
	CSBlocks     int
	Sampled      int
	NearWFH      int
	Confirmed    int
	VisualMissed int
	Precision    float64
	Recall       float64
	PeakDay      string
	PeakFraction float64
	// PeakRatio compares the peak day's detections to the next-largest
	// day (the paper reports "ten times more than any other day" for the
	// UAE).
	PeakRatio float64
}

// LocationValidationResult covers the two random locations of §3.7.
type LocationValidationResult struct {
	Locations []LocationResult
}

// LocationValidation examines the UAE (24N, 54E) and Slovenia (46N, 14E)
// gridcells: block-level precision/recall and the peak detection day.
func LocationValidation(opts Options) (*LocationValidationResult, error) {
	// The paper examines detections over 2020h1, so the window must
	// extend past the late-March lockdowns.
	start := netsim.Date(2020, time.January, 1)
	end := netsim.Date(2020, time.April, 22)
	nBlocks := opts.blocks(2500)
	cal := events.Year2020()
	world, err := dataset.BuildWorld(dataset.WorldOpts{
		Blocks:   nBlocks,
		Seed:     opts.seed() + 13,
		Calendar: cal,
		Start:    start,
		End:      end,
	})
	if err != nil {
		return nil, err
	}
	// Only analyze the two regions' blocks to keep the experiment fast.
	var subset []*dataset.WorldBlock
	for _, wb := range world {
		if wb.Place.Region.Code == "AE" || wb.Place.Region.Code == "SI" {
			subset = append(subset, wb)
		}
	}
	cfg := core.DefaultConfig(start, end)
	cfg.BaselineStart = start
	cfg.BaselineEnd = netsim.Date(2020, time.January, 29)
	eng := &probe.Engine{Observers: probe.StandardObservers(4), QuarterSeed: opts.seed()}
	pipe := &core.Pipeline{Config: cfg, Engine: eng}
	run, err := pipe.Run(context.Background(), subset)
	if err != nil {
		return nil, err
	}

	res := &LocationValidationResult{}
	for _, loc := range []struct {
		name, code string
	}{
		{"United Arab Emirates", "AE"},
		{"Slovenia", "SI"},
	} {
		date, _ := cal.WFHDate(loc.code)
		lr := LocationResult{Name: loc.name}
		dayCounts := map[int64]int{}
		for i, wb := range subset {
			if wb.Place.Region.Code != loc.code {
				continue
			}
			a := run.Blocks[i].Analysis
			if a == nil || !a.Class.ChangeSensitive {
				continue
			}
			lr.Cell = wb.Place.Cell
			lr.CSBlocks++
			if lr.Sampled >= 25 {
				continue
			}
			lr.Sampled++
			near := false
			for _, c := range a.DownChanges() {
				dayCounts[netsim.DayIndex(c.Point)]++
				if events.MatchWithin(c.Point, date, events.MatchWindowDays) {
					near = true
				}
			}
			truthChanged := hasVisibleChange(wb.Block, wb.Place.Region.TZOffset, date)
			switch {
			case near && truthChanged:
				lr.NearWFH++
				lr.Confirmed++
			case near:
				lr.NearWFH++
			case truthChanged:
				lr.VisualMissed++
			}
		}
		if lr.NearWFH > 0 {
			lr.Precision = float64(lr.Confirmed) / float64(lr.NearWFH)
		}
		if lr.Confirmed+lr.VisualMissed > 0 {
			lr.Recall = float64(lr.Confirmed) / float64(lr.Confirmed+lr.VisualMissed)
		}
		// Peak of detections over a centered 3-day window: with a
		// 25-block sample individual detections spread over adjacent
		// days, so a short window recovers the aggregate spike the paper
		// sees with hundreds of blocks.
		window := func(d int64) int {
			return dayCounts[d-1] + dayCounts[d] + dayCounts[d+1]
		}
		var peakDay int64
		peak, second := 0, 0
		for d := range dayCounts {
			c := window(d)
			if c > peak || (c == peak && d < peakDay) {
				peak, peakDay = c, d
			}
		}
		for d := range dayCounts {
			if d >= peakDay-3 && d <= peakDay+3 {
				continue // exclude the peak's own neighbourhood
			}
			if c := window(d); c > second {
				second = c
			}
		}
		if peak > 0 && lr.Sampled > 0 {
			lr.PeakDay = time.Unix(peakDay*netsim.SecondsPerDay, 0).UTC().Format("2006-01-02")
			lr.PeakFraction = float64(peak) / float64(lr.Sampled)
			if second == 0 {
				second = 1
			}
			lr.PeakRatio = float64(peak) / float64(second)
		}
		res.Locations = append(res.Locations, lr)
	}
	return res, nil
}

// String renders the per-location validation.
func (r *LocationValidationResult) String() string {
	t := &table{header: []string{"location", "cell", "CS blocks", "sampled", "near WFH", "precision", "recall", "peak day", "peak frac", "peak ratio"}}
	for _, l := range r.Locations {
		t.add(l.Name, l.Cell.String(), itoa(l.CSBlocks), itoa(l.Sampled), itoa(l.NearWFH),
			fmt.Sprintf("%.0f%%", 100*l.Precision), fmt.Sprintf("%.0f%%", 100*l.Recall),
			l.PeakDay, fmt.Sprintf("%.2f", l.PeakFraction), fmt.Sprintf("%.1fx", l.PeakRatio))
	}
	return fmt.Sprintf("§3.7 — validation by location (paper: UAE precision 100%%/recall 73%%; Slovenia 100%%/77%%)\n%s", t)
}
