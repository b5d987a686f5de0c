package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/diurnalnet/diurnal/internal/changepoint"
	"github.com/diurnalnet/diurnal/internal/core"
	"github.com/diurnalnet/diurnal/internal/dataset"
	"github.com/diurnalnet/diurnal/internal/events"
	"github.com/diurnalnet/diurnal/internal/geo"
	"github.com/diurnalnet/diurnal/internal/netsim"
	"github.com/diurnalnet/diurnal/internal/probe"
)

// Paper-named gridcells.
var (
	cellWuhan    = geo.CellOf(30.9, 114.9)
	cellBeijing  = geo.CellOf(39.0, 117.0)
	cellShanghai = geo.CellOf(31.0, 121.0)
	cellDelhi    = geo.CellOf(28.9, 77.0)
)

// worldStudy is a cached full-pipeline run over a calendar window.
type worldStudy struct {
	run              *core.WorldResult
	startDay, endDay int64
}

var studyCache sync.Map // map[string]*worldStudy

// runWorldStudy executes (or returns the cached) pipeline run for a
// labeled window. Figures 8–10 share the 2020h1 study; Figures 12–13 share
// the 2023q1 control, so caching saves each bench from re-simulating.
func runWorldStudy(label string, cal *events.Calendar, start, end, baselineEnd int64, opts Options, defBlocks int) (*worldStudy, error) {
	key := fmt.Sprintf("%s/%d/%d", label, opts.blocks(defBlocks), opts.seed())
	if v, ok := studyCache.Load(key); ok {
		return v.(*worldStudy), nil
	}
	world, err := dataset.BuildWorld(dataset.WorldOpts{
		Blocks:   opts.blocks(defBlocks),
		Seed:     opts.seed() + 17,
		Calendar: cal,
		Start:    start,
		End:      end,
	})
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig(start, end)
	cfg.BaselineStart = start
	cfg.BaselineEnd = baselineEnd
	eng := &probe.Engine{Observers: probe.StandardObservers(4), QuarterSeed: opts.seed()}
	pipe := &core.Pipeline{Config: cfg, Engine: eng}
	run, err := pipe.Run(context.Background(), world)
	if err != nil {
		return nil, err
	}
	st := &worldStudy{
		run:      run,
		startDay: netsim.DayIndex(start),
		endDay:   netsim.DayIndex(end),
	}
	studyCache.Store(key, st)
	return st, nil
}

// study2020h1 runs the first half of 2020 with the Covid calendar.
func study2020h1(opts Options) (*worldStudy, error) {
	return runWorldStudy("2020h1", events.Year2020(),
		netsim.Date(2020, time.January, 1), netsim.Date(2020, time.July, 1),
		netsim.Date(2020, time.January, 29), opts, 800)
}

// study2023q1 runs the 2023 control quarter.
func study2023q1(opts Options) (*worldStudy, error) {
	return runWorldStudy("2023q1", events.Year2023(),
		netsim.Date(2023, time.January, 1), netsim.Date(2023, time.April, 1),
		netsim.Date(2023, time.January, 29), opts, 800)
}

// peakOf returns the day (as a date string) and value of the maximum of a
// daily series starting at startDay.
func peakOf(series []float64, startDay int64) (string, float64) {
	best, idx := 0.0, -1
	for i, v := range series {
		if v > best {
			best, idx = v, i
		}
	}
	if idx < 0 {
		return "none", 0
	}
	return time.Unix((startDay+int64(idx))*netsim.SecondsPerDay, 0).UTC().Format("2006-01-02"), best
}

// Figure8Result holds the per-continent daily downward-change fractions
// over 2020h1.
type Figure8Result struct {
	StartDay int64
	Series   map[geo.Continent][]float64
	CSBlocks map[geo.Continent]int
}

// Figure8 reproduces the continent-level trends of 2020h1.
func Figure8(opts Options) (*Figure8Result, error) {
	st, err := study2020h1(opts)
	if err != nil {
		return nil, err
	}
	res := &Figure8Result{
		StartDay: st.startDay,
		Series:   map[geo.Continent][]float64{},
		CSBlocks: map[geo.Continent]int{},
	}
	for _, c := range geo.Continents() {
		res.Series[c] = st.run.ContinentFractionSeries(c, st.startDay, st.endDay)
		res.CSBlocks[c] = st.run.ContinentCS[c]
	}
	return res, nil
}

// String renders each continent's peak.
func (r *Figure8Result) String() string {
	t := &table{header: []string{"continent", "CS blocks", "peak day", "peak fraction", "total fraction-days"}}
	for _, c := range geo.Continents() {
		day, peak := peakOf(r.Series[c], r.StartDay)
		total := 0.0
		for _, v := range r.Series[c] {
			total += v
		}
		t.add(c.String(), itoa(r.CSBlocks[c]), day, fmt.Sprintf("%.3f", peak), fmt.Sprintf("%.2f", total))
	}
	return fmt.Sprintf("Figure 8 — downward-trending block fractions by continent, 2020h1\n"+
		"(paper: Asia peaks ~2020-01-20 (Spring Festival), most others ~2020-03-20 (Covid), Oceania low)\n%s", t)
}

// CityStudy is one gridcell's daily down/up fractions.
type CityStudy struct {
	Name     string
	Cell     geo.CellKey
	CSBlocks int
	StartDay int64
	Down, Up []float64
}

// Peak returns the date and value of the largest downward fraction.
func (c *CityStudy) Peak() (string, float64) { return peakOf(c.Down, c.StartDay) }

// PeakIn returns the largest downward fraction between two dates
// (inclusive start, exclusive end).
func (c *CityStudy) PeakIn(from, to int64) float64 {
	best := 0.0
	for i, v := range c.Down {
		d := (c.StartDay + int64(i)) * netsim.SecondsPerDay
		if d >= from && d < to && v > best {
			best = v
		}
	}
	return best
}

func (st *worldStudy) city(name string, cell geo.CellKey) CityStudy {
	return CityStudy{
		Name:     name,
		Cell:     cell,
		CSBlocks: st.run.CellCS[cell],
		StartDay: st.startDay,
		Down:     st.run.CellFractionSeries(cell, changepoint.Down, st.startDay, st.endDay),
		Up:       st.run.CellFractionSeries(cell, changepoint.Up, st.startDay, st.endDay),
	}
}

// Figure9Result covers China in January 2020 (§4.2).
type Figure9Result struct {
	Wuhan, Beijing, Shanghai CityStudy
}

// Figure9 studies the concurrent Wuhan lockdown and Spring Festival.
func Figure9(opts Options) (*Figure9Result, error) {
	st, err := study2020h1(opts)
	if err != nil {
		return nil, err
	}
	return &Figure9Result{
		Wuhan:    st.city("Wuhan", cellWuhan),
		Beijing:  st.city("Beijing", cellBeijing),
		Shanghai: st.city("Shanghai", cellShanghai),
	}, nil
}

// JanuaryPeak returns the largest downward fraction in the window around
// the Spring Festival and Wuhan lockdown (Jan 20 – Feb 5) of the study's
// year.
func januaryPeak(c *CityStudy, year int) float64 {
	return c.PeakIn(netsim.Date(year, time.January, 18), netsim.Date(year, time.February, 6))
}

// String renders each city's overall and January peaks.
func (r *Figure9Result) String() string {
	t := &table{header: []string{"city", "cell", "CS blocks", "peak day", "peak fraction", "Jan 20–Feb 5 peak"}}
	for _, c := range []*CityStudy{&r.Wuhan, &r.Beijing, &r.Shanghai} {
		day, peak := c.Peak()
		t.add(c.Name, c.Cell.String(), itoa(c.CSBlocks), day, fmt.Sprintf("%.3f", peak),
			fmt.Sprintf("%.3f", januaryPeak(c, 2020)))
	}
	return fmt.Sprintf("Figure 9 — China in January 2020 (paper: peaks around 2020-01-27, Spring Festival + Wuhan lockdown;\n"+
		"April/June peaks also present in the paper's Figure 9b)\n%s", t)
}

// Figure10Result covers India in February and March 2020 (§4.3).
type Figure10Result struct {
	Delhi CityStudy
	// RiotsPeak is the largest downward fraction during the Delhi riots
	// window (Feb 23 – Mar 1); CurfewPeak during the Janata curfew /
	// lockdown window (Mar 20 – Mar 28). The paper finds the curfew peak
	// is the location's largest.
	RiotsPeak, CurfewPeak float64
}

// Figure10 studies New Delhi's two 2020 events.
func Figure10(opts Options) (*Figure10Result, error) {
	st, err := study2020h1(opts)
	if err != nil {
		return nil, err
	}
	res := &Figure10Result{Delhi: st.city("New Delhi", cellDelhi)}
	res.RiotsPeak = res.Delhi.PeakIn(netsim.Date(2020, time.February, 22), netsim.Date(2020, time.March, 2))
	res.CurfewPeak = res.Delhi.PeakIn(netsim.Date(2020, time.March, 19), netsim.Date(2020, time.March, 29))
	return res, nil
}

// String renders the two event windows.
func (r *Figure10Result) String() string {
	day, peak := r.Delhi.Peak()
	return fmt.Sprintf(
		"Figure 10 — New Delhi %s, 2020h1 (%d CS blocks)\n"+
			"  overall peak: %s at %.3f\n"+
			"  riots window (Feb 23–29) peak: %.3f   (paper: ~2%% of blocks)\n"+
			"  Janata curfew window (Mar 20–28) peak: %.3f   (paper: ~8%%, the largest drop)\n",
		r.Delhi.Cell, r.Delhi.CSBlocks, day, peak, r.RiotsPeak, r.CurfewPeak)
}

// Figure12Result is the 2023q1 Beijing control (Appendix B.3).
type Figure12Result struct {
	Beijing CityStudy
	// FestivalPeak is the largest downward fraction near the 2023 Spring
	// Festival (Jan 20–30).
	FestivalPeak float64
}

// Figure12 re-runs the Beijing analysis on 2023q1.
func Figure12(opts Options) (*Figure12Result, error) {
	st, err := study2023q1(opts)
	if err != nil {
		return nil, err
	}
	res := &Figure12Result{Beijing: st.city("Beijing", cellBeijing)}
	res.FestivalPeak = res.Beijing.PeakIn(netsim.Date(2023, time.January, 19), netsim.Date(2023, time.January, 31))
	return res, nil
}

// String renders the control outcome.
func (r *Figure12Result) String() string {
	day, peak := r.Beijing.Peak()
	return fmt.Sprintf(
		"Figure 12 — Beijing 2023q1 control (%d CS blocks): peak %s at %.3f; festival-window peak %.3f\n"+
			"(paper: significant peak around 2023-01-20, the 2023 Spring Festival)\n",
		r.Beijing.CSBlocks, day, peak, r.FestivalPeak)
}

// Figure13Result is the 2023q1 New Delhi null control (Appendix B.4).
type Figure13Result struct {
	Delhi CityStudy
	// MaxFraction is the largest daily downward fraction anywhere in the
	// quarter; the paper sees "no distinguishable peak".
	MaxFraction float64
}

// Figure13 re-runs the New Delhi analysis on 2023q1.
func Figure13(opts Options) (*Figure13Result, error) {
	st, err := study2023q1(opts)
	if err != nil {
		return nil, err
	}
	res := &Figure13Result{Delhi: st.city("New Delhi", cellDelhi)}
	_, res.MaxFraction = res.Delhi.Peak()
	return res, nil
}

// String renders the null-control outcome.
func (r *Figure13Result) String() string {
	return fmt.Sprintf(
		"Figure 13 — New Delhi 2023q1 control (%d CS blocks): max daily downward fraction %.3f\n"+
			"(paper: no distinguishable peak, confirming the 2020 changes were not local holidays)\n",
		r.Delhi.CSBlocks, r.MaxFraction)
}
