package experiments

import (
	"fmt"
	"time"

	"github.com/diurnalnet/diurnal/internal/core"
	"github.com/diurnalnet/diurnal/internal/dataset"
	"github.com/diurnalnet/diurnal/internal/events"
	"github.com/diurnalnet/diurnal/internal/netsim"
	"github.com/diurnalnet/diurnal/internal/probe"
	"github.com/diurnalnet/diurnal/internal/stats"
)

// Figure1Result reproduces the paper's running example (128.9.144.0/24): a
// university block with MLK day, Presidents Day, and WFH on 2020-03-15,
// carried through reconstruction, STL, and CUSUM.
type Figure1Result struct {
	Analysis *core.BlockAnalysis
	// MaxEverActive is |E(b)|, the red line of Figure 1a.
	MaxEverActive int
	// WFHDetected reports whether a downward change lands within ±4 days
	// of 2020-03-15, and DetectedPoint is its estimated date.
	WFHDetected   bool
	DetectedPoint string
	NumChanges    int
}

// Figure1 builds and analyzes the example block over 2020q1.
func Figure1(opts Options) (*Figure1Result, error) {
	start := netsim.Date(2020, time.January, 1)
	end := netsim.Date(2020, time.March, 25)
	wfh := netsim.Date(2020, time.March, 15)
	b, err := netsim.NewBlock(0x800990, opts.seed()+100, netsim.Spec{
		Workers: 70, AlwaysOn: 8, Firewalled: 10, TZOffset: -8 * 3600,
	})
	if err != nil {
		return nil, err
	}
	mlk := netsim.Date(2020, time.January, 20)
	pres := netsim.Date(2020, time.February, 17)
	b.AddEvent(netsim.Event{Kind: netsim.EventHoliday, Start: mlk, End: mlk + netsim.SecondsPerDay, Adoption: 0.7})
	b.AddEvent(netsim.Event{Kind: netsim.EventHoliday, Start: pres, End: pres + netsim.SecondsPerDay, Adoption: 0.6})
	b.AddEvent(netsim.Event{Kind: netsim.EventWFH, Start: wfh, Adoption: 0.9})

	cfg := core.DefaultConfig(start, end)
	cfg.BaselineStart, cfg.BaselineEnd = start, netsim.Date(2020, time.January, 29)
	eng := &probe.Engine{Observers: probe.StandardObservers(4), QuarterSeed: opts.seed()}
	a, err := cfg.AnalyzeBlock(eng, b)
	if err != nil {
		return nil, err
	}
	res := &Figure1Result{
		Analysis:      a,
		MaxEverActive: len(b.EverActive()),
		NumChanges:    len(a.Changes),
	}
	for _, c := range a.DownChanges() {
		if events.MatchWithin(c.Point, wfh, events.MatchWindowDays) {
			res.WFHDetected = true
			res.DetectedPoint = time.Unix(c.Point, 0).UTC().Format("2006-01-02")
		}
	}
	return res, nil
}

// String summarizes the example block's analysis.
func (r *Figure1Result) String() string {
	return fmt.Sprintf(
		"Figure 1 — example block analysis (paper: |E(b)|=88, change detected 2020-03-15)\n"+
			"  |E(b)| = %d, change-sensitive = %v (diurnal score %.2f, SNR %.0f)\n"+
			"  N changes = %d; WFH detected = %v at %s\n",
		r.MaxEverActive, r.Analysis.Class.ChangeSensitive,
		r.Analysis.Class.DiurnalScore, r.Analysis.Class.SNR,
		r.NumChanges, r.WFHDetected, r.DetectedPoint)
}

// Figure2Result reproduces the reconstruction walk-through of Figure 2: a
// 4-address block scanned incrementally, with the estimate trailing truth.
type Figure2Result struct {
	Rounds    []int64
	Estimates []float64
	Truth     []int
	// FirstComplete is the round index at which the estimate begins.
	FirstComplete int
}

// Figure2 runs the toy reconstruction.
func Figure2(Options) (*Figure2Result, error) {
	rec := func(t int64, addr int, up bool) probe.Record {
		return probe.Record{T: t, Addr: uint8(addr), Up: up}
	}
	// Ten rounds over a 4-address block; two addresses scanned per round,
	// mirroring the paper's staircase of estimates.
	truth := []int{2, 2, 2, 2, 2, 2, 4, 4, 4, 4}
	records := []probe.Record{
		rec(0, 1, false), rec(0, 2, false),
		rec(1, 3, true), rec(1, 4, true),
		rec(2, 1, false), rec(2, 2, false),
		rec(3, 3, true), rec(3, 4, true),
		rec(4, 1, false), rec(4, 2, false),
		rec(5, 3, true), rec(5, 4, true),
		rec(6, 1, true), rec(6, 2, true), // .1 and .2 wake up
		rec(7, 3, true), rec(7, 4, true),
		rec(8, 1, true), rec(8, 2, true),
		rec(9, 3, true), rec(9, 4, true),
	}
	series, err := reconstructBlock([][]probe.Record{records}, []int{1, 2, 3, 4}, 0, 10, false)
	if err != nil {
		return nil, err
	}
	res := &Figure2Result{Truth: truth, FirstComplete: int(series.Times[0])}
	res.Rounds = series.Times
	res.Estimates = series.Counts
	return res, nil
}

// String renders the estimate-vs-truth staircase.
func (r *Figure2Result) String() string {
	t := &table{header: []string{"round", "estimate", "truth"}}
	for i, round := range r.Rounds {
		t.add(itoa(int(round)+1), fmt.Sprintf("%.0f", r.Estimates[i]), itoa(r.Truth[round]))
	}
	return fmt.Sprintf("Figure 2 — incremental reconstruction of a 4-address block (no estimate until round %d)\n%s",
		r.FirstComplete+1, t)
}

// Figure3Result is the CDF of full-block-scan time for 1–4 observers.
type Figure3Result struct {
	// FracWithin6h and FracWithin12h report, per observer count (index
	// 0 = 1 observer), the fraction of change-sensitive blocks fully
	// scanned within 6 and 12 hours.
	FracWithin6h, FracWithin12h []float64
	Blocks                      int
}

// Figure3 measures scan-time distributions over the diurnal blocks of a
// small world (paper: 65%/48% within 6 h and 78%/61% within 12 h for 4 vs
// 1 observers).
func Figure3(opts Options) (*Figure3Result, error) {
	nBlocks := opts.blocks(300)
	start := netsim.Date(2020, time.January, 6)
	end := start + 4*netsim.SecondsPerDay
	world, err := dataset.BuildWorld(dataset.WorldOpts{
		Blocks: nBlocks, Seed: opts.seed() + 19,
		Start: start, End: end, OutageProb: -1, RenumberProb: -1,
	})
	if err != nil {
		return nil, err
	}
	res := &Figure3Result{}
	for nObs := 1; nObs <= 4; nObs++ {
		eng := &probe.Engine{Observers: probe.StandardObservers(nObs), QuarterSeed: opts.seed()}
		results := make([]float64, len(world))
		parallelEach(len(world), func(i int) {
			results[i] = -1
			b := world[i].Block
			eb := b.EverActive()
			// Scan-time analysis targets the populated, human-active
			// blocks (the paper measures change-sensitive blocks).
			if len(eb) < 20 {
				return
			}
			perObs, err := eng.Collect(b, start, end)
			if err != nil {
				return
			}
			results[i] = float64(end - start) // never completed
			if scans := ScanTimes(perObs, eb); len(scans) > 0 {
				vals := make([]float64, len(scans))
				for j, s := range scans {
					vals[j] = float64(s)
				}
				results[i] = stats.Median(vals)
			}
		})
		var medians []float64
		for _, med := range results {
			if med >= 0 {
				medians = append(medians, med)
			}
		}
		cdf := stats.NewCDF(medians)
		res.FracWithin6h = append(res.FracWithin6h, cdf.At(6*3600))
		res.FracWithin12h = append(res.FracWithin12h, cdf.At(12*3600))
		res.Blocks = len(medians)
	}
	return res, nil
}

// String renders the CDF landmarks.
func (r *Figure3Result) String() string {
	t := &table{header: []string{"observers", "<= 6 h", "<= 12 h"}}
	for i := range r.FracWithin6h {
		t.add(itoa(i+1), fmt.Sprintf("%.0f%%", 100*r.FracWithin6h[i]), fmt.Sprintf("%.0f%%", 100*r.FracWithin12h[i]))
	}
	return fmt.Sprintf("Figure 3 — full-block-scan time CDF over %d blocks (paper: 4 obs 65%%@6h/78%%@12h vs 1 obs 48%%/61%%)\n%s",
		r.Blocks, t)
}

// Figure6Result reproduces the congestive-loss case study: per-observer
// reply rates without and with 1-loss repair.
type Figure6Result struct {
	Observers []string
	Without   []float64
	With      []float64
	// AllWithout and AllWith are the merged all-observer rates.
	AllWithout, AllWith float64
}

// Figure6 probes one dense block with four clean observers plus lossy w.
func Figure6(opts Options) (*Figure6Result, error) {
	start := netsim.Date(2023, time.April, 1)
	end := start + 14*netsim.SecondsPerDay
	b, err := netsim.NewBlock(0x76543, opts.seed()+23, netsim.Spec{
		AlwaysOn: 120, Workers: 60, TZOffset: 8 * 3600,
	})
	if err != nil {
		return nil, err
	}
	obs := probe.StandardObservers(5) // w e j n c
	for i := range obs {
		obs[i].Extra = 4
	}
	obs[0].Loss = &probe.LossModel{Base: 0.04, DiurnalAmp: 0.22, TZOffset: 8 * 3600}
	eng := &probe.Engine{Observers: obs, QuarterSeed: opts.seed()}
	perObs, err := eng.Collect(b, start, end)
	if err != nil {
		return nil, err
	}
	res := &Figure6Result{}
	for i, o := range obs {
		res.Observers = append(res.Observers, o.Name)
		res.Without = append(res.Without, meanReplyRate(perObs[i:i+1], false))
	}
	res.AllWithout = meanReplyRate(perObs, false)
	for i := range obs {
		res.With = append(res.With, meanReplyRate(perObs[i:i+1], true))
	}
	res.AllWith = meanReplyRate(perObs, false)
	return res, nil
}

// String renders the reply-rate comparison of Figure 6d.
func (r *Figure6Result) String() string {
	t := &table{header: []string{"observer", "w/o 1-loss repair", "w/ 1-loss repair"}}
	for i, name := range r.Observers {
		t.add(name+" only", fmt.Sprintf("%.3f", r.Without[i]), fmt.Sprintf("%.3f", r.With[i]))
	}
	t.add("all obs.", fmt.Sprintf("%.3f", r.AllWithout), fmt.Sprintf("%.3f", r.AllWith))
	return fmt.Sprintf("Figure 6 — congestive loss at observer w and 1-loss repair\n"+
		"(paper: w 0.479→0.552, clean observers ~0.62 barely move, all-obs 0.581→0.622)\n%s", t)
}

// Figure15Result is the VPN-block case study of Appendix B.2.
type Figure15Result struct {
	ChangeSensitive bool
	Detected        bool
	DetectedPoint   string
}

// Figure15 models USC's VPN block: ~150 always-on VPN endpoints plus
// diurnal workers, migrated to new address space at WFH (a permanent
// outage of the old block).
func Figure15(opts Options) (*Figure15Result, error) {
	start := netsim.Date(2020, time.January, 1)
	end := netsim.Date(2020, time.March, 25)
	wfh := netsim.Date(2020, time.March, 15)
	b, err := netsim.NewBlock(0x807D34, opts.seed()+29, netsim.Spec{
		Workers: 60, AlwaysOn: 150, TZOffset: -8 * 3600,
	})
	if err != nil {
		return nil, err
	}
	b.AddEvent(netsim.Event{Kind: netsim.EventOutage, Start: wfh, End: end + netsim.SecondsPerDay})
	cfg := core.DefaultConfig(start, end)
	cfg.BaselineStart, cfg.BaselineEnd = start, netsim.Date(2020, time.January, 29)
	eng := &probe.Engine{Observers: probe.StandardObservers(4), QuarterSeed: opts.seed()}
	a, err := cfg.AnalyzeBlock(eng, b)
	if err != nil {
		return nil, err
	}
	res := &Figure15Result{ChangeSensitive: a.Class.ChangeSensitive}
	for _, c := range a.DownChanges() {
		if events.MatchWithin(c.Point, wfh, events.MatchWindowDays) {
			res.Detected = true
			res.DetectedPoint = time.Unix(c.Point, 0).UTC().Format("2006-01-02")
		}
	}
	return res, nil
}

// String summarizes the VPN case study.
func (r *Figure15Result) String() string {
	return fmt.Sprintf(
		"Figure 15 — VPN block migration (paper: change detected around 2020-03-15)\n"+
			"  change-sensitive = %v, migration detected = %v at %s\n",
		r.ChangeSensitive, r.Detected, r.DetectedPoint)
}

// Figure11Result reproduces Appendix B.1's two representative blocks: one
// with seven-day diurnal activity that goes quiet at a Covid lockdown, and
// one whose large mid-February drop is an ISP reassignment (a down/up pair
// the pipeline must not report as human activity).
type Figure11Result struct {
	// CovidDetected: the all-week diurnal block's lockdown is found near
	// 2020-03-20 (the UAE block of Figure 11a).
	CovidDetected bool
	CovidPoint    string
	// ReassignSuppressed: the reassignment block's February down/up pair
	// is filtered, while its small late-March trend dip stays below the
	// detection floor (Figure 11b).
	ReassignSuppressed bool
	FilteredChanges    int
}

// Figure11 builds and analyzes both appendix blocks.
func Figure11(opts Options) (*Figure11Result, error) {
	start := netsim.Date(2020, time.January, 1)
	end := netsim.Date(2020, time.April, 22)
	cfg := core.DefaultConfig(start, end)
	cfg.BaselineStart, cfg.BaselineEnd = start, netsim.Date(2020, time.January, 29)
	eng := &probe.Engine{Observers: probe.StandardObservers(4), QuarterSeed: opts.seed()}
	res := &Figure11Result{}

	// (a) Home-public block active every day of the week, locked down on
	// 2020-03-20 (UAE-like; home daytime use rises, evening public IPs
	// persist, but the workplace-style per-address churn collapses).
	lock := netsim.Date(2020, time.March, 20)
	a, err := netsim.NewBlock(0xB101, opts.seed()+61, netsim.Spec{
		Workers: 30, Homes: 30, AlwaysOn: 3, TZOffset: 4 * 3600,
		WeekendWorkProb: 0.6, // activity all seven days, as in Figure 11a
	})
	if err != nil {
		return nil, err
	}
	a.AddEvent(netsim.Event{Kind: netsim.EventWFH, Start: lock, Adoption: 0.9})
	ra, err := cfg.AnalyzeBlock(eng, a)
	if err != nil {
		return nil, err
	}
	for _, c := range ra.DownChanges() {
		if events.MatchWithin(c.Point, lock, events.MatchWindowDays) {
			res.CovidDetected = true
			res.CovidPoint = time.Unix(c.Point, 0).UTC().Format("2006-01-02")
		}
	}

	// (b) A block renumbered in mid-February: a large drop and recovery
	// that must be filtered as an ISP-based reassignment.
	b, err := netsim.NewBlock(0xB102, opts.seed()+62, netsim.Spec{
		Workers: 40, Homes: 60, AlwaysOn: 4,
	})
	if err != nil {
		return nil, err
	}
	reassign := netsim.Date(2020, time.February, 14)
	b.AddEvent(netsim.Event{Kind: netsim.EventOutage, Start: reassign, End: reassign + 2*netsim.SecondsPerDay})
	rb, err := cfg.AnalyzeBlock(eng, b)
	if err != nil {
		return nil, err
	}
	res.ReassignSuppressed = true
	for _, c := range rb.DownChanges() {
		if events.MatchWithin(c.Point, reassign, 3) {
			res.ReassignSuppressed = false
		}
	}
	res.FilteredChanges = len(rb.OutagePairs)
	return res, nil
}

// String summarizes the appendix case studies.
func (r *Figure11Result) String() string {
	return fmt.Sprintf(
		"Figure 11 — two representative change-sensitive blocks (Appendix B.1)\n"+
			"  (a) all-week diurnal block: lockdown detected = %v at %s (paper: 2020-03-20)\n"+
			"  (b) reassignment block: down/up pair suppressed = %v (%d changes filtered)\n",
		r.CovidDetected, r.CovidPoint, r.ReassignSuppressed, r.FilteredChanges)
}
