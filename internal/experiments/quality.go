package experiments

import (
	"fmt"
	"sync"
	"time"

	"github.com/diurnalnet/diurnal/internal/blockclass"
	"github.com/diurnalnet/diurnal/internal/core"
	"github.com/diurnalnet/diurnal/internal/dataset"
	"github.com/diurnalnet/diurnal/internal/events"
	"github.com/diurnalnet/diurnal/internal/geo"
	"github.com/diurnalnet/diurnal/internal/netsim"
	"github.com/diurnalnet/diurnal/internal/probe"
	"github.com/diurnalnet/diurnal/internal/reconstruct"
	"github.com/diurnalnet/diurnal/internal/stats"
)

// surveySeries builds the ground-truth active-count series from full
// per-round scans, the analogue of the paper's it89 Internet surveys.
func surveySeries(b *netsim.Block, start, end int64) *reconstruct.Series {
	s := &reconstruct.Series{}
	var curT int64 = -1
	up := 0
	probe.Survey(b, start, end, func(r probe.Record) {
		if r.T != curT {
			if curT >= 0 {
				s.Times = append(s.Times, curT)
				s.Counts = append(s.Counts, float64(up))
			}
			curT = r.T
			up = 0
		}
		if r.Up {
			up++
		}
	})
	if curT >= 0 {
		s.Times = append(s.Times, curT)
		s.Counts = append(s.Counts, float64(up))
	}
	return s
}

// Table3Result reproduces Table 3: classification counts from the survey
// ground truth and from four reconstruction options, over the same blocks.
type Table3Result struct {
	Columns []string
	Counts  map[string]counts
	// TruthSensitive is the number of change-sensitive blocks in ground
	// truth; RecoveredByBest is how many of those the best reconstruction
	// (4 observers, matched 2-week window) also finds (the paper's 70%).
	TruthSensitive, RecoveredByBest int
}

// Table3 compares reconstruction options against survey ground truth over
// the it89 two-week window.
func Table3(opts Options) (*Table3Result, error) {
	nBlocks := opts.blocks(400)
	it89, err := dataset.FindSpec("2020it89-w")
	if err != nil {
		return nil, err
	}
	world, err := dataset.BuildWorld(dataset.WorldOpts{
		Blocks:   nBlocks,
		Seed:     opts.seed() + 3,
		Calendar: events.Year2020(),
		Start:    netsim.Date(2020, time.January, 1),
		End:      netsim.Date(2020, time.April, 1),
	})
	if err != nil {
		return nil, err
	}
	cfg := blockclass.Default()

	// Ground truth from full scans over the survey window.
	truth := make([]classification, len(world))
	truthSensitive := make([]bool, len(world))
	parallelEach(len(world), func(i int) {
		s := surveySeries(world[i].Block, it89.Start, it89.End())
		res, err := blockclass.Classify(s, it89.Start, it89.End(), cfg)
		if err != nil {
			return
		}
		truth[i] = classOf(res)
		truthSensitive[i] = res.ChangeSensitive
	})

	type option struct {
		name       string
		sites      []string
		start, end int64
	}
	q1 := netsim.Date(2020, time.January, 1)
	options := []option{
		{"2020q1-w", []string{"w"}, q1, q1 + 12*7*netsim.SecondsPerDay},
		{"2020q1-ejnw", []string{"e", "j", "n", "w"}, q1, q1 + 12*7*netsim.SecondsPerDay},
		{"2020m1-ejnw", []string{"e", "j", "n", "w"}, q1, q1 + 4*7*netsim.SecondsPerDay},
		{"2020it89-match-ejnw", []string{"e", "j", "n", "w"}, it89.Start, it89.End()},
	}

	res := &Table3Result{
		Columns: []string{"2020it89-w(truth)"},
		Counts:  map[string]counts{"2020it89-w(truth)": tally(truth)},
	}
	lossy := lossyChinaBlocks(world)
	matchSensitive := make([]bool, len(world))
	for _, opt := range options {
		eng := &probe.Engine{QuarterSeed: netsim.Hash64(uint64(opt.start))}
		for _, site := range opt.sites {
			o, err := dataset.ObserverFor(site, lossy)
			if err != nil {
				return nil, err
			}
			eng.Observers = append(eng.Observers, o)
		}
		cls := classifyWorld(world, eng, opt.start, opt.end, cfg)
		// Restrict to blocks responsive in ground truth (the survey
		// intersection).
		restricted := make([]classification, 0, len(cls))
		for i, c := range cls {
			if truth[i].responsive {
				restricted = append(restricted, c)
			}
		}
		res.Columns = append(res.Columns, opt.name)
		res.Counts[opt.name] = tally(restricted)
		if opt.name == "2020it89-match-ejnw" {
			for i, c := range cls {
				matchSensitive[i] = c.sensitive
			}
		}
	}
	for i := range world {
		if truthSensitive[i] {
			res.TruthSensitive++
			if matchSensitive[i] {
				res.RecoveredByBest++
			}
		}
	}
	return res, nil
}

// String renders the Table 3 layout.
func (r *Table3Result) String() string {
	t := &table{header: append([]string{"row"}, r.Columns...)}
	row := func(label string, get func(c counts) int) {
		cells := []string{label}
		for _, name := range r.Columns {
			cells = append(cells, itoa(get(r.Counts[name])))
		}
		t.add(cells...)
	}
	row("responsive", func(c counts) int { return c.Responsive })
	row("not diurnal", func(c counts) int { return c.NotDiurnal })
	row("diurnal", func(c counts) int { return c.Diurnal })
	row("narrow swing", func(c counts) int { return c.NarrowSwing })
	row("wide swing", func(c counts) int { return c.WideSwing })
	row("not change-sensit.", func(c counts) int { return c.NotChangeSensitive })
	row("change-sensitive", func(c counts) int { return c.ChangeSensitive })
	return fmt.Sprintf("Table 3 — reconstruction vs survey ground truth\n%srecovered %d of %d truth change-sensitive blocks (%s) with 4 sites over the matched window\n",
		t, r.RecoveredByBest, r.TruthSensitive, pct(r.RecoveredByBest, r.TruthSensitive))
}

// Figure4Result compares reconstructed series against ground truth for an
// easy (sparse) and a hard (dense always-up) block.
type Figure4Result struct {
	EasyR, HardR       float64 // Pearson correlations (paper: 0.89 vs 0.40)
	EasyScan, HardScan int64   // median scan times in seconds
}

// Figure4 reproduces the two reconstruction case studies of Figure 4 /
// Appendix C.
func Figure4(opts Options) (*Figure4Result, error) {
	start := netsim.Date(2020, time.February, 19)
	end := start + 14*netsim.SecondsPerDay
	easy, err := netsim.NewBlock(0x101, opts.seed()+41, netsim.Spec{Workers: 60, AlwaysOn: 6})
	if err != nil {
		return nil, err
	}
	hard, err := netsim.NewBlock(0x102, opts.seed()+42, netsim.Spec{Workers: 120, AlwaysOn: 120})
	if err != nil {
		return nil, err
	}
	res := &Figure4Result{}
	measure := func(b *netsim.Block, nObs int) (float64, int64, error) {
		eng := &probe.Engine{Observers: probe.StandardObservers(nObs), QuarterSeed: opts.seed()}
		perObs, err := eng.Collect(b, start, end)
		if err != nil {
			return 0, 0, err
		}
		scans := ScanTimes(perObs, b.EverActive())
		series, err := reconstructBlock(perObs, b.EverActive(), start, end, false)
		if err != nil {
			return 0, 0, err
		}
		est := series.Resample(start, end, 3600)
		truth := surveySeries(b, start, end).Resample(start, end, 3600)
		r, err := stats.Pearson(est, truth)
		if err != nil {
			return 0, 0, err
		}
		return r, medianScan(scans, end-start), nil
	}
	var err2 error
	if res.EasyR, res.EasyScan, err2 = measure(easy, 4); err2 != nil {
		return nil, err2
	}
	// The hard block is observed with a single site, compounding the
	// always-up low-pass effect the paper describes.
	if res.HardR, res.HardScan, err2 = measure(hard, 1); err2 != nil {
		return nil, err2
	}
	return res, nil
}

// String summarizes Figure 4.
func (r *Figure4Result) String() string {
	return fmt.Sprintf(
		"Figure 4 — reconstruction vs ground truth\n"+
			"  easy block: Pearson r = %.2f, median scan %s (paper: r = 0.89, ~1 h)\n"+
			"  hard block: Pearson r = %.2f, median scan %s (paper: r = 0.40, ~8 h)\n",
		r.EasyR, fmtDur(r.EasyScan), r.HardR, fmtDur(r.HardScan))
}

func fmtDur(sec int64) string {
	return fmt.Sprintf("%.1fh", float64(sec)/3600)
}

// Figure5Cell is one heatmap bin: classification failures by scan time and
// target-list size.
type Figure5Cell struct {
	ScanHoursLo int // bin lower bound in hours (2-hour bins up to 24)
	EBLo        int // |E(b)| bin lower bound (40-address bins)
	Failures    int
}

// Figure5Result is the failure heatmap of reconstruction vs truth.
type Figure5Result struct {
	Cells         []Figure5Cell
	TotalFailures int
	// CornerShare is the fraction of failures with scan time >= 6 h or
	// |E(b)| >= 120 — the paper's "problems occur in full blocks with
	// longer scan time".
	CornerShare float64
}

// Figure5 bins change-sensitivity failures (truth says sensitive,
// reconstruction disagrees) by observed scan time and |E(b)|.
func Figure5(opts Options) (*Figure5Result, error) {
	nBlocks := opts.blocks(300)
	it89, err := dataset.FindSpec("2020it89-w")
	if err != nil {
		return nil, err
	}
	world, err := dataset.BuildWorld(dataset.WorldOpts{
		Blocks:   nBlocks,
		Seed:     opts.seed() + 5,
		Calendar: events.Year2020(),
		Start:    it89.Start,
		End:      it89.End(),
	})
	if err != nil {
		return nil, err
	}
	cfg := blockclass.Default()
	// Single-observer reconstruction: the paper's Figure 5 exists to show
	// which blocks are under-observed without additional probing, and our
	// staggered multi-observer prober reconstructs even dense blocks too
	// well to show any failures.
	eng := &probe.Engine{Observers: probe.StandardObservers(1), QuarterSeed: opts.seed()}
	type sample struct {
		fail      bool
		scanHours float64
		eb        int
	}
	samples := make([]sample, len(world))
	parallelEach(len(world), func(i int) {
		b := world[i].Block
		eb := b.EverActive()
		if len(eb) == 0 {
			return
		}
		truthRes, err := blockclass.Classify(surveySeries(b, it89.Start, it89.End()), it89.Start, it89.End(), cfg)
		if err != nil || !truthRes.ChangeSensitive {
			return
		}
		perObs, err := eng.Collect(b, it89.Start, it89.End())
		if err != nil {
			return
		}
		med := medianScan(ScanTimes(perObs, eb), it89.End()-it89.Start)
		recRes, err := classifyBlock(perObs, eb, it89.Start, it89.End(), false, cfg)
		if err != nil {
			return
		}
		samples[i] = sample{fail: !recRes.ChangeSensitive, scanHours: float64(med) / 3600, eb: len(eb)}
	})
	res := &Figure5Result{}
	bins := map[[2]int]int{}
	corner := 0
	for _, s := range samples {
		if !s.fail {
			continue
		}
		res.TotalFailures++
		sh := int(s.scanHours/2) * 2
		if sh > 22 {
			sh = 22
		}
		eb := s.eb / 40 * 40
		bins[[2]int{sh, eb}]++
		if s.scanHours >= 6 || s.eb >= 120 {
			corner++
		}
	}
	for _, k := range sortedKeys(bins, func(a, b [2]int) bool {
		if a[0] != b[0] {
			return a[0] < b[0]
		}
		return a[1] < b[1]
	}) {
		res.Cells = append(res.Cells, Figure5Cell{ScanHoursLo: k[0], EBLo: k[1], Failures: bins[k]})
	}
	if res.TotalFailures > 0 {
		res.CornerShare = float64(corner) / float64(res.TotalFailures)
	}
	return res, nil
}

// String renders the failure heatmap.
func (r *Figure5Result) String() string {
	t := &table{header: []string{"scan time (h)", "|E(b)| bin", "failures"}}
	for _, c := range r.Cells {
		t.add(fmt.Sprintf("%d-%d", c.ScanHoursLo, c.ScanHoursLo+2), fmt.Sprintf("%d-%d", c.EBLo, c.EBLo+40), itoa(c.Failures))
	}
	return fmt.Sprintf("Figure 5 — change-sensitivity failures vs scan time × |E(b)| (%d failures, %.0f%% with scan >= 6h or |E(b)| >= 120)\n%s",
		r.TotalFailures, 100*r.CornerShare, t)
}

// FBSModelResult reproduces §3.2.3: a logistic model predicting which
// blocks take more than six hours to fully scan.
type FBSModelResult struct {
	TrainBlocks       int
	SlowBlocks        int
	FalseNegativeRate float64 // paper: 0.5%
	Accuracy          float64
	SelectedForExtra  int // blocks the model selects for additional probing
}

// FBSModel trains the full-block-scan time predictor on (|E(b)|,
// availability) features.
func FBSModel(opts Options) (*FBSModelResult, error) {
	nBlocks := opts.blocks(500)
	start := netsim.Date(2020, time.January, 6)
	end := start + 4*netsim.SecondsPerDay
	world, err := dataset.BuildWorld(dataset.WorldOpts{
		Blocks: nBlocks,
		Seed:   opts.seed() + 7,
		Start:  start,
		End:    end,
	})
	if err != nil {
		return nil, err
	}
	eng := &probe.Engine{Observers: probe.StandardObservers(4), QuarterSeed: opts.seed()}
	type row struct {
		feats []float64
		slow  bool
		ok    bool
	}
	rows := make([]row, len(world))
	parallelEach(len(world), func(i int) {
		b := world[i].Block
		eb := b.EverActive()
		// The paper discards blocks with |E(b)| < 32 and A < 0.05 as
		// trivially fast.
		if len(eb) < 32 {
			return
		}
		perObs, err := eng.Collect(b, start, end)
		if err != nil {
			return
		}
		avail := meanReplyRate(perObs, false)
		if avail < 0.05 {
			return
		}
		med := medianScan(ScanTimes(perObs, eb), end-start)
		rows[i] = row{feats: []float64{float64(len(eb)), avail}, slow: med > 6*3600, ok: true}
	})
	var x [][]float64
	var y []bool
	for _, r := range rows {
		if r.ok {
			x = append(x, r.feats)
			y = append(y, r.slow)
		}
	}
	if len(x) < 10 {
		return nil, fmt.Errorf("experiments: only %d usable FBS training blocks", len(x))
	}
	model, err := stats.TrainLogistic(x, y, stats.LogisticTrainOpts{Iterations: 2000})
	if err != nil {
		return nil, err
	}
	var conf stats.Confusion
	selected := 0
	for i := range x {
		pred := model.Predict(x[i])
		conf.Add(pred, y[i])
		if pred {
			selected++
		}
	}
	res := &FBSModelResult{
		TrainBlocks:       len(x),
		FalseNegativeRate: conf.FalseNegativeRate(),
		Accuracy:          float64(conf.TP+conf.TN) / float64(len(x)),
		SelectedForExtra:  selected,
	}
	for _, v := range y {
		if v {
			res.SlowBlocks++
		}
	}
	return res, nil
}

// String summarizes the FBS model quality.
func (r *FBSModelResult) String() string {
	return fmt.Sprintf(
		"FBS model (§3.2.3) — logistic regression on (|E(b)|, availability)\n"+
			"  %d training blocks, %d slow (> 6 h); accuracy %.1f%%, false-negative rate %.1f%% (paper: 0.5%%)\n"+
			"  %d blocks selected for additional probing\n",
		r.TrainBlocks, r.SlowBlocks, 100*r.Accuracy, 100*r.FalseNegativeRate, r.SelectedForExtra)
}

// ExtraProbingResult is the end-to-end §2.8 study: identify under-observed
// blocks with the FBS model, deploy the additional-observation prober for
// them, and count how many change-sensitive classifications it recovers.
type ExtraProbingResult struct {
	Blocks int
	// TruthSensitive is the survey-truth change-sensitive count among the
	// studied blocks; BaseRecovered and ExtraRecovered are how many a
	// single standard observer finds without and with the designed
	// additional observer.
	TruthSensitive, BaseRecovered, ExtraRecovered int
	// Selected is how many blocks the FBS model flagged for additional
	// probing.
	Selected int
	// MedianScanBase and MedianScanExtra are median full-block-scan times
	// (hours) over the selected blocks.
	MedianScanBase, MedianScanExtra float64
}

// ExtraProbing reproduces §2.8/§3.2.3 end to end on dense blocks.
func ExtraProbing(opts Options) (*ExtraProbingResult, error) {
	nBlocks := opts.blocks(250)
	start := netsim.Date(2020, time.January, 1)
	end := start + 28*netsim.SecondsPerDay
	world, err := dataset.BuildWorld(dataset.WorldOpts{
		Blocks: nBlocks, Seed: opts.seed() + 91,
		Start: start, End: end, OutageProb: -1, RenumberProb: -1,
	})
	if err != nil {
		return nil, err
	}
	res := &ExtraProbingResult{Blocks: len(world)}
	cfg := blockclass.Default()
	base := &probe.Engine{Observers: probe.StandardObservers(1), QuarterSeed: opts.seed()}
	extraObs := probe.StandardObservers(2)
	extraObs[1].Name = "x"
	extraObs[1].Extra = 4
	extra := &probe.Engine{Observers: extraObs, QuarterSeed: opts.seed()}

	type outcome struct {
		truth, baseCS, extraCS bool
		selected               bool
		scanBase, scanExtra    float64
	}
	outcomes := make([]outcome, len(world))
	parallelEach(len(world), func(i int) {
		b := world[i].Block
		eb := b.EverActive()
		if len(eb) == 0 {
			return
		}
		truthRes, err := blockclass.Classify(surveySeries(b, start, end), start, end, cfg)
		if err != nil || !truthRes.ChangeSensitive {
			return
		}
		o := &outcomes[i]
		o.truth = true
		measure := func(eng *probe.Engine) (bool, float64) {
			perObs, err := eng.Collect(b, start, end)
			if err != nil {
				return false, 0
			}
			scans := ScanTimes(perObs, eb)
			r, err := classifyBlock(perObs, eb, start, end, false, cfg)
			if err != nil {
				return false, 0
			}
			med := float64(end-start) / 3600
			if len(scans) > 0 {
				vals := make([]float64, len(scans))
				for j, s := range scans {
					vals[j] = float64(s) / 3600
				}
				med = stats.Median(vals)
			}
			return r.ChangeSensitive, med
		}
		o.baseCS, o.scanBase = measure(base)
		// The paper's selection rule: blocks with |E(b)| >= 32 and an
		// expected scan beyond 6 hours get the designed observer.
		o.selected = len(eb) >= 32 && o.scanBase > 6
		if o.selected {
			o.extraCS, o.scanExtra = measure(extra)
		} else {
			o.extraCS, o.scanExtra = o.baseCS, o.scanBase
		}
	})
	var scanB, scanX []float64
	for _, o := range outcomes {
		if !o.truth {
			continue
		}
		res.TruthSensitive++
		if o.baseCS {
			res.BaseRecovered++
		}
		if o.extraCS {
			res.ExtraRecovered++
		}
		if o.selected {
			res.Selected++
			scanB = append(scanB, o.scanBase)
			scanX = append(scanX, o.scanExtra)
		}
	}
	if len(scanB) > 0 {
		res.MedianScanBase = stats.Median(scanB)
		res.MedianScanExtra = stats.Median(scanX)
	}
	return res, nil
}

// String summarizes the additional-probing gain.
func (r *ExtraProbingResult) String() string {
	return fmt.Sprintf(
		"§2.8 — additional observations for under-probed blocks\n"+
			"  %d truth change-sensitive blocks; 1 standard observer recovers %d; with the designed\n"+
			"  extra-probe observer on the %d FBS-selected blocks, recovery rises to %d\n"+
			"  median scan over selected blocks: %.1f h -> %.1f h (paper guarantees <= 6 h)\n",
		r.TruthSensitive, r.BaseRecovered, r.Selected, r.ExtraRecovered,
		r.MedianScanBase, r.MedianScanExtra)
}

// ObserverHealthResult reproduces §2.7's observer cross-check: the
// procedure that identified the 2020 hardware problems at sites c and g
// and removed them from analysis.
type ObserverHealthResult struct {
	Sites    []string
	Rates    []float64
	Suspects []string
	// CSWithBroken / CSWithoutBroken / CSTruthful compare change-sensitive
	// counts using all five sites, the four healthy sites, and the survey
	// ground truth.
	CSWithBroken, CSWithoutBroken, CSTruth int
}

// ObserverHealth probes a world with sites e, j, n, w plus the broken
// site c, flags the outlier, and shows that excluding it restores
// classification fidelity.
func ObserverHealth(opts Options) (*ObserverHealthResult, error) {
	nBlocks := opts.blocks(200)
	start := netsim.Date(2020, time.January, 1)
	end := start + 28*netsim.SecondsPerDay
	world, err := dataset.BuildWorld(dataset.WorldOpts{
		Blocks: nBlocks, Seed: opts.seed() + 97,
		Start: start, End: end, OutageProb: -1, RenumberProb: -1,
	})
	if err != nil {
		return nil, err
	}
	sites := []string{"e", "j", "n", "w", "c"}
	eng := &probe.Engine{QuarterSeed: opts.seed()}
	for _, site := range sites {
		o, err := dataset.ObserverFor(site, nil)
		if err != nil {
			return nil, err
		}
		o.Extra = 2 // sample beyond the first positive so rates are comparable
		eng.Observers = append(eng.Observers, o)
	}
	res := &ObserverHealthResult{Sites: sites}
	cfg := blockclass.Default()
	health := reconstruct.NewObserverHealth(len(sites))
	type out struct{ truth, withBroken, without bool }
	outs := make([]out, len(world))
	var mu sync.Mutex
	parallelEach(len(world), func(i int) {
		b := world[i].Block
		eb := b.EverActive()
		if len(eb) == 0 {
			return
		}
		perObs, err := eng.Collect(b, start, end)
		if err != nil {
			return
		}
		mu.Lock()
		health.Add(perObs)
		mu.Unlock()
		truthRes, err := blockclass.Classify(surveySeries(b, start, end), start, end, cfg)
		if err != nil {
			return
		}
		outs[i].truth = truthRes.ChangeSensitive
		classify := func(streams [][]probe.Record) bool {
			copies := make([][]probe.Record, len(streams))
			for j := range streams {
				copies[j] = append([]probe.Record(nil), streams[j]...)
			}
			r, err := classifyBlock(copies, eb, start, end, true, cfg)
			return err == nil && r.ChangeSensitive
		}
		outs[i].withBroken = classify(perObs)
		outs[i].without = classify(perObs[:4])
	})
	res.Rates = health.Rates()
	for _, oi := range health.Suspect(0.1) {
		res.Suspects = append(res.Suspects, sites[oi])
	}
	for _, o := range outs {
		if o.truth {
			res.CSTruth++
		}
		if o.withBroken {
			res.CSWithBroken++
		}
		if o.without {
			res.CSWithoutBroken++
		}
	}
	return res, nil
}

// String renders the cross-check.
func (r *ObserverHealthResult) String() string {
	t := &table{header: []string{"site", "reply rate"}}
	for i, s := range r.Sites {
		t.add(s, fmt.Sprintf("%.3f", r.Rates[i]))
	}
	return fmt.Sprintf(
		"§2.7 — observer cross-check (paper: sites c and g discarded in 2020 after hardware problems)\n%s"+
			"suspect sites: %v\n"+
			"change-sensitive blocks: truth %d; with broken site %d; healthy sites only %d\n",
		t, r.Suspects, r.CSTruth, r.CSWithBroken, r.CSWithoutBroken)
}

// ProfileSeparationResult measures the §2.6 future-work extension: using
// the seasonal component's weekday/weekend balance to tell workplace
// blocks from home blocks.
type ProfileSeparationResult struct {
	WorkplaceBlocks, HomeBlocks     int
	WorkplaceCorrect, HomeCorrect   int
	WorkplaceAccuracy, HomeAccuracy float64
}

// ProfileSeparation classifies the change-sensitive blocks of a quiet
// world and scores the profile against the archetype ground truth.
func ProfileSeparation(opts Options) (*ProfileSeparationResult, error) {
	nBlocks := opts.blocks(300)
	start := netsim.Date(2020, time.January, 1)
	end := start + 56*netsim.SecondsPerDay
	world, err := dataset.BuildWorld(dataset.WorldOpts{
		Blocks: nBlocks, Seed: opts.seed() + 101,
		Start: start, End: end, OutageProb: -1, RenumberProb: -1,
	})
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig(start, end)
	cfg.BaselineStart, cfg.BaselineEnd = start, start+28*netsim.SecondsPerDay
	eng := &probe.Engine{Observers: probe.StandardObservers(4), QuarterSeed: opts.seed()}
	res := &ProfileSeparationResult{}
	type out struct {
		arch    geo.Archetype
		profile core.ProfileKind
		cs      bool
	}
	outs := make([]out, len(world))
	parallelEach(len(world), func(i int) {
		wb := world[i]
		arch := wb.Place.Archetype
		if arch != geo.Workplace && arch != geo.HomePublic {
			return
		}
		a, err := cfg.AnalyzeBlock(eng, wb.Block)
		if err != nil || !a.Class.ChangeSensitive {
			return
		}
		outs[i] = out{arch: arch, profile: a.Profile(), cs: true}
	})
	for _, o := range outs {
		if !o.cs {
			continue
		}
		switch o.arch {
		case geo.Workplace:
			res.WorkplaceBlocks++
			if o.profile == core.ProfileWorkplace {
				res.WorkplaceCorrect++
			}
		case geo.HomePublic:
			res.HomeBlocks++
			if o.profile == core.ProfileHome {
				res.HomeCorrect++
			}
		}
	}
	if res.WorkplaceBlocks > 0 {
		res.WorkplaceAccuracy = float64(res.WorkplaceCorrect) / float64(res.WorkplaceBlocks)
	}
	if res.HomeBlocks > 0 {
		res.HomeAccuracy = float64(res.HomeCorrect) / float64(res.HomeBlocks)
	}
	return res, nil
}

// String renders the separation accuracy.
func (r *ProfileSeparationResult) String() string {
	return fmt.Sprintf(
		"§2.6 future work — workplace vs home profiling from the seasonal component\n"+
			"  workplace blocks: %d of %d correct (%.0f%%)\n"+
			"  home blocks:      %d of %d correct (%.0f%%)\n",
		r.WorkplaceCorrect, r.WorkplaceBlocks, 100*r.WorkplaceAccuracy,
		r.HomeCorrect, r.HomeBlocks, 100*r.HomeAccuracy)
}
