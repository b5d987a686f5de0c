package experiments

import (
	"fmt"
	"math"
	"time"

	"github.com/diurnalnet/diurnal/internal/blockclass"
	"github.com/diurnalnet/diurnal/internal/changepoint"
	"github.com/diurnalnet/diurnal/internal/core"
	"github.com/diurnalnet/diurnal/internal/dataset"
	"github.com/diurnalnet/diurnal/internal/events"
	"github.com/diurnalnet/diurnal/internal/netsim"
	"github.com/diurnalnet/diurnal/internal/probe"
	"github.com/diurnalnet/diurnal/internal/stl"
)

// AblationSTLResult compares STL against the naive seasonal model under
// outlier injection — the design decision of §2.5 ("we adopted the STL for
// our work after comparing the two and finding it more robust to
// outliers").
type AblationSTLResult struct {
	Blocks int
	// TrendRMSE of each model against the outlier-free trend.
	STLRMSE, NaiveRMSE float64
	// SpuriousSTL/SpuriousNaive count CUSUM changes triggered on quiet
	// blocks after outlier injection.
	SpuriousSTL, SpuriousNaive int
}

// AblationSTLvsNaive injects probe-level spikes into quiet diurnal blocks
// and measures how each decomposition's trend degrades.
func AblationSTLvsNaive(opts Options) (*AblationSTLResult, error) {
	nBlocks := opts.blocks(30)
	start := netsim.Date(2020, time.January, 1)
	end := netsim.Date(2020, time.February, 26) // 8 weeks
	period := 7 * 24
	res := &AblationSTLResult{Blocks: nBlocks}
	var stlSE, naiveSE float64
	var samples int
	eng := &probe.Engine{Observers: probe.StandardObservers(4), QuarterSeed: opts.seed()}
	for i := 0; i < nBlocks; i++ {
		b, err := netsim.NewBlock(netsim.BlockID(i+1), opts.seed()+uint64(i)*31, netsim.Spec{
			Workers: 60 + i%40, AlwaysOn: 5,
		})
		if err != nil {
			return nil, err
		}
		perObs, err := eng.Collect(b, start, end)
		if err != nil {
			return nil, err
		}
		series, err := reconstructBlock(perObs, b.EverActive(), start, end, false)
		if err != nil {
			return nil, err
		}
		clean := series.Resample(start, end, 3600)
		if len(clean) < 2*period {
			continue
		}
		// Inject outliers: isolated hour-long spikes (counting glitches,
		// scan bursts) on ~1% of samples.
		dirty := append([]float64(nil), clean...)
		for j := range dirty {
			if netsim.HashUnit(opts.seed(), uint64(i), uint64(j), 0xab1) < 0.01 {
				dirty[j] += 60
			}
		}
		stlOpts := stl.DefaultOpts(period)
		stlOpts.Outer = 2
		stlOpts.Periodic = true
		stlOpts.Trend = period + 25
		cleanDec, err := stl.Decompose(clean, stlOpts)
		if err != nil {
			return nil, err
		}
		dirtyDec, err := stl.Decompose(dirty, stlOpts)
		if err != nil {
			return nil, err
		}
		naiveDec, err := stl.NaiveDecompose(dirty, period)
		if err != nil {
			return nil, err
		}
		for j := period; j < len(clean)-period; j++ {
			ds := dirtyDec.Trend[j] - cleanDec.Trend[j]
			dn := naiveDec.Trend[j] - cleanDec.Trend[j]
			stlSE += ds * ds
			naiveSE += dn * dn
			samples++
		}
		cusum := changepoint.Opts{Threshold: 1, Drift: 0.004}
		cs, err := changepoint.Detect(changepoint.Normalize(dirtyDec.Trend), cusum)
		if err != nil {
			return nil, err
		}
		cn, err := changepoint.Detect(changepoint.Normalize(naiveDec.Trend), cusum)
		if err != nil {
			return nil, err
		}
		res.SpuriousSTL += len(cs)
		res.SpuriousNaive += len(cn)
	}
	if samples > 0 {
		res.STLRMSE = math.Sqrt(stlSE / float64(samples))
		res.NaiveRMSE = math.Sqrt(naiveSE / float64(samples))
	}
	return res, nil
}

// String renders the robustness comparison.
func (r *AblationSTLResult) String() string {
	return fmt.Sprintf(
		"Ablation §2.5 — STL vs naive decomposition under outlier injection (%d blocks)\n"+
			"  trend RMSE vs clean: STL %.3f, naive %.3f\n"+
			"  spurious CUSUM changes on quiet blocks: STL %d, naive %d\n"+
			"  (the paper adopts STL as \"more robust to outliers\")\n",
		r.Blocks, r.STLRMSE, r.NaiveRMSE, r.SpuriousSTL, r.SpuriousNaive)
}

// AblationSwingResult sweeps the wide-swing threshold s (the paper picks 5).
type AblationSwingResult struct {
	Thresholds []float64
	// Sensitive is the change-sensitive count at each threshold;
	// DiurnalKept is the fraction of diurnal blocks surviving the swing
	// filter (paper: "around 95% of blocks meet or exceed" s=5).
	Sensitive   []int
	DiurnalKept []float64
}

// AblationSwing classifies a world once per threshold value.
func AblationSwing(opts Options) (*AblationSwingResult, error) {
	nBlocks := opts.blocks(400)
	start := netsim.Date(2020, time.January, 1)
	end := netsim.Date(2020, time.January, 29)
	world, err := dataset.BuildWorld(dataset.WorldOpts{
		Blocks: nBlocks, Seed: opts.seed() + 31, Start: start, End: end,
	})
	if err != nil {
		return nil, err
	}
	eng := &probe.Engine{Observers: probe.StandardObservers(4), QuarterSeed: opts.seed()}
	res := &AblationSwingResult{}
	for _, s := range []float64{1, 2, 3, 5, 8, 12, 20} {
		cfg := blockclass.Default()
		cfg.SwingThreshold = s
		cls := classifyWorld(world, eng, start, end, cfg)
		c := tally(cls)
		res.Thresholds = append(res.Thresholds, s)
		res.Sensitive = append(res.Sensitive, c.ChangeSensitive)
		if c.Diurnal > 0 {
			res.DiurnalKept = append(res.DiurnalKept, float64(c.ChangeSensitive)/float64(c.Diurnal))
		} else {
			res.DiurnalKept = append(res.DiurnalKept, 0)
		}
	}
	return res, nil
}

// String renders the sweep.
func (r *AblationSwingResult) String() string {
	t := &table{header: []string{"swing threshold s", "change-sensitive", "fraction of diurnal kept"}}
	for i, s := range r.Thresholds {
		t.add(fmt.Sprintf("%.0f", s), itoa(r.Sensitive[i]), fmt.Sprintf("%.0f%%", 100*r.DiurnalKept[i]))
	}
	return fmt.Sprintf("Ablation §2.4 — wide-swing threshold sweep (paper picks s=5; ~95%% of diurnal blocks meet it)\n%s", t)
}

// AblationRepairResult sweeps link loss with 1-loss repair on and off.
type AblationRepairResult struct {
	LossRates []float64
	// RateErrWith/RateErrWithout are the absolute reply-rate errors of the
	// lossy observer vs truth; SensWith/SensWithout report whether the
	// diurnal block still classifies change-sensitive.
	RateErrWith, RateErrWithout []float64
	SensWith, SensWithout       []bool
}

// AblationLossRepair probes a diurnal block through an increasingly lossy
// link and measures what 1-loss repair recovers.
func AblationLossRepair(opts Options) (*AblationRepairResult, error) {
	start := netsim.Date(2020, time.January, 1)
	end := netsim.Date(2020, time.January, 29)
	res := &AblationRepairResult{}
	for _, loss := range []float64{0, 0.05, 0.1, 0.2, 0.3} {
		b, err := netsim.NewBlock(0xab3, opts.seed()+51, netsim.Spec{
			Workers: 60, AlwaysOn: 60, TZOffset: 8 * 3600,
		})
		if err != nil {
			return nil, err
		}
		obs := probe.StandardObservers(4)
		for i := range obs {
			obs[i].Extra = 2
		}
		obs[0].Loss = &probe.LossModel{Base: loss}
		eng := &probe.Engine{Observers: obs, QuarterSeed: opts.seed()}
		perObs, err := eng.Collect(b, start, end)
		if err != nil {
			return nil, err
		}
		// True reply rate of the lossless equivalent stream.
		truthRate := meanReplyRate(perObs[1:2], false)
		measure := func(repair bool) (float64, bool) {
			cls, err := classifyBlock(perObs, b.EverActive(), start, end, repair, blockclass.Default())
			if err != nil {
				return 0, false
			}
			return math.Abs(meanReplyRate(perObs[:1], repair) - truthRate), cls.ChangeSensitive
		}
		errWithout, sensWithout := measure(false)
		errWith, sensWith := measure(true)
		res.LossRates = append(res.LossRates, loss)
		res.RateErrWithout = append(res.RateErrWithout, errWithout)
		res.RateErrWith = append(res.RateErrWith, errWith)
		res.SensWithout = append(res.SensWithout, sensWithout)
		res.SensWith = append(res.SensWith, sensWith)
	}
	return res, nil
}

// String renders the loss sweep.
func (r *AblationRepairResult) String() string {
	t := &table{header: []string{"loss rate", "rate err w/o repair", "rate err w/ repair", "CS w/o", "CS w/"}}
	for i, l := range r.LossRates {
		t.add(fmt.Sprintf("%.0f%%", 100*l),
			fmt.Sprintf("%.3f", r.RateErrWithout[i]), fmt.Sprintf("%.3f", r.RateErrWith[i]),
			fmt.Sprintf("%v", r.SensWithout[i]), fmt.Sprintf("%v", r.SensWith[i]))
	}
	return fmt.Sprintf("Ablation §3.3 — 1-loss repair under link-loss sweep\n%s", t)
}

// AblationPersistenceResult sweeps the MinSwingDays-of-7 persistence rule.
type AblationPersistenceResult struct {
	MinDays []int
	// Sensitive counts change-sensitive blocks; WeekendOnly counts blocks
	// that are only active on weekends yet still classify — the failure
	// mode the 4-of-7 rule must avoid while tolerating 3-day weekends.
	Sensitive   []int
	WeekendOnly []int
}

// AblationPersistence classifies a world with weekend-only decoys under
// each persistence rule.
func AblationPersistence(opts Options) (*AblationPersistenceResult, error) {
	nBlocks := opts.blocks(200)
	start := netsim.Date(2020, time.January, 1)
	end := netsim.Date(2020, time.January, 29)
	world, err := dataset.BuildWorld(dataset.WorldOpts{
		Blocks: nBlocks, Seed: opts.seed() + 61, Start: start, End: end,
	})
	if err != nil {
		return nil, err
	}
	// Weekend-only decoys: homes that are off during the week (weekend
	// recreation networks).
	nDecoys := nBlocks / 10
	var decoys []*netsim.Block
	for i := 0; i < nDecoys; i++ {
		b, err := netsim.NewBlock(netsim.BlockID(0xdec0+i), opts.seed()+uint64(i)*7+71, netsim.Spec{
			Homes: 40, HomeProb: 0.9,
			// Weekend-only behaviour is approximated by a tiny weekday
			// presence via dormancy of the home population... instead we
			// rely on classification over weekend swings below.
		})
		if err != nil {
			return nil, err
		}
		decoys = append(decoys, b)
		_ = b
	}
	eng := &probe.Engine{Observers: probe.StandardObservers(4), QuarterSeed: opts.seed()}
	res := &AblationPersistenceResult{}
	for _, minDays := range []int{1, 2, 3, 4, 5, 6, 7} {
		cfg := blockclass.Default()
		cfg.MinSwingDays = minDays
		cls := classifyWorld(world, eng, start, end, cfg)
		c := tally(cls)
		weekendOnly := 0
		for _, d := range decoys {
			perObs, err := eng.Collect(d, start, end)
			if err != nil {
				continue
			}
			series, err := reconstructBlock(perObs, d.EverActive(), start, end, true)
			if err != nil {
				continue
			}
			// Suppress the weekday evenings to make a pure weekend block.
			for i, tm := range series.Times {
				if !netsim.IsWeekend(tm) {
					series.Counts[i] = math.Min(series.Counts[i], 2)
				}
			}
			r, err := blockclass.Classify(series, start, end, cfg)
			if err == nil && r.ChangeSensitive {
				weekendOnly++
			}
		}
		res.MinDays = append(res.MinDays, minDays)
		res.Sensitive = append(res.Sensitive, c.ChangeSensitive)
		res.WeekendOnly = append(res.WeekendOnly, weekendOnly)
	}
	return res, nil
}

// String renders the persistence sweep.
func (r *AblationPersistenceResult) String() string {
	t := &table{header: []string{"min wide days of 7", "change-sensitive", "weekend-only decoys admitted"}}
	for i, m := range r.MinDays {
		t.add(itoa(m), itoa(r.Sensitive[i]), itoa(r.WeekendOnly[i]))
	}
	return fmt.Sprintf("Ablation §2.4 — persistence rule sweep (paper picks 4 of 7: tolerates 3-day weekends, rejects weekend-only noise)\n%s", t)
}

// AblationOutageFilterResult compares the two outage-discarding mechanisms
// of §2.6: timing-based down/up pairing and belief-based outage masking
// (comparing changes "with outage detections").
type AblationOutageFilterResult struct {
	Blocks int
	// LeakNone/LeakPair/LeakBoth count blocks where a multi-day outage
	// survives as a spurious change with no filtering, with the pair
	// filter only, and with pair filter + belief masking.
	LeakNone, LeakPair, LeakBoth int
	// WFHKept counts blocks whose genuine WFH change survives the full
	// filtering stack (it must not be collateral damage).
	WFHBlocks, WFHKept int
}

// AblationOutageFilter injects 1.5–3.5 day outages into workplace blocks
// and measures which filter catches them.
func AblationOutageFilter(opts Options) (*AblationOutageFilterResult, error) {
	start, end := q1Window()
	nBlocks := opts.blocks(25)
	res := &AblationOutageFilterResult{Blocks: nBlocks}
	eng := &probe.Engine{Observers: probe.StandardObservers(4), QuarterSeed: opts.seed()}
	analyze := func(b *netsim.Block, pair, mask bool) ([]core.Change, error) {
		cfg := core.DefaultConfig(start, end)
		cfg.BaselineStart, cfg.BaselineEnd = start, start+28*netsim.SecondsPerDay
		if !pair {
			cfg.OutageGapDays = -1
		}
		if !mask {
			cfg.OutageMaskMinHours = -1
		}
		a, err := cfg.AnalyzeBlock(eng, b)
		if err != nil {
			return nil, err
		}
		return a.DownChanges(), nil
	}
	for i := 0; i < nBlocks; i++ {
		seed := opts.seed() + uint64(i)*17 + 301
		b, err := netsim.NewBlock(netsim.BlockID(0xab5000+i), seed, netsim.Spec{
			Workers: 50 + i%50, AlwaysOn: 4 + i%6,
		})
		if err != nil {
			return nil, err
		}
		oStart := start + (20+int64(i)%40)*netsim.SecondsPerDay + 5*3600
		oDur := (36 + int64(i)%48) * 3600 // 1.5 to 3.5 days
		b.AddEvent(netsim.Event{Kind: netsim.EventOutage, Start: oStart, End: oStart + oDur})
		leaked := func(changes []core.Change) bool {
			for _, c := range changes {
				if events.MatchWithin(c.Point, oStart, 4) {
					return true
				}
			}
			return false
		}
		none, err := analyze(b, false, false)
		if err != nil {
			return nil, err
		}
		pairOnly, err := analyze(b, true, false)
		if err != nil {
			return nil, err
		}
		both, err := analyze(b, true, true)
		if err != nil {
			return nil, err
		}
		if leaked(none) {
			res.LeakNone++
		}
		if leaked(pairOnly) {
			res.LeakPair++
		}
		if leaked(both) {
			res.LeakBoth++
		}
	}
	// Control: genuine WFH changes must survive the full stack.
	wfhDate := start + 52*netsim.SecondsPerDay
	for i := 0; i < nBlocks/2; i++ {
		seed := opts.seed() + uint64(i)*13 + 601
		b, err := netsim.NewBlock(netsim.BlockID(0xab6000+i), seed, netsim.Spec{
			Workers: 60 + i%40, AlwaysOn: 4,
		})
		if err != nil {
			return nil, err
		}
		b.AddEvent(netsim.Event{Kind: netsim.EventWFH, Start: wfhDate, Adoption: 0.85})
		res.WFHBlocks++
		changes, err := analyze(b, true, true)
		if err != nil {
			return nil, err
		}
		for _, c := range changes {
			if events.MatchWithin(c.Point, wfhDate, events.MatchWindowDays) {
				res.WFHKept++
				break
			}
		}
	}
	return res, nil
}

// String renders the filter comparison.
func (r *AblationOutageFilterResult) String() string {
	return fmt.Sprintf(
		"Ablation §2.6 — outage filtering mechanisms (%d outage blocks, 1.5–3.5 day outages)\n"+
			"  spurious outage changes surviving: no filter %d, pair filter %d, pair+belief mask %d\n"+
			"  genuine WFH changes kept under full filtering: %d of %d\n",
		r.Blocks, r.LeakNone, r.LeakPair, r.LeakBoth, r.WFHKept, r.WFHBlocks)
}
